// Fails fast when this binary was compiled for a vector ISA the running CPU
// does not implement (e.g. an -mavx2 build on a pre-Haswell machine). Every
// SIMD kernel call would then be an illegal instruction mid-test, so ctest
// runs this standalone check under the same `simd` label as the suites that
// depend on it. Also prints the tier the build selected, mirroring the
// configure-time "Revelio SIMD tier:" summary line.

#include <cstdio>

#include "tensor/simd.h"

int main() {
  namespace simd = revelio::tensor::simd;
  std::printf("compiled SIMD tier: %s (%d lanes); every tensor kernel runs this tier\n",
              simd::IsaName(), simd::Lanes());
  if (!simd::CpuSupportsCompiledIsa()) {
    std::fprintf(stderr,
                 "FATAL: this binary was compiled for '%s' but the CPU does not support it; "
                 "rebuild with -DREVELIO_SIMD_ISA=scalar\n",
                 simd::IsaName());
    return 1;
  }
  return 0;
}
