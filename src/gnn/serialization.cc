#include "gnn/serialization.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace revelio::gnn {
namespace {

constexpr char kMagic[] = "revelio-gnn-v1";

int ArchToInt(GnnArch arch) { return static_cast<int>(arch); }
int TaskToInt(TaskType task) { return static_cast<int>(task); }

// Rejects every config value the GnnModel and GatLayer constructors CHECK,
// so a hostile file yields a Status instead of an abort.
util::Status ValidateConfig(const GnnConfig& config, const std::string& path) {
  if (config.input_dim <= 0 || config.hidden_dim <= 0 || config.num_classes <= 0 ||
      config.num_layers <= 0) {
    return util::Status::InvalidArgument("non-positive dims, classes or layers in " + path);
  }
  if (config.arch == GnnArch::kGat) {
    if (config.num_heads <= 0) {
      return util::Status::InvalidArgument("non-positive GAT head count in " + path);
    }
    // Hidden GAT layers concatenate heads (the last layer averages them).
    if (config.num_layers > 1 && config.hidden_dim % config.num_heads != 0) {
      return util::Status::InvalidArgument("GAT hidden dim not divisible by heads in " + path);
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SaveModel(const GnnModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) return util::Status::Internal("cannot open " + path + " for writing");
  const GnnConfig& config = model.config();
  out << kMagic << "\n";
  out << ArchToInt(config.arch) << " " << TaskToInt(config.task) << " " << config.input_dim
      << " " << config.hidden_dim << " " << config.num_classes << " " << config.num_layers
      << " " << config.num_heads << " " << (config.gcn_normalize ? 1 : 0) << " "
      << config.seed << "\n";
  const auto parameters = model.Parameters();
  out << parameters.size() << "\n";
  char buffer[64];
  for (const auto& parameter : parameters) {
    out << parameter.rows() << " " << parameter.cols();
    for (float v : parameter.values()) {
      std::snprintf(buffer, sizeof(buffer), " %a", static_cast<double>(v));
      out << buffer;
    }
    out << "\n";
  }
  if (!out.good()) return util::Status::Internal("write failed for " + path);
  return util::Status::Ok();
}

util::StatusOr<std::unique_ptr<GnnModel>> LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return util::Status::NotFound("cannot open " + path);
  std::string magic;
  std::getline(in, magic);
  if (magic != kMagic) {
    return util::Status::InvalidArgument("bad header in " + path + ": " + magic);
  }
  GnnConfig config;
  int arch = 0, task = 0, normalize = 1;
  uint64_t seed = 0;
  if (!(in >> arch >> task >> config.input_dim >> config.hidden_dim >> config.num_classes >>
        config.num_layers >> config.num_heads >> normalize >> seed)) {
    return util::Status::InvalidArgument("truncated config in " + path);
  }
  if (arch < 0 || arch > 2 || task < 0 || task > 1) {
    return util::Status::InvalidArgument("invalid arch/task in " + path);
  }
  config.arch = static_cast<GnnArch>(arch);
  config.task = static_cast<TaskType>(task);
  config.gcn_normalize = normalize != 0;
  config.seed = seed;
  if (util::Status valid = ValidateConfig(config, path); !valid.ok()) return valid;

  auto model = std::make_unique<GnnModel>(config);
  auto parameters = model->Parameters();
  size_t count = 0;
  if (!(in >> count) || count != parameters.size()) {
    return util::Status::InvalidArgument("parameter count mismatch in " + path);
  }
  for (auto& parameter : parameters) {
    int rows = 0, cols = 0;
    if (!(in >> rows >> cols) || rows != parameter.rows() || cols != parameter.cols()) {
      return util::Status::InvalidArgument("parameter shape mismatch in " + path);
    }
    std::vector<float>* values = parameter.mutable_values();
    std::string token;
    for (auto& v : *values) {
      // Hex-float tokens ("0x1.8p+1") are not parsed by istream's double
      // extractor; go through strtod.
      if (!(in >> token)) {
        return util::Status::InvalidArgument("truncated parameter data in " + path);
      }
      char* end = nullptr;
      const float parsed = static_cast<float>(std::strtod(token.c_str(), &end));
      if (end == token.c_str() || *end != '\0' || !std::isfinite(parsed)) {
        return util::Status::InvalidArgument("bad float token '" + token + "' in " + path);
      }
      v = parsed;
    }
  }
  return model;
}

}  // namespace revelio::gnn
