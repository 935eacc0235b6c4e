#ifndef REVELIO_UTIL_FLAGS_H_
#define REVELIO_UTIL_FLAGS_H_

// Tiny command-line flag parser used by benches and examples.
// Accepts `--name=value`, `--name value`, and boolean `--name` forms.
// Also the one parser for boolean REVELIO_* environment toggles.

#include <map>
#include <string>
#include <vector>

namespace revelio::util {

class Flags {
 public:
  // Parses argv, ignoring argv[0]. Unrecognized positional arguments are
  // collected into positional(). Aborts on malformed flags.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  // Typed getters returning `fallback` when the flag is absent.
  std::string GetString(const std::string& name, const std::string& fallback) const;
  int GetInt(const std::string& name, int fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// Boolean environment toggle: unset or empty returns `fallback`; "0",
// "false" or "off" returns false; any other value returns true.
bool EnvFlag(const char* name, bool fallback);

}  // namespace revelio::util

#endif  // REVELIO_UTIL_FLAGS_H_
