// Minimal command-line flag parser for examples and bench binaries.
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// The typed getters throw std::invalid_argument on a malformed value;
// callers that take user input catch it and exit with a usage error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uesr::util {

class Cli {
 public:
  /// Parses argv.  Every `--name` is kept, whether or not a getter ever
  /// asks for it (unknown flags are silently ignored); positional
  /// arguments are collected in order.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }
  std::string program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace uesr::util
