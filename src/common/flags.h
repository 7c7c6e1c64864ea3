// Minimal command-line flag parsing for the example/CLI binaries.
//
// Supports `--name=value`, `--name value`, and bare boolean `--name`.
// Unknown flags are collected so callers can reject or report them.
// Typed getters throw FlagError on a value that does not parse completely,
// so a typo never silently falls back to the default.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mron {

/// A malformed or unknown command-line flag; drivers print usage and exit 2.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// Parse argv; non-flag arguments land in positional().
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Numeric getters: the whole value must parse (the int getter takes
  /// integers only), else FlagError. Absent flags return `fallback`.
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;
  /// Bare `--name` or `--name=true/1/yes` -> true, `false/0/no` -> false;
  /// any other value is a FlagError.
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Flags the caller never queried — typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;
  /// FlagError naming the first unqueried flag or positional argument.
  /// Call after every accepted flag has been read.
  void reject_unknown() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace mron
