#include "common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace mron {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Flags::has(const std::string& name) const {
  return raw(name).has_value();
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto v = raw(name);
  return v.has_value() && !v->empty() ? *v : fallback;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0') {
    throw FlagError("--" + name + " wants a number, got '" + *v + "'");
  }
  return parsed;
}

int Flags::get(const std::string& name, int fallback) const {
  const auto v = raw(name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  if (v->empty() || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    throw FlagError("--" + name + " wants an integer, got '" + *v + "'");
  }
  return static_cast<int>(parsed);
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v.has_value()) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  throw FlagError("--" + name + " is a switch, got '" + *v + "'");
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (queried_.find(name) == queried_.end()) out.push_back(name);
  }
  return out;
}

void Flags::reject_unknown() const {
  for (const auto& name : unused()) throw FlagError("unknown flag --" + name);
  for (const auto& arg : positional_) {
    throw FlagError("unexpected argument '" + arg + "'");
  }
}

}  // namespace mron
