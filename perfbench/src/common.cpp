#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i > 0 ? ", " : "") + Json::number(values[i]);
  return out + "]";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Json::quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string Json::number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Json::key(const std::string& name) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(name);
  body_ += ": ";
}

Json& Json::num(const std::string& name, double value) {
  key(name);
  body_ += number(value);
  return *this;
}

Json& Json::integer(const std::string& name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(const std::string& name, const std::string& value) {
  key(name);
  body_ += quote(value);
  return *this;
}

Json& Json::boolean(const std::string& name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& name, const std::string& json_text) {
  key(name);
  body_ += json_text;
  return *this;
}

std::string Json::render() const { return "{" + body_ + "}"; }

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Outcome::mismatch(const std::string& what, std::uint64_t count) {
  if (mismatches < 8) notes.push_back("output check failed: " + what);
  mismatches += count;
  failed += count;
  correct = false;
}

}  // namespace perfbench
