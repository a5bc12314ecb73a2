#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace sgmbench {

bool ExactPercentile(std::vector<double> samples, double q, double* value,
                     long min_beyond) {
  const long n = static_cast<long>(samples.size());
  if (n == 0) return false;
  long rank = static_cast<long>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp(rank, 1L, n);
  if (n - rank < min_beyond) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *value = samples[static_cast<std::size_t>(rank - 1)];
  return true;
}

double Median(std::vector<double> samples) {
  double value = 0.0;
  ExactPercentile(std::move(samples), 0.5, &value, 0);
  return value;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  items_.emplace_back(name, std::make_pair(value, unit));
}

std::string ResultLine(bool correct, long attempted, long failed,
                       const MetricList& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics.items()) {
    char number[64];
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << entry.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace sgmbench
