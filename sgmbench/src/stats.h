// Exact order statistics over raw samples, process gauges and the result
// line the benchmark prints.
#ifndef SGMBENCH_STATS_H_
#define SGMBENCH_STATS_H_

#include <string>
#include <utility>
#include <vector>

namespace sgmbench {

/// Nearest-rank percentile of raw samples: the value of rank ceil(q·n) in
/// sorted order. Reported only when at least `min_beyond` samples lie
/// beyond that rank (above it); returns false otherwise, leaving *value
/// untouched. Never interpolates.
bool ExactPercentile(std::vector<double> samples, double q, double* value,
                     long min_beyond = 10);

/// Median of raw samples (nearest-rank, no interpolation); 0 when empty.
double Median(std::vector<double> samples);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// Ordered name → (value, unit) list, printed as the result line's
/// "metrics" object.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}. Values keep all their digits.
std::string ResultLine(bool correct, long attempted, long failed,
                       const MetricList& metrics);

}  // namespace sgmbench

#endif  // SGMBENCH_STATS_H_
