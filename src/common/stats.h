// Small statistics helpers shared by the experiment harness and benches.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace insider {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// An empty accumulator has no moments: Mean/Min/Max return NaN rather than
/// a fabricated 0.0 that could be mistaken for a measurement. Callers that
/// want a display default must choose one explicitly at the call site.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  std::size_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : Nan(); }
  double Variance() const;  ///< Sample variance (n-1 denominator).
  double Stddev() const;
  double Min() const { return n_ ? min_ : Nan(); }
  double Max() const { return n_ ? max_ : Nan(); }
  double Sum() const { return sum_; }

 private:
  static double Nan() { return std::numeric_limits<double>::quiet_NaN(); }

  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Pearson correlation of two equally sized series; the paper's Fig. 1/2
/// argue feature quality via correlation with ransomware active periods.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace insider
