// Small numeric helpers the benchmark reports with.
#pragma once

#include <vector>

namespace insider::perfbench {

/// Median of per-pass samples (mean of the middle two for an even count);
/// 0 for no samples.
double Median(std::vector<double> values);

/// num / den, or 0 when den is 0 (a layer that did no work reports 0, not
/// NaN, so every metric stays a number).
double Ratio(double num, double den);

}  // namespace insider::perfbench
