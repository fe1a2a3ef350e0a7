// Sample statistics and the serving ladder rules of the benchmark.
//
// Percentile convention: server::exact_quantile_ms, the value at sorted
// index min(n-1, floor(q*n)), so the benchmark's numbers line up with
// bench_server's. A percentile is reported only when at least kTailSamples
// samples lie beyond it; phases are sized so p99 has them (n >= 1100).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailSamples = 10;

/// Value at quantile q by server::exact_quantile_ms, in the values' own
/// unit (0 when empty).
double quantile(std::vector<double> values, double q);

/// Middle value, or the mean of the two middle values of an even count:
/// the median of per-phase figures, not a latency percentile.
double median(std::vector<double> values);

/// Samples strictly above the index that reports quantile q.
std::size_t samples_beyond(std::size_t n, double q);

/// True when quantile q of n samples has at least kTailSamples beyond it.
bool supports_quantile(std::size_t n, double q);

/// One rung of an open-loop rate ladder, as the load generator saw it.
struct Rung {
  double rate = 0.0;              ///< offered requests per second
  long long sent = 0;
  long long failed = 0;           ///< error, busy, transport or mismatch
  /// Latencies from each request's due time, in send order (ms).
  std::vector<double> latency_ms;
  double late_p99_ms = 0.0;       ///< generator send lateness
};

struct RungVerdict {
  bool passed = false;
  bool backlog = false;
  /// The generator fell behind: the rung measured the generator, not the
  /// server, so it neither passes nor fails.
  bool generator_late = false;
  double p99_ms = 0.0;
  std::string reason;  ///< why it did not pass; empty when passed
};

/// A backlog is growing when the requests sent in the last quarter of a
/// rung waited clearly longer than those of the first quarter: their median
/// latency is more than twice the first quarter's plus `slack_ms`. Latency
/// counts from the due time, so a server that falls behind shows up here
/// before the p99 limit is hit.
bool backlog_growing(const std::vector<double>& latency_ms_in_send_order,
                     double slack_ms);

/// A rung passes when its p99 is within `p99_limit_ms` (failed requests
/// count as missing the limit) and no backlog grows. When the generator's
/// late p99 exceeds `generator_late_ms` the rung is inconclusive
/// (`generator_late`): neither a pass nor a server failure.
RungVerdict judge_rung(const Rung& rung, double p99_limit_ms,
                       double generator_late_ms);

/// The highest passing rate below the lowest failing one, in whatever order
/// the rungs ran (climbing, then bisecting); 0 when no rung passed below
/// the first failure. Inconclusive rungs count as neither.
double sustained_rate(const std::vector<Rung>& rungs,
                      const std::vector<RungVerdict>& verdicts);

}  // namespace perfbench
