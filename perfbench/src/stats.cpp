#include "stats.hpp"

#include <algorithm>
#include <limits>

#include "server/loadgen.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  // exact_quantile_ms takes seconds and returns milliseconds.
  return memstress::server::exact_quantile_ms(values, q) / 1e3;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto index = static_cast<std::size_t>(q * static_cast<double>(n));
  return n - 1 - std::min(n - 1, index);
}

bool supports_quantile(std::size_t n, double q) {
  return samples_beyond(n, q) >= kTailSamples;
}

bool backlog_growing(const std::vector<double>& latency_ms, double slack_ms) {
  const std::size_t quarter = latency_ms.size() / 4;
  if (quarter == 0) return false;
  const std::vector<double> first(latency_ms.begin(),
                                  latency_ms.begin() + quarter);
  const std::vector<double> last(latency_ms.end() - quarter, latency_ms.end());
  return median(last) > 2.0 * median(first) + slack_ms;
}

RungVerdict judge_rung(const Rung& rung, double p99_limit_ms,
                       double generator_late_ms) {
  RungVerdict v;
  // A failed or refused request misses any latency limit: it enters the
  // percentile as an infinitely slow request.
  std::vector<double> all = rung.latency_ms;
  all.insert(all.end(), static_cast<std::size_t>(std::max(0LL, rung.failed)),
             std::numeric_limits<double>::infinity());
  v.p99_ms = quantile(std::move(all), 0.99);
  v.backlog = backlog_growing(rung.latency_ms, p99_limit_ms / 10.0);
  v.generator_late = rung.late_p99_ms > generator_late_ms;
  if (rung.sent == 0 || rung.latency_ms.empty())
    v.reason = "no requests completed";
  else if (v.generator_late)
    v.reason = "generator fell behind";
  else if (v.p99_ms > p99_limit_ms)
    v.reason = "p99 over the limit";
  else if (v.backlog)
    v.reason = "backlog growing";
  v.passed = v.reason.empty();
  return v;
}

double sustained_rate(const std::vector<Rung>& rungs,
                      const std::vector<RungVerdict>& verdicts) {
  double lowest_fail = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < rungs.size() && i < verdicts.size(); ++i)
    if (!verdicts[i].passed && !verdicts[i].generator_late)
      lowest_fail = std::min(lowest_fail, rungs[i].rate);
  double best = 0.0;
  for (std::size_t i = 0; i < rungs.size() && i < verdicts.size(); ++i)
    if (verdicts[i].passed && rungs[i].rate < lowest_fail)
      best = std::max(best, rungs[i].rate);
  return best;
}

}  // namespace perfbench
