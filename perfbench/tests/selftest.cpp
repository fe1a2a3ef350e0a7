// The benchmark's own tests: the percentile convention, ladder and backlog
// detection, failure accounting under injected faults, and a tiny-grid
// evaluate_cold smoke. Run from the perfbench directory (ctest does):
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "loadgen.hpp"
#include "server/loadgen.hpp"
#include "server/server.hpp"
#include "stats.hpp"
#include "util/chaos.hpp"

namespace ms = memstress;
using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentiles() {
  // server::exact_quantile_ms's index rule, min(n-1, floor(q*n)), in the
  // values' own unit.
  std::vector<double> ms_values;
  for (int i = 1; i <= 1200; ++i) ms_values.push_back(i);
  check(quantile(ms_values, 0.99) == 1189.0, "p99 of 1..1200 is the 1189th value");
  check(quantile(ms_values, 0.5) == 601.0, "p50 of 1..1200 is the 601st value");
  check(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0, "median of three is the middle value");
  check(quantile({}, 0.99) == 0.0, "empty sample reads 0");

  // The reported percentile keeps at least ten samples beyond it, at every
  // phase size the benchmark reports p99 from.
  for (const std::size_t n : {std::size_t{1100}, std::size_t{1336}, std::size_t{3000}})
    check(samples_beyond(n, 0.99) >= kTailSamples && supports_quantile(n, 0.99),
          "p99 of " + std::to_string(n) + " samples has >= 10 beyond it");
  check(!supports_quantile(500, 0.99), "p99 of 500 samples is not reportable");
  check(samples_beyond(500, 0.99) == 4, "p99 of 500 samples has 4 beyond it");
  check(supports_quantile(500, 0.9), "p90 of 500 samples is reportable");
}

void test_ladder() {
  std::vector<double> flat(400, 1.0);
  for (std::size_t i = 0; i < flat.size(); i += 37) flat[i] = 30.0;  // stray spikes
  check(!backlog_growing(flat, 0.5), "flat latencies with spikes: no backlog");
  std::vector<double> ramp;
  for (int i = 0; i < 400; ++i) ramp.push_back(1.0 + 0.25 * i);
  check(backlog_growing(ramp, 0.5), "steadily rising latencies: backlog");

  Rung rung;
  rung.rate = 1000;
  rung.latency_ms.assign(1000, 1.0);
  rung.sent = 1005;
  rung.failed = 5;
  check(judge_rung(rung, 5.0, 1.0).passed, "0.5% failed: p99 within the limit");
  rung.sent = 1020;
  rung.failed = 20;
  RungVerdict v = judge_rung(rung, 5.0, 1.0);
  check(!v.passed && std::isinf(v.p99_ms), "2% failed: failures miss the limit");
  rung.failed = 0;
  rung.sent = 1000;
  rung.late_p99_ms = 3.0;
  v = judge_rung(rung, 5.0, 1.0);
  check(!v.passed && v.generator_late, "late generator makes the rung inconclusive");
  // A queue that keeps growing: every request waits 1 ms longer than the
  // one before, all of them under a 1 s limit.
  rung.late_p99_ms = 0.1;
  rung.latency_ms.clear();
  for (int i = 0; i < 800; ++i) rung.latency_ms.push_back(1.0 + i);
  rung.sent = 800;
  v = judge_rung(rung, 1000.0, 1.0);
  check(!v.passed && v.backlog, "growing backlog fails the rung under the limit");

  const auto make = [](double rate) {
    Rung r;
    r.rate = rate;
    return r;
  };
  const auto verdict = [](bool passed) {
    RungVerdict r;
    r.passed = passed;
    return r;
  };
  // Climb 400, 560, 784 (fail), then bisect 662 (pass), 720 (fail), 690 (pass).
  const std::vector<Rung> rungs = {make(400), make(560), make(784),
                                   make(662), make(720), make(690)};
  std::vector<RungVerdict> verdicts = {verdict(true),  verdict(true),  verdict(false),
                                       verdict(true),  verdict(false), verdict(true)};
  check(sustained_rate(rungs, verdicts) == 690, "sustained rate after bisection");
  verdicts[0].passed = false;
  check(sustained_rate(rungs, verdicts) == 0, "nothing passes below the first failure");
  check(sustained_rate({make(400), make(800)}, {verdict(true), verdict(true)}) == 800,
        "all rungs pass: the top rung");
  RungVerdict late = verdict(false);
  late.generator_late = true;
  check(sustained_rate({make(400), make(560), make(662)},
                       {verdict(true), late, verdict(true)}) == 662,
        "a rung the generator fell behind on is not a server failure");
}

void test_fail_accounting(const Reference& ref) {
  // Injected faults must be counted as failed requests of the phase, never
  // crash the generator. The oracle answers every request, so an error it
  // would not give (an injected fault, a wrong payload) is a mismatch; load
  // shed by an overloaded server (busy) is a failure but not a mismatch.
  const ms::server::ServerConfig config = [] {
    ms::server::ServerConfig c;
    c.workers = 2;
    return c;
  }();
  const auto service = make_service(ref.db, config.service_info());
  ms::server::Server server(config, service);
  server.start();
  ms::Rng rng(11);
  std::vector<Item> items;
  for (int i = 0; i < 300; ++i) items.push_back(detectability_item(*ref.db, rng));
  items.push_back(dpm_item(0.9, 0.95));
  compute_expected(*service, items, 2);
  items.back().expected += " ";  // deliberately wrong
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < items.size(); ++i) order.push_back(i);

  SpanRecorder spans(false);
  LoadGenerator generator(server.port(), 2);
  ms::chaos::configure(0.2, 7);
  const Phase chaotic = generator.run(items, order, 2000.0, 2.0, spans, -1);
  ms::chaos::disable();
  const Phase clean = generator.run(items, order, 2000.0, 2.0, spans, -1);
  const Phase closed = generator.run_closed(items, order, 4, 2.0, spans, -1);
  server.stop();

  const long long injected =
      chaotic.error_codes.count("injected") ? chaotic.error_codes.at("injected") : 0;
  std::printf("chaos phase: %lld sent, %lld ok, %lld errors, %lld mismatched "
              "(%lld injected), %lld transport\n",
              chaotic.sent, chaotic.ok, chaotic.errors, chaotic.mismatched, injected,
              chaotic.transport);
  check(chaotic.sent == static_cast<long long>(items.size()), "every request sent");
  check(injected > 0 && chaotic.errors == 0 && chaotic.mismatched >= injected,
        "injected faults counted as mismatches, not as load shedding");
  check(chaotic.ok + chaotic.failed() == chaotic.sent, "ok + failed == attempted");
  const double fail_frac =
      static_cast<double>(chaotic.failed()) / static_cast<double>(chaotic.sent);
  check(fail_frac > 0.05 && fail_frac < 0.5, "fail_frac near the injected rate");
  const std::vector<double> with_failures = chaotic.latency_with_failures_ms();
  check(with_failures.size() == static_cast<std::size_t>(chaotic.sent) &&
            std::isinf(quantile(with_failures, 0.99)),
        "failed requests enter the percentiles as infinitely slow");
  check(clean.errors == 0 && clean.mismatched == 1 && clean.failed() == 1,
        "clean phase: only the wrong payload fails, as a mismatch");
  check(clean.latency_ms.size() == items.size() - 1, "mismatched request has no latency");
  check(closed.sent == clean.sent && closed.mismatched == 1 && closed.failed() == 1 &&
            closed.wall_s > 0.0,
        "closed loop: every request answered and checked");

  // A server that admits one request per connection sheds the rest of a
  // burst as busy.
  ms::server::ServerConfig tight = config;
  tight.max_inflight = 1;
  ms::server::Server shedding(tight, service);
  shedding.start();
  items.pop_back();
  order.pop_back();
  LoadGenerator burst(shedding.port(), 1);
  const Phase shed = burst.run(items, order, 1e6, 2.0, spans, -1);
  shedding.stop();
  const long long busy = shed.error_codes.count("busy") ? shed.error_codes.at("busy") : 0;
  std::printf("burst phase: %lld sent, %lld ok, %lld busy, %lld mismatched\n", shed.sent,
              shed.ok, busy, shed.mismatched);
  check(busy > 0 && shed.errors == busy && shed.mismatched == 0 &&
            shed.ok + shed.failed() == shed.sent,
        "busy responses count as failed, not as mismatches");
}

void test_evaluate_smoke() {
  ms::estimator::CharacterizeSpec spec = spec_of(flow_config());
  spec.vdds = {1.0};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3, 90e3};
  spec.open_resistances = {3e4, 1e6};
  spec.gox_vbds = {1.7};
  spec.threads = 1;
  const std::string expected = ms::estimator::characterize(spec).to_csv();

  SpanRecorder spans(true);
  const EvaluationRep rep = evaluate_once(spec, expected, "", 3, 2, spans);
  std::printf("tiny evaluate_cold: %lld points, wall %.3f s, database %.3f s\n",
              rep.points, rep.wall_s, rep.database_s);
  check(rep.correct, "tiny grid: CSV, study and schedule match");
  check(rep.points > 0 && rep.verdict_ms.size() == static_cast<std::size_t>(rep.points),
        "one time-to-verdict per grid point");
  check(rep.quarantined == 0, "no quarantined points");
  check(rep.database_s > 0.0 && rep.database_s <= rep.wall_s, "database time within wall");
  bool has_database_span = false;
  for (const auto& s : spans.spans())
    has_database_span = has_database_span || (s.name == "core.database" && s.parent >= 0);
  check(has_database_span, "core.database span recorded under the evaluation");

  std::string wrong = expected;
  const std::size_t flip = wrong.rfind(",1\n");
  if (flip != std::string::npos) wrong[flip + 1] = '0';
  SpanRecorder off(false);
  const EvaluationRep bad = evaluate_once(spec, wrong, "", 3, 2, off);
  check(!bad.correct && !bad.mismatch.empty(), "a flipped verdict fails the gate");
}

}  // namespace

int main() {
  test_percentiles();
  test_ladder();
  const Reference ref = load_reference("reference");
  test_fail_accounting(ref);
  test_evaluate_smoke();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
