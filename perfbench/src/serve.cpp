// serve_cold: an in-process memstressd (server::Server over the reference
// database) on loopback, driven from one thread over at most nproc
// pipelined connections.
//
// Each run: set-up (repeated, median reported), fixed-rate open-loop
// sub-phases at the workload's reference rate (p50/p99, CPU), each followed
// by a closed-loop batch (wall), interleaved with a rate ladder for the
// highest rate that holds the p99 limit with no growing backlog. Every
// response is byte-checked against MemstressService::handle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "loadgen.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace ms = memstress;
using ms::server::Json;

namespace {

/// Per-workload load shape. Rates are requests per second.
struct Profile {
  const char* name;
  double reference_rate;         ///< the fixed-rate phase
  std::size_t reference_count;   ///< requests per fixed-rate sub-phase
  int sub_phases;                ///< fixed-rate sub-phases (medians reported)
  double p99_limit_ms;
  double late_limit_ms;          ///< generator validity on a ladder rung
  std::size_t batch_count;       ///< requests per closed-loop batch (wall_s)
  double rung_s;                 ///< ladder rung length
  double climb;                  ///< rate factor between climbing rungs
  int bisections;                ///< refinements after the first failure
};

/// Requests the closed-loop batches keep outstanding per connection, up to
/// half the server's queue depth in all, so a healthy server never sheds
/// them.
constexpr int kWindowPerConnection = 8;

/// Rungs' worth of time that repeated sub-phases leave to the ladder: a
/// climb of a few steps from the batches' throughput and a few bisections.
constexpr int kLadderRungs = 10;

// Each fixed-rate sub-phase has >= 1100 requests, so its p99 has 10 samples
// beyond it. The reference rate sits well under a 4-CPU machine's capacity
// (perfbench/README.md gives the reasons).
constexpr Profile kCold{"serve_cold", 300.0, 1100, 5, 1000.0, 20.0, 600, 1.2, 1.2, 3};

/// The server's admission queue and per-connection in-flight cap.
constexpr int kQueueDepth = 1024;

/// Checks the responses whose expected payload was computed after the run.
long long check_unchecked(const Phase& phase, const std::vector<Item>& items,
                          const std::vector<std::size_t>& order) {
  long long mismatched = 0;
  for (const auto& [i, line] : phase.unchecked) {
    const long long id = phase.first_id + static_cast<long long>(i);
    const Item& item = items[order[i]];
    if (line != ms::server::make_response_from_payload(id, item.expected)) {
      if (mismatched++ == 0)
        std::printf("MISMATCH %s response %lld differs from MemstressService::handle\n",
                    item.type.c_str(), id);
    }
  }
  return mismatched;
}

std::vector<std::size_t> identity(std::size_t begin, std::size_t end) {
  std::vector<std::size_t> order;
  for (std::size_t i = begin; i < end; ++i) order.push_back(i);
  return order;
}

/// The running server and its client connections.
struct Served {
  std::shared_ptr<const ms::server::MemstressService> service;
  std::unique_ptr<ms::server::Server> server;
  std::unique_ptr<LoadGenerator> generator;
};

/// serve_cold's traffic: what gets sent, and the fresh requests drawn for
/// each phase.
class Traffic {
 public:
  Traffic(std::shared_ptr<const ms::estimator::DetectabilityDb> db, std::uint64_t seed)
      : db_(std::move(db)), rng_(seed) {
    mix_.db_crc = db_crc_of(*db_);
    mix_.study_seed = rng_.below(1ULL << 40);
  }

  const std::vector<Item>& items() const { return items_; }
  std::vector<Item>& items() { return items_; }

  /// Appends `count` fresh items of the mix; returns their send order.
  std::vector<std::size_t> draw(std::size_t count) {
    const std::size_t begin = items_.size();
    std::vector<Item> fresh = cold_items(*db_, mix_, rng_, count);
    for (Item& item : fresh) items_.push_back(std::move(item));
    return identity(begin, items_.size());
  }

  /// The warm-up sends: a fixed handful of requests of each type (their
  /// params are not reused later), so every seed warms the same amount of
  /// work.
  std::vector<std::size_t> warm_order() {
    const std::size_t begin = items_.size();
    for (int i = 0; i < 8; ++i) items_.push_back(detectability_item(*db_, rng_));
    for (int i = 0; i < 2; ++i) {
      items_.push_back(random_coverage_item(rng_));
      items_.push_back(study_shard_item(mix_.study_seed, i, mix_.db_crc));
    }
    items_.push_back(schedule_item(rng_.below(1ULL << 52)));
    for (std::size_t i = begin; i < items_.size(); ++i)
      mix_.used.emplace(items_[i].type + items_[i].params, 1);
    return identity(begin, items_.size());
  }

 private:
  std::shared_ptr<const ms::estimator::DetectabilityDb> db_;
  ms::Rng rng_;
  ColdMix mix_;
  std::vector<Item> items_;
};

void report_phase(const char* label, const Phase& p) {
  std::printf("%s: %.0f req/s, %lld sent, %lld ok, %lld errors, %lld transport, "
              "%lld mismatched, p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms, "
              "wall %.3f s, cpu %.3f s\n",
              label, p.rate, p.sent, p.ok, p.errors, p.transport, p.mismatched,
              quantile(p.latency_with_failures_ms(), 0.5),
              quantile(p.latency_with_failures_ms(), 0.99),
              quantile(p.late_ms, 0.99), p.wall_s, p.cpu_s);
  for (const auto& [code, count] : p.error_codes)
    std::printf("  error %s: %lld\n", code.c_str(), count);
}

}  // namespace

RunResult run_serve(const Options& options) {
  const Profile& profile = kCold;
  RunResult result(options.trace);
  SpanRecorder spans(options.trace);
  SpanRecorder no_spans(false);

  // The oracle every response is checked against: the service over the
  // reference database, called directly.
  const Reference ref = load_reference(options.reference_dir);
  // memstressd's defaults (1024 cache entries, ...) with one worker per CPU
  // and a deeper admission queue. With the default 64, a cluster of
  // schedules or a host stall of a few hundred milliseconds fills the queue
  // at the reference rate, and whether a run sheds `busy` depends on the
  // host. kQueueDepth holds more than three seconds of the reference rate,
  // so the measured phases are never shed; an overloaded ladder rung then
  // shows as a p99 over the limit or a growing backlog.
  ms::server::ServerConfig config;
  config.workers = options.threads;
  config.queue_depth = kQueueDepth;
  config.max_inflight = kQueueDepth;
  const auto oracle = make_service(ref.db, config.service_info());
  Traffic traffic(ref.db, options.seed);
  const std::vector<std::size_t> warm = traffic.warm_order();

  // Set-up, as memstressd does it: load the reference CSV (fingerprint
  // checked), build the service, start the server; then connect the
  // generator and warm it. Repeated; the median counts.
  const std::string db_path = options.reference_dir + "/default_grid.csv";
  const std::string fingerprint = ref.db->fingerprint();
  std::vector<double> setup_s;
  std::vector<std::pair<Phase, std::vector<std::size_t>>> checked_later;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) std::this_thread::sleep_for(kSetupPause);
    served.generator.reset();  // close the client side before the server stops
    served.server.reset();
    const Clock::time_point t0 = Clock::now();
    auto db = std::make_shared<const ms::estimator::DetectabilityDb>(
        ms::estimator::DetectabilityDb::from_csv(read_file(db_path), fingerprint));
    served.service = make_service(std::move(db), config.service_info());
    served.server = std::make_unique<ms::server::Server>(config, served.service);
    served.server->start();
    served.generator =
        std::make_unique<LoadGenerator>(served.server->port(), options.threads);
    const Phase w = served.generator->run(traffic.items(), warm, 2000.0, 30.0, no_spans, -1);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (w.failed() > 0) result.fail(std::string(profile.name) + ": warm-up requests failed");
    checked_later.emplace_back(w, warm);
  }

  const double drain_s = std::max(2.0, 3e-3 * profile.p99_limit_ms);
  {
    // Settle at the reference rate, unmeasured, so the first measured phase
    // does not pay for threads and buffers the set-up left cold.
    std::vector<std::size_t> order = traffic.draw(profile.reference_count / 2);
    Phase p = served.generator->run(traffic.items(), order, profile.reference_rate,
                                    drain_s, no_spans, -1);
    if (p.mismatched > 0) result.fail(std::string(profile.name) + ": response mismatch");
    checked_later.emplace_back(std::move(p), std::move(order));
  }
  const auto account = [&](const Phase& p, std::vector<std::size_t> order) {
    result.attempted += p.sent;
    result.failed += p.failed();
    if (p.mismatched > 0) result.fail(std::string(profile.name) + ": response mismatch");
    checked_later.emplace_back(p, std::move(order));
  };
  const auto fixed_phase = [&](SpanRecorder& recorder, const char* label) {
    const std::int64_t root = recorder.begin(label);
    std::vector<std::size_t> order = traffic.draw(profile.reference_count);
    Phase p = served.generator->run(traffic.items(), order, profile.reference_rate,
                                    drain_s, recorder, root);
    recorder.end(root);
    report_phase(label, p);
    account(p, std::move(order));
    return p;
  };

  if (!options.trace) {
    // Fixed-rate sub-phases, each with its own p50/p99/CPU and followed by a
    // closed-loop batch (wall_s); the medians are reported. They are
    // interleaved with the ladder's rungs across the whole run, so a stall
    // of the host that lasts a few seconds moves a minority of them and not
    // the median.
    const Clock::time_point measured_start = Clock::now();
    const double fixed_s =
        static_cast<double>(profile.reference_count) / profile.reference_rate;
    double batch_s = 0.0;  // longest closed-loop batch so far
    std::vector<double> batch_rps;  // closed-loop throughput of clean batches
    std::vector<Rung> rungs;
    std::vector<RungVerdict> verdicts;
    const auto verdict_of = [&](const Phase& p) {
      Rung rung;
      rung.rate = p.rate;
      rung.sent = p.sent;
      rung.failed = p.failed();
      rung.latency_ms = p.latency_ms;
      rung.late_p99_ms = quantile(p.late_ms, 0.99);
      const RungVerdict v = judge_rung(rung, profile.p99_limit_ms, profile.late_limit_ms);
      std::string codes;
      for (const auto& [code, count] : p.error_codes)
        codes += " " + code + " " + std::to_string(count);
      std::printf("rung %.0f req/s: %s (p99 %.3f ms, %lld failed%s, late p99 %.3f ms)\n",
                  p.rate, v.passed ? "pass" : v.reason.c_str(), v.p99_ms, rung.failed,
                  codes.c_str(), rung.late_p99_ms);
      return std::make_pair(std::move(rung), v);
    };
    // A phase during which the host stole a noticeable share of the CPUs
    // measured other guests, not the server. Such a sub-phase is repeated
    // instead of counted, up to twice the sub-phase count per run and only
    // while the ladder keeps kLadderRungs rungs' time; the sub-phases the
    // host disturbed least are the ones reported. A disturbed rung that passed still passed; one that failed,
    // or one where the generator fell behind, is repeated, up to twice per
    // rate.
    int disturbed_left = 2 * profile.sub_phases;
    int sub_phases_left = profile.sub_phases;
    const auto ladder_time_left = [&] {
      return options.seconds - seconds_between(measured_start, Clock::now()) -
             sub_phases_left * (fixed_s + batch_s);
    };
    struct SubPhase {
      double steal_s, p50, p99, wall, cpu;
    };
    std::vector<SubPhase> sub_phases;
    const auto sub_phase = [&] {
      const Phase fixed = fixed_phase(no_spans, "fixed-rate");
      std::vector<std::size_t> order = traffic.draw(profile.batch_count);
      const Phase batch = served.generator->run_closed(
          traffic.items(), order,
          std::min(kWindowPerConnection * options.threads, config.queue_depth / 2), drain_s,
          no_spans, -1);
      std::printf("closed-loop batch: %lld sent, %lld failed, wall %.3f s\n", batch.sent,
                  batch.failed(), batch.wall_s);
      account(batch, std::move(order));
      batch_s = std::max(batch_s, batch.wall_s);
      if (batch.failed() == 0 && batch.wall_s > 0.0)
        batch_rps.push_back(static_cast<double>(batch.sent) / batch.wall_s);
      // A failed request counts as infinitely slow, so fast errors cannot
      // improve the percentiles.
      const std::vector<double> latency = fixed.latency_with_failures_ms();
      if (!supports_quantile(latency.size(), 0.99))
        result.fail("too few requests for p99 at the reference rate");
      sub_phases.push_back({fixed.steal_s + batch.steal_s, quantile(latency, 0.50),
                            quantile(latency, 0.99), batch.wall_s, fixed.cpu_s});
      // Repeats never take the time the ladder needs for its climb.
      if ((fixed.disturbed(options.threads) || batch.disturbed(options.threads)) &&
          disturbed_left > 0 && ladder_time_left() > kLadderRungs * profile.rung_s) {
        --disturbed_left;
        std::printf("  host stole %.2f CPU-s during this sub-phase; repeating it\n",
                    fixed.steal_s + batch.steal_s);
        return false;
      }
      // Each sub-phase is also an attempt at the ladder's first rung.
      auto [rung, v] = verdict_of(fixed);
      rungs.push_back(std::move(rung));
      verdicts.push_back(v);
      return true;
    };
    const auto attempt = [&](double rate) {
      for (int repeats = 0;; ++repeats) {
        std::vector<std::size_t> order =
            traffic.draw(static_cast<std::size_t>(rate * profile.rung_s));
        Phase p = served.generator->run(traffic.items(), order, rate, drain_s, no_spans, -1);
        if (p.mismatched > 0) result.fail(std::string(profile.name) + ": response mismatch");
        auto [rung, v] = verdict_of(p);
        const bool disturbed = p.disturbed(options.threads);
        const bool repeat = !v.passed && (disturbed || v.generator_late) && repeats < 2;
        if (repeat)
          std::printf("  %s; repeating it\n",
                      v.generator_late ? "the generator fell behind"
                                       : "the host stole CPU during this rung");
        checked_later.emplace_back(std::move(p), std::move(order));
        // Let this rung's queue empty before the next one starts.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (!repeat) {
          rungs.push_back(std::move(rung));
          verdicts.push_back(v);
          return v;
        }
      }
    };

    // Ladder: climb until a rung fails, then bisect between the last pass
    // and the first failure while --seconds last. A rate fails only when two
    // attempts in a row fail (for the reference rate, two sub-phases), so a
    // single stall of the host does not end the climb. A rate where the
    // generator fell behind even when repeated is not searched above, but it
    // is not a server failure either: sustained_rate skips it.
    for (int tries = 0; tries < 2 && (tries == 0 || !verdicts.back().passed); ++tries) {
      while (!sub_phase()) {
      }
      --sub_phases_left;
    }
    double pass = verdicts.back().passed ? profile.reference_rate : 0.0;
    double fail = pass > 0.0 ? 0.0 : profile.reference_rate;
    // Above a passing reference rate the climb starts at the closed-loop
    // batches' throughput, the server's capacity as the batches saw it, so
    // the run's time goes to the rates near the limit and the result is not
    // tied to a fixed grid of reference-rate multiples.
    double rate = pass > 0.0 ? std::max(profile.reference_rate * profile.climb, median(batch_rps))
                             : profile.reference_rate / profile.climb;
    int bisected = 0;
    bool ladder_done = false;
    while (sub_phases_left > 0 || !ladder_done) {
      if (sub_phases_left > 0 && sub_phase()) --sub_phases_left;
      if (ladder_done) continue;
      if (ladder_time_left() < profile.rung_s) {
        ladder_done = true;
        continue;
      }
      RungVerdict v = attempt(rate);
      if (!v.passed && !v.generator_late && ladder_time_left() >= profile.rung_s)
        v = attempt(rate);
      if (v.passed) {
        pass = rate;
      } else {
        fail = rate;
      }
      if (fail == 0.0) {
        rate *= profile.climb;
      } else if (pass == 0.0) {
        rate /= profile.climb;
      } else if (bisected++ < profile.bisections) {
        rate = std::sqrt(pass * fail);
      } else {
        ladder_done = true;
      }
    }
    // A rate passes when any attempt at it passed.
    std::vector<double> passed_rates;
    for (std::size_t i = 0; i < rungs.size(); ++i)
      if (verdicts[i].passed) passed_rates.push_back(rungs[i].rate);
    for (std::size_t i = 0; i < rungs.size(); ++i)
      if (std::count(passed_rates.begin(), passed_rates.end(), rungs[i].rate) > 0) {
        verdicts[i].passed = true;
        verdicts[i].generator_late = false;
      }
    // Which rule ended the climb: the verdict at the lowest rate that did
    // not pass. When that is the generator's, sustained_rps is a lower bound
    // of the server's.
    std::string ladder_end = "no rung failed within the time budget";
    double lowest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rungs.size(); ++i)
      if (!verdicts[i].passed && rungs[i].rate < lowest) {
        lowest = rungs[i].rate;
        ladder_end = verdicts[i].reason + " at " + std::to_string(std::lround(lowest)) +
                     " req/s" +
                     (verdicts[i].generator_late ? " (generator-bound)" : " (server-bound)");
      }
    std::printf("ladder ended: %s\n", ladder_end.c_str());

    std::stable_sort(sub_phases.begin(), sub_phases.end(),
                     [](const SubPhase& a, const SubPhase& b) { return a.steal_s < b.steal_s; });
    sub_phases.resize(std::min(sub_phases.size(), static_cast<std::size_t>(profile.sub_phases)));
    std::vector<double> p50, p99, wall, cpu;
    for (const SubPhase& sp : sub_phases) {
      p50.push_back(sp.p50);
      p99.push_back(sp.p99);
      wall.push_back(sp.wall);
      cpu.push_back(sp.cpu);
    }
    // A median percentile that only failed requests reach is infinite; it
    // reads as the longest wait the generator allows a sub-phase's request.
    const double longest_ms = 1e3 * (fixed_s + drain_s);
    result.set("setup_s", median(setup_s));
    result.set("wall_s", median(wall));
    result.set("cpu_s", median(cpu));
    result.set("p50_ms", std::min(median(p50), longest_ms));
    result.set("p99_ms", std::min(median(p99), longest_ms));
    result.set("sustained_rps", sustained_rate(rungs, verdicts));
  } else {
    // Traced run: the fixed-rate phase untraced, then again with library
    // metrics and the benchmark's spans on; the difference is the overhead.
    const Phase untraced = fixed_phase(no_spans, "fixed-rate (untraced)");
    ms::metrics::set_enabled(true);
    ms::metrics::reset();
    const auto cache0 = served.service->cache().stats();
    const Phase traced = fixed_phase(spans, "fixed-rate (traced)");
    const auto cache1 = served.service->cache().stats();
    ms::server::Client client([&] {
      ms::server::ClientConfig c;
      c.port = served.server->port();
      return c;
    }());
    const Json report = client.request("metrics");
    const ms::metrics::RunReport library = ms::metrics::collect();
    ms::metrics::set_enabled(false);

    const Json* histograms = report.find("histograms");
    const Json* request_seconds =
        histograms ? histograms->find("server.request_seconds") : nullptr;
    const double server_p50 =
        request_seconds ? 1e3 * request_seconds->number_or("p50", 0.0) : 0.0;
    const double server_p99 =
        request_seconds ? 1e3 * request_seconds->number_or("p99", 0.0) : 0.0;
    const Json* counters = report.find("counters");
    const auto wire_counter = [&](const char* name) {
      return counters ? counters->number_or(name, 0.0) : 0.0;
    };
    const long long hits = cache1.hits - cache0.hits;
    const long long misses = cache1.misses - cache0.misses;
    const long long coalesced = cache1.coalesced - cache0.coalesced;
    const double lookups = static_cast<double>(hits + misses + coalesced);
    result.set("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
    result.set("cache.misses", static_cast<double>(misses));
    result.set("cache.evictions", static_cast<double>(cache1.evictions - cache0.evictions));
    result.set("cache.coalesced", static_cast<double>(coalesced));
    result.set("estimator.db_lookups_per_req",
               wire_counter("estimator.db_lookups") / static_cast<double>(traced.sent));
    result.set("server.request_p50_ms", server_p50);
    result.set("server.request_p99_ms", server_p99);
    result.set("server.transport_p50_ms", quantile(traced.latency_ms, 0.5) - server_p50);
    result.set("server.busy_rejections", wire_counter("server.busy_rejections"));
    result.set("server.errors", wire_counter("server.errors"));
    result.set("gen.late_p99_ms", quantile(traced.late_ms, 0.99));
    result.set("gen.max_behind_ms",
               traced.late_ms.empty()
                   ? 0.0
                   : *std::max_element(traced.late_ms.begin(), traced.late_ms.end()));
    result.set("trace.overhead_pct", 100.0 * (traced.cpu_s - untraced.cpu_s) / untraced.cpu_s);

    // The library's own counters over the traced phase: no pipeline runs
    // here, so the characterization and analog layers read 0.
    set_library_layers(library, options.threads, 0.0, result);
  }

  // serve_cold's payloads are computed after sending, off the clock; then
  // every response kept for later is checked.
  compute_expected(*oracle, traffic.items(), options.threads);
  long long late_mismatches = 0;
  for (const auto& [phase, order] : checked_later)
    late_mismatches += check_unchecked(phase, traffic.items(), order);
  if (late_mismatches > 0) {
    result.failed += late_mismatches;
    result.fail(std::string(profile.name) + ": " + std::to_string(late_mismatches) +
                " responses differ from MemstressService::handle");
  }

  if (options.trace) {
    // The layer probes replay this workload's own requests.
    std::vector<Item> replay;
    for (const auto& [phase, order] : checked_later)
      for (const std::size_t i : order)
        if (replay.size() < 2000) replay.push_back(traffic.items()[i]);
    probe_layers(*oracle, replay, spans, result);
  }
  served.generator.reset();
  served.server->stop();
  if (options.trace)
    spans.write_jsonl(options.out_dir + "/spans-" + profile.name + "-" +
                      std::to_string(options.seed) + ".jsonl");
  return result;
}

}  // namespace perfbench
