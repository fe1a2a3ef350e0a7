// evaluate_cold: the paper flow end to end with no database cache —
// StressEvaluationPipeline, database() (the analog characterization),
// Table 1, the 11k-device study and the schedule optimizer.
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "estimator/schedule.hpp"
#include "stats.hpp"
#include "study/study.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace ms = memstress;

namespace {

/// 4 of the 12 default conditions: {1.0, 1.8} V x {100, 25} ns. Whole
/// (kind, category, condition) groups are cut; every group keeps its full
/// resistance (or breakdown-voltage) axis, which is what the batched solver
/// amortizes over. Table 1 reads 1.0 V @ 100 ns and the 25 ns production
/// legs, so it matches the full grid's.
ms::estimator::CharacterizeSpec evaluate_spec() {
  ms::estimator::CharacterizeSpec spec = spec_of(flow_config());
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9, 25e-9};
  return spec;
}

ms::study::StudyConfig study_config(std::uint64_t seed, int threads) {
  ms::study::StudyConfig config;
  config.device_count = 11000;
  config.seed = seed;
  config.threads = threads;
  return config;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

EvaluationRep evaluate_once(const ms::estimator::CharacterizeSpec& spec,
                            const std::string& expected_csv,
                            const std::string& expected_table1,
                            std::uint64_t seed, int threads,
                            SpanRecorder& spans) {
  ms::Rng rng(seed);
  const std::uint64_t study_seed = rng.below(1ULL << 40);
  ms::estimator::ScheduleSpec schedule_spec;
  schedule_spec.seed = rng.below(1ULL << 40);

  ms::core::PipelineConfig config = flow_config();
  config.block = spec.block;
  config.test = spec.test;
  config.characterization = spec;
  config.characterization.threads = threads;
  std::vector<Clock::time_point> verdicts;
  verdicts.reserve(4096);
  // characterize() serializes progress calls, so no lock is needed here.
  config.progress = [&verdicts](const std::string&) {
    verdicts.push_back(Clock::now());
  };

  EvaluationRep rep;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const std::int64_t root = spans.begin("evaluate_cold");
  std::int64_t span = spans.begin("pipeline.construct", root);
  ms::core::StressEvaluationPipeline pipeline(config);
  spans.end(span);

  span = spans.begin("core.database", root);
  const Clock::time_point db_start = Clock::now();
  const ms::estimator::DetectabilityDb& db = pipeline.database();
  rep.database_s = seconds_between(db_start, Clock::now());
  spans.end(span);

  span = spans.begin("core.table1", root);
  const std::string table1 = pipeline.make_estimator().table1({512, 64, 8, 1}).to_csv();
  spans.end(span);

  span = spans.begin("core.study", root);
  const ms::study::StudyResult study =
      pipeline.run_study(study_config(study_seed, threads));
  spans.end(span);

  span = spans.begin("core.schedule", root);
  const ms::estimator::Schedule schedule = ms::estimator::optimize_schedule(
      ms::estimator::standard_legs(), db, pipeline.make_sampler(), schedule_spec);
  spans.end(span);
  spans.end(root);
  rep.wall_s = seconds_between(t0, Clock::now());
  rep.cpu_s = cpu_seconds() - cpu0;

  for (const Clock::time_point t : verdicts)
    rep.verdict_ms.push_back(1e3 * seconds_between(db_start, t));
  rep.points = static_cast<long long>(verdicts.size());
  rep.quarantined = static_cast<long long>(db.quarantine().size());

  // Output gate (untimed): the CSV byte for byte, Table 1, and the study and
  // schedule recomputed by direct library calls on the expected database.
  const auto mismatch = [&rep](const std::string& what) {
    if (rep.correct) rep.mismatch = what;
    rep.correct = false;
  };
  if (db.to_csv() != expected_csv) mismatch("database CSV differs from the reference");
  if (!expected_table1.empty() && table1 != expected_table1)
    mismatch("Table 1 differs from reference/table1.csv");
  const ms::estimator::DetectabilityDb expected_db =
      ms::estimator::DetectabilityDb::from_csv(expected_csv);
  const ms::defects::DefectSampler sampler = pipeline.make_sampler();
  if (ms::study::run_study(study_config(study_seed, threads), expected_db, sampler)
          .summary() != study.summary())
    mismatch("study result differs from the reference database's");
  if (ms::estimator::optimize_schedule(ms::estimator::standard_legs(), expected_db,
                                       sampler, schedule_spec)
          .describe() != schedule.describe())
    mismatch("schedule differs from the reference database's");
  return rep;
}

RunResult run_evaluate_cold(const Options& options) {
  RunResult result(options.trace);
  // Set-up: load and check the reference the output gate compares against
  // (the same file the serve workloads serve). Repeated; the median counts.
  std::vector<double> setup_s;
  Reference ref;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) std::this_thread::sleep_for(kSetupPause);
    const Clock::time_point t0 = Clock::now();
    ref = load_reference(options.reference_dir);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const ms::estimator::CharacterizeSpec spec = evaluate_spec();
  const std::string expected_csv = restrict_to(*ref.db, spec).to_csv();

  // Untraced runs repeat the evaluation while another one still fits in
  // --seconds (at least twice, so p99 over the pooled verdicts has its tail
  // samples). The traced run makes one untraced and one traced evaluation.
  ms::Rng seeds(options.seed);
  std::vector<EvaluationRep> reps;
  SpanRecorder spans(options.trace);
  SpanRecorder untraced_spans(false);
  ms::metrics::RunReport report;
  const Clock::time_point start = Clock::now();
  const auto another_fits = [&] {
    const double elapsed = seconds_between(start, Clock::now());
    return elapsed + elapsed / static_cast<double>(reps.size()) <= options.seconds;
  };
  while (reps.size() < 2 || (!options.trace && another_fits())) {
    const bool traced = options.trace && reps.size() == 1;
    ms::metrics::set_enabled(traced);
    ms::metrics::reset();
    reps.push_back(evaluate_once(spec, expected_csv, ref.table1_csv,
                                 seeds.below(1ULL << 40), options.threads,
                                 traced ? spans : untraced_spans));
    if (traced) report = ms::metrics::collect();
    ms::metrics::set_enabled(false);
    const EvaluationRep& rep = reps.back();
    std::printf("evaluate_cold rep %zu%s: wall %.3f s, cpu %.3f s, database %.3f s, "
                "%lld points, %lld quarantined\n",
                reps.size(), traced ? " (traced)" : "", rep.wall_s, rep.cpu_s,
                rep.database_s, rep.points, rep.quarantined);
    if (!rep.correct) result.fail("evaluate_cold: " + rep.mismatch);
    result.attempted += rep.points;
    result.failed += rep.quarantined;
  }

  if (!options.trace) {
    std::vector<double> wall, cpu, verdict_ms, rate;
    for (const EvaluationRep& rep : reps) {
      wall.push_back(rep.wall_s);
      cpu.push_back(rep.cpu_s);
      rate.push_back(ratio(static_cast<double>(rep.points), rep.database_s));
      verdict_ms.insert(verdict_ms.end(), rep.verdict_ms.begin(), rep.verdict_ms.end());
    }
    if (!supports_quantile(verdict_ms.size(), 0.99))
      result.fail("too few verdicts for p99");
    std::printf("time to verdict: %zu samples, %zu beyond p99\n", verdict_ms.size(),
                samples_beyond(verdict_ms.size(), 0.99));
    result.set("setup_s", median(setup_s));
    result.set("wall_s", median(wall));
    result.set("cpu_s", median(cpu));
    result.set("p50_ms", quantile(verdict_ms, 0.50));
    result.set("p99_ms", quantile(verdict_ms, 0.99));
    result.set("sustained_rps", median(rate));
    return result;
  }

  // Per-layer metrics from the traced evaluation: the benchmark's own spans
  // around the pipeline calls, and the library's counters and spans.
  const auto span_s = [&spans](const char* name) {
    double total = 0.0;
    for (const auto& s : spans.spans())
      if (s.name == name) total += seconds_between(s.start, s.end);
    return total;
  };
  result.set("core.database_s", span_s("core.database"));
  result.set("core.table1_s", span_s("core.table1"));
  result.set("core.study_s", span_s("core.study"));
  result.set("core.schedule_s", span_s("core.schedule"));
  set_library_layers(report, options.threads, span_s("core.database"), result);

  // The service layers over the database this evaluation built, probed with
  // a serve_cold-shaped request set drawn from the seed. No cache, server or
  // load generator runs here, so those layers report 0.
  auto db = std::make_shared<const ms::estimator::DetectabilityDb>(
      ms::estimator::DetectabilityDb::from_csv(expected_csv));
  const auto service = make_service(db, {});
  ColdMix mix;
  mix.db_crc = db_crc_of(*db);
  mix.study_seed = seeds.below(1ULL << 40);
  std::vector<Item> items = cold_items(*db, mix, seeds, 400);
  compute_expected(*service, items, options.threads);
  probe_layers(*service, items, spans, result);
  const EvaluationRep& traced = reps[1];
  result.set("trace.overhead_pct",
             100.0 * (traced.wall_s - reps[0].wall_s) / reps[0].wall_s);

  spans.write_jsonl(options.out_dir + "/spans-evaluate_cold-" +
                    std::to_string(options.seed) + ".jsonl");
  return result;
}

}  // namespace perfbench
