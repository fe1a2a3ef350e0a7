// perfbench: the repository benchmark's harness. Runs one workload with a
// seed for a time budget and prints, as its last line, one JSON object:
//   {"correct":...,"attempted":N,"failed":N,"metrics":{"<name>":{"value":X,"unit":"u"},...}}
// End-to-end metrics without --trace, per-layer metrics with --trace 1.
// perfbench/run.py builds this program and pins its environment.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "util/error.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload evaluate_cold|serve_cold "
               "--seed N --seconds S --trace 0|1 [--reference DIR] [--out DIR] "
               "[--threads N]\n",
               why);
  return 2;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Numbers only from an optimized, uninstrumented build.
const char* unfit_build() {
#if !defined(__OPTIMIZE__)
  return "an unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#else
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) return "a sanitizer build";
  return nullptr;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.threads = nproc();
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--reference") {
      options.reference_dir = value;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--threads") {
      options.threads = std::atoi(value.c_str());
      if (options.threads < 1) return usage("--threads must be >= 1");
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (options.workload != "evaluate_cold" && options.workload != "serve_cold")
    return usage(("unknown workload " + options.workload).c_str());

  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure %s (%s, flags '%s')\n", why,
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 2;
  }
  // "Cold" must be cold and the default solver must be what is measured:
  // no solver override, checkpoint directory, chaos, metrics toggle or
  // thread override may leak in from the caller's environment.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "MEMSTRESS_", 10) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set (run.py clears it)\n",
                   *env);
      return 2;
    }
  }

  std::printf("host: nproc %d, compiler %s, build %s, flags '%s'\n", nproc(), __VERSION__,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::printf("workload %s, seed %llu, %.3g s, trace %d, threads %d, solver default, "
              "no MEMSTRESS_* variables set\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.threads);
  std::fflush(stdout);

  const double steal0 = perfbench::steal_seconds();
  try {
    std::filesystem::create_directories(options.out_dir);
    const perfbench::RunResult result =
        options.workload == "evaluate_cold" ? perfbench::run_evaluate_cold(options)
                                            : perfbench::run_serve(options);
    if (steal0 >= 0.0)
      std::printf("host steal during the run: %.2f CPU-s (noise from other guests)\n",
                  perfbench::steal_seconds() - steal0);
    for (const auto& m : result.metrics)
      std::printf("  %-32s %.6g %s\n", m.name, m.value, m.unit);
    std::string json = std::string("{\"correct\":") + (result.correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(result.attempted) +
                       ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const auto& m = result.metrics[i];
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      json += (i ? ",\"" : "\"") + std::string(m.name) + "\":{\"value\":" + value +
              ",\"unit\":\"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
