// memstressd: serve the characterization/DPM pipeline to many clients.
//
// Characterizes (or cache-loads) the detectability database once, then
// answers coverage / dpm / schedule / detectability / metrics / health
// requests over newline-delimited JSON until SIGINT, which drains
// in-flight requests and exits 130. A cache file whose fingerprint does not
// match the pipeline's CharacterizeSpec is rejected (with a warning) and
// the daemon re-characterizes — a stale cache can slow startup, never skew
// answers. Repeat coverage/dpm/schedule traffic is served from an in-memory
// result cache with single-flight coalescing.
//
// Configuration comes from the environment (util/env semantics):
//   MEMSTRESS_ADDR                listen address   (default 127.0.0.1)
//   MEMSTRESS_PORT                listen port      (default 0 = ephemeral)
//   MEMSTRESS_SERVER_WORKERS      worker threads   (default MEMSTRESS_THREADS)
//   MEMSTRESS_QUEUE_DEPTH         pending-request bound across all
//                                 connections (default 64); admission past
//                                 it sheds a structured "busy"
//   MEMSTRESS_REQUEST_TIMEOUT_MS  per-request compute deadline (default 10000)
//   MEMSTRESS_IDLE_TIMEOUT_MS     keep-alive idle lifetime (default 300000);
//                                 expiry answers "idle_timeout", then closes
//   MEMSTRESS_WRITE_TIMEOUT_MS    send deadline for buffered responses when
//                                 a client stops reading (default 5000)
//   MEMSTRESS_MAX_INFLIGHT        per-connection pipelined-request cap
//                                 (default 64)
//   MEMSTRESS_MAX_OUTPUT_BYTES    per-connection buffered-output cap; past
//                                 it the reactor stops reading from that
//                                 connection (default 8 MiB)
//   MEMSTRESS_MAX_CONNECTIONS     accepted-socket cap (default 0 = derive
//                                 from RLIMIT_NOFILE after raising it)
//   MEMSTRESS_CACHE_ENTRIES       result-cache entries     (default 1024,
//                                 0 disables caching)
//   MEMSTRESS_TECHNOLOGY          backend the node characterizes and serves:
//                                 sram6t (default), stt_mram or undervolt
//
// Usage: ./build/examples/memstressd [db_cache_path]
#include <cstdio>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "server/server.hpp"
#include "tech/model.hpp"
#include "util/cancel.hpp"
#include "util/env.hpp"
#include "util/signal_guard.hpp"

using namespace memstress;

namespace {

int run(int argc, char** argv) {
  const tech::Technology technology =
      tech::parse_technology(env_string_or("MEMSTRESS_TECHNOLOGY", "sram6t"));
  core::PipelineConfig config;
  config.technology = technology;
  config.characterization = tech::default_characterize_spec(technology);
  config.test = config.characterization.test;
  config.block.rows = 2;
  config.block.cols = 1;
  config.db_cache_path =
      argc > 1 ? argv[1]
      : technology == tech::Technology::Sram6T
          ? "memstress_detectability_cache.csv"
          : std::string("memstress_detectability_cache_") +
                tech::technology_name(technology) + ".csv";
  core::StressEvaluationPipeline pipeline(std::move(config));

  std::printf("memstressd: preparing %s detectability database (%s)...\n",
              tech::technology_name(technology),
              pipeline.config().db_cache_path.c_str());
  const auto db = pipeline.share_database();
  std::printf("memstressd: %zu characterized grid points ready\n", db->size());

  const server::ServerConfig server_config = server::ServerConfig::from_env();
  auto service = std::make_shared<const server::MemstressService>(
      db,
      estimator::PopulationModel::calibrate(pipeline.config().layout_rows,
                                            pipeline.config().layout_cols),
      pipeline.config().fab, pipeline.make_sampler(),
      server_config.service_info(), pipeline.config().mtj_fab);

  server::Server daemon(server_config, service);
  daemon.start();
  std::printf("memstressd: listening on %s:%d (%d workers, queue depth %d)\n",
              daemon.config().address.c_str(), daemon.port(),
              daemon.config().workers, daemon.config().queue_depth);
  std::fflush(stdout);

  daemon.serve_until_cancelled();
  // The drain already happened; unwind through the shared interrupt path so
  // memstressd reports and exits 130 exactly like the batch binaries.
  throw CancelledError("memstressd: SIGINT received; drained and stopped");
}

}  // namespace

int main(int argc, char** argv) {
  return signal_guard::run([&] { return run(argc, argv); },
                           {"the detectability cache is reusable; restart "
                            "memstressd to resume serving."});
}
