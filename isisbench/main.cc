/// \file main.cc
/// \brief Entry point of the ISIS benchmark binary.
///
///   isis_bench --workload navigate|edit|workstation --seed N --seconds S
///              --trace 0|1 --dir D [--git-sha SHA]
///   isis_bench --selfcheck --dir D
///
/// A run prints a header line, per-class op counts, and as its last line
/// one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
/// end-to-end metrics with --trace 0, the per-layer ones with --trace 1).

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace isisbench {

void EndToEnd::AddTo(Metrics* m) const {
  m->Add("setup_s", setup_s, "s");
  m->Add("ops_per_s", ops_per_s, "1/s");
  m->Add("read_p50_us", read_p50_us, "us");
  m->Add("write_p50_us", write_p50_us, "us");
  m->Add("recovery_s", recovery_s, "s");
  m->Add("peak_rss_mb", peak_rss_mb, "MB");
  m->Add("wal_bytes_per_write", wal_bytes_per_write, "B");
}

void Layers::AddTo(Metrics* m) const {
  m->Add("client.read_p99_us", client_read_p99_us, "us");
  m->Add("client.write_p99_us", client_write_p99_us, "us");
  m->Add("server.read_lock_wait_us", server_read_lock_wait_us, "us");
  m->Add("server.write_lock_wait_us", server_write_lock_wait_us, "us");
  m->Add("server.queue_peak", server_queue_peak, "count");
  m->Add("server.promotions", server_promotions, "count");
  m->Add("server.request_p50_us", server_request_p50_us, "us");
  m->Add("server.client_retries", server_client_retries, "count");
  m->Add("proto.frame_us", proto_frame_us, "us");
  m->Add("proto.reply_bytes_per_read", proto_reply_bytes_per_read, "B");
  m->Add("query.cache_hit_ratio", query_cache_hit_ratio, "ratio");
  m->Add("query.cache_version_flushes", query_cache_version_flushes, "count");
  m->Add("query.cache_invalidations_per_write",
         query_cache_invalidations_per_write, "count");
  m->Add("query.cache_evictions", query_cache_evictions, "count");
  m->Add("query.parse_us", query_parse_us, "us");
  m->Add("query.eval_us", query_eval_us, "us");
  m->Add("query.names_us", query_names_us, "us");
  m->Add("query.maintain_us_per_write", query_maintain_us_per_write, "us");
  m->Add("sdm.interned_during_run", sdm_interned_during_run, "count");
  m->Add("store.wal_syncs_per_write", store_wal_syncs_per_write, "ratio");
  m->Add("store.wal_group_mean", store_wal_group_mean, "count");
  m->Add("store.snapshot_us", store_snapshot_us, "us");
  m->Add("store.snapshot_bytes", store_snapshot_bytes, "B");
  m->Add("store.replay_us_per_record", store_replay_us_per_record, "us");
  m->Add("store.checkpoint_us", store_checkpoint_us, "us");
  m->Add("ui.read_dispatch_us", ui_read_dispatch_us, "us");
  m->Add("ui.render_us", ui_render_us, "us");
  m->Add("ui.write_dispatch_us", ui_write_dispatch_us, "us");
  m->Add("ui.undo_depth", ui_undo_depth, "count");
  m->Add("trace.overhead_pct", trace_overhead_pct, "%");
}

namespace {

WorkloadResult RunOne(const RunConfig& cfg) {
  return cfg.workload == "workstation" ? RunWorkstation(cfg)
                                       : RunServerWorkload(cfg);
}

/// Runs all three workloads at toy sizes with every check, then once with
/// a deliberately wrong expectation per workload, which must be reported.
int SelfCheck(const RunConfig& base) {
  bool ok = true;
  for (const char* w : {"navigate", "edit", "workstation"}) {
    RunConfig cfg = base;
    cfg.workload = w;
    cfg.toy = true;
    cfg.trace = true;
    WorkloadResult r = RunOne(cfg);
    r.outcome.PrintCounts();
    const bool pass = r.outcome.correct() && r.outcome.failed() == 0 &&
                      r.outcome.attempted() > 0;
    std::printf("# selfcheck %s: %s\n", w, pass ? "ok" : "FAILED");
    ok = ok && pass;
    cfg.inject_wrong_answer = true;
    cfg.trace = false;
    WorkloadResult bad = RunOne(cfg);
    const bool caught = !bad.outcome.correct();
    std::printf("# selfcheck %s with a wrong expected answer: %s\n", w,
                caught ? "reported as a failure (ok)" : "NOT DETECTED");
    ok = ok && caught;
  }
  std::printf("%s\n", ok ? "selfcheck ok" : "selfcheck FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: isis_bench --workload navigate|edit|workstation "
               "--seed N --seconds S --trace 0|1 --dir D [--git-sha SHA]\n"
               "       isis_bench --selfcheck --dir D\n");
  return 2;
}

}  // namespace
}  // namespace isisbench

int main(int argc, char** argv) {
  using namespace isisbench;
  // Sleep-based waits (the modeled WAL sync) wake within a microsecond or
  // so instead of the default 50 us timer slack. Threads inherit this.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  RunConfig cfg;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stoi(value());
      } else if (a == "--trace") {
        cfg.trace = std::stoi(value()) != 0;
      } else if (a == "--dir") {
        cfg.dir = value();
      } else if (a == "--git-sha") {
        cfg.git_sha = value();
      } else if (a == "--selfcheck") {
        selfcheck = true;
      } else {
        return Usage();
      }
    } catch (...) {
      return Usage();
    }
  }
  if (cfg.dir.empty()) return Usage();
  if (selfcheck) return SelfCheck(cfg);
  if (cfg.workload != "navigate" && cfg.workload != "edit" &&
      cfg.workload != "workstation") {
    return Usage();
  }
  if (cfg.seconds < 1) return Usage();
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "refusing to report timings from an unoptimised build "
                 "(build type %s)\n",
                 ISISBENCH_BUILD_TYPE);
    return 4;
  }
  WorkloadResult r = RunOne(cfg);
  r.outcome.PrintCounts();
  Metrics m;
  if (cfg.trace) {
    r.layers.AddTo(&m);
  } else {
    r.e2e.AddTo(&m);
  }
  m.PrintResult(r.outcome);
  return 0;
}
