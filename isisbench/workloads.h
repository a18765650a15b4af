/// \file workloads.h
/// \brief The three workloads of the ISIS benchmark and what they report.

#ifndef ISISBENCH_WORKLOADS_H_
#define ISISBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "input/event.h"

namespace isisbench {

/// End-to-end metrics: every workload reports all of them.
struct EndToEnd {
  double setup_s = 0;
  double ops_per_s = 0;
  double read_p50_us = 0;
  double write_p50_us = 0;
  double recovery_s = 0;
  double peak_rss_mb = 0;
  double wal_bytes_per_write = 0;

  void AddTo(Metrics* m) const;
};

/// Per-layer metrics of the traced run. A layer a workload never enters
/// reads 0 (e.g. the server's counters on `workstation`).
struct Layers {
  double client_read_p99_us = 0;
  double client_write_p99_us = 0;
  double server_read_lock_wait_us = 0;
  double server_write_lock_wait_us = 0;
  double server_queue_peak = 0;
  double server_promotions = 0;
  double server_request_p50_us = 0;
  double server_client_retries = 0;
  double proto_frame_us = 0;
  double proto_reply_bytes_per_read = 0;
  double query_cache_hit_ratio = 0;
  double query_cache_version_flushes = 0;
  double query_cache_invalidations_per_write = 0;
  double query_cache_evictions = 0;
  double query_parse_us = 0;
  double query_eval_us = 0;
  double query_names_us = 0;
  double query_maintain_us_per_write = 0;
  double sdm_interned_during_run = 0;
  double store_wal_syncs_per_write = 0;
  double store_wal_group_mean = 0;
  double store_snapshot_us = 0;
  double store_snapshot_bytes = 0;
  double store_replay_us_per_record = 0;
  double store_checkpoint_us = 0;
  double ui_read_dispatch_us = 0;
  double ui_render_us = 0;
  double ui_write_dispatch_us = 0;
  double ui_undo_depth = 0;
  double trace_overhead_pct = 0;

  void AddTo(Metrics* m) const;
};

struct WorkloadResult {
  Outcome outcome;
  EndToEnd e2e;
  Layers layers;
};

/// `navigate` and `edit`: many clients through server::Server.
WorkloadResult RunServerWorkload(const RunConfig& cfg);
/// `workstation`: one user through ui::SessionController.
WorkloadResult RunWorkstation(const RunConfig& cfg);

/// The paper's data-edit gesture sequence that reassigns the (single
/// valued) `family` of instrument `inst` from `old_family` to
/// `new_family`: open the instruments page, scroll to the instrument,
/// select it, follow `family`, select the new value, reject the old one,
/// (re)assign, and pop back to the forest. Instruments are listed in
/// creation order, ten rows per scroll step.
std::vector<isis::input::Event> FamilyEditGestures(int inst,
                                                   int old_family,
                                                   int new_family);

/// True for the gesture that writes data, `(re)assign att. value`.
bool IsEditGesture(const isis::input::Event& e);

/// \brief The family edits of one writer over its own instruments
/// `first, first + 1, ...`: every pass edits each of them once, in a
/// seeded order, and each edit moves an instrument between its set-up
/// family and one fixed other family.
///
/// The views over `family` therefore keep about the same size whatever the
/// seed. A free random walk of families left some seeds with twice as many
/// instruments of one family as others, and made their writes 10% slower.
class FamilyEdits {
 public:
  struct Edit {
    int inst;
    int old_family;
    int new_family;
  };

  /// `home[i]` is the set-up family of instrument `first + i`.
  FamilyEdits(int first, std::vector<int> home, std::uint64_t seed);
  Edit Next();

 private:
  int first_;
  std::vector<int> home_;
  std::vector<int> current_;
  std::vector<int> order_;  ///< Rest of the current pass, taken from the back.
  BenchRng rng_;
};

}  // namespace isisbench

#endif  // ISISBENCH_WORKLOADS_H_
