/// \file group_commit.h
/// \brief Group commit: many concurrent WAL commits, one fsync, one thread.
///
/// A per-record Write+Sync makes every mutation pay a full disk flush
/// (~100µs-10ms), and when the append happens inside an exclusive database
/// section that flush serializes the whole server. The GroupCommitter
/// splits a commit in two. `Enqueue(record, on_durable)` is a queue push,
/// cheap enough to call while holding the database lock, so WAL order
/// always equals apply order. One log-writer thread owns the WAL: it drains
/// up to `kMaxBatch` pending records, writes them as ONE buffer, fsyncs
/// ONCE, and hands the batch to the answer thread, which runs each record's
/// completion in enqueue order with its status. Arrivals during the fsync
/// form the next group, so the sync rate is one per fsync's worth of
/// commits, and nobody else waits on the disk. Completions do not run on
/// the log thread because a completion typically wakes a client, whose next
/// request would then run ahead of the next fsync on a busy CPU instead of
/// overlapping it (DESIGN.md §14 has the measurement).
///
/// Sync policies:
///   kPerCommit  one fsync per record (the baseline the bench sweeps);
///   kGroup      one fsync per drained batch — a completion's OK still
///               means durable, amortized across the group;
///   kNone       no fsync; the OS decides when bytes hit the platter.
///               Completions do NOT imply durability. Benches and bulk
///               loads only.
///
/// The queue is bounded (`kMaxQueue`): an Enqueue into a full queue blocks
/// until the log thread frees space, which it does regardless of the
/// completions. One rule keeps replies flowing: **a completion never takes
/// the database lock** -- completions run one after another, so one that
/// waited would hold back every reply behind it (and grow `written_`).
///
/// Error model: the first failed write/sync is sticky. Records the failed
/// batch did not cover, and everything after them, fail with that status
/// without touching the file again (it may be torn mid-frame, and an fsync
/// retried on the same fd can report success for lost pages). A completion
/// that saw OK is the durability receipt.

#ifndef ISIS_STORE_GROUP_COMMIT_H_
#define ISIS_STORE_GROUP_COMMIT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "store/wal.h"

namespace isis::store {

/// When a WAL commit is flushed to stable storage.
enum class WalSyncPolicy {
  kPerCommit,  ///< fsync every record (slow, maximally paranoid).
  kGroup,      ///< fsync once per drained group (the default).
  kNone,       ///< never fsync explicitly (fast, not crash-durable).
};

/// Flag-value parsing for `--wal_sync=`; accepts "per_commit", "group",
/// "none".
Result<WalSyncPolicy> ParseWalSyncPolicy(const std::string& name);
const char* WalSyncPolicyName(WalSyncPolicy policy);

class GroupCommitter {
 public:
  /// Max records the log thread drains per batch (one Write + one Sync).
  static constexpr int kMaxBatch = 256;
  /// Pending-queue bound; a full queue blocks Enqueue (backpressure).
  static constexpr int kMaxQueue = 4096;

  struct Options {
    WalSyncPolicy policy = WalSyncPolicy::kGroup;
    /// Called on the log thread after every drained batch, before its
    /// completions: (records in the batch, microseconds the fsync took,
    /// whether a sync happened). Under kPerCommit it fires once per record.
    /// The server feeds its stats histogram through this; may be empty.
    std::function<void(int records, std::int64_t sync_us, bool synced)>
        batch_observer;
  };

  /// Runs on the answer thread with the record's commit status.
  using Completion = std::function<void(Status)>;

  struct Counters {
    std::int64_t records = 0;      ///< Records enqueued.
    std::int64_t batches = 0;      ///< Log-thread drains.
    std::int64_t syncs = 0;        ///< fsyncs issued.
    std::int64_t sync_us = 0;      ///< Cumulative fsync time.
    std::int64_t max_group = 0;    ///< Largest batch drained.
    std::int64_t queue_waits = 0;  ///< Enqueues that blocked on a full queue.
  };

  /// Starts both threads; `wal` must outlive the committer.
  GroupCommitter(WalWriter* wal, const Options& options);
  /// Writes and answers every queued record, then joins both threads.
  ~GroupCommitter();
  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Queues one record, preserving call order. No I/O; blocks only while
  /// the queue is full. `on_durable` (may be empty) runs on the answer
  /// thread once the record's batch resolved. Thread-safe.
  void Enqueue(std::string type, std::string payload,
               Completion on_durable = nullptr) ISIS_EXCLUDES(mu_);

  /// Enqueue, then wait for the completion. Never call from a completion.
  [[nodiscard]] Status Commit(std::string type, std::string payload);

  /// Returns once every record enqueued so far is resolved and its
  /// completion has run, with the status of the last one.
  [[nodiscard]] Status Flush() ISIS_EXCLUDES(mu_);

  /// OK until the first failed write or sync; that error from then on.
  [[nodiscard]] Status status() const ISIS_EXCLUDES(mu_);

  WalSyncPolicy policy() const { return options_.policy; }
  Counters counters() const ISIS_EXCLUDES(mu_);

 private:
  struct PendingRecord {
    WalRecord record;
    Completion on_durable;
  };
  /// A written batch, waiting for the answer thread.
  struct WrittenBatch {
    std::uint64_t first = 0;  ///< Number of its first record.
    std::vector<Completion> completions;
  };

  void LogLoop() ISIS_EXCLUDES(mu_);
  void AnswerLoop() ISIS_EXCLUDES(mu_);
  /// Writes `batch` per the policy; returns the status, and how many
  /// leading records made it in `*ok_records`.
  Status WriteBatch(const std::vector<WalRecord>& batch,
                    std::size_t* ok_records, std::int64_t* syncs,
                    std::int64_t* sync_us);

  const Options options_;
  WalWriter* const wal_;  ///< Touched only by the log thread.

  mutable Mutex mu_;
  CondVar work_cv_;    ///< Log thread: a record was queued, or stopping.
  CondVar answer_cv_;  ///< Answer thread: a batch was written, or stopping.
  CondVar done_cv_;    ///< Enqueue and Flush: a batch was taken or answered.
  std::deque<PendingRecord> pending_ ISIS_GUARDED_BY(mu_);
  std::deque<WrittenBatch> written_ ISIS_GUARDED_BY(mu_);
  /// Records are numbered from 1 in enqueue order (counters_.records is
  /// the last). Records 1..taken_ left pending_ for the log thread; records
  /// 1..done_ are resolved and their completions ran.
  std::uint64_t taken_ ISIS_GUARDED_BY(mu_) = 0;
  std::uint64_t done_ ISIS_GUARDED_BY(mu_) = 0;
  bool stopping_ ISIS_GUARDED_BY(mu_) = false;      ///< Log thread: drain, exit.
  bool log_stopped_ ISIS_GUARDED_BY(mu_) = false;   ///< Answer thread: same.
  /// First record that failed; 0 = none. Sticky with `fail_`.
  std::uint64_t failed_from_ ISIS_GUARDED_BY(mu_) = 0;
  Status fail_ ISIS_GUARDED_BY(mu_) = Status::OK();
  Counters counters_ ISIS_GUARDED_BY(mu_);
  // Declared last: started after the rest.
  std::thread log_thread_;
  std::thread answer_thread_;
};

}  // namespace isis::store

#endif  // ISIS_STORE_GROUP_COMMIT_H_
