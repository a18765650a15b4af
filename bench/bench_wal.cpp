/// \file bench_wal.cpp
/// \brief WAL write-path microbenchmarks: what a commit costs per sync
/// policy, and what batching the frames buys.
///
/// Two sweeps against a real on-disk log in /tmp (so the fsync numbers are
/// the filesystem's, not a mock's):
///
///   1. `wal_append_batch` -- single-threaded WalWriter::AppendBatch at
///      batch sizes 1/8/64/256. Every batch is one buffered write + one
///      fsync, so records/sec scales with the batch size until the frame
///      serialization itself dominates. Batch size 1 is the legacy
///      Append() cost: the floor the group committer lifts.
///
///   2. `wal_commit` -- T committer threads (T in 1/4/8) each running
///      `Commit(type, payload)` loops through one shared GroupCommitter,
///      per policy (per_commit/group/none). Under per_commit every record
///      fsyncs; under group the log thread batches whatever concurrent
///      committers queued during its last fsync, so records/sec rises
///      with T while syncs_per_record falls below 1; none is the
///      no-durability ceiling. This is the executor's
///      write path with the server stripped away: pure committer
///      mechanics.
///
/// One JSON line per configuration, bench_predicates-style:
///
///   {"name":"wal_append_batch","batch":64,"records":4096,
///    "records_per_sec":...,"syncs":...,"us_per_record":...}
///   {"name":"wal_commit","policy":"group","threads":4,"records":1000,
///    "records_per_sec":...,"syncs":...,"syncs_per_record":...,
///    "max_group":...,"queue_waits":...}
///
/// A custom main (not Google Benchmark): each configuration runs once over
/// a fixed record count -- fsync costs are stable enough that the JSON
/// contract matters more than statistical repetition.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/file.h"
#include "store/group_commit.h"
#include "store/wal.h"

namespace {

using Clock = std::chrono::steady_clock;
using isis::Result;
using isis::store::FileEnv;
using isis::store::GroupCommitter;
using isis::store::WalRecord;
using isis::store::WalSyncPolicy;
using isis::store::WalSyncPolicyName;
using isis::store::WalWriter;

const char* const kWalPath = "/tmp/bench_wal.wal";

double Seconds(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - t0)
      .count();
}

/// A fresh single-record log (the `base` checkpoint every real WAL starts
/// with), ready for appends.
std::unique_ptr<WalWriter> FreshWal() {
  FileEnv* env = FileEnv::Default();
  (void)env->Remove(kWalPath);
  (void)env->Remove(std::string(kWalPath) + ".tmp");
  Result<std::unique_ptr<WalWriter>> w = WalWriter::CreateWithRecords(
      kWalPath, env, {{"base", "bench checkpoint"}});
  if (!w.ok()) std::abort();
  return std::move(w).ValueOrDie();
}

/// Sweep 1: AppendBatch at growing batch sizes, constant total records.
void BenchAppendBatch() {
  constexpr int kTotalRecords = 4096;
  for (int batch : {1, 8, 64, 256}) {
    std::unique_ptr<WalWriter> wal = FreshWal();
    std::vector<WalRecord> records(
        static_cast<std::size_t>(batch),
        WalRecord{"sevent", "7|assign musician3 plays inst1"});
    const int batches = kTotalRecords / batch;
    auto t0 = Clock::now();
    for (int b = 0; b < batches; ++b) {
      if (!wal->AppendBatch(records).ok()) std::abort();
    }
    const double secs = Seconds(t0);
    const int total = batches * batch;
    std::printf(
        "{\"name\":\"wal_append_batch\",\"batch\":%d,\"records\":%d,"
        "\"records_per_sec\":%.0f,\"syncs\":%d,\"us_per_record\":%.2f}\n",
        batch, total, total / secs, batches, secs * 1e6 / total);
    std::fflush(stdout);
  }
}

/// Sweep 2: concurrent Commit() loops through one GroupCommitter.
void BenchGroupCommit() {
  constexpr int kCommitsPerThread = 250;
  for (WalSyncPolicy policy :
       {WalSyncPolicy::kPerCommit, WalSyncPolicy::kGroup,
        WalSyncPolicy::kNone}) {
    for (int threads : {1, 4, 8}) {
      std::unique_ptr<WalWriter> wal = FreshWal();
      GroupCommitter::Options options;
      options.policy = policy;
      GroupCommitter committer(wal.get(), options);

      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(threads));
      auto t0 = Clock::now();
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&committer, t] {
          for (int i = 0; i < kCommitsPerThread; ++i) {
            if (!committer
                     .Commit("sevent", std::to_string(t) + "|op" +
                                           std::to_string(i))
                     .ok()) {
              std::abort();
            }
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double secs = Seconds(t0);

      const GroupCommitter::Counters c = committer.counters();
      const int total = threads * kCommitsPerThread;
      std::printf(
          "{\"name\":\"wal_commit\",\"policy\":\"%s\",\"threads\":%d,"
          "\"records\":%d,\"records_per_sec\":%.0f,\"syncs\":%lld,"
          "\"syncs_per_record\":%.3f,\"max_group\":%lld,"
          "\"queue_waits\":%lld}\n",
          WalSyncPolicyName(policy), threads, total, total / secs,
          static_cast<long long>(c.syncs),
          static_cast<double>(c.syncs) / total,
          static_cast<long long>(c.max_group),
          static_cast<long long>(c.queue_waits));
      std::fflush(stdout);
    }
  }
  (void)FileEnv::Default()->Remove(kWalPath);
}

}  // namespace

int main() {
  BenchAppendBatch();
  BenchGroupCommit();
  return 0;
}
