/// \file group_commit_test.cpp
/// \brief The group-commit write pipeline (store/group_commit.h) and the
/// batched WAL append (WalWriter::AppendBatch): grouping actually groups
/// (N records, one write, one sync), the policies sync exactly as
/// advertised, the bounded queue applies backpressure instead of dropping,
/// completions run in enqueue order, errors are sticky, the destructor
/// drains, and -- the property that makes replies trustworthy -- after a
/// crash at ANY injected fault point the set of commits that were
/// acknowledged OK is a subset of the clean prefix recovery reads back.
///
/// Batch shapes are made deterministic with SyncGateEnv: the log thread is
/// parked inside the fsync of a first record while the test queues the
/// records that must form the next batch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/file.h"
#include "store/group_commit.h"
#include "store/wal.h"
#include "sync_gate_env.h"

namespace isis::store {
namespace {

std::string Dir() { return ::testing::TempDir(); }

void CleanSlate(const std::string& name) {
  FileEnv* env = FileEnv::Default();
  (void)env->Remove(Dir() + "/" + name + ".wal");
  (void)env->Remove(Dir() + "/" + name + ".wal.tmp");
}

/// A fresh WAL (one "base" record) at <tmp>/<name>.wal through `env`.
std::unique_ptr<WalWriter> FreshWal(const std::string& name, FileEnv* env) {
  std::vector<WalRecord> base;
  base.push_back({"base", "state0"});
  Result<std::unique_ptr<WalWriter>> w =
      WalWriter::CreateWithRecords(Dir() + "/" + name + ".wal", env, base);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return w.ok() ? std::move(*w) : nullptr;
}

TEST(WalBatchTest, AppendBatchIsOneWriteOneSync) {
  CleanSlate("gc_batch");
  // A fault-free FaultInjectingEnv is the operation counter.
  FaultInjectingEnv env(FaultPlan{}, FileEnv::Default());
  std::unique_ptr<WalWriter> wal = FreshWal("gc_batch", &env);
  ASSERT_NE(wal, nullptr);

  const int before_writes = env.writes();
  const int before_syncs = env.syncs();
  std::vector<WalRecord> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back({"event", "payload" + std::to_string(i)});
  }
  ASSERT_TRUE(wal->AppendBatch(batch).ok());
  EXPECT_EQ(env.writes() - before_writes, 1);
  EXPECT_EQ(env.syncs() - before_syncs, 1);

  Result<WalContents> read =
      ReadWal(Dir() + "/gc_batch.wal", FileEnv::Default());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->truncated_tail);
  ASSERT_EQ(read->records.size(), 6u);  // base + 5.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(read->records[static_cast<std::size_t>(i + 1)].type, "event");
    EXPECT_EQ(read->records[static_cast<std::size_t>(i + 1)].payload,
              "payload" + std::to_string(i));
  }
}

TEST(WalBatchTest, EmptyBatchIsFree) {
  CleanSlate("gc_empty");
  FaultInjectingEnv env(FaultPlan{}, FileEnv::Default());
  std::unique_ptr<WalWriter> wal = FreshWal("gc_empty", &env);
  ASSERT_NE(wal, nullptr);
  const int before_writes = env.writes();
  const int before_syncs = env.syncs();
  ASSERT_TRUE(wal->AppendBatch({}).ok());
  EXPECT_EQ(env.writes(), before_writes);
  EXPECT_EQ(env.syncs(), before_syncs);
}

TEST(GroupCommitTest, GroupPolicyDrainsPendingRecordsUnderOneSync) {
  CleanSlate("gc_group");
  SyncGateEnv gate(FileEnv::Default());
  std::unique_ptr<WalWriter> wal = FreshWal("gc_group", &gate);
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  GroupCommitter gc(wal.get(), opts);

  // Park the log thread inside the fsync of a head record, then queue 5
  // more: once released it must drain all 5 as one group with one fsync.
  gate.Arm();
  gc.Enqueue("event", "head");
  gate.AwaitHeld();
  std::vector<int> answered;  // Appended by the answer thread only.
  for (int i = 0; i < 5; ++i) {
    gc.Enqueue("event", "e" + std::to_string(i), [&answered, i](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      answered.push_back(i);
    });
  }
  gate.Release();
  ASSERT_TRUE(gc.Flush().ok());
  // Flush returned only after every completion ran, and they ran in
  // enqueue order.
  EXPECT_EQ(answered, (std::vector<int>{0, 1, 2, 3, 4}));

  GroupCommitter::Counters c = gc.counters();
  EXPECT_EQ(c.records, 6);
  EXPECT_EQ(c.batches, 2);
  EXPECT_EQ(c.syncs, 2);
  EXPECT_EQ(c.max_group, 5);

  Result<WalContents> read =
      ReadWal(Dir() + "/gc_group.wal", FileEnv::Default());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 7u);  // base + head + 5.
  // WAL order equals enqueue order.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(read->records[static_cast<std::size_t>(i + 2)].payload,
              "e" + std::to_string(i));
  }
}

TEST(GroupCommitTest, PerCommitPolicySyncsEveryRecord) {
  CleanSlate("gc_percommit");
  std::unique_ptr<WalWriter> wal =
      FreshWal("gc_percommit", FileEnv::Default());
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kPerCommit;
  GroupCommitter gc(wal.get(), opts);
  for (int i = 0; i < 3; ++i) {
    gc.Enqueue("event", "e" + std::to_string(i));
  }
  ASSERT_TRUE(gc.Flush().ok());
  GroupCommitter::Counters c = gc.counters();
  EXPECT_EQ(c.records, 3);
  EXPECT_EQ(c.syncs, 3);  // One fsync per record, grouping or not.
}

TEST(GroupCommitTest, NonePolicyNeverSyncs) {
  CleanSlate("gc_none");
  FaultInjectingEnv env(FaultPlan{}, FileEnv::Default());
  std::unique_ptr<WalWriter> wal = FreshWal("gc_none", &env);
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kNone;
  GroupCommitter gc(wal.get(), opts);
  const int before_syncs = env.syncs();
  for (int i = 0; i < 4; ++i) {
    gc.Enqueue("event", "e" + std::to_string(i));
  }
  ASSERT_TRUE(gc.Flush().ok());
  EXPECT_EQ(env.syncs(), before_syncs);
  EXPECT_EQ(gc.counters().syncs, 0);
  EXPECT_EQ(gc.counters().records, 4);
}

TEST(GroupCommitTest, MaxBatchBoundsTheGroup) {
  CleanSlate("gc_maxbatch");
  SyncGateEnv gate(FileEnv::Default());
  std::unique_ptr<WalWriter> wal = FreshWal("gc_maxbatch", &gate);
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  GroupCommitter gc(wal.get(), opts);

  // Queue more than one batch's worth behind a parked head record.
  gate.Arm();
  gc.Enqueue("event", "head");
  gate.AwaitHeld();
  constexpr int kQueued = GroupCommitter::kMaxBatch + 3;
  for (int i = 0; i < kQueued; ++i) {
    gc.Enqueue("event", "e" + std::to_string(i));
  }
  gate.Release();
  ASSERT_TRUE(gc.Flush().ok());
  GroupCommitter::Counters c = gc.counters();
  EXPECT_EQ(c.records, kQueued + 1);
  EXPECT_EQ(c.max_group, GroupCommitter::kMaxBatch);
  EXPECT_EQ(c.batches, 3);  // head, kMaxBatch, 3.
}

TEST(GroupCommitTest, FullQueueBlocksEnqueueUntilTheLogThreadDrains) {
  CleanSlate("gc_backpressure");
  SyncGateEnv gate(FileEnv::Default());
  std::unique_ptr<WalWriter> wal = FreshWal("gc_backpressure", &gate);
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  GroupCommitter gc(wal.get(), opts);

  // The head record is out of the queue and mid-fsync; fill the queue to
  // its bound behind it.
  gate.Arm();
  gc.Enqueue("event", "head");
  gate.AwaitHeld();
  for (int i = 0; i < GroupCommitter::kMaxQueue; ++i) {
    gc.Enqueue("event", "q");
  }
  // One more must block -- backpressure, not a drop -- until the log
  // thread frees space, which it cannot do while parked.
  std::thread blocked([&gc] {
    EXPECT_TRUE(gc.Commit("event", "last").ok());
  });
  while (gc.counters().queue_waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gc.counters().records, GroupCommitter::kMaxQueue + 1);
  gate.Release();
  blocked.join();

  GroupCommitter::Counters c = gc.counters();
  EXPECT_EQ(c.records, GroupCommitter::kMaxQueue + 2);  // Nothing dropped.
  EXPECT_EQ(c.queue_waits, 1);
  Result<WalContents> read =
      ReadWal(Dir() + "/gc_backpressure.wal", FileEnv::Default());
  ASSERT_TRUE(read.ok());
  // base + head + the full queue + last.
  ASSERT_EQ(read->records.size(),
            static_cast<std::size_t>(GroupCommitter::kMaxQueue) + 3);
  EXPECT_EQ(read->records.back().payload, "last");
}

TEST(GroupCommitTest, FirstFailureIsStickyAndLaterCommitsFailFast) {
  CleanSlate("gc_sticky");
  std::unique_ptr<WalWriter> created =
      FreshWal("gc_sticky", FileEnv::Default());
  ASSERT_NE(created, nullptr);
  created.reset();
  // Reopen the log through an env whose first sync fails.
  FaultPlan plan;
  plan.fail_sync = 0;
  FaultInjectingEnv failing(plan, FileEnv::Default());
  Result<std::unique_ptr<WalWriter>> w =
      WalWriter::OpenForAppend(Dir() + "/gc_sticky.wal", &failing);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  GroupCommitter gc(w->get(), opts);
  Status first = gc.Commit("event", "x");
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(gc.status().code(), first.code());
  // The WAL is now suspect: later commits fail fast without touching it,
  // reporting the original (sticky) failure.
  Status st = gc.Commit("event", "y");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), first.code());
  // And the env saw no I/O after the crash (it plays dead anyway, but the
  // committer must not even try: the file may be torn mid-frame).
  EXPECT_TRUE(failing.crashed());
}

/// The observer feeds the server's stats; it must see every batch with the
/// right record count and sync flag.
TEST(GroupCommitTest, BatchObserverSeesEveryGroup) {
  CleanSlate("gc_observer");
  std::unique_ptr<WalWriter> wal =
      FreshWal("gc_observer", FileEnv::Default());
  ASSERT_NE(wal, nullptr);
  int observed_batches = 0;
  int observed_records = 0;
  int observed_synced = 0;
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  opts.batch_observer = [&](int records, std::int64_t sync_us, bool synced) {
    (void)sync_us;
    ++observed_batches;
    observed_records += records;
    if (synced) ++observed_synced;
  };
  GroupCommitter gc(wal.get(), opts);
  for (int i = 0; i < 4; ++i) {
    gc.Enqueue("event", "e" + std::to_string(i));
  }
  ASSERT_TRUE(gc.Flush().ok());
  EXPECT_EQ(observed_records, 4);
  EXPECT_EQ(observed_batches, observed_synced);
  EXPECT_EQ(static_cast<std::int64_t>(observed_batches),
            gc.counters().batches);
}

TEST(GroupCommitTest, ManyConcurrentCommittersAllLandInOrderPerThread) {
  CleanSlate("gc_mt");
  std::unique_ptr<WalWriter> wal = FreshWal("gc_mt", FileEnv::Default());
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  GroupCommitter gc(wal.get(), opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gc, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Status st = gc.Commit(
            "event", std::to_string(t) + ":" + std::to_string(i));
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  GroupCommitter::Counters c = gc.counters();
  EXPECT_EQ(c.records, kThreads * kPerThread);
  // The point of the exercise: fewer fsyncs than records means groups
  // actually formed. (>= 1 group of >= 1 is all that is guaranteed on a
  // fully serialized machine, but every record must still be on disk.)
  EXPECT_LE(c.syncs, c.records);

  Result<WalContents> read = ReadWal(Dir() + "/gc_mt.wal",
                                     FileEnv::Default());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(),
            static_cast<std::size_t>(kThreads * kPerThread) + 1);
  // Per-thread program order survives interleaving: thread t's records
  // appear in i-order (the global interleaving is free).
  std::vector<int> last_seen(kThreads, -1);
  for (std::size_t r = 1; r < read->records.size(); ++r) {
    const std::string& p = read->records[r].payload;
    const std::size_t colon = p.find(':');
    ASSERT_NE(colon, std::string::npos);
    const int t = std::stoi(p.substr(0, colon));
    const int i = std::stoi(p.substr(colon + 1));
    EXPECT_EQ(i, last_seen[static_cast<std::size_t>(t)] + 1)
        << "thread " << t << " commits reordered";
    last_seen[static_cast<std::size_t>(t)] = i;
  }
}

TEST(GroupCommitTest, DestructorDrainsTheQueueAndAnswersEveryRecord) {
  CleanSlate("gc_drain");
  std::unique_ptr<WalWriter> wal = FreshWal("gc_drain", FileEnv::Default());
  ASSERT_NE(wal, nullptr);
  GroupCommitter::Options opts;
  opts.policy = WalSyncPolicy::kGroup;
  auto gc = std::make_unique<GroupCommitter>(wal.get(), opts);
  // Park the answer thread inside e0's completion, queue e1..e3, and only
  // release it once the destructor has started: the destructor, not a
  // Flush, must write and answer them.
  std::atomic<int> answered{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  gc->Enqueue("event", "e0", [&](Status st) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    parked = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++answered;
  });
  while (!parked) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 1; i < 4; ++i) {
    gc->Enqueue("event", "e" + std::to_string(i), [&answered](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      ++answered;
    });
  }
  std::thread destroy([&gc] { gc.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release = true;
  destroy.join();
  EXPECT_EQ(answered, 4);
  Result<WalContents> read =
      ReadWal(Dir() + "/gc_drain.wal", FileEnv::Default());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 5u);  // base + 4.
}

// --- The durability property: acked commits survive every crash point. ---

struct CrashRun {
  int acked = 0;       ///< Commits that returned OK, a prefix count.
  bool crashed = false;
};

/// Runs the fixed 6-commit script against a WAL on `env`, committing
/// through a GroupCommitter with `policy`. `enqueue_first` stresses the
/// multi-record-batch geometry: e1..e5 are queued while the log thread is
/// parked inside e0's fsync, so one drain covers all five. Returns how
/// many commits were acknowledged OK. Commits are acked strictly in order,
/// so `acked` is a prefix count.
CrashRun RunCommitScript(const std::string& path, FileEnv* env,
                         WalSyncPolicy policy, bool enqueue_first) {
  CrashRun out;
  SyncGateEnv gate(env);
  std::vector<WalRecord> base;
  base.push_back({"base", "state0"});
  Result<std::unique_ptr<WalWriter>> w =
      WalWriter::CreateWithRecords(path, &gate, base);
  if (!w.ok()) {
    out.crashed = true;
    return out;
  }
  GroupCommitter::Options opts;
  opts.policy = policy;
  GroupCommitter gc(w->get(), opts);
  constexpr int kCommits = 6;
  if (enqueue_first) {
    std::vector<Status> statuses(kCommits);  // Set by the completions.
    std::atomic<bool> head_done{false};
    gate.Arm();
    gc.Enqueue("event", "e0", [&statuses, &head_done](Status st) {
      statuses[0] = std::move(st);
      head_done = true;
    });
    // A fault in e0's write resolves it before any fsync reaches the gate.
    while (!gate.held() && !head_done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 1; i < kCommits; ++i) {
      gc.Enqueue("event", "e" + std::to_string(i),
                 [&statuses, i](Status st) {
                   statuses[static_cast<std::size_t>(i)] = std::move(st);
                 });
    }
    gate.Release();
    (void)gc.Flush();
    for (int i = 0; i < kCommits; ++i) {
      if (!statuses[static_cast<std::size_t>(i)].ok()) {
        out.crashed = true;
        return out;
      }
      out.acked = i + 1;
    }
  } else {
    for (int i = 0; i < kCommits; ++i) {
      if (!gc.Commit("event", "e" + std::to_string(i)).ok()) {
        out.crashed = true;
        return out;
      }
      out.acked = i + 1;
    }
  }
  return out;
}

TEST(GroupCommitCrashTest, AckedCommitsAreAPrefixOfRecoveryAtEveryFault) {
  const WalSyncPolicy policies[] = {WalSyncPolicy::kPerCommit,
                                    WalSyncPolicy::kGroup};
  const long prefixes[] = {0, 7, 1 << 20};
  for (WalSyncPolicy policy : policies) {
    for (bool enqueue_first : {false, true}) {
      const std::string name =
          std::string("gc_crash_") + WalSyncPolicyName(policy) +
          (enqueue_first ? "_batch" : "_seq");
      const std::string path = Dir() + "/" + name + ".wal";

      // Planning run: count the fault points a clean run crosses.
      CleanSlate(name);
      FaultInjectingEnv plan_env(FaultPlan{}, FileEnv::Default());
      CrashRun clean =
          RunCommitScript(path, &plan_env, policy, enqueue_first);
      ASSERT_FALSE(clean.crashed);
      ASSERT_EQ(clean.acked, 6);
      const int writes = plan_env.writes();
      const int syncs = plan_env.syncs();

      // Crash at every write and every sync, with three torn-write shapes.
      for (int kind = 0; kind < 2; ++kind) {
        const int points = kind == 0 ? writes : syncs;
        for (int at = 0; at < points; ++at) {
          for (long prefix : prefixes) {
            SCOPED_TRACE(name + (kind == 0 ? " write " : " sync ") +
                         std::to_string(at) + " prefix " +
                         std::to_string(prefix));
            CleanSlate(name);
            FaultPlan plan;
            if (kind == 0) {
              plan.fail_write = at;
            } else {
              plan.fail_sync = at;
            }
            plan.persist_prefix = prefix;
            FaultInjectingEnv env(plan, FileEnv::Default());
            CrashRun run =
                RunCommitScript(path, &env, policy, enqueue_first);
            EXPECT_TRUE(run.crashed);

            // Recovery reads whatever the "disk" holds. A torn tail is
            // legal (dropped); a mid-log parse error is not.
            if (!FileEnv::Default()->Exists(path)) {
              // Crashed before the base checkpoint was renamed into
              // place: nothing was acked, nothing to recover.
              EXPECT_EQ(run.acked, 0);
              continue;
            }
            Result<WalContents> read = ReadWal(path, FileEnv::Default());
            ASSERT_TRUE(read.ok()) << read.status().ToString();
            ASSERT_GE(read->records.size(), 1u);
            EXPECT_EQ(read->records[0].type, "base");
            // The recovered records must be a clean prefix of the script
            // (e0, e1, ...), and every acked commit must be inside it.
            const int recovered =
                static_cast<int>(read->records.size()) - 1;
            for (int i = 0; i < recovered; ++i) {
              EXPECT_EQ(read->records[static_cast<std::size_t>(i + 1)]
                            .payload,
                        "e" + std::to_string(i));
            }
            EXPECT_LE(run.acked, recovered)
                << "an acknowledged commit vanished in the crash";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace isis::store
