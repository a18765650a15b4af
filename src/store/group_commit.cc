#include "store/group_commit.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <utility>

namespace isis::store {

namespace {

std::int64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Result<WalSyncPolicy> ParseWalSyncPolicy(const std::string& name) {
  if (name == "per_commit") return WalSyncPolicy::kPerCommit;
  if (name == "group") return WalSyncPolicy::kGroup;
  if (name == "none") return WalSyncPolicy::kNone;
  return Status::InvalidArgument(
      "unknown WAL sync policy '" + name +
      "' (expected per_commit, group or none)");
}

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kPerCommit:
      return "per_commit";
    case WalSyncPolicy::kGroup:
      return "group";
    case WalSyncPolicy::kNone:
      return "none";
  }
  return "?";
}

GroupCommitter::GroupCommitter(WalWriter* wal, const Options& options)
    : options_(options),
      wal_(wal),
      log_thread_([this] { LogLoop(); }),
      answer_thread_([this] { AnswerLoop(); }) {}

GroupCommitter::~GroupCommitter() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    work_cv_.NotifyAll();
  }
  log_thread_.join();  // Every record is written.
  {
    MutexLock lock(mu_);
    log_stopped_ = true;
    answer_cv_.NotifyAll();
  }
  answer_thread_.join();  // Every record is answered.
}

void GroupCommitter::Enqueue(std::string type, std::string payload,
                             Completion on_durable) {
  MutexLock lock(mu_);
  if (pending_.size() >= static_cast<std::size_t>(kMaxQueue)) {
    // Backpressure, not rejection: the log thread frees space within one
    // batch, and neither it nor a completion ever takes the database lock
    // this enqueuer may hold.
    ++counters_.queue_waits;
    done_cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return pending_.size() < static_cast<std::size_t>(kMaxQueue);
    });
  }
  pending_.push_back(
      {{std::move(type), std::move(payload)}, std::move(on_durable)});
  ++counters_.records;
  // Wake the log thread after unlocking, or it wakes only to block on mu_.
  lock.Unlock();
  work_cv_.NotifyOne();
}

Status GroupCommitter::Commit(std::string type, std::string payload) {
  // The completion co-owns the promise, so it outlives set_value.
  auto durable = std::make_shared<std::promise<Status>>();
  std::future<Status> result = durable->get_future();
  Enqueue(std::move(type), std::move(payload),
          [durable](Status st) { durable->set_value(std::move(st)); });
  return result.get();
}

Status GroupCommitter::WriteBatch(const std::vector<WalRecord>& batch,
                                  std::size_t* ok_records,
                                  std::int64_t* syncs,
                                  std::int64_t* sync_us) {
  const auto observe = [this](int records, std::int64_t us, bool synced) {
    if (options_.batch_observer) options_.batch_observer(records, us, synced);
  };
  if (options_.policy == WalSyncPolicy::kPerCommit) {
    for (const WalRecord& r : batch) {
      auto t0 = std::chrono::steady_clock::now();
      ISIS_RETURN_NOT_OK(wal_->Append(r.type, r.payload));
      const std::int64_t us = MicrosSince(t0);
      ++*ok_records;
      ++*syncs;
      *sync_us += us;
      observe(1, us, true);
    }
    return Status::OK();
  }
  Status st = wal_->AppendRecords(batch);
  const bool sync = options_.policy == WalSyncPolicy::kGroup;
  if (st.ok() && sync) {
    auto t0 = std::chrono::steady_clock::now();
    st = wal_->Sync();
    *sync_us = MicrosSince(t0);
    ++*syncs;
  }
  if (st.ok()) *ok_records = batch.size();
  observe(static_cast<int>(batch.size()), *sync_us, sync);
  return st;
}

void GroupCommitter::LogLoop() {
  MutexLock lock(mu_);
  for (;;) {
    work_cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return !pending_.empty() || stopping_;
    });
    if (pending_.empty()) return;  // Stopping, and the queue is drained.

    // Claim a batch; its I/O runs outside the mutex.
    WrittenBatch written;
    written.first = taken_ + 1;
    const std::size_t n =
        std::min(pending_.size(), static_cast<std::size_t>(kMaxBatch));
    taken_ += n;
    std::vector<WalRecord> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(pending_.front().record));
      written.completions.push_back(std::move(pending_.front().on_durable));
      pending_.pop_front();
    }
    const bool already_failed = failed_from_ != 0;
    done_cv_.NotifyAll();  // Queue space freed: unblock enqueuers.
    lock.Unlock();

    std::size_t ok_records = 0;
    std::int64_t syncs = 0;
    std::int64_t sync_us = 0;
    // A failed WAL may be torn mid-frame; appending more could bury the
    // tear under fresh frames, so a later batch skips the I/O and takes
    // the sticky failure below.
    const Status st =
        already_failed ? Status::OK()
                       : WriteBatch(batch, &ok_records, &syncs, &sync_us);

    lock.Lock();
    if (!st.ok()) {
      fail_ = st;
      failed_from_ = written.first + ok_records;
    }
    ++counters_.batches;
    counters_.syncs += syncs;
    counters_.sync_us += sync_us;
    counters_.max_group =
        std::max(counters_.max_group, static_cast<std::int64_t>(n));
    written_.push_back(std::move(written));
    answer_cv_.NotifyOne();
  }
}

void GroupCommitter::AnswerLoop() {
  MutexLock lock(mu_);
  for (;;) {
    answer_cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return !written_.empty() || log_stopped_;
    });
    if (written_.empty()) return;  // The log thread is gone: all answered.
    WrittenBatch b = std::move(written_.front());
    written_.pop_front();
    // The failure is sticky and set once, so what holds now held when the
    // batch was written.
    const std::uint64_t failed_from = failed_from_;
    const Status fail = fail_;
    lock.Unlock();

    for (std::size_t i = 0; i < b.completions.size(); ++i) {
      const bool ok = failed_from == 0 || b.first + i < failed_from;
      if (b.completions[i]) b.completions[i](ok ? Status::OK() : fail);
    }
    const std::uint64_t last = b.first + b.completions.size() - 1;
    b.completions.clear();  // Their captures are released outside the mutex.

    lock.Lock();
    done_ = last;
    done_cv_.NotifyAll();  // Flush waiters.
  }
}

Status GroupCommitter::Flush() {
  MutexLock lock(mu_);
  const std::uint64_t target = counters_.records;
  done_cv_.Wait(lock, [this, target] {
    mu_.AssertHeld();
    return done_ >= target;
  });
  const bool ok = failed_from_ == 0 || target < failed_from_;
  return ok ? Status::OK() : fail_;
}

Status GroupCommitter::status() const {
  MutexLock lock(mu_);
  return fail_;
}

GroupCommitter::Counters GroupCommitter::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace isis::store
