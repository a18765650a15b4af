/// \file sync_gate_env.h
/// \brief A FileEnv decorator that can hold one fsync: tests use it to park
/// a group committer's log thread mid-batch, so the records queued behind
/// it form a batch of a known shape.

#ifndef ISIS_TESTS_SYNC_GATE_ENV_H_
#define ISIS_TESTS_SYNC_GATE_ENV_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/sync.h"
#include "store/file.h"

namespace isis::store {

/// After Arm(), the next WritableFile::Sync through this env blocks (before
/// reaching `base`) until Release(). Every other call passes straight
/// through.
class SyncGateEnv : public FileEnv {
 public:
  explicit SyncGateEnv(FileEnv* base) : base_(base) {}
  SyncGateEnv(const SyncGateEnv&) = delete;  // Its files hold its address.
  SyncGateEnv& operator=(const SyncGateEnv&) = delete;

  void Arm() {
    MutexLock lock(mu_);
    armed_ = true;
  }
  /// True once a Sync is parked at the gate (stays true after Release).
  bool held() const {
    MutexLock lock(mu_);
    return held_;
  }
  /// Blocks until a Sync is parked at the gate.
  void AwaitHeld() {
    MutexLock lock(mu_);
    cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return held_;
    });
  }
  void Release() {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

  Result<std::unique_ptr<WritableFile>> OpenForWrite(const std::string& path,
                                                     bool append) override {
    Result<std::unique_ptr<WritableFile>> file =
        base_->OpenForWrite(path, append);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<GatedFile>(this, std::move(*file)));
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  bool Exists(const std::string& path) override {
    return base_->Exists(path);
  }

 private:
  class GatedFile : public WritableFile {
   public:
    GatedFile(SyncGateEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Write(std::string_view data) override {
      return base_->Write(data);
    }
    Status Sync() override {
      env_->Pass();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    SyncGateEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  void Pass() {
    MutexLock lock(mu_);
    if (!armed_) return;
    armed_ = false;
    held_ = true;
    cv_.NotifyAll();
    cv_.Wait(lock, [this] {
      mu_.AssertHeld();
      return released_;
    });
  }

  FileEnv* base_;
  mutable Mutex mu_;
  CondVar cv_;
  bool armed_ ISIS_GUARDED_BY(mu_) = false;
  bool held_ ISIS_GUARDED_BY(mu_) = false;
  bool released_ ISIS_GUARDED_BY(mu_) = false;
};

}  // namespace isis::store

#endif  // ISIS_TESTS_SYNC_GATE_ENV_H_
