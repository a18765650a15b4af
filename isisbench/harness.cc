#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace isisbench {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

Clock::duration TimedPhaseCap(const RunConfig& cfg) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::seconds(cfg.toy ? 3600 : 2 * cfg.seconds));
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

void PrintHeader(const RunConfig& cfg, int scale, int clients, int rounds,
                 int pinned_cpu) {
  std::printf(
      "# isisbench workload=%s seed=%llu seconds=%d trace=%d nproc=%u "
      "compiler=\"%s\" build_type=%s optimized=%s git_sha=%s scale=%d "
      "clients=%d rounds_per_client=%d pinned_cpu=%d\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
      ISISBENCH_COMPILER, ISISBENCH_BUILD_TYPE,
      OptimizedBuild() ? "yes" : "no", cfg.git_sha.c_str(), scale, clients,
      rounds, pinned_cpu);
  std::fflush(stdout);
}

int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Timeline::Add(double end_s, double us, bool write) {
  ops_.push_back({end_s, us, write});
}

void Timeline::Append(const Timeline& other) {
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

namespace {
std::size_t SliceOf(double end_s, double elapsed, int slices) {
  const double x = end_s / elapsed * slices;
  return std::min(static_cast<std::size_t>(std::max(0.0, x)),
                  static_cast<std::size_t>(slices - 1));
}
}  // namespace

double Timeline::MedianRate(double elapsed, int slices) const {
  if (elapsed <= 0 || slices < 1) return 0.0;
  std::vector<double> n(static_cast<std::size_t>(slices), 0.0);
  for (const Op& op : ops_) n[SliceOf(op.end_s, elapsed, slices)] += 1;
  for (double& x : n) x /= elapsed / slices;
  return Percentile(n, 0.5);
}

double Timeline::MedianP50(bool write, double elapsed, int slices) const {
  if (elapsed <= 0 || slices < 1) return 0.0;
  std::vector<std::vector<double>> us(static_cast<std::size_t>(slices));
  for (const Op& op : ops_) {
    if (op.write == write) {
      us[SliceOf(op.end_s, elapsed, slices)].push_back(op.us);
    }
  }
  std::vector<double> p50;
  for (const std::vector<double>& v : us) {
    if (!v.empty()) p50.push_back(Percentile(v, 0.5));
  }
  return Percentile(p50, 0.5);
}

double Timeline::P99(bool write) const {
  std::vector<double> us;
  for (const Op& op : ops_) {
    if (op.write == write) us.push_back(op.us);
  }
  return Percentile(us, 0.99);
}

int Slices(const RunConfig& cfg) { return cfg.toy ? 1 : 2 * cfg.seconds; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

// --- Outcome. ---

void Outcome::Count(const std::string& op_class, bool ok) {
  OpCount& c = counts_[op_class];
  ++c.attempted;
  if (!ok) ++c.failed;
}

void Outcome::Merge(const Outcome& other) {
  for (const auto& [name, c] : other.counts_) {
    counts_[name].attempted += c.attempted;
    counts_[name].failed += c.failed;
  }
  check_failures_ += other.check_failures_;
}

void Outcome::CheckFailed(const std::string& what) {
  if (check_failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++check_failures_;
}

std::int64_t Outcome::attempted() const {
  std::int64_t n = 0;
  for (const auto& [name, c] : counts_) n += c.attempted;
  return n;
}

std::int64_t Outcome::failed() const {
  std::int64_t n = 0;
  for (const auto& [name, c] : counts_) n += c.failed;
  return n;
}

void Outcome::PrintCounts() const {
  for (const auto& [name, c] : counts_) {
    std::printf("# ops %s attempted=%lld failed=%lld\n", name.c_str(),
                static_cast<long long>(c.attempted),
                static_cast<long long>(c.failed));
  }
  std::printf("# checks failed=%lld\n",
              static_cast<long long>(check_failures_));
}

// --- Metrics. ---

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

namespace {
std::string Number(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, r.ptr);
  // JSON has no "inf"/"nan"; Add() already mapped those to 0.
  return s;
}
}  // namespace

void Metrics::PrintResult(const Outcome& outcome) const {
  std::string line = "{\"correct\": ";
  line += outcome.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted());
  line += ", \"failed\": " + std::to_string(outcome.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + entries_[i].name + "\": {\"value\": " +
            Number(entries_[i].value) + ", \"unit\": \"" + entries_[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- SpanRecorder. ---

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  spans_.push_back({name, Clock::now(), {}});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(
          std::chrono::duration<double, std::micro>(s.end - s.start).count());
    }
  }
  return out;
}

// --- CountingEnv. ---

namespace {

/// A stdio file whose Sync hands the bytes to the operating system
/// (fflush) and then waits the modeled device latency instead of fsync.
class ModeledSyncFile : public isis::store::WritableFile {
 public:
  ModeledSyncFile(std::FILE* f, CountingEnv* env, bool wal)
      : f_(f), env_(env), wal_(wal) {}
  ~ModeledSyncFile() override { (void)Close(); }

  isis::Status Write(std::string_view data) override {
    if (f_ == nullptr) return isis::Status::IOError("file is closed");
    if (std::fwrite(data.data(), 1, data.size(), f_) != data.size()) {
      return isis::Status::IOError("short write");
    }
    if (wal_) env_->RecordWrite(static_cast<std::int64_t>(data.size()));
    return isis::Status::OK();
  }
  isis::Status Sync() override {
    if (f_ == nullptr) return isis::Status::IOError("file is closed");
    if (std::fflush(f_) != 0) return isis::Status::IOError("flush failed");
    std::this_thread::sleep_for(CountingEnv::kSyncLatency);
    if (wal_) env_->RecordSync();
    return isis::Status::OK();
  }
  isis::Status Close() override {
    if (f_ == nullptr) return isis::Status::OK();
    std::FILE* f = f_;
    f_ = nullptr;
    return std::fclose(f) == 0 ? isis::Status::OK()
                               : isis::Status::IOError("close failed");
  }

 private:
  std::FILE* f_;
  CountingEnv* env_;
  bool wal_;
};

}  // namespace

isis::Result<std::unique_ptr<isis::store::WritableFile>>
CountingEnv::OpenForWrite(const std::string& path, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    return isis::Status::IOError("cannot open '" + path + "' for writing");
  }
  const bool wal = path.find(".wal") != std::string::npos;
  std::unique_ptr<isis::store::WritableFile> file =
      std::make_unique<ModeledSyncFile>(f, this, wal);
  return file;
}

isis::Status CountingEnv::Rename(const std::string& from,
                                 const std::string& to) {
  return isis::store::FileEnv::Default()->Rename(from, to);
}

isis::Status CountingEnv::Remove(const std::string& path) {
  return isis::store::FileEnv::Default()->Remove(path);
}

isis::Result<std::string> CountingEnv::ReadFile(const std::string& path) {
  return isis::store::FileEnv::Default()->ReadFile(path);
}

bool CountingEnv::Exists(const std::string& path) {
  return isis::store::FileEnv::Default()->Exists(path);
}

void CountingEnv::RecordWrite(std::int64_t bytes) {
  wal_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void CountingEnv::RecordSync() {
  wal_syncs_.fetch_add(1, std::memory_order_relaxed);
}

CountingEnv::Totals CountingEnv::totals() const {
  Totals t;
  t.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  t.wal_syncs = wal_syncs_.load(std::memory_order_relaxed);
  return t;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) std::filesystem::remove(entry.path(), ec);
  }
}

void CopyDir(const std::string& from, const std::string& to) {
  ResetDir(to);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(from, ec)) {
    if (entry.is_regular_file()) {
      std::filesystem::copy_file(
          entry.path(), std::filesystem::path(to) / entry.path().filename(),
                                 ec);
    }
  }
}

// --- Random inputs. ---

std::uint64_t BenchRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Sample(BenchRng* rng) const {
  const double u = rng->Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  BenchRng r(seed * 0x100000001b3ULL ^ (a + 0x632be59bd9b4e019ULL) ^
             (b * 0x9e3779b97f4a7c15ULL));
  r.Next();
  return r.Next();
}

}  // namespace isisbench
