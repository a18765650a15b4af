/// \file harness.h
/// \brief What every workload of the ISIS benchmark shares: the run
/// configuration, the header line, per-class op accounting, percentiles,
/// the span recorder of the traced run, a file environment that counts and
/// times WAL traffic, and the JSON result line.

#ifndef ISISBENCH_HARNESS_H_
#define ISISBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/file.h"

namespace isisbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MicrosSince(Clock::time_point t0);

/// One invocation of the benchmark binary.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;        ///< Sets the amount of fixed work (rounds).
  bool trace = false;
  bool toy = false;        ///< Self-check sizes: seconds of work, not minutes.
  std::string dir;         ///< Directory for this run's durable files.
  std::string git_sha = "unknown";
  /// Self-check only: corrupt one expected answer so the checks must fail.
  bool inject_wrong_answer = false;
};

/// The timed phase runs its fixed rounds, but stops at a round boundary
/// once twice `--seconds` has passed, so a run on a slowed-down machine
/// still ends in bounded time.
Clock::duration TimedPhaseCap(const RunConfig& cfg);

/// Prints the run header line (nproc, compiler, build type, git sha, seed,
/// dataset scale, the workload's shape and the CPU it is pinned to, -1 for
/// none) to stdout.
void PrintHeader(const RunConfig& cfg, int scale, int clients, int rounds,
                 int pinned_cpu);

/// Restricts this thread, and every thread it starts afterwards, to the
/// CPU it is running on. Returns that CPU, or -1 if it could not pin.
int PinToCurrentCpu();

/// True when this binary was built with optimization and without asserts.
bool OptimizedBuild();

/// q-quantile (0..1) by linear interpolation between closest ranks; 0 for
/// an empty sample. Takes a copy: callers keep their sample order.
double Percentile(std::vector<double> v, double q);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

/// \brief Operations of one timed phase: when each ended (seconds into the
/// phase), how long it took, and whether it was a write.
///
/// Rates and medians are taken per slice of the phase and then their median
/// is reported, so that a slow spell of the machine covering a few slices
/// does not move the figure.
class Timeline {
 public:
  void Add(double end_s, double us, bool write);
  void Append(const Timeline& other);

  /// Median over `slices` equal slices of [0, elapsed] of the operations
  /// completed per second in each.
  double MedianRate(double elapsed, int slices) const;
  /// Median over the slices of each slice's median latency of reads (or of
  /// writes); slices without such an operation are skipped.
  double MedianP50(bool write, double elapsed, int slices) const;
  /// 99th-percentile latency of reads (or writes) over the whole phase.
  double P99(bool write) const;

 private:
  struct Op {
    double end_s;
    double us;
    bool write;
  };
  std::vector<Op> ops_;
};

/// Number of slices a timed phase is cut into: two per `--seconds`.
int Slices(const RunConfig& cfg);

/// Peak resident set size of this process, in MB (getrusage).
double PeakRssMb();

/// Attempted/failed counts of one op class ("query", "assign", ...).
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Per-class accounting plus the check verdicts of one run.
class Outcome {
 public:
  void Count(const std::string& op_class, bool ok);
  void Merge(const Outcome& other);
  /// Records a failed correctness check (printed to stderr, makes the run
  /// incorrect).
  void CheckFailed(const std::string& what);
  bool correct() const { return check_failures_ == 0; }
  std::int64_t attempted() const;
  std::int64_t failed() const;
  /// One `ops <class> attempted=N failed=M` line per class, to stdout.
  void PrintCounts() const;

 private:
  std::map<std::string, OpCount> counts_;
  std::int64_t check_failures_ = 0;
};

/// Metrics of one run, in the order they were added.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Prints the final result line to stdout: correct, attempted, failed and
  /// every metric with its unit.
  void PrintResult(const Outcome& outcome) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// \brief Spans of the traced replay: a name and its start and end, kept in
/// memory and summarized at the end.
///
/// Single-threaded (the replay is). When disabled, Begin/End cost one
/// branch, so the same replay code measures the untraced baseline.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span. Returns its index, or -1 when disabled.
  int Begin(const char* name);
  void End(int index);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec->Begin(name)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// \brief FileEnv over the real file system that counts bytes written to
/// and syncs of WAL files (paths containing ".wal"), and gives every sync
/// (WAL appends and checkpoint snapshots alike) a fixed modeled device
/// latency instead of a real fsync.
///
/// Handed to the server and the durable controller through their public
/// `env` hooks, so WAL traffic is measured from outside the program. A
/// sync still hands the bytes to the operating system (fflush), so the
/// page cache holds them and a process crash (what the benchmark
/// simulates) loses nothing. The flush itself is modeled because on a
/// shared virtual disk its latency swung 2x between runs minutes apart,
/// while everything else the program does stayed within 10%; a fixed
/// flush cost keeps the program's syncs on its latency path (each sync
/// still blocks its caller, and group commit still batches behind it)
/// without importing the neighbours' I/O into every comparison.
class CountingEnv : public isis::store::FileEnv {
 public:
  struct Totals {
    std::int64_t wal_bytes = 0;
    std::int64_t wal_syncs = 0;
  };

  isis::Result<std::unique_ptr<isis::store::WritableFile>> OpenForWrite(
      const std::string& path, bool append) override;
  isis::Status Rename(const std::string& from, const std::string& to) override;
  isis::Status Remove(const std::string& path) override;
  isis::Result<std::string> ReadFile(const std::string& path) override;
  bool Exists(const std::string& path) override;

  /// Latency of one modeled WAL sync.
  static constexpr std::chrono::microseconds kSyncLatency{100};

  Totals totals() const;

  void RecordWrite(std::int64_t bytes);
  void RecordSync();

 private:
  std::atomic<std::int64_t> wal_bytes_{0};
  std::atomic<std::int64_t> wal_syncs_{0};
};

/// Removes every regular file directly inside `dir`, then creates `dir` if
/// missing. The benchmark only ever writes flat directories.
void ResetDir(const std::string& dir);

/// Copies every regular file of `from` into `to` (emptied first): the
/// benchmark keeps the log a crash left behind, to recover from it again.
void CopyDir(const std::string& from, const std::string& to);

/// Small deterministic PRNG (splitmix64) the benchmark uses for its own
/// inputs, so they never depend on the program's generators.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) sampler over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(BenchRng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Derives an independent stream seed from (seed, a, b).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

}  // namespace isisbench

#endif  // ISISBENCH_HARNESS_H_
