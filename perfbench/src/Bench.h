//===- perfbench/src/Bench.h - Repository benchmark -----------*- C++ -*-===//
///
/// \file
/// Shared pieces of the repository benchmark: run configuration, the
/// metric sink that becomes the final JSON line, sample statistics, the
/// in-memory span recorder of the traced run, and the machine probe.
/// The workloads themselves live in KernelsWorkload.cpp and
/// ServiceWorkload.cpp; main.cpp parses arguments and prints the result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double nsToMs(uint64_t Ns) { return double(Ns) / 1e6; }

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string TraceOut;
  /// Self-check of the output verification: corrupt the output of every
  /// Nth checked run or response after it completes (0 = never).
  unsigned CorruptEvery = 0;
};

/// Everything a workload reports: attempted/failed tallies and the named
/// metrics of the final JSON line (end-to-end ones when untraced,
/// per-layer ones when traced).
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when a verification step itself could not be trusted (the
  /// corrupted-output teeth check let a corruption through).
  bool CheckerOk = true;
  struct Metric {
    double Value;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
};

// --- sample statistics ----------------------------------------------------

/// Linear-interpolated quantile \p Q in [0,1] of \p V (copied, sorted).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double geomean(const std::vector<double> &V);
/// The quantile the gated timings of short calls report. A shared host
/// slows this machine's cores in episodes of a fraction of a second
/// that have nothing to do with the program: a 2-12 ms kernel call then
/// takes one of two times, about 1.7x apart, and the share of slow
/// calls changed from about 10% to 95% between runs minutes apart. A
/// median lands in either mode; the 5th percentile stayed in the fast
/// mode in every run seen, and a change to the program moves both
/// modes.
constexpr double FastQuantile = 0.05;
double mean(const std::vector<double> &V);

/// Peak resident set size of this process in MiB.
double peakRssMiB();

/// Machine-wide CPU time counters from /proc/stat (jiffies): all
/// states, and the time the hypervisor gave this machine's CPUs to
/// other guests ("steal"). Zero where /proc/stat is unreadable.
struct CpuTimes {
  uint64_t Total = 0, Steal = 0;
};
CpuTimes cpuTimes();

// --- traced-run spans -----------------------------------------------------

/// One recorded interval around a public library call (or a benchmark
/// phase that groups such calls).
struct SpanRec {
  std::string Name;
  uint64_t StartNs = 0, EndNs = 0;
  int64_t Parent = -1; ///< index into the recorder, -1 for a root
  std::string Id;      ///< kernel name or request id
  std::string Attrs;   ///< JSON object: the call's report phases/counters
  uint32_t Thread = 0;
};

/// In-memory span store of the traced run. Disabled (the untraced runs)
/// it records nothing and every call is a flag test.
class Tracer {
public:
  static Tracer &get();

  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span and returns its index (-1 when disabled). \p Parent
  /// defaults to the innermost span open on this thread.
  int64_t begin(const std::string &Name, const std::string &Id,
                int64_t Parent = -2);
  void end(int64_t Idx, const std::string &Attrs = "");
  size_t size() const;

  /// Writes every span as a Chrome trace ("X" events, with parent, id,
  /// self time and attributes in args) to \p Path.
  bool write(const std::string &Path) const;
  /// Per span name: count, total and self milliseconds, where self time
  /// is the span minus the union of its children's intervals.
  void printSelfTimes() const;

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
};

/// RAII span; a no-op when tracing is off.
class Span {
public:
  Span(const std::string &Name, const std::string &Id, int64_t Parent = -2)
      : Idx(Tracer::get().enabled() ? Tracer::get().begin(Name, Id, Parent)
                                    : -1) {}
  ~Span() {
    if (Idx >= 0)
      Tracer::get().end(Idx, Attrs);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  int64_t index() const { return Idx; }
  void attrs(std::string A) { Attrs = std::move(A); }
  bool active() const { return Idx >= 0; }

private:
  int64_t Idx;
  std::string Attrs;
};

// --- machine probe --------------------------------------------------------

struct MachineProbe {
  double TriadGBps = 0;   ///< STREAM triad, computed bytes (24 B/element)
  double FmaGFlops = 0;   ///< independent multiply-add chains, 2 flop each
  double TriadMiB = 0;    ///< triad working set
  unsigned Threads = 1;
};

/// Runs the triad and multiply-add loops on \p Threads threads.
MachineProbe probeMachine(unsigned Threads);

// --- workloads ------------------------------------------------------------

Result runKernels(const RunConfig &Cfg, unsigned Threads,
                  const MachineProbe &Probe);
Result runService(const RunConfig &Cfg, const MachineProbe &Probe);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
