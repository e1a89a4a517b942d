//===- observability/Report.h - Structured execution stats ----*- C++ -*-===//
///
/// \file
/// The structured counterpart of the Chrome trace: one ExecReport per
/// Executor run (Executor::lastReport()), carrying the pipeline phase
/// timings, per-plan-loop engine/driver attribution, per-worker
/// wait/execute activity, and the run's exact counter deltas. Benches
/// embed the report in BENCH_*.json so tools/bench_check.py can show
/// *where* a ratio delta came from, and the cross-thread invariance
/// tests compare reports through structureKey(), which strips every
/// timing- and scheduling-dependent field.
///
/// Phase semantics (ns, monotonic clock): materialize, plan-compile
/// and specialize are measured at prepare() and repeated verbatim in
/// every run's report; execute and merge are per-run. Two containment
/// relations matter when summing: specialize is a subset of
/// plan-compile, and merge (privatized-accumulator merging after
/// parallel loops) is a subset of execute.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_OBSERVABILITY_REPORT_H
#define SYSTEC_OBSERVABILITY_REPORT_H

#include "observability/Histogram.h"
#include "support/Counters.h"

#include <cstdint>
#include <string>
#include <vector>

namespace systec {
namespace obs {

/// One pipeline phase timing.
struct PhaseStat {
  std::string Name;
  uint64_t Ns = 0;
};

/// One plan loop's execution aggregate. Labels and engine/driver names
/// are assigned at plan compilation; Calls/Ns are collected per run,
/// and only while tracing is enabled (zero otherwise — the hot path
/// stays untimed). Calls counts execRange dispatches, so it depends on
/// the parallel chunking; structureKey() therefore excludes it.
struct LoopStat {
  std::string Label;  ///< e.g. "loop i [Fused/SparseWalk]"
  std::string Engine; ///< "Interp", "Fused", or "Blocked"
  std::string Driver; ///< "Range", "DenseWalk", "SparseWalk", ...
  /// Parallel mode of an activated loop, fixed at plan compilation:
  /// "partitioned on j" (output partitioning: tasks own the coordinates
  /// of the j loop, nothing privatized), "privatized C" (per-task
  /// accumulators for the listed outputs and scalars, merged after the
  /// loop), or "disjoint" (tasks write disjoint cells of the loop's own
  /// variable); empty for loops that run inside a task or sequentially.
  /// Like PrivBytes it depends on Threads, so structureKey() excludes
  /// it.
  std::string Parallel;
  /// Privatized-accumulator bytes of an activated loop, all tasks
  /// summed (what ExecOptions::MemoryBudgetBytes is checked against);
  /// 0 when nothing is privatized.
  uint64_t PrivBytes = 0;
  uint64_t Calls = 0;
  uint64_t Ns = 0;
};

/// Wait/execute activity of one pool participant over the run (the
/// delta of the ThreadPool's always-on accounting between run start
/// and run end). The "caller" entry is the submitting thread's own
/// per-caller slot, so concurrent requests see their own wait/execute
/// split.
struct WorkerStat {
  std::string Name; ///< "worker-0", ..., or "caller"
  uint64_t WaitNs = 0;
  uint64_t ExecNs = 0;
  uint64_t Tasks = 0;
  LogHistogram TaskNs; ///< log2-bucketed per-task durations
};

struct ExecReport {
  std::vector<PhaseStat> Phases;
  std::vector<LoopStat> Loops;   ///< indexed by plan-loop trace id
  std::vector<WorkerStat> Workers;
  /// Exactly this run's counter deltas (captured from the execution
  /// context before the global flush, so concurrent executors do not
  /// bleed into each other).
  CounterSnapshot Counters;
  std::string Options; ///< execOptionsSummary() of the run's options
  /// Empty on a completed run; the errCodeName() of the stop reason
  /// ("cancelled", "deadline-exceeded") when the run was aborted.
  /// Deliberately excluded from structureKey(): whether a deadline
  /// fired is timing-dependent, and the key must stay invariant across
  /// Threads/Schedule for a fixed plan.
  std::string AbortReason;

  /// Ns of the named phase; 0 when absent.
  uint64_t phaseNs(const std::string &Name) const;

  /// A timing-free fingerprint: phase names, loop labels/engines/
  /// drivers, and the counter deltas — everything that must be
  /// invariant across Threads/Schedule for a fixed plan. Excludes all
  /// Ns fields, loop call counts (chunking-dependent), the loops'
  /// parallel modes and privatized bytes (Threads-dependent), and
  /// worker activity (pool-size-dependent). The blocked engine's panel
  /// count stays in: an output-partitioned run splits a panel wherever
  /// a task boundary cuts a sparse nest, so compare such runs on the
  /// other counters.
  std::string structureKey() const;

  /// {"materialize":0.012,...} — per-phase milliseconds, for bench
  /// records.
  std::string phasesJson() const;

  /// The full report as one JSON object.
  std::string toJson() const;
};

/// {"sparse_reads":N,...} — the snapshot as a JSON object (shared by
/// toJson and the bench records).
std::string counterJson(const CounterSnapshot &C);

/// C += O, field by field.
void addCounters(CounterSnapshot &C, const CounterSnapshot &O);

} // namespace obs
} // namespace systec

#endif // SYSTEC_OBSERVABILITY_REPORT_H
