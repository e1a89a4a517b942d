//===- runtime/Executor.h - Kernel execution engine -----------*- C++ -*-===//
///
/// \file
/// Lowers a Kernel's loop-nest IR into an executable plan and runs it
/// over bound tensors. This plays the role Finch's compiler plays in the
/// original SySTeC: accesses to sparse tensors act as iterators over
/// stored coordinates, and comparisons between index variables are
/// lifted into loop bounds (paper Section 2.2), which is what makes the
/// canonical-triangle restriction cheap.
///
/// Semantics note: when a loop is driven by a sparse access ("walker"),
/// iteration visits only stored coordinates. This is sound when missing
/// coordinates annihilate every reduction in the loop body (fill = 0
/// under (+,*), fill = inf under (min,+)); every kernel produced by the
/// SySTeC pipeline and the naive lowering satisfies this. For oracle
/// testing the executor can disable walkers and bound lifting.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_EXECUTOR_H
#define SYSTEC_RUNTIME_EXECUTOR_H

#include "ir/Kernel.h"
#include "observability/Report.h"
#include "parallel/Schedule.h"
#include "runtime/EngineRegistry.h"
#include "support/Status.h"
#include "tensor/Tensor.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace systec {

namespace detail {
class PlanNode;
struct ExecCtx;
struct RunControl;
} // namespace detail

/// Execution options (ablation switches).
struct ExecOptions {
  /// Ordered engine-preference list (runtime/EngineRegistry.h) — the
  /// typed replacement for the per-engine booleans below. Empty (the
  /// default) derives the list from the deprecated EnableMicroKernels /
  /// EnableBlocking shims, preserving their historical behavior and
  /// plan-cache keys exactly; a non-empty list wins over the booleans.
  /// tryPrepare() normalizes the list (EngineResolution) and writes the
  /// derived membership back into the booleans so downstream consumers
  /// see one consistent surface either way. {Engine::Native, ...} asks
  /// for the JIT-compiled whole-body engine with graceful typed
  /// fallback to the rest of the list (nativeStatus() records why).
  std::vector<Engine> Engines;
  /// On-disk directory for the native engine's compiled-.so cache
  /// (src/jit/NativeKernelCache.h). Empty resolves to the
  /// SYSTEC_JIT_CACHE_DIR environment variable, then a per-user temp
  /// default. Per-request (NOT part of the PlanCache structural key):
  /// the cache is content-hash keyed, so any directory yields identical
  /// plans — only cold-compile time differs.
  std::string NativeCacheDir;
  /// Drive loops from sparse accesses; disabling iterates dense extents
  /// (oracle mode).
  bool EnableSparseWalk = true;
  /// Lift comparisons into loop bounds; disabling evaluates them as
  /// residual predicates.
  bool EnableBoundLifting = true;
  /// Parallel lanes for loops the parallelism analysis marked safe.
  /// 1 keeps the plan fully sequential. N > 1 decomposes the outermost
  /// parallel loop of each nest into tasks run on the shared thread
  /// pool, in one of three modes (reported per loop as
  /// obs::LoopStat::Parallel):
  ///  - disjoint: every output is indexed by the loop variable; tasks
  ///    take chunks of the loop and write in place;
  ///  - partitioned: the loop's writes all sit in one descendant loop
  ///    that indexes them (ssyrk's k loop over its j loop, the j loop
  ///    of ssymv's diagonal nest over its i loop); tasks take
  ///    chunks of the descendant, each running the outer loop in full,
  ///    and write disjoint cells in place — bit-identical to Threads=1
  ///    at any thread count and schedule, with no accumulators;
  ///  - privatized: outputs not indexed by the loop variable get
  ///    per-task accumulators merged in task order, so results are
  ///    reproducible for a fixed (Threads, Schedule) pair.
  /// A loop that can partition always does.
  unsigned Threads = 1;
  /// Chunking policy for parallel loops (see parallel/Schedule.h).
  /// Auto resolves to triangle-balanced for loops the analysis marked
  /// triangular and static blocks otherwise.
  SchedulePolicy Schedule = SchedulePolicy::Auto;
  /// Ceiling on privatized accumulator storage, in elements (not
  /// bytes) summed over all tasks of one loop: the default 16 M
  /// elements is 128 MiB of doubles. A loop whose privatization would
  /// exceed this partitions its output when it can (which allocates
  /// nothing); otherwise it is left sequential at that level and an
  /// inner annotated loop (typically with disjoint writes) runs
  /// parallel instead.
  size_t PrivatizationBudget = size_t(1) << 24;
  /// DEPRECATED shim for Engines (one release): equivalent to listing
  /// Engine::Fused. Run the plan-specialization pass
  /// (runtime/MicroKernels.h): loop subtrees matching a known shape
  /// execute as fused loops over raw level arrays instead of the
  /// interpreted plan. Disabling is the ablation switch; outputs and
  /// counters are identical either way. Ignored when Engines is
  /// non-empty (and overwritten with the resolved membership).
  bool EnableMicroKernels = true;
  /// DEPRECATED shim for Engines (one release): equivalent to listing
  /// Engine::Blocked. Panel-block the dense output mode of fused nests (the
  /// ssyrk/syprd/ttm shape: an outer loop whose variable strides a
  /// dense output dimension while the inner sparse walk it re-runs is
  /// invariant in it). The blocked engine walks the fiber once per
  /// fixed-width column panel instead of once per column, hoisting the
  /// per-column operand values — and, when the output cell is invariant
  /// across the walk, the accumulators themselves — into registers.
  /// Bit-identical to the interpreter (panel lanes write disjoint cells,
  /// per-cell fold order is preserved) with exact counter parity;
  /// disabling is the ablation switch.
  bool EnableBlocking = true;
  /// Output-panel width for the blocked engine. 0 picks the width at
  /// specialization from the panel mode's extent (8, or 4 for narrow
  /// modes); explicit values are clamped to [1, 8]. Results and the
  /// runtime counters are identical for every width.
  unsigned BlockWidth = 0;
  /// Decide coordinate-skipping walker soundness with the algebraic
  /// annihilation analysis (runtime/Annihilation.h): fill/annihilator
  /// facts propagate per operator position and transitively through
  /// scalar definitions, so walkers are registered exactly when the
  /// level's fill provably annihilates every assignment it backs.
  /// Disabling falls back to the legacy string-level membership check —
  /// strictly for ablation: the legacy check both loses walkers
  /// (workspace flushes under sparse-topped formats) and accepts
  /// unsound ones (additive bodies over non-annihilating fills).
  bool AnnihilationAlgebra = true;
  /// Structural integrity checks run by prepare() on every bound
  /// tensor before anything dereferences its level arrays (Shallow:
  /// O(levels) size/endpoint agreement; Deep: O(nnz) fiber scans; see
  /// Tensor::validate). None keeps the hot path untouched — no check,
  /// no extra report phase. A failing tensor surfaces as
  /// ErrCode::InvalidTensor from tryPrepare(), naming the tensor.
  ValidationLevel ValidateInputs = ValidationLevel::None;
  /// Wall-clock budget for one runBody() in milliseconds; 0 = none.
  /// The deadline is polled cooperatively (task-claim boundaries and
  /// every iteration of plan/kernel driver loops, with clock reads
  /// decimated), so overshoot is bounded by one loop-body execution.
  /// An expired run aborts with ErrCode::DeadlineExceeded: outputs are
  /// restored to their pre-run values, the run's counters are
  /// discarded, and lastReport().AbortReason records the reason.
  int64_t DeadlineMs = 0;
  /// Optional cooperative cancellation token, polled at the same
  /// checkpoints as the deadline. The caller keeps ownership (the
  /// token must outlive every run that uses it) and may cancel() from
  /// any thread; a cancelled run aborts with ErrCode::Cancelled under
  /// the same discard-partial-results contract as deadlines.
  CancelToken *Cancel = nullptr;
  /// Hard ceiling, in bytes, on privatized-accumulator storage for one
  /// parallel loop (all tasks summed, as obs::LoopStat::PrivBytes
  /// reports it); 0 = unlimited. Distinct from PrivatizationBudget
  /// (elements, a performance heuristic): this is a resource bound — a
  /// loop that would exceed it partitions its output when it can, and
  /// otherwise degrades to the inner disjoint-write parallelization
  /// instead of allocating. Partitioned loops allocate nothing, so no
  /// budget demotes them.
  size_t MemoryBudgetBytes = 0;
  /// Emit execution trace spans (observability/Trace.h): prepare()
  /// turns the process-wide tracing flag on, after which this executor
  /// (and anything else running) records phase, plan-loop, and pool
  /// wait/execute spans exportable as Chrome trace JSON. Orthogonal to
  /// lastReport(), which is populated on every run regardless — with
  /// tracing off only the per-loop call/time aggregates stay zero.
  bool Tracing = false;
  /// Flush the run's counter deltas into the process-global
  /// support/Counters atomics after each run (the historical behavior,
  /// kept as the default for tools and tests that read the globals).
  /// Concurrent executors interleave their flushes, so an aggregate
  /// read mid-traffic attributes deltas to no one in particular; the
  /// kernel service turns this off — every run's exact deltas are in
  /// its ExecReport::Counters regardless, and the service aggregates
  /// those per-request snapshots itself.
  bool GlobalCounterFlush = true;
};

/// Result of the plan-specialization pass for one prepared executor
/// (surfaced by bench_ablation and the perf_smoke/annihilation tests).
struct MicroKernelStats {
  uint64_t SpecializedLoops = 0; ///< loops running fused micro-kernels
  uint64_t InnermostFused = 0;   ///< of which leaf (tight-engine) loops
  uint64_t GenericLoops = 0;     ///< loops left to the interpreter

  /// Walker registration outcomes (plan compilation).
  uint64_t WalkersRegistered = 0; ///< walkers bound to plan loops
  /// Coordinate-skipping walkers the annihilation algebra proves sound
  /// where the legacy membership check rejects (typically workspace
  /// flushes: `y[j] += w` with `w` defined from the reduction
  /// identity).
  uint64_t WalkersRecovered = 0;
  /// Candidates the algebra vetoes although membership would accept —
  /// each one a latent wrong-results shape under the legacy check
  /// (e.g. min-plus over a fill-0 operand).
  uint64_t WalkersRejected = 0;

  /// Specialized loops by driver shape (which fused engine iterates).
  uint64_t FusedRangeDrivers = 0;
  uint64_t FusedDenseDrivers = 0;
  uint64_t FusedSparseDrivers = 0;
  uint64_t FusedRunLengthDrivers = 0;
  uint64_t FusedBandedDrivers = 0;
  /// SparseLoad operands bound inside fused bodies (chained stateful
  /// locator instead of falling back to the interpreter).
  uint64_t FusedSparseLoadFactors = 0;

  /// Intersection shapes (per-shape coverage of the formerly-declined
  /// specializer gaps; each is assertable in tests/perf_smoke.cpp).
  /// Total non-driving walkers bound into fused intersection loops.
  uint64_t FusedCoWalkers = 0;
  /// Fused loops intersecting more than two walkers (one driver plus
  /// two or more co-walkers — the N-way multi-finger merge).
  uint64_t FusedNWalkerLoops = 0;
  /// Co-walkers matched positionally on structured levels (run
  /// containment / interval containment instead of a crd merge).
  uint64_t FusedRunLengthCoWalkers = 0;
  uint64_t FusedBandedCoWalkers = 0;
  /// Lut operands bound inside fused bodies (bind-time constants or
  /// per-element contextual evaluation).
  uint64_t FusedLutFactors = 0;
  /// SparseLoad operands with a row-invariant level prefix hoisted to
  /// bind time (per-row prebinding slots installed by the specializer).
  uint64_t PrebindSlots = 0;

  /// Fused nests running the register/cache-blocked output engine
  /// (column panels over the dense output mode), and the subset whose
  /// panel accumulators live in registers across the whole sparse walk
  /// (output cell invariant in the inner driver — one writeback per
  /// panel lane per row). The runtime panel/store counts are the
  /// FusedBlockedPanels / FusedBlockedStores global counters.
  uint64_t BlockedLoops = 0;
  uint64_t BlockedAccumLoops = 0;
};

/// One-line rendering of \p O ("threads=4 schedule=auto ..."), recorded
/// with benchmark JSON so BENCH_* entries are attributable across PRs.
std::string execOptionsSummary(const ExecOptions &O);

/// Compiles and runs one Kernel over bound tensors.
///
/// Usage:
///   Executor Exec(Kernel);
///   Exec.bind("A", &A).bind("x", &X).bind("y", &Y);
///   Exec.prepare();            // materializes aliases, compiles plan
///   Exec.run();                // body + epilogue
class Executor {
public:
  explicit Executor(Kernel K, ExecOptions Options = ExecOptions());
  ~Executor();
  Executor(Executor &&);
  Executor &operator=(Executor &&) = delete;

  /// Binds a tensor by declaration name. The tensor must outlive the
  /// executor and match the declaration's order.
  Executor &bind(const std::string &Name, Tensor *T);

  /// Materializes transposes/splits requested by the kernel and compiles
  /// the execution plan. Call after all binds. Aborts on client-input
  /// errors (legacy entry point — tool/test call sites where malformed
  /// input is a bug); use tryPrepare when the kernel or tensors come
  /// from a client.
  void prepare();

  /// Runs the main loop nest followed by the epilogue.
  void run();
  /// Runs only the main loop nest (what the paper times).
  void runBody();
  /// Runs only the replication epilogue.
  void runEpilogue();

  /// Status-returning variant of prepare(). Sanitizes the options
  /// (recoverable absurdities — Threads=0, oversubscription beyond
  /// 4x the hardware, BlockWidth>8 — are clamped and recorded in
  /// optionClamps(); a negative deadline is ErrCode::InvalidOptions),
  /// validates the kernel against the bound tensors (unbound accesses,
  /// arity mismatches, inconsistent extents, non-dense write targets —
  /// every malformed-input abort of plan compilation surfaces here as
  /// a typed Status instead), and, when ValidateInputs != None, runs
  /// Tensor::validate on every bound tensor before any level array is
  /// dereferenced. On error the executor stays unprepared.
  [[nodiscard]] Status tryPrepare();

  /// Status-returning variants of run()/runBody(): complete normally,
  /// or abort with ErrCode::Cancelled / DeadlineExceeded when the
  /// run's Cancel token fires or DeadlineMs expires. Aborted runs
  /// restore every output tensor to its pre-run values and discard the
  /// run's counter deltas; lastReport().AbortReason records the
  /// reason. With no token and no deadline these never fail and add
  /// zero per-iteration cost.
  ///
  /// When \p Out is non-null it receives this run's report by value —
  /// a snapshot the caller owns outright, valid forever (including an
  /// aborted run's report, with AbortReason set). Concurrent callers
  /// and anyone holding a report across runs must use these overloads;
  /// lastReport() below is a reference into executor state the next
  /// run overwrites.
  [[nodiscard]] Status tryRun(obs::ExecReport *Out);
  [[nodiscard]] Status tryRunBody(obs::ExecReport *Out);
  /// The epilogue (symmetric replication) is not cancellable: it is a
  /// cheap deterministic copy pass, and interrupting it would leave
  /// half-replicated outputs. Always returns ok after running.
  [[nodiscard]] Status tryRunEpilogue(obs::ExecReport *Out);
  [[nodiscard]] Status tryRun() { return tryRun(nullptr); }
  [[nodiscard]] Status tryRunBody() { return tryRunBody(nullptr); }
  [[nodiscard]] Status tryRunEpilogue() { return tryRunEpilogue(nullptr); }

  /// Repatches this prepared executor onto fresh tensors of identical
  /// structure — the plan-cache hit path, skipping einsum parsing,
  /// lowering, plan compilation, and specialization entirely (the
  /// rebound run's report shows plan-compile and specialize phases at
  /// 0). Every originally-bound name must appear in \p NewBindings
  /// with the same format descriptor, dims, and fill value as the
  /// tensor the plan was compiled against; \p RunOptions must agree
  /// with the compiled options on every structural knob (threads,
  /// schedule, engines — the plan-cache key guarantees this) and
  /// supplies the per-request knobs the plan adopts: Cancel,
  /// DeadlineMs, Tracing, ValidateInputs, GlobalCounterFlush.
  /// Materialized aliases (diagonal splits, transposes) are rebuilt
  /// from the new tensors. On error the executor keeps its previous
  /// bindings and stays runnable. Fails with InvalidArgument when two
  /// originally-distinct names were bound to one tensor and the new
  /// bindings disagree (the rebind would be ambiguous; compile fresh).
  [[nodiscard]] Status rebind(const std::map<std::string, Tensor *> &NewBindings,
                              const ExecOptions &RunOptions);

  /// Human-readable notes for every option value tryPrepare() clamped
  /// ("threads 0 -> 1", ...). Empty when the options were sane.
  const std::vector<std::string> &optionClamps() const { return Clamps; }

  const Kernel &kernel() const { return K; }

  /// The tensor bound (or materialized) under \p Name; null if unknown.
  Tensor *lookup(const std::string &Name) const;

  /// Specialization outcome of prepare(): how many plan loops run as
  /// fused micro-kernels vs. the generic interpreter.
  const MicroKernelStats &microKernelStats() const { return MKStats; }

  /// The normalized engine preference order tryPrepare() resolved from
  /// Options.Engines / the deprecated booleans (empty before prepare).
  const std::vector<Engine> &engines() const { return Engines; }

  /// Outcome of the native (JIT) engine build when Engine::Native led
  /// the preference list: ok() when the body runs natively; otherwise a
  /// typed Status saying why the executor fell back to the rest of the
  /// list (ErrCode::ResourceExhausted when no host compiler is
  /// available, Internal for a compile/emission failure — the run
  /// itself still succeeds either way). Ok-and-meaningless when Native
  /// was never requested.
  const Status &nativeStatus() const { return NativeStatus; }

  /// True when runBody() dispatches to the JIT-compiled native body.
  bool usesNativeEngine() const { return NativePlan != nullptr; }

  /// The C-ABI translation unit emitted for the native engine (empty
  /// unless Native led the preference list and emission succeeded —
  /// populated even if the subsequent compile/dlopen failed, for
  /// diagnostics and compile-check tests).
  const std::string &nativeSource() const { return NativeSource; }

  /// The structured report of the most recent runBody() (extended by a
  /// following runEpilogue()): phase timings, per-loop engine/driver
  /// aggregates, per-worker wait/execute activity, and the run's exact
  /// counter deltas. Single-caller convenience ONLY: this is a
  /// reference into executor state the next run overwrites in place —
  /// holding it across runs (or reading it while another request runs
  /// this executor) reads torn data. Callers that outlive the next run
  /// take a by-value snapshot via tryRun(&Report) instead.
  const obs::ExecReport &lastReport() const { return Report; }

private:
  friend class PlanCompiler;

  Kernel K;
  ExecOptions Options;
  std::map<std::string, Tensor *> Bound;
  /// The caller's bindings as of tryPrepare() entry, before alias
  /// materialization replaced split/transposed names in Bound. The
  /// pointer values feed rebind()'s old->new repatch map; they are
  /// never dereferenced after the run (bound tensors only have to
  /// outlive their own run, not the executor's stay in a plan cache).
  std::map<std::string, Tensor *> UserBound;
  /// Structural signature of one user binding, captured while the
  /// tensor was alive — what rebind() checks replacements against.
  struct BindingSig {
    TensorFormat Format;
    std::vector<int64_t> Dims;
    double Fill = 0.0;
  };
  std::map<std::string, BindingSig> UserSig;
  std::vector<std::unique_ptr<Tensor>> Owned;

  std::unique_ptr<detail::PlanNode> BodyPlan;
  std::unique_ptr<detail::PlanNode> EpiloguePlan;
  std::unique_ptr<detail::ExecCtx> Ctx;
  MicroKernelStats MKStats;
  bool Prepared = false;

  /// Engine preference order resolved by sanitizeOptions().
  std::vector<Engine> Engines;
  /// JIT-compiled whole-body plan (null unless Native resolved first
  /// AND the build succeeded); runBody() dispatches to it over
  /// BodyPlan. Holds the dlopened .so alive via a shared handle.
  std::unique_ptr<detail::PlanNode> NativePlan;
  /// Why NativePlan is null although Native was requested (see
  /// nativeStatus()).
  Status NativeStatus;
  /// Emitted native TU (see nativeSource()).
  std::string NativeSource;
  /// Wall time of the native source emission + compiler invocation at
  /// prepare; 0 on a warm .so-cache hit (the acceptance signal for
  /// cross-process cache reuse) and on rebind. Reported as the
  /// "native-compile" phase whenever Native was requested.
  uint64_t NativeCompileNs = 0;

  /// Option values tryPrepare() clamped (see optionClamps()).
  std::vector<std::string> Clamps;
  /// Output tensors in OutPtr-slot order (from plan compilation);
  /// snapshotted/restored around controlled runs so an aborted run
  /// leaves no partial writes behind.
  std::vector<Tensor *> Outputs;
  /// Shared stop state for controlled runs (cancel token + deadline),
  /// lazily created; the plan's execution contexts point at it.
  std::unique_ptr<detail::RunControl> Ctl;

  [[nodiscard]] Status sanitizeOptions();
  [[nodiscard]] Status validateKernel() const;
  /// Materializes the kernel's diagonal splits and transposes over the
  /// bindings in \p B, replacing split/transposed names and appending
  /// the materialized tensors to \p O. Shared by tryPrepare() and
  /// rebind() so both paths build aliases identically.
  [[nodiscard]] Status materializeAliases(std::map<std::string, Tensor *> &B,
                                          std::vector<std::unique_ptr<Tensor>> &O);

  /// Report of the most recent run (see lastReport()).
  obs::ExecReport Report;
  /// Prepare-phase timings, repeated into every run's report.
  uint64_t MaterializeNs = 0;
  uint64_t PlanCompileNs = 0;
  uint64_t SpecializeNs = 0;
  /// Input-validation time; the "validate" phase is reported only when
  /// ValidateInputs != None, so default runs keep their structureKey.
  uint64_t ValidateNs = 0;
  /// Per plan-loop (indexed by trace id) label/engine/driver metadata
  /// recorded at plan compilation; cloned into each report with the
  /// run's call/time aggregates filled in.
  std::vector<obs::LoopStat> LoopMeta;
};

} // namespace systec

#endif // SYSTEC_RUNTIME_EXECUTOR_H
