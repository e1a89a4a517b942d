//===- runtime/Plan.h - Compiled execution plan internals -----*- C++ -*-===//
///
/// \file
/// Internal representation of a compiled execution plan: the expression
/// VM, the plan-node tree the interpreter walks, and the execution
/// context shared by the generic interpreter and the fused micro-kernel
/// layer (runtime/MicroKernels.h). Not part of the public API; included
/// only by the runtime's own translation units and tests that need to
/// poke at plan internals.
///
/// Counter discipline: plan nodes never touch the process-wide atomic
/// counters directly. Each ExecCtx carries a plain-integer delta block
/// (`Local`) guarded by a per-run copy of the counters-enabled flag
/// (`CountersOn`); the Executor flushes the deltas into the global
/// atomics once per run, and parallel loops sum task-context deltas in
/// task order. This keeps the hot loops free of atomic traffic while
/// preserving exact counter totals.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_PLAN_H
#define SYSTEC_RUNTIME_PLAN_H

#include "ir/Cond.h"
#include "ir/Ops.h"
#include "observability/Trace.h"
#include "parallel/Schedule.h"
#include "support/Counters.h"
#include "support/Status.h"
#include "symmetry/Partition.h"
#include "tensor/Tensor.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace systec {

class ThreadPool;

namespace detail {

class MicroKernel;
class PlanLoop;

/// Shared cooperative-stop state of one controlled run (cancellation
/// token and/or absolute deadline). One instance per Executor, armed
/// per run and pointed at by every execution context of that run —
/// tasks observe a trip through the relaxed atomic, which is enough:
/// cancellation is best-effort by design and the Executor discards all
/// partial output on abort.
struct RunControl {
  CancelToken *Token = nullptr;
  uint64_t DeadlineNs = 0; ///< absolute obs::nowNs() deadline; 0 = none
  /// First ErrCode that stopped the run (0 while running). Set once by
  /// compare-exchange so the surfaced reason is the actual trigger.
  std::atomic<uint32_t> StopCode{0};

  void arm(CancelToken *Tok, uint64_t Deadline) {
    Token = Tok;
    DeadlineNs = Deadline;
    StopCode.store(0, std::memory_order_relaxed);
  }
  bool stopped() const {
    return StopCode.load(std::memory_order_relaxed) != 0;
  }
  ErrCode reason() const {
    return static_cast<ErrCode>(StopCode.load(std::memory_order_relaxed));
  }
  void trip(ErrCode C) {
    uint32_t Expected = 0;
    StopCode.compare_exchange_strong(Expected, static_cast<uint32_t>(C),
                                     std::memory_order_relaxed);
  }
  /// Full poll: token, then deadline clock. Returns whether to stop.
  bool check() {
    if (stopped())
      return true;
    if (Token && Token->cancelled()) {
      trip(ErrCode::Cancelled);
      return true;
    }
    if (DeadlineNs && obs::nowNs() > DeadlineNs) {
      trip(ErrCode::DeadlineExceeded);
      return true;
    }
    return false;
  }
};

/// Runtime state of one distinct tensor access: the fibertree position
/// at which each level was entered. Pos[L] is the parent position for
/// level L; Pos[order] is the value position.
struct AccessState {
  Tensor *T = nullptr;
  std::vector<std::string> Indices;
  std::vector<int64_t> Pos;
  bool SparseFormat = false;
  /// Stateful locator for random accesses (VKind::SparseLoad): per
  /// level, the parent position the cursor is parked under and the
  /// index of the last lower_bound result, so lookups in ascending
  /// iteration order gallop forward instead of re-bisecting the whole
  /// fiber. Lives in the (per-task-copied) context, never in the shared
  /// plan, so parallel tasks keep independent cursors.
  std::vector<int64_t> LocParent, LocIdx;
};

struct ExecCtx {
  std::vector<int64_t> IndexVal;
  std::vector<double> ScalarVal;
  std::vector<AccessState> Accesses;
  /// Per output id, the value-array base assignments write through.
  /// The main context points at the bound tensors; task contexts of a
  /// parallel loop repoint privatized outputs at per-task accumulators.
  std::vector<double *> OutPtr;
  /// Snapshot of countersEnabled() taken once per run (hoists the
  /// atomic flag load out of every inner loop).
  bool CountersOn = true;
  /// Counter deltas accumulated by this context; flushed into the
  /// global atomics once per run (or summed into the parent context
  /// after a parallel loop).
  CounterSnapshot Local;
  /// Snapshot of obs::tracingEnabled() taken once per run, exactly
  /// like CountersOn: plan-loop instrumentation branches on this plain
  /// bool instead of the process-wide atomic.
  bool TraceOn = false;
  /// Per-plan-loop execution aggregates, indexed by PlanLoop::TraceId
  /// (sized by the plan compiler, written only when TraceOn, merged in
  /// task order after parallel loops like the counters). These cover
  /// inner loops, whose raw trace spans are suppressed to keep event
  /// volume bounded.
  std::vector<uint64_t> LoopCalls, LoopNs;
  /// Nanoseconds spent merging privatized accumulators and task
  /// deltas after parallel loops (always collected; a subset of the
  /// run's execute time).
  uint64_t MergeNs = 0;
  /// Cooperative stop state of the run; null when uncontrolled (no
  /// token, no deadline), so the hot path pays one pointer test per
  /// checkpoint. Copied into task contexts with the rest of the
  /// context, so all tasks share the run's state.
  RunControl *Ctrl = nullptr;
  /// Per-context decimation tick for checkpointStop's clock reads.
  uint32_t PollTick = 0;
  /// Output partitioning: inside a partitioned task, the loop whose
  /// coordinates the task owns and the owned range [PartLo, PartHi];
  /// PlanLoop::exec intersects that loop's lifted bounds with it. Null
  /// outside partitioned tasks.
  const PlanLoop *PartLoop = nullptr;
  int64_t PartLo = 0, PartHi = -1;
};

/// Context for PlanNode::rebind — repatching a compiled plan onto new
/// tensors of identical structure (Executor::rebind, the plan-cache
/// hit path). Map sends every tensor pointer the plan may have baked
/// (user bindings and materialized aliases alike) to its replacement;
/// Accesses is the execution context's access-state table *after* its
/// own tensors were repatched, so fused engines can re-derive raw
/// level-array pointers from it.
struct RebindCtx {
  const std::map<Tensor *, Tensor *> &Map;      ///< old -> new
  const std::vector<AccessState> &Accesses;     ///< already repatched
};

/// Cancellation checkpoint for per-iteration polling: free when the
/// run is uncontrolled; otherwise a relaxed flag test per call with a
/// full token/deadline poll every 64th (decimating the clock reads
/// that a deadline check needs).
inline bool checkpointStop(ExecCtx &C) {
  RunControl *Ctl = C.Ctrl;
  if (!Ctl)
    return false;
  if ((++C.PollTick & 63u) == 0)
    return Ctl->check();
  return Ctl->stopped();
}

/// A compiled comparison between two index slots.
struct CAtom {
  CmpKind Kind;
  unsigned A, B;

  bool eval(const ExecCtx &C) const {
    return evalCmp(Kind, C.IndexVal[A], C.IndexVal[B]);
  }
};

/// A compiled DNF condition.
struct CCond {
  std::vector<std::vector<CAtom>> Disjuncts;

  bool eval(const ExecCtx &C) const {
    for (const std::vector<CAtom> &D : Disjuncts) {
      bool Ok = true;
      for (const CAtom &A : D)
        if (!A.eval(C)) {
          Ok = false;
          break;
        }
      if (Ok)
        return true;
    }
    return false;
  }
};

//===----------------------------------------------------------------------===//
// Expression VM
//===----------------------------------------------------------------------===//

enum class VKind { Lit, Scalar, Walked, DenseLoad, SparseLoad, Op, Lut };

struct VInstr {
  VKind Kind;
  double Lit = 0;
  unsigned Id = 0; // scalar slot or access id (Walked and SparseLoad)
  OpKind Op = OpKind::Add;
  unsigned NArgs = 0;
  Tensor *T = nullptr;
  std::vector<std::pair<unsigned, int64_t>> SlotStride; // DenseLoad
  /// SparseLoad: per level (top first), the index slot providing that
  /// level's coordinate.
  std::vector<unsigned> LevelSlots;
  std::vector<CAtom> LutBits;
  std::vector<double> LutTable;
};

/// Random access through \p AccessId's fibertree at the coordinates in
/// IndexVal[LevelSlots[level]], using the per-context stateful locator
/// (galloping cursors on Sparse and RunLength levels). Shared by the
/// expression VM's SparseLoad instruction and the fused micro-kernels'
/// SparseLoad operands so both paths chain the exact same cursor state
/// and return bit-identical values. Does not touch counters; callers
/// count one SparseRead per evaluation.
double sparseLoadValue(ExecCtx &C, unsigned AccessId,
                       const std::vector<unsigned> &LevelSlots);

/// sparseLoadValue resuming the descent at \p FromLevel with parent
/// position \p FromPos — the per-row prebinding entry point: the fused
/// innermost engine resolves the row-invariant level prefix once per
/// loop execution and evaluates only the remaining levels per element.
/// Values are identical to a full descent (locate results do not depend
/// on cursor state); FromLevel == order returns the value at FromPos.
double sparseLoadValueFrom(ExecCtx &C, unsigned AccessId,
                           const std::vector<unsigned> &LevelSlots,
                           unsigned FromLevel, int64_t FromPos);

struct VProgram {
  std::vector<VInstr> Code;
  /// Maximum operand-stack depth, computed when the program is built.
  /// eval() keeps a fixed-size stack for the common case and falls back
  /// to a heap buffer for pathologically deep expressions.
  unsigned MaxDepth = 0;

  /// Recomputes MaxDepth from Code (call after appending instructions).
  void finalize();

  /// Repatches baked Tensor pointers (DenseLoad/SparseLoad) through
  /// \p Map; instructions whose tensor is not in the map are untouched.
  void rebind(const std::map<Tensor *, Tensor *> &Map);

  double eval(ExecCtx &C) const;
};

//===----------------------------------------------------------------------===//
// Plan nodes
//===----------------------------------------------------------------------===//

class PlanNode {
public:
  virtual ~PlanNode() = default;
  virtual void exec(ExecCtx &C) = 0;
  /// Repatches any Tensor pointers this node (or its children) baked at
  /// plan compilation onto the replacement tensors in \p R — the
  /// plan-cache hit path. Structure (slots, bounds, conditions, fused
  /// engines) is untouched; only data pointers move.
  virtual void rebind(const RebindCtx &R) { (void)R; }
};

using PlanPtr = std::unique_ptr<PlanNode>;

class PlanSeq final : public PlanNode {
public:
  std::vector<PlanPtr> Children;
  void exec(ExecCtx &C) override {
    for (PlanPtr &Child : Children)
      Child->exec(C);
  }
  void rebind(const RebindCtx &R) override {
    for (PlanPtr &Child : Children)
      Child->rebind(R);
  }
};

class PlanIf final : public PlanNode {
public:
  CCond Cond;
  PlanPtr Body;
  void exec(ExecCtx &C) override {
    if (Cond.eval(C))
      Body->exec(C);
  }
  void rebind(const RebindCtx &R) override { Body->rebind(R); }
};

class PlanDef final : public PlanNode {
public:
  unsigned Slot = 0;
  VProgram Init;
  void exec(ExecCtx &C) override { C.ScalarVal[Slot] = Init.eval(C); }
  void rebind(const RebindCtx &R) override { Init.rebind(R.Map); }
};

class PlanAssign final : public PlanNode {
public:
  VProgram Rhs;
  std::optional<OpKind> Reduce;
  unsigned Mult = 1;
  bool ScalarTarget = false;
  unsigned ScalarSlot = 0;
  unsigned OutId = 0; ///< index into ExecCtx::OutPtr (tensor targets)
  std::vector<std::pair<unsigned, int64_t>> SlotStride;

  void exec(ExecCtx &C) override;
  void rebind(const RebindCtx &R) override { Rhs.rebind(R.Map); }
};

class PlanReplicate final : public PlanNode {
public:
  Tensor *T = nullptr;
  ReplicateLayout Layout; ///< built from T's dims at plan compile
  unsigned Threads = 1;

  void exec(ExecCtx &C) override;
  void rebind(const RebindCtx &R) override {
    auto It = R.Map.find(T);
    if (It != R.Map.end())
      T = It->second;
  }
};

class PlanLoop final : public PlanNode {
public:
  PlanLoop();
  ~PlanLoop() override;

  unsigned Slot = 0;
  int64_t Extent = 0;

  struct WalkerRef {
    unsigned AccessId;
    unsigned Level;
    bool Bottom;
  };
  std::vector<WalkerRef> Walkers;
  // Bounds: lo = max(0, IndexVal[slot]+delta...), hi analogous
  // (inclusive).
  std::vector<std::pair<unsigned, int64_t>> LoTerms, HiTerms;
  PlanPtr Body;

  /// Fused micro-kernel replacing the generic walker/body dispatch for
  /// this loop (null when the specializer declined; the interpreted
  /// path below is then both the implementation and the oracle).
  std::unique_ptr<MicroKernel> Fused;

  /// Block metadata: the output-panel width when this loop runs the
  /// blocked engine (0 otherwise). Panels anchor at absolute multiples
  /// of this width, so makeChunks aligns parallel task boundaries to it
  /// — tasks then split on whole panels instead of cutting boundary
  /// panels ragged. Purely a performance device: results and counters
  /// are identical for any task decomposition.
  unsigned BlockAlign = 0;

  /// One privatized output: tasks accumulate into per-task buffers that
  /// merge into the shared array, in task order, after the loop.
  struct PrivTensor {
    unsigned OutId;
    size_t Elems;
    OpKind Op;
    double Identity;
  };
  struct PrivScalar {
    unsigned Slot;
    OpKind Op;
    double Identity;
  };

  /// Parallel execution state (populated by the plan compiler for the
  /// activated loop of each nest).
  struct ParPlan {
    bool Enabled = false;
    SchedulePolicy Policy = SchedulePolicy::Static;
    int TriDepth = 0;
    /// Output partitioning (parallel/ParallelAnalysis.h): the
    /// descendant loop whose extent tasks are cut from (TriDepth and
    /// the panel alignment are then that loop's). Each task runs this
    /// loop's full range with the descendant clamped to its chunk, so
    /// tasks write disjoint cells of the shared outputs directly —
    /// no accumulators, no merge. Null for chunked loops.
    PlanLoop *Part = nullptr;
    unsigned Threads = 1;
    ThreadPool *Pool = nullptr;
    std::vector<PrivTensor> PrivTensors;
    std::vector<PrivScalar> PrivScalars;
    /// Accumulators, reused across runs and kept identity-filled
    /// between them (the merge resets as it reads):
    /// [task * PrivTensors.size() + p].
    std::vector<std::vector<double>> Buffers;
    /// Task contexts, reused so inner parallel loops (one dispatch per
    /// outer iteration) do not reallocate per execution.
    std::vector<ExecCtx> TaskCtx;
  };
  ParPlan Par;

  /// Observability identity, assigned at plan compilation: TraceId
  /// indexes ExecCtx::LoopCalls/LoopNs; TraceLabel is the interned
  /// span name ("loop i [Fused/SparseWalk]"); EngineName/DriverName
  /// ("Interp"/"Fused"/"Blocked", "Range"/"SparseWalk"/...) surface in
  /// ExecReport.
  unsigned TraceId = 0;
  const char *TraceLabel = nullptr;
  const char *EngineName = nullptr;
  const char *DriverName = nullptr;

  void exec(ExecCtx &C) override;
  /// Forwards to Body, then re-derives the fused engine's baked raw
  /// pointers (implemented in MicroKernels.cpp next to the baking
  /// code it mirrors).
  void rebind(const RebindCtx &R) override;
  void execParallel(ExecCtx &C, int64_t Lo, int64_t Hi);
  /// Dispatch for one contiguous range: forwards to rangeBody, via
  /// tracedRange (span + aggregate accounting) when C.TraceOn.
  void execRange(ExecCtx &C, int64_t Lo, int64_t Hi);
  void tracedRange(ExecCtx &C, int64_t Lo, int64_t Hi);
  /// The actual engine dispatch (fused micro-kernel or walker-driven
  /// interpretation), free of instrumentation.
  void rangeBody(ExecCtx &C, int64_t Lo, int64_t Hi);
  std::vector<ChunkRange> makeChunks(int64_t Lo, int64_t Hi) const;
};

} // namespace detail
} // namespace systec

#endif // SYSTEC_RUNTIME_PLAN_H
