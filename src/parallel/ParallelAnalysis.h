//===- parallel/ParallelAnalysis.h - Loop parallelism analysis *- C++ -*-===//
///
/// \file
/// Decides, per loop of a lowered kernel, whether its iterations can
/// run concurrently and how. A loop over x is parallelizable when every
/// write in its body falls into one of two classes:
///
///  - Disjoint: a tensor whose every assignment in the body carries x
///    at one fixed position of the target index — different iterations
///    touch different elements, so threads write the shared output
///    directly. (C[i,x] and C[x,i] together do not qualify: iterations
///    a and b would both write C[a,b].)
///  - Reduction: a tensor or scalar accumulated with one associative
///    reduction operator whose definition (for scalars) lies outside
///    the body — the runtime gives each task a privatized accumulator
///    initialized to the operator's identity and merges task results
///    in task order ("reduction privatization", cf. Bik et al.,
///    Compiler Support for Sparse Tensor Computations in MLIR).
///
/// Anything else — overwrites of shared elements, reads of a written
/// tensor, replication statements — blocks parallelization of that
/// loop (inner loops are still considered).
///
/// A loop that needs tensor privatization may instead qualify for a
/// third mode, *output partitioning* (cf. SpDISTAL's partitioning by
/// output coordinate): when its body is a spine of guards down to one
/// descendant loop D whose writes are all Disjoint under D (and which
/// needs no scalar merge), the runtime cuts tasks from D's extent
/// instead. Each task runs the
/// outer loop's full range with D clamped to its chunk, so tasks own
/// disjoint output cells: no accumulators, no merge, and every cell
/// folds its contributions in the sequential order. The analysis
/// records D's variable and triangle depth (PartitionVar /
/// PartitionTriangleDepth) on request; the executor partitions every
/// loop that qualifies and whose own iteration charges no counters,
/// since every task repeats it.
///
/// The analysis also classifies the workload shape: canonical-triangle
/// conditions (inner <= x chains produced by the symmetry passes) make
/// the work under x grow polynomially, which the annotation records so
/// the scheduler can pick triangle-balanced partitioning.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_PARALLEL_PARALLELANALYSIS_H
#define SYSTEC_PARALLEL_PARALLELANALYSIS_H

#include "ir/Stmt.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace systec {

/// How one write target behaves under parallelization of a given loop.
enum class WriteClass {
  Disjoint,  ///< every write indexed by the loop variable
  Reduction, ///< privatize and merge with the recorded operator
};

/// The parallelization contract for one loop.
struct LoopParallelism {
  bool Safe = false;
  /// Tensor targets written in the body: name -> class; Reduction
  /// entries also appear in MergeOps.
  std::map<std::string, WriteClass> Tensors;
  /// Merge operator per privatized tensor target.
  std::map<std::string, OpKind> TensorMergeOps;
  /// Scalar slots accumulated in the body but defined outside it:
  /// name -> merge operator. (Scalars defined inside the body are
  /// iteration-private and need no treatment.)
  std::map<std::string, OpKind> ScalarMergeOps;
  /// Workload shape (see ParallelAnnotation::TriangleDepth).
  int TriangleDepth = 0;
  /// Output partitioning (see the file comment): the variable of the
  /// descendant loop whose extent tasks are cut from, or empty when
  /// the loop does not qualify or the analysis was not asked for it.
  /// Set only for loops that need tensor privatization.
  std::string PartitionVar;
  /// TriangleDepth of the PartitionVar loop: the work shape across the
  /// coordinates the tasks are cut from.
  int PartitionTriangleDepth = 0;

  bool needsPrivatization() const {
    return !TensorMergeOps.empty() || !ScalarMergeOps.empty();
  }
};

/// Analyzes one Loop statement (kind must be Loop) in isolation. The
/// output-partitioning fields are filled only \p WithPartition: the
/// runtime asks for them when it activates a loop at Threads > 1, and
/// the annotation pass, which runs at every thread count, does not.
LoopParallelism analyzeLoopParallelism(const StmtPtr &Loop,
                                       bool WithPartition = false);

/// Rewrites \p Root, attaching a ParallelAnnotation to every loop that
/// analyzeLoopParallelism accepts. Marks every feasible loop along each
/// nest spine (outer ones included) so the runtime can pick the
/// outermost level whose privatization footprint fits memory; once a
/// loop with no feasible ancestor requirement is found the walk still
/// descends, but the executor only ever activates one level per nest.
StmtPtr annotateParallelLoops(const StmtPtr &Root);

} // namespace systec

#endif // SYSTEC_PARALLEL_PARALLELANALYSIS_H
