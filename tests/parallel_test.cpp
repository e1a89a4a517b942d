//===- tests/parallel_test.cpp --------------------------------*- C++ -*-===//
///
/// Tests for the parallel execution runtime: the thread pool, the
/// schedule partitioners (static / dynamic / triangle-balanced), the
/// parallelism analysis (disjoint writes, reduction privatization,
/// triangle detection), and a determinism suite asserting bit-identical
/// outputs across Threads in {1, 2, 4, 8} for the paper kernels on
/// exact-sum (integer-valued) data.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"
#include "parallel/ParallelAnalysis.h"
#include "parallel/Schedule.h"
#include "parallel/ThreadPool.h"
#include "runtime/Executor.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>

using namespace systec;

namespace {
// The tsan_smoke target reruns the ThreadPool suite with
// SYSTEC_TSAN_TRACE=1: tracing stays on for the whole binary, so the
// sanitizer exercises the trace buffers' single-writer append and
// release/acquire publish protocol under real pool contention.
[[maybe_unused]] const bool TraceEnvHook = [] {
  if (std::getenv("SYSTEC_TSAN_TRACE"))
    obs::setTracingEnabled(true);
  return true;
}();
} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(257);
  Pool.parallelFor(257, [&](unsigned T) { ++Hits[T]; });
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  int64_t Sum = 0; // no atomics needed: everything runs on this thread
  Pool.parallelFor(100, [&](unsigned T) { Sum += T; });
  EXPECT_EQ(Sum, 99 * 100 / 2);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  Pool.parallelFor(4, [&](unsigned) {
    // Nested batch must not deadlock; it runs on the calling thread.
    Pool.parallelFor(8, [&](unsigned) { ++Total; });
  });
  EXPECT_EQ(Total.load(), 32);
}

TEST(ThreadPool, ManySmallBatches) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Sum{0};
  for (int B = 0; B < 200; ++B)
    Pool.parallelFor(5, [&](unsigned T) { Sum += T; });
  EXPECT_EQ(Sum.load(), 200 * 10);
}

TEST(ThreadPool, GrowsInPlace) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  Pool.ensureWorkers(3);
  EXPECT_EQ(Pool.workerCount(), 3u);
  Pool.ensureWorkers(2); // never shrinks
  EXPECT_EQ(Pool.workerCount(), 3u);
  std::atomic<int> Hits{0};
  Pool.parallelFor(64, [&](unsigned) { ++Hits; });
  EXPECT_EQ(Hits.load(), 64);
}

//===----------------------------------------------------------------------===//
// Schedule
//===----------------------------------------------------------------------===//

namespace {

void expectTiles(const std::vector<ChunkRange> &Chunks, int64_t Lo,
                 int64_t Hi) {
  ASSERT_FALSE(Chunks.empty());
  EXPECT_EQ(Chunks.front().Lo, Lo);
  EXPECT_EQ(Chunks.back().Hi, Hi);
  for (size_t K = 0; K < Chunks.size(); ++K) {
    EXPECT_LE(Chunks[K].Lo, Chunks[K].Hi) << "chunk " << K << " empty";
    if (K)
      EXPECT_EQ(Chunks[K].Lo, Chunks[K - 1].Hi + 1);
  }
}

} // namespace

TEST(Schedule, StaticBlocksTileTheRange) {
  auto Chunks = staticBlocks(0, 99, 4);
  ASSERT_EQ(Chunks.size(), 4u);
  expectTiles(Chunks, 0, 99);
  for (const ChunkRange &C : Chunks)
    EXPECT_EQ(C.Hi - C.Lo + 1, 25);
}

TEST(Schedule, StaticBlocksClampToRangeSize) {
  auto Chunks = staticBlocks(5, 7, 8);
  ASSERT_EQ(Chunks.size(), 3u);
  expectTiles(Chunks, 5, 7);
}

TEST(Schedule, DynamicChunksOversubscribe) {
  auto Chunks = dynamicChunks(0, 999, 4, 4);
  EXPECT_EQ(Chunks.size(), 16u);
  expectTiles(Chunks, 0, 999);
}

TEST(Schedule, TriangleBalancedEqualizesAscendingWork) {
  // Work under coordinate v is proportional to v + 1 (inner loop runs
  // to v): triangle chunks must carry near-equal weight while static
  // blocks differ by ~2x between first and last.
  const int64_t N = 10000;
  auto Tri = triangleBalanced(0, N - 1, 8, /*TriDepth=*/1);
  ASSERT_EQ(Tri.size(), 8u);
  expectTiles(Tri, 0, N - 1);
  double MinW = 1e300, MaxW = 0;
  for (const ChunkRange &C : Tri) {
    double W = triangleWeight(C, 0, N - 1, 1);
    MinW = std::min(MinW, W);
    MaxW = std::max(MaxW, W);
  }
  EXPECT_LT(MaxW / MinW, 1.2) << "triangle chunks should be balanced";
  // Ascending work => the first chunk spans more coordinates than the
  // last.
  EXPECT_GT(Tri.front().Hi - Tri.front().Lo,
            4 * (Tri.back().Hi - Tri.back().Lo));

  auto Static = staticBlocks(0, N - 1, 8);
  double FirstW = triangleWeight(Static.front(), 0, N - 1, 1);
  double LastW = triangleWeight(Static.back(), 0, N - 1, 1);
  EXPECT_GT(LastW / FirstW, 5.0) << "static blocks are imbalanced here";
}

TEST(Schedule, TriangleBalancedDescending) {
  auto Tri = triangleBalanced(0, 9999, 8, /*TriDepth=*/-1);
  ASSERT_EQ(Tri.size(), 8u);
  expectTiles(Tri, 0, 9999);
  double MinW = 1e300, MaxW = 0;
  for (const ChunkRange &C : Tri) {
    double W = triangleWeight(C, 0, 9999, -1);
    MinW = std::min(MinW, W);
    MaxW = std::max(MaxW, W);
  }
  EXPECT_LT(MaxW / MinW, 1.2);
  // Descending work => wide chunks cover the light high end.
  EXPECT_GT(Tri.back().Hi - Tri.back().Lo,
            4 * (Tri.front().Hi - Tri.front().Lo));
}

TEST(Schedule, TriangleDepthTwo) {
  auto Tri = triangleBalanced(0, 4999, 6, /*TriDepth=*/2);
  ASSERT_EQ(Tri.size(), 6u);
  expectTiles(Tri, 0, 4999);
  double MinW = 1e300, MaxW = 0;
  for (const ChunkRange &C : Tri) {
    double W = triangleWeight(C, 0, 4999, 2);
    MinW = std::min(MinW, W);
    MaxW = std::max(MaxW, W);
  }
  EXPECT_LT(MaxW / MinW, 1.35);
}

TEST(Schedule, DegenerateRanges) {
  EXPECT_TRUE(staticBlocks(3, 2, 4).empty());
  auto One = triangleBalanced(7, 7, 8, 1);
  ASSERT_EQ(One.size(), 1u);
  EXPECT_EQ(One[0].Lo, 7);
  EXPECT_EQ(One[0].Hi, 7);
}

//===----------------------------------------------------------------------===//
// ParallelAnalysis
//===----------------------------------------------------------------------===//

namespace {

/// Outermost loops of a (possibly multi-nest) body.
std::vector<StmtPtr> topLoops(const StmtPtr &Body) {
  std::vector<StmtPtr> Out;
  if (Body->kind() == StmtKind::Loop) {
    Out.push_back(Body);
  } else if (Body->kind() == StmtKind::Block) {
    for (const StmtPtr &C : Body->stmts())
      if (C->kind() == StmtKind::Loop)
        Out.push_back(C);
  }
  return Out;
}

} // namespace

TEST(ParallelAnalysis, SsymvOuterLoopsPrivatizeOutput) {
  CompileResult R = compileEinsum(makeSsymv());
  std::vector<StmtPtr> Nests = topLoops(R.Optimized.Body);
  ASSERT_GE(Nests.size(), 1u);
  for (const StmtPtr &L : Nests) {
    EXPECT_TRUE(L->parallelInfo().IsParallel);
    LoopParallelism LP = analyzeLoopParallelism(L);
    EXPECT_TRUE(LP.Safe);
    // y[i] is written under the j loop: reduction privatization.
    ASSERT_TRUE(LP.TensorMergeOps.count("y"));
    EXPECT_EQ(LP.TensorMergeOps.at("y"), OpKind::Add);
  }
  // The off-diagonal nest iterates the strict triangle i < j.
  EXPECT_EQ(Nests[0]->parallelInfo().TriangleDepth, 1);
}

TEST(ParallelAnalysis, SsyrkOuterLoopPrivatizesAndInnerIsDisjoint) {
  CompileResult R = compileEinsum(makeSsyrk());
  std::vector<StmtPtr> Nests = topLoops(R.Optimized.Body);
  // Off-diagonal (i < j) and diagonal (i == j) nests.
  ASSERT_GE(Nests.size(), 1u);
  for (const StmtPtr &K : Nests) {
    ASSERT_TRUE(K->parallelInfo().IsParallel);
    LoopParallelism LPk = analyzeLoopParallelism(K, /*WithPartition=*/true);
    EXPECT_TRUE(LPk.TensorMergeOps.count("C"));
    EXPECT_TRUE(analyzeLoopParallelism(K).PartitionVar.empty())
        << "partitioning is analyzed only on request";

    // Walk to the j loop under k: its writes carry j, so no
    // accumulators are needed at that level.
    StmtPtr Cur = K->body();
    while (Cur->kind() != StmtKind::Loop) {
      ASSERT_TRUE(Cur->kind() == StmtKind::Block ||
                  Cur->kind() == StmtKind::If);
      Cur = Cur->kind() == StmtKind::Block ? Cur->stmts()[0] : Cur->body();
    }
    EXPECT_TRUE(Cur->parallelInfo().IsParallel);
    LoopParallelism LPj =
        analyzeLoopParallelism(Cur, /*WithPartition=*/true);
    EXPECT_TRUE(LPj.Safe);
    EXPECT_FALSE(LPj.needsPrivatization());
    ASSERT_TRUE(LPj.Tensors.count("C"));
    EXPECT_EQ(LPj.Tensors.at("C"), WriteClass::Disjoint);

    // ...so the k loop may partition C by that j loop instead of
    // privatizing it, balanced by j's own (triangular) work shape.
    ASSERT_EQ(Cur->loopIndex(), "j");
    EXPECT_EQ(LPk.PartitionVar, "j");
    EXPECT_EQ(LPk.PartitionTriangleDepth, LPj.TriangleDepth);
    EXPECT_EQ(LPk.PartitionTriangleDepth, 1);
    EXPECT_TRUE(LPj.PartitionVar.empty()) << "j privatizes nothing";
  }
}

TEST(ParallelAnalysis, PartitionNeedsEveryWriteInsideTheDescendant) {
  // ssymv's off-diagonal nest writes y[j] outside its i loop, and ttm's
  // and mttkrp3's outer loops write outputs their next loop does not
  // index: none of them can partition.
  for (const Einsum &E : {makeSsymv(), makeBellmanFord(), makeTtm(),
                          makeMttkrp(3)}) {
    CompileResult R = compileEinsum(E);
    std::vector<StmtPtr> Nests = topLoops(R.Optimized.Body);
    ASSERT_GE(Nests.size(), 1u);
    LoopParallelism LP =
        analyzeLoopParallelism(Nests[0], /*WithPartition=*/true);
    ASSERT_TRUE(LP.Safe) << E.Name;
    EXPECT_FALSE(LP.TensorMergeOps.empty()) << E.Name;
    EXPECT_TRUE(LP.PartitionVar.empty()) << E.Name;
  }
  // Their diagonal nest (for j, i: if i == j: y[i] ...) writes y only
  // inside the i loop, so its j loop partitions on i.
  for (const Einsum &E : {makeSsymv(), makeBellmanFord()}) {
    CompileResult R = compileEinsum(E);
    std::vector<StmtPtr> Nests = topLoops(R.Optimized.Body);
    ASSERT_EQ(Nests.size(), 2u) << E.Name;
    LoopParallelism LP =
        analyzeLoopParallelism(Nests[1], /*WithPartition=*/true);
    ASSERT_TRUE(LP.Safe) << E.Name;
    EXPECT_EQ(LP.PartitionVar, "i") << E.Name;
  }
}

TEST(ParallelAnalysis, DisjointNeedsTheVariableInOneFixedMode) {
  // A loop writing one tensor with its variable in two different modes
  // is not disjoint (iterations a and b both write C[a,b]), so it
  // privatizes, and an outer loop cannot partition by it:
  // for k: for j: { C[i,j] += ..; C[j,i] += .. }.
  StmtPtr Inner = Stmt::loop(
      "j", Stmt::block({Stmt::assign(Expr::access("C", {"i", "j"}),
                                     OpKind::Add, Expr::access("A", {"k"})),
                        Stmt::assign(Expr::access("C", {"j", "i"}),
                                     OpKind::Add, Expr::access("A", {"k"}))}));
  LoopParallelism LPj = analyzeLoopParallelism(Inner);
  ASSERT_TRUE(LPj.Safe);
  ASSERT_TRUE(LPj.Tensors.count("C"));
  EXPECT_EQ(LPj.Tensors.at("C"), WriteClass::Reduction);
  LoopParallelism LP =
      analyzeLoopParallelism(Stmt::loop("k", Inner), /*WithPartition=*/true);
  ASSERT_TRUE(LP.Safe);
  ASSERT_TRUE(LP.TensorMergeOps.count("C"));
  EXPECT_TRUE(LP.PartitionVar.empty());
}

TEST(ParallelAnalysis, MinReductionPrivatizesWithMin) {
  CompileResult R = compileEinsum(makeBellmanFord());
  for (const StmtPtr &L : topLoops(R.Optimized.Body)) {
    LoopParallelism LP = analyzeLoopParallelism(L);
    ASSERT_TRUE(LP.Safe);
    ASSERT_TRUE(LP.TensorMergeOps.count("y"));
    EXPECT_EQ(LP.TensorMergeOps.at("y"), OpKind::Min);
  }
}

TEST(ParallelAnalysis, ScalarWorkspaceDefinedOutsideIsPrivatized) {
  // { w = 0; for i: w += A[i,j]; y[j] += w } analyzed at the i loop:
  // w's definition is outside the loop body, so it must merge.
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::scalar("w"), OpKind::Add,
                        Expr::access("A", {"i", "j"})));
  LoopParallelism LP = analyzeLoopParallelism(Loop);
  ASSERT_TRUE(LP.Safe);
  ASSERT_TRUE(LP.ScalarMergeOps.count("w"));
  EXPECT_EQ(LP.ScalarMergeOps.at("w"), OpKind::Add);
}

TEST(ParallelAnalysis, SharedOverwriteIsRejected) {
  // for i: y[0-d] = A[i]  — last writer wins; not parallelizable.
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::access("y", {}), std::nullopt,
                        Expr::access("A", {"i"})));
  EXPECT_FALSE(analyzeLoopParallelism(Loop).Safe);
}

TEST(ParallelAnalysis, ReadOfWrittenTensorIsRejected) {
  // for i: y[i] += y[i-ish read through other index] — conservative no.
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                        Expr::access("y", {"j"})));
  EXPECT_FALSE(analyzeLoopParallelism(Loop).Safe);
}

TEST(ParallelAnalysis, DisjointOverwriteIsAllowed) {
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::access("y", {"i"}), std::nullopt,
                        Expr::access("A", {"i"})));
  LoopParallelism LP = analyzeLoopParallelism(Loop);
  EXPECT_TRUE(LP.Safe);
  EXPECT_FALSE(LP.needsPrivatization());
}

TEST(ParallelAnalysis, PipelineSwitchDisablesAnnotationEverywhere) {
  PipelineOptions Opt;
  Opt.Parallelize = false;
  CompileResult R = compileEinsum(makeSsymv(), Opt);
  for (const Kernel *K : {&R.Naive, &R.Optimized})
    for (const StmtPtr &L : topLoops(K->Body))
      EXPECT_FALSE(L->parallelInfo().IsParallel) << K->Name;
}

TEST(ParallelAnalysis, AnnotationSurvivesRenames) {
  CompileResult R = compileEinsum(makeSsymv());
  StmtPtr Renamed = Stmt::renameIndices(
      R.Optimized.Body, [](const std::string &N) { return N + "_r"; });
  std::vector<StmtPtr> Nests = topLoops(Renamed);
  ASSERT_GE(Nests.size(), 1u);
  EXPECT_TRUE(Nests[0]->parallelInfo().IsParallel);
}

TEST(ParallelAnalysis, EqualityIgnoresAnnotation) {
  StmtPtr A = Stmt::loop("i", Stmt::assign(Expr::access("y", {"i"}),
                                           OpKind::Add, Expr::lit(1)));
  StmtPtr B = A->withParallel(ParallelAnnotation{true, 1});
  EXPECT_TRUE(Stmt::equal(A, B));
}

//===----------------------------------------------------------------------===//
// Determinism suite
//===----------------------------------------------------------------------===//

namespace {

/// Quantizes stored values to small integers so every reduction order
/// produces the same (exactly representable) sums: the bit-identical
/// check below is then meaningful for privatized Add merges.
void quantize(Tensor &T) {
  for (double &V : T.vals())
    if (std::isfinite(V))
      V = std::floor(V * 16.0);
}

struct DetCase {
  std::string Name;
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

std::vector<DetCase> determinismCases() {
  std::vector<DetCase> Cases;
  Rng R(20260731);
  const int64_t N = 150;

  {
    DetCase C{"ssymv", makeSsymv(), {}, {N}, 0.0};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 5 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    DetCase C{"ssyrk", makeSsyrk(), {}, {N, N}, 0.0};
    C.Inputs.emplace("A", generateSparseMatrix(N, N, 6 * N, R,
                                               TensorFormat::csf(2)));
    Cases.push_back(std::move(C));
  }
  {
    const int64_t Dim = 40, Rank = 8;
    DetCase C{"mttkrp3", makeMttkrp(3), {}, {Dim, Rank}, 0.0};
    C.Inputs.emplace("A", generateSymmetricTensor(3, Dim, 300, R,
                                                  TensorFormat::csf(3)));
    C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
    Cases.push_back(std::move(C));
  }
  for (DetCase &C : Cases)
    for (auto &[Name, T] : C.Inputs)
      quantize(T);
  return Cases;
}

Tensor runKernel(const Kernel &K, DetCase &C, const ExecOptions &O) {
  Tensor Out = Tensor::dense(C.OutDims, 0.0);
  Out.setAllValues(C.OutInit);
  Executor E(K, O);
  for (auto &[Name, T] : C.Inputs)
    E.bind(Name, &T);
  E.bind(C.E.Output->tensorName(), &Out);
  E.prepare();
  E.run();
  return Out;
}

} // namespace

TEST(Determinism, BitIdenticalAcrossThreadCounts) {
  for (DetCase &C : determinismCases()) {
    CompileResult R = compileEinsum(C.E);
    for (const Kernel *K : {&R.Naive, &R.Optimized}) {
      ExecOptions Base;
      Tensor Ref = runKernel(*K, C, Base);
      for (unsigned Threads : {2u, 4u, 8u})
        for (SchedulePolicy P :
             {SchedulePolicy::Auto, SchedulePolicy::Static,
              SchedulePolicy::Dynamic, SchedulePolicy::TriangleBalanced}) {
          ExecOptions O;
          O.Threads = Threads;
          O.Schedule = P;
          Tensor Out = runKernel(*K, C, O);
          EXPECT_EQ(Tensor::maxAbsDiff(Ref, Out), 0.0)
              << C.Name << " kernel " << K->Name << " threads " << Threads
              << " schedule " << schedulePolicyName(P);
        }
    }
  }
}

TEST(Determinism, RepeatedRunsAreStable) {
  // Same (Threads, Schedule) twice on one executor: identical results
  // even under dynamic scheduling (accumulators are task-indexed, not
  // thread-indexed).
  DetCase C = std::move(determinismCases()[0]);
  CompileResult R = compileEinsum(C.E);
  ExecOptions O;
  O.Threads = 4;
  O.Schedule = SchedulePolicy::Dynamic;
  Tensor A = runKernel(R.Optimized, C, O);
  Tensor B = runKernel(R.Optimized, C, O);
  EXPECT_EQ(Tensor::maxAbsDiff(A, B), 0.0);
}

TEST(Determinism, RealValuedWithinTolerance) {
  // Uniform real values: parallel merge reorders additions, so allow
  // rounding-level drift relative to the sequential run.
  Rng R(99);
  const int64_t N = 200;
  Tensor A = generateSymmetricTensor(2, N, 6 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  CompileResult C = compileEinsum(makeSsymv());
  Tensor Ref = Tensor::dense({N});
  {
    Executor E(C.Optimized);
    E.bind("A", &A).bind("x", &X).bind("y", &Ref);
    E.prepare();
    E.run();
  }
  for (unsigned Threads : {2u, 8u}) {
    Tensor Y = Tensor::dense({N});
    ExecOptions O;
    O.Threads = Threads;
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    E.prepare();
    E.run();
    EXPECT_LE(Tensor::maxAbsDiff(Ref, Y), 1e-10);
  }
}

TEST(Determinism, PrivatizationBudgetFallbackStaysCorrect) {
  // mttkrp3's outer l loops privatize C at the default budget; a budget
  // too small for C forces the executor onto an inner disjoint-write
  // loop instead (mttkrp3 cannot partition). The report names the loop
  // that took over.
  DetCase C = std::move(determinismCases()[2]);
  ASSERT_EQ(C.Name, "mttkrp3");
  CompileResult R = compileEinsum(C.E);
  Tensor Ref = runKernel(R.Optimized, C, ExecOptions());
  for (size_t Budget : {size_t(1) << 24, size_t(16)}) {
    SCOPED_TRACE("budget " + std::to_string(Budget));
    ExecOptions O;
    O.Threads = 4;
    O.PrivatizationBudget = Budget;
    Tensor Out = Tensor::dense(C.OutDims, 0.0);
    Executor E(R.Optimized, O);
    for (auto &[Name, T] : C.Inputs)
      E.bind(Name, &T);
    E.bind("C", &Out);
    E.prepare();
    E.run();
    EXPECT_EQ(Tensor::maxAbsDiff(Ref, Out), 0.0);
    const bool Fits = Budget > 4 * Out.vals().size();
    unsigned Disjoint = 0;
    for (const obs::LoopStat &L : E.lastReport().Loops) {
      if (L.Label.rfind("loop l ", 0) == 0) {
        EXPECT_EQ(L.Parallel, Fits ? "privatized C" : "");
        EXPECT_EQ(L.PrivBytes,
                  Fits ? 4 * Out.vals().size() * sizeof(double) : 0u);
      }
      Disjoint += L.Parallel == "disjoint";
    }
    EXPECT_EQ(Disjoint > 0, !Fits) << "inner fallback loop";
  }
}

//===----------------------------------------------------------------------===//
// Runtime integration
//===----------------------------------------------------------------------===//

TEST(ParallelRuntime, CountersStayExact) {
  DetCase C = std::move(determinismCases()[0]);
  CompileResult R = compileEinsum(C.E);
  setCountersEnabled(true);
  counters().reset();
  runKernel(R.Optimized, C, ExecOptions());
  CounterSnapshot Seq = counters().snapshot();
  ExecOptions O;
  O.Threads = 8;
  counters().reset();
  runKernel(R.Optimized, C, O);
  CounterSnapshot Par = counters().snapshot();
  EXPECT_EQ(Seq.SparseReads, Par.SparseReads);
  EXPECT_EQ(Seq.ScalarOps, Par.ScalarOps);
  EXPECT_EQ(Seq.Reductions, Par.Reductions);
  EXPECT_EQ(Seq.OutputWrites, Par.OutputWrites);
}

TEST(ParallelRuntime, SparseTopLevelWalkerSplits) {
  // A loop driven by a top-level Sparse walker: chunks gallop to their
  // start coordinate (the range-splitting iterator).
  Kernel K;
  K.Name = "sparsesum";
  K.LoopOrder = {"i"};
  K.OutputName = "y";
  K.Body = Stmt::loop("i", Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                        Expr::access("r", {"i"})))
               ->withParallel(ParallelAnnotation{true, 0});
  Coo Entries({1000});
  double Total = 0;
  for (int64_t I = 3; I < 1000; I += 7) {
    Entries.add({I}, static_cast<double>(I % 13));
    Total += I % 13;
  }
  TensorFormat F;
  F.Levels = {LevelKind::Sparse};
  Tensor Rt = Tensor::fromCoo(std::move(Entries), F);
  for (unsigned Threads : {1u, 4u}) {
    Tensor Y = Tensor::dense({1});
    ExecOptions O;
    O.Threads = Threads;
    Executor E(K, O);
    E.bind("r", &Rt).bind("y", &Y);
    E.prepare();
    E.run();
    EXPECT_EQ(Y.at({0}), Total) << "threads " << Threads;
  }
}

namespace {

/// One ssyrk run: the output and its report.
struct SsyrkRun {
  Tensor C;
  obs::ExecReport Report;
};

SsyrkRun runSsyrk(const Kernel &K, Tensor &A, const ExecOptions &O) {
  const int64_t N = A.dim(0);
  SsyrkRun Out{Tensor::dense({N, N}), {}};
  Executor E(K, O);
  E.bind("A", &A).bind("C", &Out.C);
  E.prepare();
  Status S = E.tryRunBody(&Out.Report);
  EXPECT_TRUE(S.ok()) << S.str();
  return Out;
}

/// \p R's structureKey() without the blocked engine's panel count,
/// which depends on where task boundaries cut a sparse nest.
std::string keyWithoutPanels(obs::ExecReport R) {
  R.Counters.FusedBlockedPanels = 0;
  return R.structureKey();
}

void expectSameCounters(const CounterSnapshot &A, const CounterSnapshot &B) {
  EXPECT_EQ(A.SparseReads, B.SparseReads);
  EXPECT_EQ(A.Reductions, B.Reductions);
  EXPECT_EQ(A.ScalarOps, B.ScalarOps);
  EXPECT_EQ(A.OutputWrites, B.OutputWrites);
}

} // namespace

TEST(ParallelRuntime, PartitionedSsyrkBitIdenticalOnRealData) {
  // Output partitioning folds every cell of C in the one-thread order,
  // so uniform real values — where any reordered addition shows in the
  // low bits — must come out bit-identical at every thread count and
  // schedule, with the four work counters exact. Extents: 150 is not a
  // multiple of the 8-wide panels, 37 is odd, and 5 has fewer columns
  // than eight threads. Every engine that reaches the partition loop
  // runs: blocked panels, fused nests, and the interpreter.
  CompileResult R = compileEinsum(makeSsyrk());
  Rng Rn(4242);
  const std::vector<std::vector<Engine>> EngineLists = {
      {}, {Engine::Fused, Engine::Interp}, {Engine::Interp}};
  for (int64_t N : {int64_t(150), int64_t(37), int64_t(5)}) {
    Tensor A = generateSparseMatrix(N, N, 6 * N, Rn, TensorFormat::csf(2));
    for (const std::vector<Engine> &Engines : EngineLists) {
      ExecOptions Base;
      Base.Engines = Engines;
      SsyrkRun Ref = runSsyrk(R.Optimized, A, Base);
      for (unsigned Threads : {2u, 3u, 4u, 8u})
        for (SchedulePolicy P :
             {SchedulePolicy::Static, SchedulePolicy::Dynamic,
              SchedulePolicy::TriangleBalanced}) {
          SCOPED_TRACE("n " + std::to_string(N) + " engines " +
                       enginesSummary(Engines) + " threads " +
                       std::to_string(Threads) + " schedule " +
                       schedulePolicyName(P));
          ExecOptions O = Base;
          O.Threads = Threads;
          O.Schedule = P;
          SsyrkRun Out = runSsyrk(R.Optimized, A, O);
          EXPECT_TRUE(Out.C.vals() == Ref.C.vals()) << "values differ";
          expectSameCounters(Ref.Report.Counters, Out.Report.Counters);
          EXPECT_EQ(keyWithoutPanels(Ref.Report),
                    keyWithoutPanels(Out.Report));
          unsigned Partitioned = 0;
          for (const obs::LoopStat &L : Out.Report.Loops)
            Partitioned += L.Parallel == "partitioned on j";
          EXPECT_EQ(Partitioned, 2u);
          EXPECT_EQ(Out.Report.phaseNs("merge"), 0u);
        }
    }
  }
}

TEST(ParallelRuntime, ThreadsOneMatchesAnnotatedPlan) {
  // Threads=1 must not allocate accumulators or touch the pool.
  DetCase C = std::move(determinismCases()[0]);
  CompileResult R = compileEinsum(C.E);
  ExecOptions O;
  O.Threads = 1;
  O.Schedule = SchedulePolicy::TriangleBalanced;
  Tensor A = runKernel(R.Optimized, C, O);
  Tensor B = runKernel(R.Optimized, C, ExecOptions());
  EXPECT_EQ(Tensor::maxAbsDiff(A, B), 0.0);
}

//===----------------------------------------------------------------------===//
// Parallel replication epilogue
//===----------------------------------------------------------------------===//

namespace {
/// Reference replication, independent of the storage-order copy in
/// replicateSymmetric: visits every coordinate and copies each
/// non-canonical one from Partition::canonicalize's representative
/// through the level-walking Tensor::at and denseRef.
uint64_t replicateReference(Tensor &T, const Partition &Sym) {
  const unsigned N = T.order();
  if (N == 0)
    return 0;
  uint64_t Copies = 0;
  std::vector<int64_t> Coords(N, 0);
  std::function<void(unsigned)> Walk = [&](unsigned M) {
    if (M == N) {
      if (!Sym.isCanonical(Coords)) {
        T.denseRef(Coords) = T.at(Sym.canonicalize(Coords));
        ++Copies;
      }
      return;
    }
    for (Coords[M] = 0; Coords[M] < T.dim(M); ++Coords[M])
      Walk(M + 1);
  };
  Walk(0);
  return Copies;
}

struct ReplicateCase {
  std::vector<int64_t> Dims;
  std::string Sym; ///< Partition::parse notation
};
} // namespace

TEST(ParallelRuntime, ReplicateSymmetricMatchesReferenceWalker) {
  // Every shape class of the storage-order copy: full symmetry of
  // orders 2-4 (one run part with up to four rank segments), a part
  // above a free block (ttm's C[r,j,k]), two parts, non-adjacent parts
  // with a free mode between them, order 1, and extents of 1 and 0.
  // Each thread count must reproduce the reference bit for bit with the
  // same copy count.
  const std::vector<ReplicateCase> Cases = {
      {{37, 37}, "{0,1}"},
      {{13, 13, 13}, "{0,1,2}"},
      {{5, 5, 5, 5}, "{0,1,2,3}"},
      {{5, 13, 13}, "{1,2}"},
      {{6, 6, 5, 5}, "{0,1}{2,3}"},
      {{7, 4, 7}, "{0,2}{1}"},
      {{3, 6, 4, 6}, "{1,3}"},
      {{9}, "{0}"},
      {{9, 9}, "{0}{1}"},
      {{1, 1}, "{0,1}"},
      {{1, 1, 1}, "{0,1,2}"},
      {{3, 1, 1}, "{1,2}"},
      {{1, 4, 4}, "{1,2}"},
      {{4, 4, 1}, "{0,1}"},
      {{0, 0}, "{0,1}"},
      {{4, 0, 0}, "{1,2}"},
  };
  Rng R(31415);
  for (const ReplicateCase &RC : Cases) {
    const Partition Sym =
        Partition::parse(static_cast<unsigned>(RC.Dims.size()), RC.Sym);
    Tensor Base = Tensor::dense(RC.Dims);
    for (double &V : Base.vals())
      V = R.nextDouble();
    Tensor Ref = Base;
    const uint64_t RefCopies = replicateReference(Ref, Sym);
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(Base.summary() + " " + Sym.str() + " threads " +
                   std::to_string(Threads));
      Tensor Got = Base;
      EXPECT_EQ(replicateSymmetric(Got, Sym, Threads), RefCopies);
      ASSERT_EQ(Got.vals().size(), Ref.vals().size());
      EXPECT_EQ(std::memcmp(Got.valsData(), Ref.valsData(),
                            Ref.vals().size() * sizeof(double)),
                0);
    }
  }
}

TEST(ParallelRuntime, ReplicateEpilogueThreadedViaExecutor) {
  // End to end: ssyrk's replication epilogue runs threaded when the
  // executor is parallel, with the same result and OutputWrites count.
  // Integer-valued data keeps the body's privatized sums exact, so the
  // whole run (body + epilogue) is bit-identical across thread counts.
  Rng R(2718);
  CompileResult C = compileEinsum(makeSsyrk());
  Tensor A = generateSymmetricTensor(2, 30, 120, R, TensorFormat::csf(2));
  for (double &V : A.vals())
    V = std::floor(V * 8);
  Tensor Seq = Tensor::dense({30, 30});
  CounterSnapshot SeqSnap, ParSnap;
  {
    Executor E(C.Optimized);
    E.bind("A", &A).bind("C", &Seq);
    E.prepare();
    counters().reset();
    E.run();
    SeqSnap = counters().snapshot();
  }
  for (unsigned Threads : {2u, 4u}) {
    Tensor Par = Tensor::dense({30, 30});
    ExecOptions O;
    O.Threads = Threads;
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("C", &Par);
    E.prepare();
    counters().reset();
    E.run();
    ParSnap = counters().snapshot();
    EXPECT_EQ(SeqSnap.OutputWrites, ParSnap.OutputWrites)
        << "threads " << Threads;
    EXPECT_EQ(Tensor::maxAbsDiff(Seq, Par), 0.0) << "threads " << Threads;
  }
}

//===----------------------------------------------------------------------===//
// ExecOptions sanitization (docs/ROBUSTNESS.md): absurd-but-runnable
// values clamp with a recorded note; genuinely meaningless ones are a
// typed InvalidOptions error from tryPrepare.
//===----------------------------------------------------------------------===//

namespace {
/// One prepared-ready ssyrk setup shared by the sanitization tests.
struct SanitizeSetup {
  CompileResult C = compileEinsum(makeSsyrk());
  Tensor A, Out;
  SanitizeSetup() : Out(Tensor::dense({12, 12})) {
    Rng R(99);
    A = generateSymmetricTensor(2, 12, 40, R, TensorFormat::csf(2));
  }
  void bindInto(Executor &E) { E.bind("A", &A).bind("C", &Out); }
};

bool anyClampContains(const Executor &E, const std::string &Needle) {
  for (const std::string &Note : E.optionClamps())
    if (Note.find(Needle) != std::string::npos)
      return true;
  return false;
}
} // namespace

TEST(ExecOptionsSanitize, ZeroThreadsClampsToOneAndRuns) {
  SanitizeSetup S;
  ExecOptions O;
  O.Threads = 0;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(anyClampContains(E, "threads 0 -> 1")) << "no clamp recorded";
  EXPECT_TRUE(E.tryRun().ok());
}

TEST(ExecOptionsSanitize, AbsurdThreadCountClampsToHardwareMultiple) {
  SanitizeSetup S;
  ExecOptions O;
  O.Threads = 1u << 20; // a million lanes: oversubscription, not an error
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(anyClampContains(E, "4x hardware concurrency"));
  EXPECT_TRUE(E.tryRun().ok());
}

TEST(ExecOptionsSanitize, OversizedBlockWidthClampsToEngineMaximum) {
  SanitizeSetup S;
  ExecOptions O;
  O.EnableMicroKernels = true;
  O.EnableBlocking = true;
  O.BlockWidth = 4096;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(anyClampContains(E, "blockwidth 4096 -> 8"));
  EXPECT_TRUE(E.tryRun().ok());
}

TEST(ExecOptionsSanitize, SupportedValuesRecordNoClamps) {
  // Widths 1..8 and any Threads up to 4x hardware concurrency are part
  // of the supported contract (the fuzz matrix samples them); none may
  // produce a note.
  SanitizeSetup S;
  ExecOptions O;
  O.Threads = 4;
  O.EnableMicroKernels = true;
  O.EnableBlocking = true;
  O.BlockWidth = 8;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.optionClamps().empty());
}

TEST(ExecOptionsSanitize, NegativeDeadlineIsInvalidOptions) {
  // A negative deadline has no sane clamp (0 means "no deadline", so
  // clamping would silently drop the caller's intent): typed error.
  SanitizeSetup S;
  ExecOptions O;
  O.DeadlineMs = -5;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  Status St = E.tryPrepare();
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrCode::InvalidOptions);
  EXPECT_NE(St.str().find("DeadlineMs"), std::string::npos) << St.str();
}
