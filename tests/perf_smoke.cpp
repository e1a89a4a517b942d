//===- tests/perf_smoke.cpp -----------------------------------*- C++ -*-===//
///
/// CI smoke test for the runtime specialization layer: asserts — by
/// counter, not by time, so it is stable on loaded CI machines — that
/// the PlanSpecializer fires on all five paper kernels (ssymv, syprd,
/// ssyrk, ttm, mttkrp) in both naive and optimized form, and that the
/// fused engines reproduce the interpreted engines bit for bit on each.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace systec;

namespace {

struct SmokeCase {
  std::string Name;
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  std::string OutName;
  double OutInit = 0.0; ///< reduction identity of the kernel
};

std::vector<SmokeCase> makeCases() {
  Rng R(20260801);
  const int64_t N = 40, Dim3 = 14, Rank = 6;
  std::vector<SmokeCase> Cases;
  auto Mat2 = [&] {
    return generateSymmetricTensor(2, N, 4 * N, R, TensorFormat::csf(2));
  };
  auto Mat3 = [&] {
    return generateSymmetricTensor(3, Dim3, 200, R, TensorFormat::csf(3));
  };
  {
    SmokeCase C{"ssymv", makeSsymv(), {}, {N}, "y"};
    C.Inputs.emplace("A", Mat2());
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"syprd", makeSyprd(), {}, {1}, "y"};
    C.Inputs.emplace("A", Mat2());
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"ssyrk", makeSsyrk(), {}, {N, N}, "C"};
    C.Inputs.emplace("A", Mat2());
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"ttm", makeTtm(), {}, {Rank, Dim3, Dim3}, "C"};
    C.Inputs.emplace("A", Mat3());
    C.Inputs.emplace("B", generateDenseMatrix(Dim3, Rank, R));
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"mttkrp3", makeMttkrp(3), {}, {Dim3, Rank}, "C"};
    C.Inputs.emplace("A", Mat3());
    C.Inputs.emplace("B", generateDenseMatrix(Dim3, Rank, R));
    Cases.push_back(std::move(C));
  }
  return Cases;
}

Tensor runOnce(const Kernel &K, SmokeCase &C, bool Fused,
               MicroKernelStats &Stats) {
  ExecOptions O;
  O.EnableMicroKernels = Fused;
  Executor E(K, O);
  Tensor Out = Tensor::dense(C.OutDims, 0.0);
  Out.setAllValues(C.OutInit);
  for (auto &[Name, T] : C.Inputs)
    E.bind(Name, &T);
  E.bind(C.OutName, &Out);
  E.prepare();
  Stats = E.microKernelStats();
  E.run();
  return Out;
}

} // namespace

TEST(PerfSmoke, SpecializerFiresOnAllPaperKernels) {
  for (SmokeCase &C : makeCases()) {
    SCOPED_TRACE(C.Name);
    CompileResult R = compileEinsum(C.E);
    for (const Kernel *K : {&R.Naive, &R.Optimized}) {
      SCOPED_TRACE(K == &R.Naive ? "naive" : "optimized");
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
      Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
      // Counter-based acceptance: the specializer must fire...
      EXPECT_GT(FusedStats.SpecializedLoops, 0u);
      EXPECT_GT(FusedStats.InnermostFused, 0u);
      EXPECT_EQ(GenericStats.SpecializedLoops, 0u);
      // ...and the fused engines must be bit-identical to the oracle.
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, FullCoverageOnOptimizedPlans) {
  // Stronger claim worth noticing if it regresses: today the
  // specializer covers *every* loop of the five optimized paper
  // kernels (no generic fallbacks at all).
  for (SmokeCase &C : makeCases()) {
    SCOPED_TRACE(C.Name);
    CompileResult R = compileEinsum(C.E);
    MicroKernelStats Stats;
    runOnce(R.Optimized, C, /*Fused=*/true, Stats);
    EXPECT_EQ(Stats.GenericLoops, 0u);
  }
}

TEST(PerfSmoke, FullCoverageAcrossDriverFormatVariants) {
  // The acceptance line for the closed specializer gaps: every one of
  // the five optimized paper kernels stays fully fused — zero generic
  // fallbacks — when A's bottom level is re-declared Dense, Sparse,
  // RunLength, or Banded (the driver-format axis), and the fused
  // engines remain bit-identical to the interpreter on each variant.
  struct KernelSpec {
    const char *Name;
    Einsum E;
    unsigned OrderA;
  };
  std::vector<KernelSpec> Kernels;
  Kernels.push_back({"ssymv", makeSsymv(), 2});
  Kernels.push_back({"syprd", makeSyprd(), 2});
  Kernels.push_back({"ssyrk", makeSsyrk(), 2});
  Kernels.push_back({"ttm", makeTtm(), 3});
  Kernels.push_back({"mttkrp3", makeMttkrp(3), 3});
  const LevelKind Bottoms[] = {LevelKind::Dense, LevelKind::Sparse,
                               LevelKind::RunLength, LevelKind::Banded};
  Rng R(20260801);
  const int64_t N2 = 32, N3 = 12, Rank = 5;
  for (KernelSpec &KS : Kernels) {
    const bool Sym = KS.Name != std::string("ssyrk");
    for (LevelKind Bottom : Bottoms) {
      SCOPED_TRACE(std::string(KS.Name) + " bottom=" +
                   std::to_string(static_cast<int>(Bottom)));
      TensorFormat Fmt = TensorFormat::csf(KS.OrderA);
      Fmt.Levels[KS.OrderA - 1] = Bottom;
      Einsum E = KS.E;
      E.declare("A", Fmt);
      if (Sym)
        E.setSymmetry("A", Partition::full(KS.OrderA));
      const int64_t Dim = KS.OrderA == 2 ? N2 : N3;
      SmokeCase C{KS.Name, E, {}, {}, "", 0.0};
      C.Inputs.emplace(
          "A", generateSymmetricTensor(KS.OrderA, Dim, 10 * Dim, R, Fmt));
      if (KS.Name == std::string("ssymv") ||
          KS.Name == std::string("syprd")) {
        C.Inputs.emplace("x", generateDenseVector(Dim, R));
        C.OutDims = KS.Name == std::string("syprd")
                        ? std::vector<int64_t>{1}
                        : std::vector<int64_t>{Dim};
        C.OutName = "y";
      } else if (KS.Name == std::string("ssyrk")) {
        C.OutDims = {Dim, Dim};
        C.OutName = "C";
      } else if (KS.Name == std::string("ttm")) {
        C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
        C.OutDims = {Rank, Dim, Dim};
        C.OutName = "C";
      } else {
        C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
        C.OutDims = {Dim, Rank};
        C.OutName = "C";
      }
      CompileResult R2 = compileEinsum(C.E);
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(R2.Optimized, C, /*Fused=*/false,
                               GenericStats);
      Tensor Fused = runOnce(R2.Optimized, C, /*Fused=*/true, FusedStats);
      EXPECT_GT(FusedStats.SpecializedLoops, 0u);
      EXPECT_EQ(FusedStats.GenericLoops, 0u)
          << "optimized " << KS.Name << " must stay fully fused";
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, CoWalkerVariantsFullyFused) {
  // Structured and sparse vectors as the *second* operand of ssymv: in
  // the naive nest the vector walks alongside A's top level, so the
  // fused loop intersects a sparse driver with a Sparse / RunLength /
  // Banded co-walker (the formerly-declined placements). Both kernels
  // stay fully fused and bit-identical; the per-shape counters pin
  // which co-walker engine ran.
  struct Variant {
    const char *Name;
    LevelKind Kind;
  };
  const Variant Variants[] = {{"x-sparse", LevelKind::Sparse},
                              {"x-runlength", LevelKind::RunLength},
                              {"x-banded", LevelKind::Banded}};
  Rng R(20260801);
  const int64_t N = 40;
  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    Einsum E = makeSsymv();
    TensorFormat XFmt{{V.Kind}};
    E.declare("x", XFmt);
    SmokeCase C{V.Name, E, {}, {N}, "y", 0.0};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    Coo XC({N});
    for (int64_t K = 0; K < N; ++K)
      if (K % 3 != 1)
        XC.add({K}, static_cast<double>(1 + K % 7));
    C.Inputs.emplace("x", Tensor::fromCoo(std::move(XC), XFmt));
    CompileResult R2 = compileEinsum(C.E);
    for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
      SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
      Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
      EXPECT_EQ(FusedStats.GenericLoops, 0u);
      if (K == &R2.Naive) {
        // The naive nest has the A-driver + x-co-walker loop.
        EXPECT_GT(FusedStats.FusedCoWalkers, 0u);
        if (V.Kind == LevelKind::RunLength)
          EXPECT_GT(FusedStats.FusedRunLengthCoWalkers, 0u);
        else if (V.Kind == LevelKind::Banded)
          EXPECT_GT(FusedStats.FusedBandedCoWalkers, 0u);
      }
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, ThreeSparseOperandProductFusesNWay) {
  // A product of three sparse matrices intersects three walkers on the
  // shared index — the N-way multi-finger merge the specializer used to
  // decline (>2 walkers). Zero generic fallbacks, bit-identical to the
  // interpreter, and the FusedNWalkerLoops counter proves the shape.
  Rng R(20260801);
  const int64_t N = 40;
  Einsum E = parseEinsum("tri", "O[j] += A[i,j] * B[i,j] * C[i,j]");
  E.LoopOrder = {"j", "i"};
  for (const char *T : {"A", "B", "C"})
    E.declare(T, TensorFormat::csf(2));
  SmokeCase C{"tri", E, {}, {N}, "O", 0.0};
  for (const char *T : {"A", "B", "C"})
    C.Inputs.emplace(T, generateSymmetricTensor(2, N, 4 * N, R,
                                                TensorFormat::csf(2)));
  CompileResult R2 = compileEinsum(C.E);
  for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
    SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
    MicroKernelStats FusedStats, GenericStats;
    Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
    Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
    EXPECT_GT(FusedStats.FusedNWalkerLoops, 0u);
    EXPECT_GE(FusedStats.FusedCoWalkers, 2u);
    EXPECT_EQ(FusedStats.GenericLoops, 0u);
    ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
    for (size_t I = 0; I < Generic.vals().size(); ++I)
      EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
  }
}

TEST(PerfSmoke, LutKernelFullyFused) {
  // mttkrp4's optimized plan carries simplicial lookup tables (paper
  // 4.2.5) in its diagonal blocks — previously a hard decline. The Lut
  // operands must now bind into the fused bodies (FusedLutFactors),
  // with zero generic fallbacks and bit-identical results.
  Rng R(20260801);
  const int64_t Dim = 8, Rank = 4;
  SmokeCase C{"mttkrp4", makeMttkrp(4), {}, {Dim, Rank}, "C", 0.0};
  C.Inputs.emplace("A", generateSymmetricTensor(4, Dim, 150, R,
                                                TensorFormat::csf(4)));
  C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
  CompileResult R2 = compileEinsum(C.E);
  MicroKernelStats FusedStats, GenericStats;
  Tensor Generic = runOnce(R2.Optimized, C, /*Fused=*/false, GenericStats);
  Tensor Fused = runOnce(R2.Optimized, C, /*Fused=*/true, FusedStats);
  EXPECT_GT(FusedStats.FusedLutFactors, 0u)
      << "the simplicial lookup tables must fuse";
  EXPECT_EQ(FusedStats.GenericLoops, 0u);
  ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
  for (size_t I = 0; I < Generic.vals().size(); ++I)
    EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
}

namespace {

/// ssymv / bellman-ford variants with A re-declared in \p F (the
/// structured-format axis: RunLength and Banded bottom levels, sparse
/// top levels).
SmokeCase formatVariant(const std::string &Name, Einsum E,
                        const TensorFormat &F, Tensor A, Tensor X,
                        double OutInit) {
  const std::string VecName = E.Name == "ssymv" ? "x" : "d";
  E.declare("A", F, E.decl("A").Fill);
  E.setSymmetry("A", Partition::full(2));
  SmokeCase C{Name, std::move(E), {}, {A.dim(0)}, "y"};
  C.Inputs.emplace("A", std::move(A));
  C.Inputs.emplace(VecName, std::move(X));
  C.OutInit = OutInit;
  return C;
}

} // namespace

TEST(PerfSmoke, SpecializerFiresOnRunLengthAndBandedDrivers) {
  // The format-general engines: RunLength- and Banded-driven variants
  // of the paper kernels must specialize (per-shape counters), stay
  // fully covered, and reproduce the interpreter bit for bit.
  Rng R(20260801);
  const int64_t N = 48;
  TensorFormat Rle{{LevelKind::Dense, LevelKind::RunLength}};
  TensorFormat Band{{LevelKind::Dense, LevelKind::Banded}};
  std::vector<SmokeCase> Cases;
  Cases.push_back(formatVariant(
      "ssymv-rle", makeSsymv(), Rle,
      generateSymmetricTensor(2, N, 3 * N, R, Rle),
      generateDenseVector(N, R), 0.0));
  Cases.push_back(formatVariant(
      "ssymv-banded", makeSsymv(), Band,
      generateBandedSymmetric(N, 4, R, Band),
      generateDenseVector(N, R), 0.0));
  const double Inf = std::numeric_limits<double>::infinity();
  Cases.push_back(formatVariant(
      "bellmanford-banded", makeBellmanFord(), Band,
      generateBandedSymmetric(N, 4, R, Band, Inf), // fill inf off-band
      generateDenseVector(N, R), Inf));
  for (SmokeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    const bool Rl = C.Name.find("rle") != std::string::npos;
    CompileResult R2 = compileEinsum(C.E);
    for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
      SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
      Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
      EXPECT_GT(FusedStats.SpecializedLoops, 0u);
      EXPECT_EQ(FusedStats.GenericLoops, 0u);
      if (Rl)
        EXPECT_GT(FusedStats.FusedRunLengthDrivers, 0u);
      else
        EXPECT_GT(FusedStats.FusedBandedDrivers, 0u);
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, WalkersRecoveredOnGroupedTwoSparseOperandKernels) {
  // Grouped symmetric kernels over two sparse operands, with A in a
  // sparse-topped (DCSR) format: the workspace flush used to cost the
  // outer walker under the string-level membership check. The algebra
  // must recover it (WalkersRecovered > 0), the mismatched accesses of
  // the second sparse operand must bind as SparseLoad factors inside
  // the fused bodies, and the plans stay fully fused and bit-identical
  // to the interpreter.
  Rng R(20260801);
  const int64_t N = 48;
  TensorFormat Dcsr{{LevelKind::Sparse, LevelKind::Sparse}};
  TensorFormat SpVec{{LevelKind::Sparse}};
  Einsum E = makeSsymv();
  E.declare("A", Dcsr);
  E.setSymmetry("A", Partition::full(2));
  E.declare("x", SpVec);
  SmokeCase C{"ssymv-2sparse", E, {}, {N}, "y"};
  C.Inputs.emplace("A", generateSymmetricTensor(2, N, 3 * N, R, Dcsr));
  Coo XC({N});
  for (int64_t K = 0; K < N; ++K)
    if (K % 3 != 0)
      XC.add({K}, 1.0 + K);
  C.Inputs.emplace("x", Tensor::fromCoo(std::move(XC), SpVec));
  CompileResult R2 = compileEinsum(C.E);
  for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
    SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
    MicroKernelStats FusedStats, GenericStats;
    Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
    Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
    if (K == &R2.Optimized) {
      // Only the grouped symmetric lowering has the workspace flush
      // (losing the top-level walker under membership) and the
      // mismatched second-operand accesses (x[j] vs x[i]) that must
      // bind as SparseLoad factors; the naive nest walks both operands
      // directly.
      EXPECT_GT(FusedStats.WalkersRecovered, 0u)
          << "the workspace flush must not cost the sparse-topped walker";
      EXPECT_GT(FusedStats.FusedSparseLoadFactors, 0u)
          << "second sparse operand must fuse via the chained locator";
      EXPECT_GT(FusedStats.PrebindSlots, 0u)
          << "row-invariant SparseLoad prefixes must prebind per row";
    }
    EXPECT_GT(FusedStats.SpecializedLoops, 0u);
    EXPECT_EQ(FusedStats.GenericLoops, 0u);
    ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
    for (size_t I = 0; I < Generic.vals().size(); ++I)
      EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
  }
}

TEST(PerfSmoke, BlockedOutputEngineCoversSsyrkAndSpmm) {
  // The register/cache-blocked output engine (the ssyrk memory-wall
  // fix): the optimized ssyrk plan must install blocked nests
  // (BlockedLoops > 0) while staying fully fused (LoopsGeneric == 0),
  // and actually execute panels at run time (the FusedBlockedPanels
  // global counter). The SpMM-style workspace shape must take the
  // register-accumulator form (BlockedAccumLoops > 0). The
  // EnableBlocking=false ablation must keep everything on the
  // unblocked nests with zero panels.
  Rng R(20260801);
  const int64_t N = 40, Rank = 6;

  struct BlockedCase {
    std::string Name;
    Einsum E;
    std::map<std::string, Tensor> Inputs;
    std::vector<int64_t> OutDims;
    std::string OutName;
    bool ExpectAccum;
  };
  std::vector<BlockedCase> Cases;
  {
    BlockedCase C{"ssyrk", makeSsyrk(), {}, {N, N}, "C", false};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    Cases.push_back(std::move(C));
  }
  {
    Einsum E = parseEinsum("spmm", "C[i,k] += A[i,j] * B[j,k]");
    E.LoopOrder = {"i", "k", "j"};
    E.declare("A", TensorFormat::csf(2));
    BlockedCase C{"spmm", std::move(E), {}, {N, Rank}, "C", true};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    Cases.push_back(std::move(C));
  }

  for (BlockedCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    CompileResult R2 = compileEinsum(C.E);
    for (bool Blocking : {true, false}) {
      SCOPED_TRACE(Blocking ? "blocking on" : "blocking off");
      ExecOptions O;
      O.EnableBlocking = Blocking;
      Executor E(R2.Optimized, O);
      Tensor Out = Tensor::dense(C.OutDims, 0.0);
      for (auto &[Name, T] : C.Inputs)
        E.bind(Name, &T);
      E.bind(C.OutName, &Out);
      E.prepare();
      const MicroKernelStats &Stats = E.microKernelStats();
      EXPECT_EQ(Stats.GenericLoops, 0u)
          << "blocking must not cost full fusion";
      if (Blocking) {
        EXPECT_GT(Stats.BlockedLoops, 0u);
        if (C.ExpectAccum)
          EXPECT_GT(Stats.BlockedAccumLoops, 0u);
      } else {
        EXPECT_EQ(Stats.BlockedLoops, 0u);
      }
      counters().reset();
      setCountersEnabled(true);
      E.run();
      CounterSnapshot Snap = counters().snapshot();
      if (Blocking) {
        EXPECT_GT(Snap.FusedBlockedPanels, 0u)
            << "the blocked engine must actually execute panels";
        EXPECT_GT(Snap.FusedBlockedStores, 0u);
      } else {
        EXPECT_EQ(Snap.FusedBlockedPanels, 0u);
      }
    }
  }
}

TEST(PerfSmoke, EpilogueWritesExactlyTheNonCanonicalCells) {
  // The replication epilogue's counter contract: its OutputWrites delta
  // is the number of non-canonical output cells, each copied once, at
  // any thread count. ssyrk's C[i,j] has n(n-1)/2 of them; ttm's
  // C[r,j,k], symmetric in j and k, has R n(n-1)/2.
  for (SmokeCase &C : makeCases()) {
    if (C.Name != "ssyrk" && C.Name != "ttm")
      continue;
    const uint64_t N = static_cast<uint64_t>(C.OutDims.back());
    const uint64_t Rows =
        C.Name == "ttm" ? static_cast<uint64_t>(C.OutDims[0]) : 1;
    CompileResult R = compileEinsum(C.E);
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(C.Name + " threads " + std::to_string(Threads));
      ExecOptions O;
      O.Threads = Threads;
      Executor E(R.Optimized, O);
      Tensor Out = Tensor::dense(C.OutDims, 0.0);
      for (auto &[Name, T] : C.Inputs)
        E.bind(Name, &T);
      E.bind(C.OutName, &Out);
      E.prepare();
      setCountersEnabled(true);
      E.runBody();
      counters().reset();
      E.runEpilogue();
      EXPECT_EQ(counters().snapshot().OutputWrites, Rows * N * (N - 1) / 2);
    }
  }
}

TEST(PerfSmoke, OutputPartitioningFiresWhereEveryWriteIsInOneLoop) {
  // At four threads both ssyrk nests partition C by its column j: the
  // outer k loops run in every task with j clamped, so nothing is
  // privatized and the merge phase is exactly zero. ssymv and
  // bellmanford keep privatized accumulators on their off-diagonal
  // nest, which writes y[j] outside the i loop; their diagonal nest
  // writes y[i] only inside the i loop, so it partitions on i. syprd,
  // ttm and mttkrp3 never partition.
  std::vector<SmokeCase> Cases = makeCases();
  {
    Rng R(20260802);
    const int64_t N = 40;
    SmokeCase C{"bellmanford", makeBellmanFord(), {}, {N}, "y",
                std::numeric_limits<double>::infinity()};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("d", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  for (SmokeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    CompileResult R = compileEinsum(C.E);
    ExecOptions O;
    O.Threads = 4;
    Executor E(R.Optimized, O);
    Tensor Out = Tensor::dense(C.OutDims, 0.0);
    Out.setAllValues(C.OutInit);
    for (auto &[Name, T] : C.Inputs)
      E.bind(Name, &T);
    E.bind(C.OutName, &Out);
    E.prepare();
    E.run();
    const obs::ExecReport &Rep = E.lastReport();
    std::vector<std::string> Modes;
    uint64_t PrivBytes = 0;
    for (const obs::LoopStat &L : Rep.Loops) {
      if (!L.Parallel.empty())
        Modes.push_back(L.Parallel);
      PrivBytes += L.PrivBytes;
    }
    if (C.Name == "ssyrk") {
      EXPECT_EQ(Modes, std::vector<std::string>(2, "partitioned on j"));
      EXPECT_EQ(PrivBytes, 0u);
      EXPECT_EQ(Rep.phaseNs("merge"), 0u);
    } else if (C.Name == "ssymv" || C.Name == "bellmanford") {
      EXPECT_EQ(Modes, (std::vector<std::string>{"privatized y",
                                                 "partitioned on i"}));
      EXPECT_EQ(PrivBytes, 4 * C.OutDims[0] * sizeof(double));
      EXPECT_GT(Rep.phaseNs("merge"), 0u);
    } else {
      for (const std::string &M : Modes)
        EXPECT_EQ(M.rfind("partitioned on ", 0), std::string::npos) << M;
    }
  }
}

TEST(PerfSmoke, TracingOverheadBounded) {
  // The observability layer's cost pin. Two claims: (1) with tracing
  // off, a run emits zero trace events (the disabled path is a single
  // relaxed-atomic branch, asserted structurally here and by ratio in
  // bench_check's tracing-off gate against the checked-in baseline);
  // (2) even with tracing *on*, a paper kernel's body stays within a
  // generous multiple of its untraced time — spans are per loop
  // dispatch and per pool task, never per element. Medians of several
  // runs and an absolute slack keep this stable on 1-core CI.
  Rng R(20260801);
  const int64_t N = 1000;
  Tensor A = generateSymmetricTensor(2, N, 8 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  Tensor Y = Tensor::dense({N});
  CompileResult C = compileEinsum(makeSsymv());
  Executor E(C.Optimized);
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  E.prepare();

  auto MedianMs = [&] {
    std::vector<double> Ms;
    for (int I = 0; I < 7; ++I) {
      Y.setAllValues(0.0);
      const uint64_t T0 = obs::nowNs();
      E.runBody();
      Ms.push_back((obs::nowNs() - T0) / 1e6);
    }
    std::sort(Ms.begin(), Ms.end());
    return Ms[Ms.size() / 2];
  };

  setCountersEnabled(false); // match the bench methodology
  ASSERT_FALSE(obs::tracingEnabled());
  const uint64_t EventsBefore = obs::traceEventCount();
  const double OffMs = MedianMs();
  EXPECT_EQ(obs::traceEventCount(), EventsBefore)
      << "tracing-off runs must emit zero trace events";

  obs::setTracingEnabled(true);
  const double OnMs = MedianMs();
  obs::setTracingEnabled(false);
  setCountersEnabled(true);
  EXPECT_GT(obs::traceEventCount(), EventsBefore)
      << "tracing-on runs must emit spans";

  EXPECT_LE(OnMs, OffMs * 8.0 + 5.0)
      << "traced run " << OnMs << " ms vs untraced " << OffMs
      << " ms: span emission has grown into the hot path";
}

TEST(PerfSmoke, ValidationOffHasZeroHotPathCost) {
  // The integrity-validation cost pin (docs/ROBUSTNESS.md). Three
  // claims: (1) with ValidateInputs=None — the default — the report
  // carries no "validate" phase at all: the check is structurally
  // absent, not merely fast; (2) Deep validation is a prepare-time
  // pre-pass, so it changes neither the results nor a single runtime
  // counter of the body; (3) the body's wall time is unaffected by the
  // validation tier (median-of-runs with generous slack, same
  // methodology as the tracing pin above).
  Rng R(20260801);
  const int64_t N = 1000;
  Tensor A = generateSymmetricTensor(2, N, 8 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  CompileResult C = compileEinsum(makeSsymv());

  auto Median = [](std::vector<double> Ms) {
    std::sort(Ms.begin(), Ms.end());
    return Ms[Ms.size() / 2];
  };
  auto Setup = [&](ValidationLevel VL, Tensor &Y, CounterSnapshot &Snap,
                   std::vector<double> &Ms) {
    ExecOptions O;
    O.ValidateInputs = VL;
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    E.prepare();
    for (const obs::PhaseStat &P : E.lastReport().Phases)
      if (VL == ValidationLevel::None)
        EXPECT_NE(P.Name, "validate")
            << "hot-path default must not even time a validation phase";
    counters().reset();
    setCountersEnabled(true);
    for (int I = 0; I < 7; ++I) {
      Y.setAllValues(0.0);
      const uint64_t T0 = obs::nowNs();
      E.runBody();
      Ms.push_back((obs::nowNs() - T0) / 1e6);
    }
    Snap = counters().snapshot();
  };

  Tensor YOff = Tensor::dense({N}), YDeep = Tensor::dense({N});
  CounterSnapshot SOff, SDeep;
  std::vector<double> MsOff, MsDeep;
  Setup(ValidationLevel::None, YOff, SOff, MsOff);
  Setup(ValidationLevel::Deep, YDeep, SDeep, MsDeep);

  ASSERT_EQ(YOff.vals().size(), YDeep.vals().size());
  for (size_t I = 0; I < YOff.vals().size(); ++I)
    EXPECT_EQ(YOff.vals()[I], YDeep.vals()[I]) << "element " << I;
  EXPECT_EQ(SOff.SparseReads, SDeep.SparseReads);
  EXPECT_EQ(SOff.Reductions, SDeep.Reductions);
  EXPECT_EQ(SOff.ScalarOps, SDeep.ScalarOps);
  EXPECT_EQ(SOff.OutputWrites, SDeep.OutputWrites);

  EXPECT_LE(Median(MsDeep), Median(MsOff) * 4.0 + 5.0)
      << "Deep validation must stay out of the execution loops "
         "(prepare-time only)";
}
