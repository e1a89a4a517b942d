//===- tests/fault_test.cpp - Fault-injection robustness tests -*- C++ -*-===//
///
/// \file
/// The hardened-execution contract under corrupted input: every fault
/// class of tests/FaultInjection.h, applied to otherwise-valid fuzz and
/// corpus tensors, must be rejected with a typed Status — by
/// Tensor::validate(Deep) directly, and by Executor::tryPrepare with
/// ValidateInputs=Deep across {interpreter, fused, blocked} x
/// Threads {1, 4}. No abort, no crash, no sanitizer report (this test
/// carries the "fault" ctest label and runs under ASan/UBSan in CI).
/// Also pins the cooperative cancellation/deadline semantics: aborted
/// runs return Cancelled / DeadlineExceeded, restore their outputs, and
/// surface the reason in ExecReport::AbortReason.
///
//===----------------------------------------------------------------------===//

#include "FaultInjection.h"
#include "FuzzHarness.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace systec;
using namespace systec::fault;
using namespace systec::fuzzharness;

namespace {

/// 8x8 matrix with a fixed multi-coordinate pattern, buildable in every
/// two-level format — the deterministic corpus guaranteeing each fault
/// class a site regardless of what the fuzz seeds generate.
Tensor makeMatrix(TensorFormat F) {
  Coo C({8, 8});
  for (int64_t I = 0; I < 8; ++I)
    for (int64_t J = 0; J < 8; ++J)
      if ((I + 2 * J) % 3 == 0)
        C.add({I, J}, static_cast<double>(1 + I + 8 * J));
  return Tensor::fromCoo(std::move(C), std::move(F));
}

std::vector<std::pair<std::string, Tensor>> corpusTensors() {
  using LK = LevelKind;
  std::vector<std::pair<std::string, Tensor>> Out;
  Out.emplace_back("d(s)", makeMatrix(TensorFormat{{LK::Dense, LK::Sparse}}));
  Out.emplace_back("s(s)", makeMatrix(TensorFormat{{LK::Sparse, LK::Sparse}}));
  Out.emplace_back("d(r)",
                   makeMatrix(TensorFormat{{LK::Dense, LK::RunLength}}));
  Out.emplace_back("d(b)", makeMatrix(TensorFormat{{LK::Dense, LK::Banded}}));
  Out.emplace_back("s(b)", makeMatrix(TensorFormat{{LK::Sparse, LK::Banded}}));
  return Out;
}

struct EngineCfg {
  const char *Name;
  bool Micro;
  bool Blocking;
};
constexpr EngineCfg Engines[] = {{"interp", false, false},
                                 {"fused", true, false},
                                 {"blocked", true, true}};

} // namespace

//===----------------------------------------------------------------------===//
// Validator-level rejection
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ValidatorRejectsEveryCorruption) {
  std::map<Fault, int> Applied;
  auto Sweep = [&](const Tensor &Pristine, const std::string &Tag) {
    {
      Status S = Pristine.validate(ValidationLevel::Deep);
      ASSERT_TRUE(S.ok()) << Tag << ": pristine tensor rejected: " << S.str();
    }
    for (Fault F : allFaults()) {
      Tensor Broken = Pristine;
      std::optional<std::string> Site = injectFault(Broken, F);
      if (!Site)
        continue;
      SCOPED_TRACE(Tag + ": " + faultName(F) + ": " + *Site);
      Status S = Broken.validate(ValidationLevel::Deep);
      EXPECT_FALSE(S.ok()) << "corruption accepted";
      EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
      EXPECT_FALSE(S.message().empty());
      ++Applied[F];
    }
  };
  for (const auto &[Tag, T] : corpusTensors())
    Sweep(T, "corpus " + Tag);
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    FuzzCase F = makeCase(Seed);
    for (const auto &[Name, T] : F.Inputs)
      Sweep(T, "seed " + std::to_string(Seed) + " " + Name);
  }
  for (Fault F : allFaults())
    EXPECT_GT(Applied[F], 0) << faultName(F) << " never found a site";
}

TEST(FaultInjection, ShallowTierCatchesSizeFaultsOnly) {
  const Tensor Pristine =
      makeMatrix(TensorFormat{{LevelKind::Dense, LevelKind::Sparse}});

  Tensor EndpointBroken = Pristine;
  ASSERT_TRUE(injectFault(EndpointBroken, Fault::PtrOutOfRange));
  EXPECT_FALSE(EndpointBroken.validate(ValidationLevel::Shallow).ok());

  Tensor Truncated = Pristine;
  ASSERT_TRUE(injectFault(Truncated, Fault::ValsTruncated));
  EXPECT_FALSE(Truncated.validate(ValidationLevel::Shallow).ok());

  // Per-fiber coordinate order is deliberately a Deep-tier check: the
  // Shallow tier is O(levels) and never walks the arrays.
  Tensor Unsorted = Pristine;
  ASSERT_TRUE(injectFault(Unsorted, Fault::CrdUnsorted));
  EXPECT_TRUE(Unsorted.validate(ValidationLevel::Shallow).ok());
  EXPECT_FALSE(Unsorted.validate(ValidationLevel::Deep).ok());
}

//===----------------------------------------------------------------------===//
// Executor-level rejection across engines and thread counts
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ExecutorRejectsCorruptedOperandsAcrossEngines) {
  int Checked = 0;
  for (uint64_t Seed : {3u, 7u, 11u, 19u}) {
    FuzzCase Base = makeCase(Seed);
    SCOPED_TRACE(caseTrace(Base));
    CompileResult R = compileEinsum(Base.E);
    for (Fault F : allFaults()) {
      // One corrupted operand per fault class suffices; find an input
      // offering a site.
      for (auto &[Name, Pristine] : Base.Inputs) {
        Tensor Broken = Pristine;
        std::optional<std::string> Site = injectFault(Broken, F);
        if (!Site)
          continue;
        for (const EngineCfg &E : Engines) {
          for (unsigned Threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(faultName(F)) + " on " + Name + " [" +
                         E.Name + " threads=" + std::to_string(Threads) +
                         "]: " + *Site);
            ExecOptions O;
            O.EnableMicroKernels = E.Micro;
            O.EnableBlocking = E.Blocking;
            O.Threads = Threads;
            O.ValidateInputs = ValidationLevel::Deep;
            Tensor Out = Tensor::dense(Base.OutDims, 0.0);
            Out.setAllValues(Base.OutInit);
            Executor Ex(R.Naive, O);
            for (auto &[BindName, BindT] : Base.Inputs)
              Ex.bind(BindName, BindName == Name ? &Broken : &BindT);
            Ex.bind("O", &Out);
            Status S = Ex.tryPrepare();
            ASSERT_FALSE(S.ok()) << "corrupted operand accepted";
            EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
            // The context chain names the offending tensor.
            EXPECT_NE(S.str().find("'" + Name + "'"), std::string::npos)
                << S.str();
            ++Checked;
          }
        }
        break;
      }
    }
  }
  // Every seed offers at least the always-applicable value faults on
  // all six engine/thread cells.
  EXPECT_GE(Checked, 4 * 2 * 6);
}

//===----------------------------------------------------------------------===//
// Cancellation and deadlines
//===----------------------------------------------------------------------===//

TEST(HardenedExecution, PreCancelledTokenAbortsAndRestoresOutput) {
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    FuzzCase F = makeCase(5);
    CompileResult R = compileEinsum(F.E);
    Tensor Out = Tensor::dense(F.OutDims, 0.0);
    Out.setAllValues(F.OutInit);
    const std::vector<double> Before = Out.vals();

    CancelToken Tok;
    Tok.cancel();
    ExecOptions O;
    O.Threads = Threads;
    O.Cancel = &Tok;
    Executor Ex(R.Naive, O);
    for (auto &[Name, T] : F.Inputs)
      Ex.bind(Name, &T);
    Ex.bind("O", &Out);
    {
      Status S = Ex.tryPrepare();
      ASSERT_TRUE(S.ok()) << S.str();
    }
    Status S = Ex.tryRunBody();
    ASSERT_FALSE(S.ok());
    EXPECT_EQ(S.code(), ErrCode::Cancelled);
    EXPECT_EQ(Ex.lastReport().AbortReason, "cancelled");
    EXPECT_EQ(Out.vals(), Before) << "partial writes not discarded";

    // The token is reusable: reset and the same executor completes.
    Tok.reset();
    Status S2 = Ex.tryRun();
    EXPECT_TRUE(S2.ok()) << S2.str();
    EXPECT_TRUE(Ex.lastReport().AbortReason.empty());
  }
}

TEST(HardenedExecution, GenerousDeadlineCompletes) {
  FuzzCase F = makeCase(8);
  CompileResult R = compileEinsum(F.E);
  ExecOptions O;
  O.DeadlineMs = 60000;
  Tensor Out = run(R.Naive, F, O);
  FuzzCase F2 = makeCase(8);
  Tensor Ref = run(R.Naive, F2, ExecOptions());
  EXPECT_EQ(Out.vals(), Ref.vals());
}

TEST(HardenedExecution, TightDeadlineEitherCompletesOrAbortsCleanly) {
  // A 1 ms deadline on a small kernel is a race by construction; the
  // contract is that both outcomes are clean — completion, or a typed
  // DeadlineExceeded with the output restored.
  FuzzCase F = makeCase(13);
  CompileResult R = compileEinsum(F.E);
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Out.setAllValues(F.OutInit);
  const std::vector<double> Before = Out.vals();
  ExecOptions O;
  O.DeadlineMs = 1;
  Executor Ex(R.Naive, O);
  for (auto &[Name, T] : F.Inputs)
    Ex.bind(Name, &T);
  Ex.bind("O", &Out);
  ASSERT_TRUE(Ex.tryPrepare().ok());
  Status S = Ex.tryRunBody();
  if (!S.ok()) {
    EXPECT_EQ(S.code(), ErrCode::DeadlineExceeded);
    EXPECT_EQ(Ex.lastReport().AbortReason, "deadline-exceeded");
    EXPECT_EQ(Out.vals(), Before);
  } else {
    EXPECT_TRUE(Ex.lastReport().AbortReason.empty());
  }
}

TEST(HardenedExecution, MemoryBudgetDegradesWithoutChangingResults) {
  // A one-byte budget vetoes every privatized accumulator; the loop
  // degrades to the inner disjoint-write parallelization (or runs
  // sequentially) with bit-identical results on quantized data.
  FuzzCase F1 = makeCase(9);
  FuzzCase F2 = makeCase(9);
  CompileResult R = compileEinsum(F1.E);
  ExecOptions Unrestricted;
  Unrestricted.Threads = 4;
  ExecOptions Budgeted = Unrestricted;
  Budgeted.MemoryBudgetBytes = 1;
  Tensor Ref = run(R.Naive, F1, Unrestricted);
  Tensor Out = run(R.Naive, F2, Budgeted);
  EXPECT_EQ(Out.vals(), Ref.vals());
}

//===----------------------------------------------------------------------===//
// Output partitioning: tasks write the shared output in place
//===----------------------------------------------------------------------===//

namespace {

/// ssyrk at four threads on the interpreter, where both nests run
/// output-partitioned (every task writes its columns of C directly)
/// and a run lasts long enough for a stop to land while the tasks are
/// writing. C starts from a nonzero pattern, so any write left behind
/// by an abort would show.
struct PartitionedSsyrk {
  CompileResult R = compileEinsum(makeSsyrk());
  Tensor A;
  Tensor C;
  std::vector<double> Before;

  explicit PartitionedSsyrk(int64_t N)
      : A([N] {
          Rng Rn(31337);
          return generateSparseMatrix(N, N, 96 * N, Rn,
                                      TensorFormat::csf(2));
        }()),
        C(Tensor::dense({N, N})) {
    for (size_t I = 0; I < C.vals().size(); ++I)
      C.vals()[I] = 0.25 * static_cast<double>(I % 7);
    Before = C.vals();
  }

  static ExecOptions options() {
    ExecOptions O;
    O.Threads = 4;
    O.Engines = {Engine::Interp};
    return O;
  }

  /// Calls of the partition (j) loops in \p Rep: how far tasks got.
  static uint64_t partitionLoopCalls(const obs::ExecReport &Rep) {
    uint64_t Calls = 0;
    for (const obs::LoopStat &L : Rep.Loops)
      if (L.Label.rfind("loop j ", 0) == 0)
        Calls += L.Calls;
    return Calls;
  }

  static void expectPartitioned(const obs::ExecReport &Rep) {
    unsigned Partitioned = 0;
    for (const obs::LoopStat &L : Rep.Loops) {
      Partitioned += L.Parallel == "partitioned on j";
      EXPECT_EQ(L.PrivBytes, 0u) << L.Label;
    }
    EXPECT_EQ(Partitioned, 2u);
  }
};

/// Restores the process-wide tracing flag on scope exit.
struct TracingOn {
  TracingOn() { obs::setTracingEnabled(true); }
  ~TracingOn() {
    obs::setTracingEnabled(false);
    obs::clearTrace();
  }
};

/// Stops a partitioned ssyrk mid-run. \p Arm turns a delay into the
/// controlled options (a cancel token or a deadline); \p Start arms the
/// stop just before the run and returns a scope object that keeps it
/// pending. The first stop is armed at a quarter of an uncontrolled
/// run's time. A stop that lands after the run ended halves the delay,
/// one that lands before any task ran doubles it, and some attempt must
/// land mid-run: tasks ran and were cut short. Every attempt must leave
/// the output complete (run finished) or restored bit for bit (typed
/// status); after the mid-run stop the executor completes an
/// uncontrolled run with the reference result.
template <typename ArmFn, typename StartFn>
void expectCleanMidRunStop(ErrCode Code, const char *Reason, ArmFn Arm,
                           StartFn Start) {
  using std::chrono::microseconds;
  TracingOn Trace;
  const int64_t N = 600;
  PartitionedSsyrk F(N);
  // Uncontrolled reference run: the result, the full loop-call count
  // and the run's time.
  uint64_t FullCalls = 0;
  std::vector<double> Full;
  microseconds FullTime{0};
  {
    Tensor C = Tensor::dense({N, N});
    C.vals() = F.Before;
    Executor Ex(F.R.Optimized, PartitionedSsyrk::options());
    Ex.bind("A", &F.A).bind("C", &C);
    ASSERT_TRUE(Ex.tryPrepare().ok());
    obs::ExecReport Rep;
    const auto T0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(Ex.tryRunBody(&Rep).ok());
    FullTime = std::chrono::duration_cast<microseconds>(
        std::chrono::steady_clock::now() - T0);
    PartitionedSsyrk::expectPartitioned(Rep);
    FullCalls = PartitionedSsyrk::partitionLoopCalls(Rep);
    Full = C.vals();
  }
  microseconds Delay = std::max(FullTime / 4, microseconds(1));
  bool Landed = false;
  for (int Attempt = 0; Attempt < 12 && !Landed; ++Attempt) {
    SCOPED_TRACE("stop after " + std::to_string(Delay.count()) +
                 " us of a " + std::to_string(FullTime.count()) + " us run");
    F.C.vals() = F.Before;
    Executor Ex(F.R.Optimized, Arm(Delay));
    Ex.bind("A", &F.A).bind("C", &F.C);
    ASSERT_TRUE(Ex.tryPrepare().ok());
    obs::ExecReport Rep;
    Status S = [&] {
      auto Pending = Start(Delay);
      return Ex.tryRunBody(&Rep);
    }();
    PartitionedSsyrk::expectPartitioned(Rep);
    if (S.ok()) {
      EXPECT_TRUE(F.C.vals() == Full);
      Delay = std::max(Delay / 2, microseconds(1));
      continue;
    }
    EXPECT_EQ(S.code(), Code);
    EXPECT_EQ(Rep.AbortReason, Reason);
    EXPECT_TRUE(F.C.vals() == F.Before) << "partial writes not discarded";
    const uint64_t Calls = PartitionedSsyrk::partitionLoopCalls(Rep);
    if (Calls == 0) {
      Delay *= 2;
      continue;
    }
    if (Calls >= FullCalls) {
      Delay = std::max(Delay / 2, microseconds(1));
      continue;
    }
    Landed = true;
    ASSERT_TRUE(
        Ex.rebind({{"A", &F.A}, {"C", &F.C}}, PartitionedSsyrk::options())
            .ok());
    ASSERT_TRUE(Ex.tryRunBody().ok());
    EXPECT_TRUE(F.C.vals() == Full);
  }
  EXPECT_TRUE(Landed) << "no stop landed while tasks were running";
}

} // namespace

TEST(HardenedExecution, CancelMidRunRestoresPartitionedOutput) {
  CancelToken Tok;
  expectCleanMidRunStop(
      ErrCode::Cancelled, "cancelled",
      [&Tok](std::chrono::microseconds) {
        ExecOptions O = PartitionedSsyrk::options();
        O.Cancel = &Tok;
        return O;
      },
      [&Tok](std::chrono::microseconds Delay) {
        Tok.reset();
        return std::make_unique<ScopedCancelAfter>(Tok, Delay);
      });
}

TEST(HardenedExecution, DeadlineMidRunRestoresPartitionedOutput) {
  expectCleanMidRunStop(
      ErrCode::DeadlineExceeded, "deadline-exceeded",
      [](std::chrono::microseconds Delay) {
        ExecOptions O = PartitionedSsyrk::options();
        O.DeadlineMs = std::max<int64_t>(1, Delay.count() / 1000);
        return O;
      },
      [](std::chrono::microseconds) { return 0; });
}

TEST(HardenedExecution, MemoryBudgetDoesNotDemotePartitionedLoops) {
  // Output partitioning allocates nothing, so even a one-byte budget
  // keeps both ssyrk nests on their outer loops (privatizing C would
  // have demoted them to an inner loop).
  PartitionedSsyrk F(64);
  std::vector<double> Ref;
  for (size_t Budget : {size_t(0), size_t(1)}) {
    SCOPED_TRACE("budget " + std::to_string(Budget));
    ExecOptions O;
    O.Threads = 4;
    O.MemoryBudgetBytes = Budget;
    Tensor C = Tensor::dense({64, 64});
    Executor Ex(F.R.Optimized, O);
    Ex.bind("A", &F.A).bind("C", &C);
    ASSERT_TRUE(Ex.tryPrepare().ok());
    obs::ExecReport Rep;
    ASSERT_TRUE(Ex.tryRunBody(&Rep).ok());
    PartitionedSsyrk::expectPartitioned(Rep);
    for (const obs::LoopStat &L : Rep.Loops)
      if (L.Label.rfind("loop k ", 0) == 0) {
        EXPECT_EQ(L.Parallel, "partitioned on j");
      }
    if (Ref.empty())
      Ref = C.vals();
    else
      EXPECT_TRUE(C.vals() == Ref);
  }
}

TEST(HardenedExecution, MalformedKernelInputsReturnTypedStatus) {
  // The Status surface of the other API boundaries: einsum syntax and
  // COO staging.
  Expected<Einsum> Bad = tryParseEinsum("bad", "O[i,j] += A[i,k * B[k,j]");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrCode::InvalidArgument);

  Coo C({3, 3});
  C.add({2, 5}, 1.0); // column 5 outside a 3x3 extent
  Expected<Tensor> T = Tensor::tryFromCoo(std::move(C), TensorFormat::csf(2));
  ASSERT_FALSE(T.ok());
  EXPECT_EQ(T.status().code(), ErrCode::InvalidArgument);

  // An unbound operand surfaces from tryPrepare, not an abort.
  FuzzCase F = makeCase(4);
  CompileResult R = compileEinsum(F.E);
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Executor Ex(R.Naive, ExecOptions());
  Ex.bind("O", &Out); // inputs deliberately left unbound
  Status S = Ex.tryPrepare();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrCode::UnboundTensor);
}
