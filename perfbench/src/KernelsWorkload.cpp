//===- perfbench/src/KernelsWorkload.cpp - kernels-1t / kernels-4t --------===//
///
/// Closed loop, one caller: the systec plan of the six paper kernels
/// that have an independent reference, on the library's default engines
/// at a fixed thread count. Each thread's share of the operands is
/// about one core's L2 (2 MiB): kernels-1t runs every kernel at 1/8 of
/// kernels-4t's size, so its operand sets (1.2-1.4 MiB) fit the
/// caller's L2, and kernels-4t's (9-11.5 MiB) exceed the machine's
/// total L2 (4 x 2 MiB) while a quarter of each is near one core's L2.
/// On a shared 4-vCPU cloud host (Xeon, 105 MiB L3 shared with other
/// tenants), one thread streaming its operands from L3 measured the
/// other tenants: its median call time moved by up to 2x from one
/// minute to the next. Every output is checked against src/baselines
/// after body and epilogue.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Cases.h"
#include "Layers.h"

#include "core/Compiler.h"
#include "jit/NativeKernelCache.h"
#include "runtime/Executor.h"

#include <cmath>
#include <cstdio>

using namespace systec;

namespace perfbench {

namespace {

/// Kernel sizes at Threads=4 and at Threads=1. The one-thread sizes
/// have about 1/8 of the four-thread operand bytes, which keeps each
/// operand set inside one core's L2; each kernel's default-engine run
/// then takes 2-12 ms, so a run makes hundreds of rounds.
struct KernelSize {
  std::string Kernel;
  CaseSize FourThreads, OneThread;
};
const std::vector<KernelSize> &kernelSizes() {
  static const std::vector<KernelSize> Sizes{
      {"ssymv", {1 << 17, 4 << 16, 0}, {1 << 14, 4 << 13, 0}},
      {"bellmanford", {1 << 17, 4 << 16, 0}, {1 << 14, 4 << 13, 0}},
      {"syprd", {1 << 17, 4 << 16, 0}, {1 << 14, 4 << 13, 0}},
      {"ssyrk", {1100, 8 * 1100, 0}, {390, 8 * 390, 0}},
      {"ttm", {128, 100000, 8}, {64, 12500, 8}},
      {"mttkrp3", {1 << 16, 1 << 14, 8}, {1 << 13, 1 << 11, 8}},
  };
  return Sizes;
}

constexpr double L2MiB = 2.0; // per core; 4 cores
constexpr unsigned SetupReps = 11;
constexpr unsigned WarmupRuns = 2;
constexpr size_t MinRuns = 100;   // p90 needs >= 10 samples beyond it
constexpr double HardStopSec = 120; // keep a run inside its time limit

struct KernelRun {
  std::unique_ptr<Case> C;
  Kernel Naive;
  std::unique_ptr<Executor> Exec;
  Tensor Out;
  std::vector<double> CompileMs, SetupMs;
  obs::ExecReport FirstReport; ///< prepare phases + exact counters
  std::vector<double> RunMs, ExecuteMs, MergeMs, EpilogueMs;
  /// Traced run only: the runs made with spans on, and their reports.
  std::vector<double> TracedMs;
  std::vector<obs::ExecReport> Reports;
};

struct Tally {
  uint64_t Attempted = 0, Failed = 0, Checked = 0;
  unsigned CorruptEvery = 0;
};

/// One call: reset the output, run body + epilogue (timed), verify.
/// Returns the wall milliseconds, or a negative value on failure.
double runOnce(Executor &Ex, Case &C, Tensor &Out, Tally &T,
               obs::ExecReport &Rep, const std::string &SpanName) {
  Out.setAllValues(C.OutFill);
  ++T.Attempted;
  Span S(SpanName, C.Kernel);
  const Clock::time_point T0 = Clock::now();
  Status St = Status::success();
  {
    Span B("tryRunBody", C.Kernel);
    St = Ex.tryRunBody(&Rep);
    if (B.active())
      B.attrs(reportAttrs(Rep));
  }
  if (St.ok()) {
    Span E("tryRunEpilogue", C.Kernel);
    St = Ex.tryRunEpilogue(&Rep);
    if (E.active())
      E.attrs(reportAttrs(Rep));
  }
  const double Ms = msBetween(T0, Clock::now());
  if (!St.ok()) {
    std::fprintf(stderr, "%s: run failed: %s\n", C.Kernel.c_str(),
                 St.str().c_str());
    ++T.Failed;
    return -1;
  }
  ++T.Checked;
  if (T.CorruptEvery && T.Checked % T.CorruptEvery == 0)
    corrupt(Out, T.Checked);
  if (!matchesReference(C, Out)) {
    std::fprintf(stderr, "%s: output differs from the src/baselines "
                         "reference\n",
                 C.Kernel.c_str());
    ++T.Failed;
    return -1;
  }
  return Ms;
}

/// Builds a fresh executor for \p K's plan and prepares it. Returns
/// null (and counts a failure) when prepare fails.
std::unique_ptr<Executor> prepareExec(const Kernel &K, Case &C, Tensor &Out,
                                      const ExecOptions &O, Tally &T,
                                      double *PrepareMs = nullptr) {
  auto Ex = std::make_unique<Executor>(K, O);
  for (auto &[Name, Ptr] : C.bindings(Out))
    Ex->bind(Name, Ptr);
  Span S("tryPrepare", C.Kernel);
  const Clock::time_point T0 = Clock::now();
  Status St = Ex->tryPrepare();
  if (PrepareMs)
    *PrepareMs = msBetween(T0, Clock::now());
  if (!St.ok()) {
    std::fprintf(stderr, "%s: prepare failed: %s\n", C.Kernel.c_str(),
                 St.str().c_str());
    ++T.Attempted;
    ++T.Failed;
    return nullptr;
  }
  return Ex;
}

/// Median of \p N checked runs of \p Ex (traced run: naive and native
/// plans). Fills \p First with the first run's report.
double timeRuns(Executor &Ex, KernelRun &K, unsigned N, Tally &T,
                const std::string &SpanName, obs::ExecReport &First) {
  std::vector<double> Ms;
  obs::ExecReport Rep;
  for (unsigned I = 0; I < N; ++I) {
    const double M = runOnce(Ex, *K.C, K.Out, T, Rep, SpanName);
    if (I == 0)
      First = Rep;
    if (M >= 0)
      Ms.push_back(M);
  }
  return median(Ms);
}

/// The timed closed loop: rounds of one checked call per kernel for
/// \p Seconds, and at least \p MinRounds rounds. Round-robin spreads
/// every kernel's samples over the whole pass, so a neighbour's load on
/// a shared machine slows the same share of each kernel's runs. Appends
/// each run's timings to its KernelRun (to TracedMs and Reports while
/// spans are recorded).
void timedPass(std::vector<KernelRun> &Ks, double Seconds, size_t MinRounds,
               Tally &T, Clock::time_point Start) {
  const bool Traced = Tracer::get().enabled();
  const Clock::time_point Until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  obs::ExecReport Rep;
  for (size_t I = 0; I < MinRounds || Clock::now() < Until; ++I) {
    if (msBetween(Start, Clock::now()) > HardStopSec * 1e3)
      break;
    for (KernelRun &K : Ks) {
      const double Ms = runOnce(*K.Exec, *K.C, K.Out, T, Rep, "run");
      if (Ms < 0)
        continue;
      (Traced ? K.TracedMs : K.RunMs).push_back(Ms);
      K.ExecuteMs.push_back(phaseMs(Rep, "execute"));
      K.MergeMs.push_back(phaseMs(Rep, "merge"));
      K.EpilogueMs.push_back(phaseMs(Rep, "epilogue"));
      if (Traced)
        K.Reports.push_back(Rep);
    }
  }
}

double runMsQuantile(const std::vector<KernelRun> &Ks, double Q,
                     std::vector<double> KernelRun::*Field =
                         &KernelRun::RunMs) {
  std::vector<double> PerKernel;
  for (const KernelRun &K : Ks)
    PerKernel.push_back(quantile(K.*Field, Q));
  return geomean(PerKernel);
}

} // namespace

Result runKernels(const RunConfig &Cfg, unsigned Threads,
                  const MachineProbe &Probe) {
  const Clock::time_point Start = Clock::now();
  Result Res;
  Tally T;
  T.CorruptEvery = Cfg.CorruptEvery;

  // Inputs: drawn only from the seed.
  Rng R(Cfg.Seed);
  std::vector<KernelRun> Ks;
  for (const KernelSize &S : kernelSizes()) {
    KernelRun K;
    K.C = makeCase(S.Kernel, Threads == 1 ? S.OneThread : S.FourThreads, R);
    K.Out = K.C->freshOutput();
    const double MiB = K.C->operandMiB();
    std::printf("input %-12s operands %.2f MiB, %.2f MiB per thread (L2 "
                "is %.0f MiB per core)\n",
                S.Kernel.c_str(), MiB, MiB / Threads, L2MiB);
    // The one-thread sizes must fit the caller's L2; the four-thread
    // ones must exceed the machine's total L2.
    if (Threads == 1 ? MiB > L2MiB : MiB < 4 * L2MiB) {
      std::fprintf(stderr, "%s operands are off their L2 target\n",
                   S.Kernel.c_str());
      std::exit(1);
    }
    Ks.push_back(std::move(K));
  }

  for (const KernelRun &K : Ks)
    Res.CheckerOk &= checkerRejectsCorruption(*K.C, Cfg.Seed);

  // Set-up: compileEinsum + tryPrepare for every kernel, repeated; the
  // last repetition's executors are the ones timed.
  ExecOptions Opts;
  Opts.Threads = Threads;
  std::vector<double> SetupSec;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Span S("setup", "rep" + std::to_string(Rep));
    const Clock::time_point T0 = Clock::now();
    for (KernelRun &K : Ks) {
      K.Exec.reset();
      const Clock::time_point C0 = Clock::now();
      CompileResult CR = [&] {
        Span Sc("compileEinsum", K.C->Kernel);
        return compileEinsum(K.C->E);
      }();
      K.CompileMs.push_back(msBetween(C0, Clock::now()));
      K.Naive = CR.Naive;
      K.Exec = prepareExec(CR.Optimized, *K.C, K.Out, Opts, T);
      K.SetupMs.push_back(msBetween(C0, Clock::now()));
    }
    SetupSec.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  for (KernelRun &K : Ks)
    if (!K.Exec) {
      std::fprintf(stderr, "%s could not be prepared\n", K.C->Kernel.c_str());
      std::exit(1);
    }

  // Warm-up (checked, untimed).
  for (KernelRun &K : Ks) {
    obs::ExecReport Rep;
    for (unsigned I = 0; I < WarmupRuns; ++I)
      if (runOnce(*K.Exec, *K.C, K.Out, T, Rep, "warmup") >= 0 && I == 0)
        K.FirstReport = Rep;
  }

  Res.set("setup_s", median(SetupSec), "s");
  if (!Cfg.Trace) {
    timedPass(Ks, Cfg.Seconds, MinRuns, T, Start);
    std::vector<double> All;
    double BusySec = 0;
    for (const KernelRun &K : Ks) {
      All.insert(All.end(), K.RunMs.begin(), K.RunMs.end());
      for (double Ms : K.RunMs)
        BusySec += Ms / 1e3;
      std::printf("kernel %-12s runs %zu  p5 %.3f  p50 %.3f  p90 %.3f ms  "
                  "execute %.3f  merge %.3f  epilogue %.3f ms  setup %.1f "
                  "ms\n",
                  K.C->Kernel.c_str(), K.RunMs.size(), quantile(K.RunMs, FastQuantile),
                  median(K.RunMs), quantile(K.RunMs, 0.9),
                  median(K.ExecuteMs),
                  median(K.MergeMs), median(K.EpilogueMs),
                  median(K.SetupMs));
    }
    Res.set("run_ms", runMsQuantile(Ks, FastQuantile), "ms");
    // A direct call has no queue, so its latency is its run time.
    Res.set("latency_ms_p5", runMsQuantile(Ks, FastQuantile), "ms");
    // The rate one caller sustains through a round of the six kernels
    // at their p5 run times.
    double FastRoundMs = 0;
    for (const KernelRun &K : Ks)
      FastRoundMs += quantile(K.RunMs, FastQuantile);
    Res.set("saturated_rps", double(Ks.size()) / (FastRoundMs / 1e3),
            "req/s");
    std::printf("all calls: %zu, %.1f s busy; pooled p50 %.3f ms, p99 %.3f "
                "ms\n",
                All.size(), BusySec, quantile(All, 0.5), quantile(All, 0.99));
  } else {
    // Half the time, in alternating traced and untraced chunks so both
    // halves see the same machine; their p5 run times give the tracing
    // overhead.
    constexpr unsigned Chunks = 10;
    for (unsigned C = 0; C < Chunks; ++C) {
      Tracer::get().enable(C % 2 == 0);
      timedPass(Ks, Cfg.Seconds / 2 / Chunks, 3, T, Start);
    }
    Tracer::get().enable(true);
    Res.set("obs.tracing_overhead",
            runMsQuantile(Ks, FastQuantile, &KernelRun::TracedMs) /
                    runMsQuantile(Ks, FastQuantile) -
                1,
            "fraction");
    // The untraced chunks' medians and tails, which no gate holds. A
    // direct call's latency is its run time; the p99 is over the pooled
    // calls.
    std::vector<double> Untraced;
    for (const KernelRun &K : Ks)
      Untraced.insert(Untraced.end(), K.RunMs.begin(), K.RunMs.end());
    Res.set("ungated.run_ms_p50", runMsQuantile(Ks, 0.5), "ms");
    Res.set("ungated.run_ms_p90", runMsQuantile(Ks, 0.9), "ms");
    Res.set("ungated.latency_ms_p50", runMsQuantile(Ks, 0.5), "ms");
    Res.set("ungated.latency_ms_p90", runMsQuantile(Ks, 0.9), "ms");
    Res.set("ungated.latency_ms_p99", quantile(Untraced, 0.99), "ms");

    LayerAcc Acc;
    double MaterializeMs = 0, PlanMs = 0, SpecMs = 0, ExecMs = 0, MergeMs = 0,
           EpiMs = 0, CompileMs = 0;
    std::vector<double> SymSpeedup, OpRatio, ReadRatio, Headroom, JitCompile,
        JitWarm;
    unsigned Fallbacks = 0;
    for (KernelRun &K : Ks) {
      const double SysMs = median(K.RunMs);
      for (size_t J = 0; J < K.Reports.size(); ++J)
        Acc.add(K.Reports[J], K.TracedMs[J], K.C->denseInputBytes(),
                Probe);
      CompileMs += median(K.CompileMs);
      MaterializeMs += phaseMs(K.FirstReport, "materialize");
      PlanMs += phaseMs(K.FirstReport, "plan-compile");
      SpecMs += phaseMs(K.FirstReport, "specialize");
      ExecMs += median(K.ExecuteMs);
      MergeMs += median(K.MergeMs);
      EpiMs += median(K.EpilogueMs);

      // The paper's comparison: the naive plan on the same engines.
      {
        obs::ExecReport NaiveRep;
        auto Naive = prepareExec(K.Naive, *K.C, K.Out, Opts, T);
        if (Naive) {
          const double NaiveMs =
              timeRuns(*Naive, K, 10, T, "naive-run", NaiveRep);
          SymSpeedup.push_back(NaiveMs / SysMs);
          const CounterSnapshot &N = NaiveRep.Counters,
                                &S = K.FirstReport.Counters;
          OpRatio.push_back(double(N.ScalarOps + N.Reductions) /
                            double(std::max<uint64_t>(
                                1, S.ScalarOps + S.Reductions)));
          ReadRatio.push_back(double(N.SparseReads) /
                              double(std::max<uint64_t>(1, S.SparseReads)));
          std::printf("kernel %-12s systec %.3f ms  naive %.3f ms  ops %llu "
                      "/ %llu  reads %llu / %llu\n",
                      K.C->Kernel.c_str(), SysMs, NaiveMs,
                      (unsigned long long)(S.ScalarOps + S.Reductions),
                      (unsigned long long)(N.ScalarOps + N.Reductions),
                      (unsigned long long)S.SparseReads,
                      (unsigned long long)N.SparseReads);
        }
      }

      // The native engine alone: cold compile into the fresh per-run
      // cache directory (SYSTEC_JIT_CACHE_DIR, which main() requires),
      // timed runs, then a warm load from disk.
      ExecOptions NatOpts = Opts;
      NatOpts.Engines = {Engine::Native};
      auto Nat = prepareExec(K.Exec->kernel(), *K.C, K.Out, NatOpts, T);
      if (!Nat)
        continue;
      if (!Nat->usesNativeEngine()) {
        std::printf("kernel %-12s native fell back: %s\n",
                    K.C->Kernel.c_str(), Nat->nativeStatus().str().c_str());
        ++Fallbacks;
        continue;
      }
      obs::ExecReport NatRep;
      const double NatMs = timeRuns(*Nat, K, 10, T, "native-run", NatRep);
      Headroom.push_back(SysMs / NatMs);
      JitCompile.push_back(phaseMs(NatRep, "native-compile"));
      Nat.reset();
      jit::NativeKernelCache::instance().dropHandles();
      double WarmMs = 0;
      auto Warm = prepareExec(K.Exec->kernel(), *K.C, K.Out, NatOpts, T,
                              &WarmMs);
      if (Warm) {
        obs::ExecReport WarmRep;
        timeRuns(*Warm, K, 1, T, "native-run", WarmRep);
        JitWarm.push_back(WarmMs - phaseMs(WarmRep, "materialize") -
                          phaseMs(WarmRep, "plan-compile"));
      }
      std::printf("kernel %-12s native %.3f ms  cold compile %.1f ms\n",
                  K.C->Kernel.c_str(), NatMs, JitCompile.back());
    }
    Res.set("core.compile_ms", CompileMs / double(Ks.size()), "ms");
    Res.set("core.symmetry_speedup", geomean(SymSpeedup), "x");
    Res.set("core.op_ratio", geomean(OpRatio), "x");
    Res.set("core.read_ratio", geomean(ReadRatio), "x");
    Res.set("tensor.materialize_ms", MaterializeMs, "ms");
    Res.set("tensor.epilogue_ms", EpiMs, "ms");
    Res.set("runtime.plan_compile_ms", PlanMs, "ms");
    Res.set("runtime.specialize_ms", SpecMs, "ms");
    Res.set("runtime.execute_ms", ExecMs, "ms");
    Res.set("runtime.native_headroom", geomean(Headroom), "x");
    Res.set("jit.compile_ms", mean(JitCompile), "ms");
    Res.set("jit.warm_load_ms", mean(JitWarm), "ms");
    Res.set("jit.fallbacks", Fallbacks, "count");
    Res.set("parallel.merge_ms", MergeMs, "ms");
    Acc.report(Res);
  }
  Res.Attempted = T.Attempted;
  Res.Failed = T.Failed;
  return Res;
}

} // namespace perfbench
