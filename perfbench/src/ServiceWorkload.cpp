//===- perfbench/src/ServiceWorkload.cpp - service-mixed ------------------===//
///
/// A KernelService with default options (2 workers, queue limit 64,
/// plan-cache capacity 32) serving small ssymv / syprd / ssyrk /
/// mttkrp3 requests at Threads=1 whose operands fit in one core's L2.
/// The requests range over 48 distinct operand structures (1.5x the
/// cache capacity) with skewed popularity: 24 hot structures carry 95%
/// of the requests (Zipf s=0.5 among them), 24 cold ones the other 5%.
/// Most requests are therefore plan-cache rebind hits and a steady few
/// percent pay a compile. Two phases, run in alternating segments:
///  - open loop at a fixed offered rate: one thread sends each request
///    at its due instant and, between due instants, polls every
///    outstanding handle and stamps each completion as it happens;
///    latency runs from the due instant, so sending lateness and
///    queueing both count;
///  - closed loop: one client keeps as many requests outstanding as the
///    service has workers; its completions per second are the
///    saturated throughput.
/// One benchmark thread + two workers = 3 threads on the machine's 4
/// cores.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Cases.h"
#include "Layers.h"

#include "core/Compiler.h"
#include "runtime/KernelService.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <random>
#include <thread>

using namespace systec;

namespace perfbench {

namespace {

/// 1.5x the default plan-cache capacity (32). The 24 hot structures fit
/// the cache together, so their plans stay warm; the 24 cold ones share
/// the other 8 slots and nearly always miss. Their 5% share, plus
/// requests whose plan another in-flight request has checked out, gives
/// the steady few percent of compile misses the workload is after
/// (about 5.5% of open-loop requests measured). Among the hot ones the
/// skew is a mild Zipf (s=0.5): the least popular still gets 2.3% of
/// the requests, so none of them ages out of the LRU. The traffic is
/// synthetic: these are design choices, not a recorded trace.
constexpr unsigned NumStructures = 48;
constexpr unsigned HotStructures = 24;
constexpr double ColdShare = 0.05;
/// Set by what the admission queue can absorb, not by throughput. A
/// shared host sometimes stalls the whole process (up to 62 ms seen);
/// the sender then sends the overdue requests at once, and the queue
/// (limit 64) must hold them or the rejections count as errors. At
/// 800 req/s it holds 80 ms of arrivals. That is 27-28% of the closed
/// loop's saturated_rps (2,800-2,950 req/s on a 4-vCPU Xeon host). At
/// 1,400 req/s, half of saturation, one run in about 40 had requests
/// rejected after such a stall.
constexpr double OfferedRps = 800;
/// The traced run turns spans on and off every this many open-loop
/// requests, so the tracing overhead compares requests that saw the
/// same machine.
constexpr size_t OpenWindow = 500;
/// Closed-loop throughput is measured per window of this many
/// completions (about 0.1 s). A shared host slows the machine in
/// episodes; the run reports the 95th percentile of the window rates,
/// the rate the service sustains while the host leaves it alone.
constexpr size_t ClosedWindow = 250;
constexpr double FastRateQuantile = 0.95;
/// The run alternates open-loop segments of this many OpenWindow blocks
/// of requests (2.5 s at the offered rate) with closed-loop segments of
/// this length, so both
/// phases sample the whole run: a host slowdown lasting a few seconds
/// then falls on both, instead of on whichever phase it overlapped.
constexpr size_t OpenSegmentWindows = 4;
constexpr double ClosedSegmentSeconds = 1.25;
constexpr unsigned SetupReps = 11;
/// The quantile of each hot structure's hit run times that run_ms
/// reports. A hit's in-service run takes 0.1-0.2 ms, in the fast or the
/// slow speed mode (FastQuantile); the fast mode's share went from
/// about 5% to over half between runs, so the median flips between
/// modes and even the 5th percentile moved by 17% between runs. The
/// 2nd percentile (7 or more samples below it per structure) stayed in
/// the fast mode.
constexpr double RunQuantile = 0.02;
/// One response in this many (seeded) is checked against src/baselines.
constexpr unsigned CheckOneIn = 8;
const char *const KernelNames[] = {"ssymv", "syprd", "ssyrk", "mttkrp3"};

/// Popularity rank r serves kernel r % 4 at size index r / 4, so every
/// kernel has the same share of hot and cold structures and the mix
/// does not depend on the seed.
CaseSize structureSize(unsigned Rank) {
  const int64_t Idx = Rank / 4;
  switch (Rank % 4) {
  case 0: // ssymv
  case 1: // syprd
    return {600 + 16 * Idx, 4 * (600 + 16 * Idx), 0};
  case 2: // ssyrk
    return {64 + 2 * Idx, 6 * (64 + 2 * Idx), 0};
  default: // mttkrp3
    return {24 + Idx, 6 * (24 + Idx), 8};
  }
}

std::vector<double> popularity() {
  std::vector<double> W(NumStructures);
  double Hot = 0;
  for (unsigned R = 0; R < HotStructures; ++R)
    Hot += W[R] = 1.0 / std::sqrt(double(R + 1));
  for (unsigned R = 0; R < HotStructures; ++R)
    W[R] *= (1 - ColdShare) / Hot;
  for (unsigned R = HotStructures; R < NumStructures; ++R)
    W[R] = ColdShare / (NumStructures - HotStructures);
  return W;
}

/// What the benchmark keeps of one finished request.
struct Outcome {
  bool Ok = false, Hit = false, Traced = false;
  unsigned Structure = 0;
  size_t Seq = 0;
  double LatencyMs = 0, LagMs = 0, FrontendMs = 0;
  double MaterializeMs = 0, PlanMs = 0, SpecMs = 0, ExecuteMs = 0,
         EpilogueMs = 0;
  obs::ExecReport Report; ///< traced run only
};

struct Pending {
  size_t Seq;
  unsigned Structure;
  bool Traced;
  Clock::time_point Due, Sent;
  std::unique_ptr<Tensor> Out;
  Expected<RequestHandle> H;
};

class ServiceBench {
public:
  ServiceBench(const RunConfig &Cfg, const MachineProbe &Probe)
      : Cfg(Cfg), Probe(Probe) {
    const std::vector<double> W = popularity();
    Pick = std::discrete_distribution<unsigned>(W.begin(), W.end());
    Rng R(Cfg.Seed);
    for (unsigned S = 0; S < NumStructures; ++S)
      Cases.push_back(makeCase(KernelNames[S % 4], structureSize(S), R));
    Draw.seed(Cfg.Seed ^ 0x9e3779b97f4a7c15ull);
  }

  Result run();

private:
  const RunConfig &Cfg;
  const MachineProbe &Probe;
  std::vector<std::unique_ptr<Case>> Cases;
  std::discrete_distribution<unsigned> Pick;
  std::mt19937_64 Draw;
  std::unique_ptr<KernelService> Svc;

  uint64_t Attempted = 0, Failed = 0, Checked = 0;

  KernelRequest request(unsigned S, Tensor &Out) {
    KernelRequest R;
    R.Label = Cases[S]->Kernel + "#" + std::to_string(S);
    R.E = Cases[S]->E;
    R.Bindings = Cases[S]->bindings(Out);
    R.Options.Threads = 1;
    return R;
  }

  /// Submits request number \p Seq, for structure \p S and due at
  /// \p Due, under a "submit" span.
  Pending send(size_t Seq, unsigned S, Clock::time_point Due,
               int64_t ParentSpan, const char *IdPrefix = "req") {
    auto Out = std::make_unique<Tensor>(Cases[S]->freshOutput());
    ++Attempted;
    Span Sub("submit", IdPrefix + std::to_string(Seq), ParentSpan);
    const Clock::time_point Sent = Clock::now();
    Expected<RequestHandle> H = Svc->submit(request(S, *Out));
    return Pending{Seq, S, Tracer::get().enabled(), Due, Sent, std::move(Out),
                   std::move(H)};
  }

  /// Waits for \p P's result (null when submit refused it) under a
  /// "wait" span. The caller stamps completion right after.
  const RequestResult *waitFor(Pending &P, int64_t ParentSpan) {
    if (!P.H.ok())
      return nullptr;
    Span W("wait", "req" + std::to_string(P.Seq), ParentSpan);
    // Poll rather than block, so the completion is seen when it happens
    // instead of after a thread wake-up.
    while (!P.H->done())
      std::this_thread::yield();
    const RequestResult &Res = P.H->wait();
    if (W.active())
      W.attrs(reportAttrs(Res.Report));
    return &Res;
  }

  /// Records a request the caller stamped finished at \p Done. The
  /// output check is separate (verify) so the open loop can defer it.
  Outcome finish(Pending &P, const RequestResult *Res,
                 Clock::time_point Done) {
    Outcome O;
    O.Structure = P.Structure;
    O.Seq = P.Seq;
    O.Traced = P.Traced;
    O.LatencyMs = msBetween(P.Due, Done);
    O.LagMs = msBetween(P.Due, P.Sent);
    if (!Res || !Res->St.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   (Res ? Res->St : P.H.status()).str().c_str());
      ++Failed;
      return O;
    }
    O.Ok = true;
    O.Hit = Res->CacheHit;
    O.FrontendMs = nsToMs(Res->FrontendNs);
    O.MaterializeMs = phaseMs(Res->Report, "materialize");
    O.PlanMs = phaseMs(Res->Report, "plan-compile");
    O.SpecMs = phaseMs(Res->Report, "specialize");
    O.ExecuteMs = phaseMs(Res->Report, "execute");
    O.EpilogueMs = phaseMs(Res->Report, "epilogue");
    if (Tracer::get().enabled())
      O.Report = Res->Report;
    return O;
  }

  /// Whether the seed samples \p O's output for checking.
  bool sampled(const Outcome &O) const {
    return O.Ok && O.Seq % CheckOneIn == Cfg.Seed % CheckOneIn;
  }

  /// Checks the output of a sampled request against src/baselines; a
  /// mismatch counts as a failure and marks \p O not ok.
  void verify(Pending &P, Outcome &O) {
    const uint64_t N = ++Checked;
    if (Cfg.CorruptEvery && N % Cfg.CorruptEvery == 0)
      corrupt(*P.Out, N);
    if (!matchesReference(*Cases[P.Structure], *P.Out)) {
      std::fprintf(stderr, "%s: response differs from the src/baselines "
                           "reference\n",
                   Cases[P.Structure]->Kernel.c_str());
      ++Failed;
      O.Ok = false;
    }
  }

  /// finish, then verify if sampled.
  Outcome finishAndVerify(Pending &P, const RequestResult *Res,
                          Clock::time_point Done) {
    Outcome O = finish(P, Res, Done);
    if (sampled(O))
      verify(P, O);
    return O;
  }

  /// Fresh service, then one request per structure, coldest first so
  /// the hottest plans are the most recently used. Returns seconds.
  double setUp() {
    Span S("setup", "service");
    const Clock::time_point T0 = Clock::now();
    Svc.reset();
    Svc = std::make_unique<KernelService>(ServiceOptions());
    for (unsigned I = NumStructures; I-- > 0;) {
      Pending P = send(I, I, Clock::now(), S.index(), "warm");
      const RequestResult *Res = waitFor(P, S.index());
      finishAndVerify(P, Res, Clock::now());
    }
    return msBetween(T0, Clock::now()) / 1e3;
  }

  std::vector<Outcome> openLoop(size_t Base, size_t N);
  void closedLoop(double Seconds, std::vector<Outcome> &Outs, size_t &Count,
                  std::vector<double> &Rates);
};

/// Polls every handle in \p Outstanding once. Each finished request is
/// stamped the moment its poll sees it done, handed to \p OnDone with
/// that stamp, and removed.
template <class F> void reap(std::vector<Pending> &Outstanding, F &&OnDone) {
  for (size_t I = 0; I < Outstanding.size();) {
    Pending &P = Outstanding[I];
    if (P.H.ok() && !P.H->done()) {
      ++I;
      continue;
    }
    OnDone(P, Clock::now());
    if (I + 1 < Outstanding.size())
      Outstanding[I] = std::move(Outstanding.back());
    Outstanding.pop_back();
  }
}

/// Sends \p N requests on the open-loop schedule; they are numbered from
/// \p Base, so request numbers (and latency windows) run on across
/// segments.
std::vector<Outcome> ServiceBench::openLoop(size_t Base, size_t N) {
  std::vector<unsigned> Seq(N);
  for (unsigned &S : Seq)
    S = Pick(Draw);
  std::vector<Outcome> Outs(N);
  Span Phase("open-loop", std::to_string(N) + " requests");
  const int64_t PhaseIdx = Phase.index();

  // One thread both sends and stamps: between due instants it polls
  // every outstanding handle, in whatever order the two workers finish
  // them. Sampled outputs are checked after the segment, off the clock.
  std::vector<Pending> Outstanding, ToCheck;
  auto Collect = [&](Pending &P, Clock::time_point Stamp) {
    Outcome &O = Outs[P.Seq - Base];
    // The handle is done, so waitFor returns at once.
    O = finish(P, waitFor(P, PhaseIdx), Stamp);
    if (sampled(O))
      ToCheck.push_back(std::move(P));
  };
  const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  const auto Gap = std::chrono::duration<double>(1.0 / OfferedRps);
  for (size_t I = 0; I < N; ++I) {
    const Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(Gap * double(I));
    // With nothing outstanding, sleep to just short of the due instant
    // (a sleeping thread's wake-up lateness would otherwise be charged
    // to the service); then poll until it.
    for (;;) {
      reap(Outstanding, Collect);
      const Clock::time_point Now = Clock::now();
      if (Now >= Due)
        break;
      if (Outstanding.empty() && Due - Now > std::chrono::microseconds(200))
        std::this_thread::sleep_until(Due - std::chrono::microseconds(200));
    }
    const size_t G = Base + I;
    if (Cfg.Trace && G % OpenWindow == 0)
      Tracer::get().enable((G / OpenWindow) % 2 == 0);
    Outstanding.push_back(send(G, Seq[I], Due, PhaseIdx));
  }
  while (!Outstanding.empty())
    reap(Outstanding, Collect);
  for (Pending &P : ToCheck)
    verify(P, Outs[P.Seq - Base]);
  return Outs;
}

/// Runs the closed loop for \p Seconds and appends the completion rate
/// of each of its windows to \p Rates. The traced run also appends its
/// outcomes to \p Outs for the layer metrics; the untraced run keeps
/// only their count in \p Count, so that its peak memory does not grow
/// with the throughput.
void ServiceBench::closedLoop(double Seconds, std::vector<Outcome> &Outs,
                              size_t &Count, std::vector<double> &Rates) {
  const unsigned Depth = ServiceOptions().Workers;
  // The structure sequence is drawn up front so it depends on the seed
  // only.
  std::vector<unsigned> Seq(size_t(Seconds * 20000) + 1024);
  for (unsigned &S : Seq)
    S = Pick(Draw);
  Span Phase("closed-loop", std::to_string(Depth) + " outstanding");
  const int64_t PhaseIdx = Phase.index();
  const Clock::time_point Start = Clock::now();
  const Clock::time_point Stop =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  // One client keeps Depth requests outstanding: it polls them, stamps
  // each completion as it sees it and sends the next request at once.
  std::vector<Pending> Outstanding;
  std::vector<std::pair<size_t, Pending>> ToCheck; // (index in Seg, request)
  std::vector<Outcome> Seg;
  std::vector<Clock::time_point> Done;
  size_t Next = 0;
  for (;;) {
    while (Outstanding.size() < Depth && Next < Seq.size() &&
           Clock::now() < Stop) {
      const size_t I = Next++;
      Outstanding.push_back(send(I, Seq[I], Clock::now(), PhaseIdx));
    }
    if (Outstanding.empty())
      break;
    reap(Outstanding, [&](Pending &P, Clock::time_point Stamp) {
      Seg.push_back(finish(P, waitFor(P, PhaseIdx), Stamp));
      if (Seg.back().Ok)
        Done.push_back(Stamp);
      if (sampled(Seg.back()))
        ToCheck.emplace_back(Seg.size() - 1, std::move(P));
    });
  }
  for (auto &[Idx, P] : ToCheck)
    verify(P, Seg[Idx]);
  Count += Seg.size();
  if (Cfg.Trace)
    std::move(Seg.begin(), Seg.end(), std::back_inserter(Outs));
  // Completion rate over consecutive windows of ClosedWindow
  // completions. A segment too short for four full windows uses
  // quarter-segment ones.
  const size_t Window =
      std::max<size_t>(1, std::min(ClosedWindow, Done.size() / 4));
  Clock::time_point From = Start;
  for (size_t I = Window; I <= Done.size(); I += Window) {
    Rates.push_back(double(Window) / (msBetween(From, Done[I - 1]) / 1e3));
    From = Done[I - 1];
  }
}

/// Quantile \p Q of the open-loop latency of completed requests.
/// \p Traced selects the requests sent with spans on (1) or off (0);
/// -1 takes all.
double latencyMs(const std::vector<Outcome> &Open, double Q, int Traced = -1) {
  std::vector<double> Ms;
  for (const Outcome &O : Open)
    if (O.Ok && (Traced < 0 || O.Traced == (Traced == 1)))
      Ms.push_back(O.LatencyMs);
  return quantile(Ms, Q);
}

/// Geomean over the hot structures of each structure's quantile \p Q of
/// the in-service run time (execute + epilogue) of cache-hit requests.
/// Per structure, because one kernel's sizes differ and a quantile of
/// their mixture would jump between them from run to run.
double runMs(const std::vector<Outcome> &Outs, double Q) {
  std::vector<std::vector<double>> ByStructure(HotStructures);
  for (const Outcome &O : Outs)
    if (O.Ok && O.Hit && O.Structure < HotStructures)
      ByStructure[O.Structure].push_back(O.ExecuteMs + O.EpilogueMs);
  std::vector<double> PerStructure;
  for (const std::vector<double> &Ms : ByStructure)
    if (!Ms.empty())
      PerStructure.push_back(quantile(Ms, Q));
  return geomean(PerStructure);
}

Result ServiceBench::run() {
  Result Res;
  double MaxMiB = 0;
  for (const auto &C : Cases)
    MaxMiB = std::max(MaxMiB, C->operandMiB());
  std::printf("inputs: %u structures, largest operand set %.2f MiB (one "
              "core's L2 is 2 MiB)\n",
              NumStructures, MaxMiB);

  for (const auto &C : Cases)
    Res.CheckerOk &= checkerRejectsCorruption(*C, Cfg.Seed);

  std::vector<double> SetupSec;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep)
    SetupSec.push_back(setUp());
  Res.set("setup_s", median(SetupSec), "s");

  const KernelService::Stats Before = Svc->stats();
  // Two thirds of the time go to the open loop, whose latency
  // quantiles need the most samples.
  const size_t SegmentRequests = OpenSegmentWindows * OpenWindow;
  const double CycleSeconds =
      double(SegmentRequests) / OfferedRps + ClosedSegmentSeconds;
  const size_t Cycles = std::max<size_t>(1, size_t(Cfg.Seconds / CycleSeconds));
  std::vector<Outcome> Open, Closed;
  size_t ClosedCount = 0;
  std::vector<double> Rates;
  for (size_t C = 0; C < Cycles; ++C) {
    std::vector<Outcome> Seg = openLoop(C * SegmentRequests, SegmentRequests);
    std::move(Seg.begin(), Seg.end(), std::back_inserter(Open));
    Tracer::get().enable(Cfg.Trace);
    closedLoop(ClosedSegmentSeconds, Closed, ClosedCount, Rates);
  }
  const double Rps = quantile(Rates, FastRateQuantile);
  const KernelService::Stats After = Svc->stats();

  std::vector<double> Lat, Lag;
  // Failed or refused requests are counted in error_rate (and make the
  // run incorrect); the latency sample holds completed requests.
  for (const Outcome &O : Open) {
    if (O.Ok)
      Lat.push_back(O.LatencyMs);
    Lag.push_back(O.LagMs);
  }
  std::printf("open loop: %zu requests in %zu segments at %.0f req/s "
              "offered, latency p50 %.3f ms p99 %.3f ms, sent late p50 "
              "%.3f ms p99 %.3f ms max %.3f ms\n",
              Open.size(), Cycles, OfferedRps, quantile(Lat, 0.5),
              quantile(Lat, 0.99), quantile(Lag, 0.5), quantile(Lag, 0.99),
              quantile(Lag, 1.0));
  {
    std::vector<double> HitLat, MissLat;
    for (const Outcome &O : Open)
      if (O.Ok)
        (O.Hit ? HitLat : MissLat).push_back(O.LatencyMs);
    std::printf("open loop latency ms: p90 %.3f p95 %.3f p99.9 %.3f max "
                "%.3f; hits %zu (p50 %.3f p99 %.3f), misses %zu (p50 %.3f "
                "p99 %.3f)\n",
                quantile(Lat, 0.9), quantile(Lat, 0.95), quantile(Lat, 0.999),
                quantile(Lat, 1.0), HitLat.size(), quantile(HitLat, 0.5),
                quantile(HitLat, 0.99), MissLat.size(), quantile(MissLat, 0.5),
                quantile(MissLat, 0.99));
  }
  std::printf("closed loop: %zu requests in %zu segments; over %zu windows "
              "of up to %zu completions, p95 rate %.0f req/s\n",
              ClosedCount, Cycles, Rates.size(), ClosedWindow, Rps);
  const uint64_t Hits = After.Cache.Hits - Before.Cache.Hits;
  const uint64_t Misses = After.Cache.Misses - Before.Cache.Misses;
  std::printf("plan cache: %llu hits, %llu misses, %llu evictions\n",
              (unsigned long long)Hits, (unsigned long long)Misses,
              (unsigned long long)(After.Cache.Evictions -
                                   Before.Cache.Evictions));

  if (!Cfg.Trace) {
    Res.set("latency_ms_p5", latencyMs(Open, FastQuantile), "ms");
    Res.set("saturated_rps", Rps, "req/s");
    Res.set("run_ms", runMs(Open, RunQuantile), "ms");
  } else {
    const double Untraced = latencyMs(Open, FastQuantile, 0);
    const double Traced = latencyMs(Open, FastQuantile, 1);
    Res.set("obs.tracing_overhead", Untraced > 0 ? Traced / Untraced - 1 : 0,
            "fraction");
    // The untraced requests' median and tails, which no gate holds.
    Res.set("ungated.latency_ms_p50", latencyMs(Open, 0.5, 0), "ms");
    Res.set("ungated.latency_ms_p90", latencyMs(Open, 0.9, 0), "ms");
    Res.set("ungated.latency_ms_p99", latencyMs(Open, 0.99, 0), "ms");
    Res.set("ungated.run_ms_p50", runMs(Open, 0.5), "ms");
    Res.set("ungated.run_ms_p90", runMs(Open, 0.9), "ms");
    // Compiler front end per einsum, timed by the benchmark itself (the
    // service compiles internally on every miss).
    std::vector<double> CompileMs;
    for (unsigned K = 0; K < 4; ++K)
      for (int Rep = 0; Rep < 5; ++Rep) {
        Span S("compileEinsum", KernelNames[K]);
        const Clock::time_point T0 = Clock::now();
        CompileResult CR = compileEinsum(Cases[K]->E);
        CompileMs.push_back(msBetween(T0, Clock::now()));
      }
    Res.set("core.compile_ms", mean(CompileMs), "ms");
    LayerAcc Acc;
    std::vector<double> Mat, Plan, Spec, Exec, Epi, FeHit, FeMiss;
    for (const std::vector<Outcome> *Phase : {&Open, &Closed})
      for (const Outcome &O : *Phase) {
        if (!O.Ok)
          continue;
        (O.Hit ? Mat : Plan).push_back(O.Hit ? O.MaterializeMs : O.PlanMs);
        if (!O.Hit)
          Spec.push_back(O.SpecMs);
        Exec.push_back(O.ExecuteMs);
        Epi.push_back(O.EpilogueMs);
        (O.Hit ? FeHit : FeMiss).push_back(O.FrontendMs);
        if (!O.Report.Phases.empty())
          Acc.add(O.Report, O.ExecuteMs + O.EpilogueMs,
                  Cases[O.Structure]->denseInputBytes(), Probe);
      }
    Res.set("tensor.materialize_ms", mean(Mat), "ms");
    Res.set("tensor.epilogue_ms", mean(Epi), "ms");
    Res.set("runtime.plan_compile_ms", mean(Plan), "ms");
    Res.set("runtime.specialize_ms", mean(Spec), "ms");
    Res.set("runtime.execute_ms", mean(Exec), "ms");
    Acc.report(Res);
    Res.set("plancache.hit_ratio",
            Hits + Misses ? double(Hits) / double(Hits + Misses) : 0,
            "fraction");
    Res.set("plancache.evictions",
            double(After.Cache.Evictions - Before.Cache.Evictions), "count");
    const uint64_t QN = After.QueueNs.count() - Before.QueueNs.count();
    Res.set("service.queue_ms_mean",
            QN ? nsToMs(After.QueueNs.total() - Before.QueueNs.total()) /
                     double(QN)
               : 0,
            "ms");
    Res.set("service.frontend_ms_hit", mean(FeHit), "ms");
    Res.set("service.frontend_ms_miss", mean(FeMiss), "ms");
    Res.set("service.generator_lag_ms_p99", quantile(Lag, 0.99), "ms");
  }
  Svc.reset();
  Res.Attempted = Attempted;
  Res.Failed = Failed;
  return Res;
}

} // namespace

Result runService(const RunConfig &Cfg, const MachineProbe &Probe) {
  ServiceBench B(Cfg, Probe);
  return B.run();
}

} // namespace perfbench
