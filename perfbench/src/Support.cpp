//===- perfbench/src/Support.cpp - Statistics, spans, probe ---*- C++ -*-===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = size_t(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / double(V.size());
}

double peakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

CpuTimes cpuTimes() {
  CpuTimes T;
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  if (Cpu != "cpu")
    return T;
  // user nice system idle iowait irq softirq steal ...
  for (int Field = 0; Field < 8; ++Field) {
    uint64_t V = 0;
    if (!(In >> V))
      return CpuTimes();
    T.Total += V;
    if (Field == 7)
      T.Steal = V;
  }
  return T;
}

// --- spans ----------------------------------------------------------------

namespace {

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

/// Innermost open span of this thread (the default parent).
thread_local std::vector<int64_t> OpenStack;

uint32_t threadIndex() {
  static std::mutex Mu;
  static uint32_t Next = 0;
  thread_local uint32_t Mine = [] {
    std::lock_guard<std::mutex> L(Mu);
    return Next++;
  }();
  return Mine;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::begin(const std::string &Name, const std::string &Id,
                      int64_t Parent) {
  if (Parent == -2)
    Parent = OpenStack.empty() ? -1 : OpenStack.back();
  SpanRec R;
  R.Name = Name;
  R.Id = Id;
  R.Parent = Parent;
  R.Thread = threadIndex();
  R.StartNs = nowNs();
  int64_t Idx;
  {
    std::lock_guard<std::mutex> L(Mu);
    Idx = int64_t(Spans.size());
    Spans.push_back(std::move(R));
  }
  OpenStack.push_back(Idx);
  return Idx;
}

void Tracer::end(int64_t Idx, const std::string &Attrs) {
  const uint64_t T = nowNs();
  if (!OpenStack.empty() && OpenStack.back() == Idx)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[size_t(Idx)].EndNs = T;
  Spans[size_t(Idx)].Attrs = Attrs;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans.size();
}

namespace {

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
std::vector<uint64_t> selfTimes(const std::vector<SpanRec> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      Kids[size_t(S.Parent)].push_back({S.StartNs, S.EndNs});
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const uint64_t Lo = Spans[I].StartNs, Hi = Spans[I].EndNs;
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, CurLo = 0, CurHi = 0;
    bool Open = false;
    for (auto [A, B] : K) {
      A = std::clamp(A, Lo, Hi);
      B = std::clamp(B, Lo, Hi);
      if (Open && A <= CurHi) {
        CurHi = std::max(CurHi, B);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = A;
      CurHi = B;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[I] = (Hi - Lo) - std::min(Covered, Hi - Lo);
  }
  return Self;
}

} // namespace

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  const std::vector<uint64_t> Self = selfTimes(Spans);
  const uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,",
                  jsonEscape(S.Name).c_str(), S.Thread,
                  double(S.StartNs - Origin) / 1e3,
                  double(S.EndNs - S.StartNs) / 1e3);
    Out << Buf << "\"args\":{\"span\":" << I << ",\"parent\":" << S.Parent
        << ",\"id\":\"" << jsonEscape(S.Id) << "\",\"self_us\":"
        << double(Self[I]) / 1e3;
    if (!S.Attrs.empty())
      Out << ",\"report\":" << S.Attrs;
    Out << "}}" << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return bool(Out);
}

void Tracer::printSelfTimes() const {
  std::lock_guard<std::mutex> L(Mu);
  const std::vector<uint64_t> Self = selfTimes(Spans);
  struct Agg {
    uint64_t N = 0, Total = 0, Self = 0;
  };
  std::map<std::string, Agg> By;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Agg &A = By[Spans[I].Name];
    ++A.N;
    A.Total += Spans[I].EndNs - Spans[I].StartNs;
    A.Self += Self[I];
  }
  std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto &[Name, A] : By)
    std::printf("%-24s %8llu %12.3f %12.3f\n", Name.c_str(),
                (unsigned long long)A.N, nsToMs(A.Total), nsToMs(A.Self));
}

// --- machine probe --------------------------------------------------------

namespace {

/// Runs \p Fn(T) on \p Threads threads (thread 0 is the caller).
template <typename Fn> void onThreads(unsigned Threads, Fn F) {
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(F, T);
  F(0u);
  for (std::thread &Th : Pool)
    Th.join();
}

} // namespace

MachineProbe probeMachine(unsigned Threads) {
  MachineProbe P;
  P.Threads = Threads;
  // Triad over three 8 MiB arrays: 24 MiB, three times the total L2 and
  // well inside L3, the same cache level the kernels' operands live in.
  // Bytes are computed (24 per element), not measured at DRAM.
  const size_t N = size_t(1) << 20;
  P.TriadMiB = 3.0 * double(N) * 8 / (1 << 20);
  std::vector<double> A(N, 0.0), B(N, 1.0), C(N, 2.0);
  double BestMs = 1e30;
  for (int Rep = 0; Rep < 12; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    onThreads(Threads, [&](unsigned T) {
      const size_t Lo = N * T / Threads, Hi = N * (T + 1) / Threads;
      double *Ap = A.data();
      const double *Bp = B.data(), *Cp = C.data();
      for (size_t I = Lo; I < Hi; ++I)
        Ap[I] = Bp[I] + 3.0 * Cp[I];
    });
    BestMs = std::min(BestMs, msBetween(T0, Clock::now()));
  }
  if (A[N / 2] != 7.0)
    std::fprintf(stderr, "probe: triad result wrong\n");
  P.TriadGBps = 24.0 * double(N) / (BestMs * 1e6);

  // Multiply-add peak: 32 independent chains per thread, vectorizable
  // by the compiler at this build's flags, so the figure is the peak
  // this build of the library could reach, not the chip's datasheet.
  const int64_t Iters = 2000000;
  std::vector<double> Sink(Threads, 0.0);
  BestMs = 1e30;
  for (int Rep = 0; Rep < 3; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    onThreads(Threads, [&](unsigned T) {
      double Acc[32];
      for (int K = 0; K < 32; ++K)
        Acc[K] = 1.0 + K * 1e-3 + T;
      const double M = 0.999999, Add = 1e-7;
      for (int64_t I = 0; I < Iters; ++I)
        for (int K = 0; K < 32; ++K)
          Acc[K] = Acc[K] * M + Add;
      double S = 0;
      for (double X : Acc)
        S += X;
      Sink[T] = S;
    });
    BestMs = std::min(BestMs, msBetween(T0, Clock::now()));
  }
  if (!(Sink[0] > 0))
    std::fprintf(stderr, "probe: fma result wrong\n");
  P.FmaGFlops = 2.0 * 32 * double(Iters) * Threads / (BestMs * 1e6);
  return P;
}

} // namespace perfbench
