//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
///
/// perfbench --workload <kernels-1t|kernels-4t|service-mixed> --seed <n>
///           --seconds <s> --trace <0|1>
///           [--trace-out <file>] [--corrupt-every <n>]
///
/// Runs one workload and prints, as the last line of standard output,
/// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
/// end-to-end metrics (no span is recorded), with --trace 1 the
/// per-layer metrics of a traced run that records a span around every
/// public library call and writes them to --trace-out at exit.
/// SYSTEC_JIT_CACHE_DIR must name a fresh directory for the native
/// engine's kernel cache. perfbench/run.py builds this binary, creates
/// and deletes that directory, and is the command to run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// The metric names BENCHMARK.json declares; every run prints all of
/// one list. A per-layer figure of a layer the workload leaves idle is
/// reported as 0.
const char *const EndToEnd[] = {"run_ms",      "latency_ms_p5",
                                "saturated_rps", "setup_s",
                                "peak_rss_mb", "success_rate"};
const std::pair<const char *, const char *> PerLayer[] = {
    {"core.compile_ms", "ms"},
    {"core.symmetry_speedup", "x"},
    {"core.op_ratio", "x"},
    {"core.read_ratio", "x"},
    {"tensor.materialize_ms", "ms"},
    {"tensor.epilogue_ms", "ms"},
    {"runtime.plan_compile_ms", "ms"},
    {"runtime.specialize_ms", "ms"},
    {"runtime.execute_ms", "ms"},
    {"runtime.fused_loop_frac", "fraction"},
    {"runtime.gflops", "GFLOP/s"},
    {"runtime.gbps_computed", "GB/s"},
    {"runtime.roofline_frac", "fraction"},
    {"runtime.native_headroom", "x"},
    {"jit.compile_ms", "ms"},
    {"jit.warm_load_ms", "ms"},
    {"jit.fallbacks", "count"},
    {"parallel.merge_ms", "ms"},
    {"parallel.wait_frac", "fraction"},
    {"plancache.hit_ratio", "fraction"},
    {"plancache.evictions", "count"},
    {"service.queue_ms_mean", "ms"},
    {"service.frontend_ms_hit", "ms"},
    {"service.frontend_ms_miss", "ms"},
    {"service.generator_lag_ms_p99", "ms"},
    {"obs.tracing_overhead", "fraction"},
    {"ungated.run_ms_p50", "ms"},
    {"ungated.run_ms_p90", "ms"},
    {"ungated.latency_ms_p50", "ms"},
    {"ungated.latency_ms_p90", "ms"},
    {"ungated.latency_ms_p99", "ms"},
    {"machine.triad_gbps", "GB/s"},
    {"machine.fma_gflops", "GFLOP/s"},
    {"machine.steal_frac", "fraction"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <kernels-1t|"
               "kernels-4t|service-mixed> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-out <file>] "
               "[--corrupt-every <n>]\n",
               Why);
  std::exit(2);
}

RunConfig parseArgs(int Argc, char **Argv) {
  RunConfig C;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      C.Workload = V;
    else if (Flag == "--seed")
      C.Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      C.Seconds = std::strtod(V, &End);
    else if (Flag == "--trace")
      C.Trace = std::strcmp(V, "1") == 0;
    else if (Flag == "--trace-out")
      C.TraceOut = V;
    else if (Flag == "--corrupt-every")
      C.CorruptEvery = unsigned(std::strtoul(V, &End, 10));
    else
      usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      usage(("bad value for " + Flag).c_str());
  }
  if (C.Workload.empty())
    usage("--workload is required");
  // Every executor, the service's included, keeps native kernels in
  // this directory; without it they would share the per-user default
  // cache and cold JIT numbers would not repeat.
  const char *JitDir = std::getenv("SYSTEC_JIT_CACHE_DIR");
  if (!JitDir || !*JitDir)
    usage("SYSTEC_JIT_CACHE_DIR must name a fresh per-run directory");
  if (!(C.Seconds > 0 && C.Seconds <= 60))
    usage("--seconds must be in (0, 60]");
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  const RunConfig Cfg = parseArgs(Argc, Argv);
  Tracer::get().enable(Cfg.Trace);

  const bool Kernels =
      Cfg.Workload == "kernels-1t" || Cfg.Workload == "kernels-4t";
  if (!Kernels && Cfg.Workload != "service-mixed")
    usage(("unknown workload " + Cfg.Workload).c_str());
  const unsigned Threads = Cfg.Workload == "kernels-4t" ? 4 : 1;
  const CpuTimes Cpu0 = cpuTimes();
  const MachineProbe Probe = probeMachine(Threads);
  std::printf("probe: triad %.2f GB/s computed over %.0f MiB (L2 8 MiB "
              "total, L3 105 MiB), multiply-add %.2f GFLOP/s, %u thread(s)\n",
              Probe.TriadGBps, Probe.TriadMiB, Probe.FmaGFlops, Threads);

  Result Res = Kernels ? runKernels(Cfg, Threads, Probe)
                       : runService(Cfg, Probe);
  Res.set("peak_rss_mb", peakRssMiB(), "MiB");
  // The host's other guests take CPU time from this machine; a run
  // with a high share measured a contended machine.
  const CpuTimes Cpu1 = cpuTimes();
  const double StealFrac =
      Cpu1.Total > Cpu0.Total
          ? double(Cpu1.Steal - Cpu0.Steal) / double(Cpu1.Total - Cpu0.Total)
          : 0;
  std::printf("host steal during the run: %.1f%% of CPU time\n",
              100 * StealFrac);
  Res.set("machine.steal_frac", StealFrac, "fraction");
  Res.set("machine.triad_gbps", Probe.TriadGBps, "GB/s");
  Res.set("machine.fma_gflops", Probe.FmaGFlops, "GFLOP/s");

  const size_t Spans = Tracer::get().size();
  std::printf("spans recorded: %zu\n", Spans);
  if (Cfg.Trace) {
    Tracer::get().printSelfTimes();
    if (!Cfg.TraceOut.empty() && !Tracer::get().write(Cfg.TraceOut)) {
      std::fprintf(stderr, "cannot write %s\n", Cfg.TraceOut.c_str());
      return 1;
    }
  } else if (Spans != 0) {
    std::fprintf(stderr, "untraced run recorded spans\n");
    return 1;
  }

  const double ErrorRate =
      Res.Attempted ? double(Res.Failed) / double(Res.Attempted) : 1.0;
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n", ErrorRate,
              (unsigned long long)Res.Failed,
              (unsigned long long)Res.Attempted);
  Res.set("success_rate", 1.0 - ErrorRate, "fraction");

  std::string Json = "{\"correct\": ";
  Json += Res.Failed == 0 && Res.CheckerOk && Res.Attempted > 0 ? "true"
                                                                : "false";
  Json += ", \"attempted\": " + std::to_string(Res.Attempted);
  Json += ", \"failed\": " + std::to_string(Res.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const std::string &Name, double V, const std::string &Unit) {
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "metric %s is not finite\n", Name.c_str());
      std::exit(1);
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Unit + "\"}";
    First = false;
  };
  if (!Cfg.Trace) {
    for (const char *Name : EndToEnd) {
      auto It = Res.Metrics.find(Name);
      if (It == Res.Metrics.end()) {
        std::fprintf(stderr, "workload did not measure %s\n", Name);
        return 1;
      }
      Emit(Name, It->second.Value, It->second.Unit);
    }
  } else {
    for (const auto &[Name, Unit] : PerLayer) {
      auto It = Res.Metrics.find(Name);
      Emit(Name, It == Res.Metrics.end() ? 0.0 : It->second.Value, Unit);
    }
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
