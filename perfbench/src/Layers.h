//===- perfbench/src/Layers.h - Engine-layer accounting -------*- C++ -*-===//
///
/// \file
/// Folds ExecReports into the runtime/parallel per-layer figures both
/// workloads report: computed flops and bytes against the machine
/// probe's roofline, the share of plan loops a fused engine runs, and
/// pool wait time. Bytes are computed from the run's exact counters
/// (sparse reads x (value + coordinate), dense inputs once, output
/// writes), never measured, so the rates are labelled "computed".
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"
#include "observability/Report.h"

#include <algorithm>
#include <string>

namespace perfbench {

struct LayerAcc {
  double RunSec = 0, Flops = 0, Bytes = 0, RooflineSec = 0;
  uint64_t Loops = 0, FusedLoops = 0;
  uint64_t WaitNs = 0, ExecNs = 0;

  static double flops(const systec::obs::ExecReport &R) {
    return double(R.Counters.ScalarOps + R.Counters.Reductions);
  }
  static double bytes(const systec::obs::ExecReport &R,
                      double DenseInputBytes) {
    return double(R.Counters.SparseReads) * 16 + DenseInputBytes +
           double(R.Counters.OutputWrites) * 8;
  }

  /// One run of \p RunMs whose report is \p R.
  void add(const systec::obs::ExecReport &R, double RunMs,
           double DenseInputBytes, const MachineProbe &P) {
    const double F = flops(R), B = bytes(R, DenseInputBytes);
    RunSec += RunMs / 1e3;
    Flops += F;
    Bytes += B;
    RooflineSec += std::max(F / (P.FmaGFlops * 1e9), B / (P.TriadGBps * 1e9));
    for (const systec::obs::LoopStat &L : R.Loops) {
      ++Loops;
      FusedLoops += L.Engine != "Interp";
    }
    for (const systec::obs::WorkerStat &W : R.Workers) {
      WaitNs += W.WaitNs;
      ExecNs += W.ExecNs;
    }
  }

  void report(Result &Out) const {
    Out.set("runtime.gflops", RunSec > 0 ? Flops / RunSec / 1e9 : 0,
            "GFLOP/s");
    Out.set("runtime.gbps_computed", RunSec > 0 ? Bytes / RunSec / 1e9 : 0,
            "GB/s");
    Out.set("runtime.roofline_frac", RunSec > 0 ? RooflineSec / RunSec : 0,
            "fraction");
    Out.set("runtime.fused_loop_frac",
            Loops ? double(FusedLoops) / double(Loops) : 0, "fraction");
    Out.set("parallel.wait_frac",
            WaitNs + ExecNs ? double(WaitNs) / double(WaitNs + ExecNs) : 0,
            "fraction");
  }
};

/// Report phases and counters as one JSON object (span attributes).
inline std::string reportAttrs(const systec::obs::ExecReport &R) {
  return "{\"phases_ms\":" + R.phasesJson() +
         ",\"counters\":" + systec::obs::counterJson(R.Counters) + "}";
}

inline double phaseMs(const systec::obs::ExecReport &R, const char *Name) {
  return nsToMs(R.phaseNs(Name));
}

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
