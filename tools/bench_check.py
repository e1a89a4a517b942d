#!/usr/bin/env python3
"""Bench-regression gate over BENCH_microkernels/service/threads.json.

Compares a freshly produced benchmark record file against the
checked-in baseline (bench/baselines/*.json). The gated
quantity is the
*fused-over-interpreted speedup ratio* per (kernel, workload) — a pure
single-process ratio, so it transfers across machines far better than
wall-clock milliseconds — with a relative tolerance band for machine
noise. Exits nonzero when any kernel's fresh ratio falls below
baseline * (1 - tolerance).

When the record files carry a "native" column (bench_microkernels adds
one whenever a host compiler is available for the JIT engine), the
*native-over-fused ratio* is gated the same way with its own wider
band: native bodies finish in tens of microseconds on the small
kernels, so timer noise is a larger relative fraction. A fresh run
with no native records (compiler-less machine) skips that gate with a
note rather than failing — the JIT column is capability-dependent by
design.

With --service the gated records come from bench_service instead: the
ratio is the *cold-over-warm latency ratio* per kernel (the plan-cache
hit speedup — first request pays the full front end, warm requests only
the rebind repatch), and the open-loop p99 latency is additionally
checked as an absolute guard with its own wide tolerance (wall-clock
transfers poorly across machines; the ratio gate is the strict one).

With --threads the gated records come from bench_threads: the ratio is
each configuration's *speedup over the same run's one-thread time*
(t1/auto ms over tN/schedule ms, both from the fresh file, so machine
speed cancels). Gated cells must reach an absolute floor (ssyrk at four
threads >= 1.0x under every schedule: adding threads may not make it
slower); the ROADMAP's 1.5x target is reported next to it, and the
checked-in baseline's speedups are printed for comparison only.

Intended uses:

  # after running bench_microkernels in the build tree
  python3 tools/bench_check.py --fresh build/BENCH_microkernels.json

  # after running bench_service
  python3 tools/bench_check.py --service --fresh build/BENCH_service.json

  # after running bench_threads
  python3 tools/bench_check.py --threads --fresh build/BENCH_threads.json

  # or via the build system
  cmake --build build --target check_bench
  cmake --build build --target check_service
  cmake --build build --target check_threads

CI runs this as a non-blocking report job (the reference container is
1-core, so wall-time-derived gating stays advisory there); locally it
is the pre-merge check that a perf PR actually moved the needle and a
refactor did not silently give the fused engines back.
"""

import argparse
import json
import os
import sys

DEFAULT_TOLERANCE = 0.30  # allow a 30% relative drop before failing
# Native-over-fused bounces more than fused-over-interp: the native
# bodies run in tens of microseconds on the small kernels, so a fixed
# timer-noise floor is a bigger relative slice of the measurement.
NATIVE_TOLERANCE = 0.45
# The service mode's defaults: the hit-speedup ratio bounces more than
# the fused-vs-interp ratio (the warm path is sub-millisecond, so timer
# and scheduler noise is a larger fraction), and p99 is wall-clock on a
# 1-core CI runner, so its band is deliberately wide.
SERVICE_TOLERANCE = 0.45
SERVICE_P99_TOLERANCE = 2.0  # p99 may grow up to 3x baseline
# The --threads gates: (kernel, threads) -> minimum speedup over the
# same run's one-thread time, required under every schedule. The
# target column is reported, not gated.
THREADS_FLOORS = {("ssyrk", 4): 1.0}
THREADS_TARGETS = {("ssyrk", 4): 1.5}


def load_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    for idx, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise ValueError(
                f"{path}: record {idx} is {type(rec).__name__}, "
                "expected an object"
            )
    return data


def _numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def speedup_table(records, skipped=None, impls=("interp", "fused")):
    """(kernel, workload) -> slow-over-fast speedup ratio, where
    ``impls`` names the (slow, fast) implementation pair — by default
    interp/fused (the micro-kernel gate), cold/warm in --service mode
    (the plan-cache hit speedup).

    Records with a missing or non-numeric "ms" are skipped (and
    reported via ``skipped`` when given) rather than crashing the
    gate: a truncated benchmark run should produce a readable verdict,
    not a traceback."""
    slow, fast = impls
    ms = {}
    for idx, rec in enumerate(records):
        impl = rec.get("impl")
        if impl not in (slow, fast):
            continue
        value = rec.get("ms")
        if not _numeric(value) or value <= 0:
            if skipped is not None:
                skipped.append(
                    f"record {idx} ({rec.get('kernel')}/"
                    f"{rec.get('workload')}/{impl}): "
                    f"missing or non-positive ms: {value!r}"
                )
            continue
        key = (rec.get("kernel"), rec.get("workload"))
        ms.setdefault(key, {})[impl] = value
    table = {}
    for key, found in ms.items():
        if slow in found and fast in found:
            table[key] = found[slow] / found[fast]
    return table


def p99_ms(records):
    """The open-loop p99 latency from a bench_service record file, or
    None when absent."""
    for rec in records:
        if rec.get("kernel") == "service" and rec.get("impl") == "p99":
            value = rec.get("ms")
            if _numeric(value) and value > 0:
                return value
    return None


def phase_table(records):
    """(kernel, workload, impl) -> phases_ms dict, when records carry
    the observability attachment (records written before the tracing
    layer simply have no breakdown)."""
    table = {}
    for rec in records:
        phases = rec.get("phases_ms")
        if isinstance(phases, dict):
            key = (rec.get("kernel"), rec.get("workload"), rec.get("impl"))
            table[key] = phases
    return table


def print_phase_breakdown(fresh_records, keys, impls=("interp", "fused")):
    """Per-phase timing summary next to the ratio table: where each
    configuration's time goes (one instrumented run, not the timed
    average), so a ratio delta points at a phase instead of a rerun."""
    phases = phase_table(fresh_records)
    if not phases:
        return
    names = []
    for p in phases.values():
        for name in p:
            if name not in names:
                names.append(name)
    header = f"{'kernel':<10} {'workload':<18} {'impl':<7}" + "".join(
        f" {n:>12}" for n in names
    )
    print(f"\nper-phase breakdown (ms, one instrumented run):")
    print(header)
    print("-" * len(header))
    for kernel, workload in keys:
        for impl in impls:
            p = phases.get((kernel, workload, impl))
            if p is None:
                continue
            cells = "".join(
                f" {p[n]:>12.4f}" if n in p else f" {'---':>12}"
                for n in names
            )
            print(f"{kernel:<10} {workload:<18} {impl:<7}{cells}")


def thread_speedups(records):
    """(kernel, workload, threads, schedule) -> speedup over the same
    file's one-thread run of that (kernel, workload)."""
    ms = {}
    for rec in records:
        value = rec.get("ms")
        if not _numeric(value) or value <= 0:
            continue
        key = (rec.get("kernel"), rec.get("workload"), rec.get("threads"),
               rec.get("schedule"))
        ms[key] = value
    table = {}
    for (kernel, workload, threads, schedule), value in ms.items():
        one = ms.get((kernel, workload, 1, "auto"))
        if one is not None and threads != 1:
            table[(kernel, workload, threads, schedule)] = one / value
    return table


def check_threads(fresh_records, base_records):
    """The --threads mode: floors on within-run speedups. Returns the
    list of failures."""
    fresh = thread_speedups(fresh_records)
    base = thread_speedups(base_records)
    failures = []
    header = (f"{'kernel':<8} {'workload':<12} {'threads':>7} "
              f"{'schedule':<9} {'baseline':>9} {'fresh':>8} {'floor':>6} "
              f"{'target':>7}  status")
    print(header)
    print("-" * len(header))
    for key in sorted(fresh, key=lambda k: (k[0], k[1], k[2], k[3])):
        kernel, workload, threads, schedule = key
        f = fresh[key]
        b = base.get(key)
        floor = THREADS_FLOORS.get((kernel, threads))
        target = THREADS_TARGETS.get((kernel, threads))
        if floor is None:
            status = "info"
        elif f >= floor:
            status = "ok"
        else:
            status = "BELOW FLOOR"
            failures.append(
                f"{kernel}/{workload} t{threads}/{schedule}: speedup "
                f"{f:.2f}x < floor {floor:.2f}x")
        if target is not None and status == "ok":
            status += " (target met)" if f >= target else " (below target)"
        b_txt = f"{b:>8.2f}x" if b is not None else f"{'---':>9}"
        fl_txt = f"{floor:>5.1f}x" if floor is not None else f"{'':>6}"
        t_txt = f"{target:>6.1f}x" if target is not None else f"{'':>7}"
        print(f"{kernel:<8} {workload:<12} {threads:>7} {schedule:<9} "
              f"{b_txt} {f:>7.2f}x {fl_txt} {t_txt}  {status}")
    for kernel, threads in sorted(THREADS_FLOORS):
        if not any(k[0] == kernel and k[2] == threads for k in fresh):
            failures.append(
                f"{kernel} t{threads}: no gated record in the fresh run")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "--service",
        action="store_true",
        help="gate bench_service records instead: cold-over-warm "
        "plan-cache hit speedup per kernel, plus the open-loop p99 "
        "latency as a wide-band absolute guard",
    )
    parser.add_argument(
        "--threads",
        action="store_true",
        help="gate bench_threads records instead: speedup over the same "
        "run's one-thread time, with absolute floors (ssyrk at four "
        "threads >= 1.0x under every schedule)",
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="freshly generated record file (default: "
        "./BENCH_microkernels.json, or ./BENCH_service.json with --service, "
        "./BENCH_threads.json with --threads)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="checked-in baseline record file (default: "
        "bench/baselines/microkernels.json, or service.json with --service, "
        "threads.json with --threads)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"relative speedup-ratio drop allowed (default "
        f"{DEFAULT_TOLERANCE}, or {SERVICE_TOLERANCE} with --service)",
    )
    parser.add_argument(
        "--native-tolerance",
        type=float,
        default=NATIVE_TOLERANCE,
        help="relative native-over-fused ratio drop allowed when both "
        f"files carry native records (default {NATIVE_TOLERANCE})",
    )
    parser.add_argument(
        "--p99-tolerance",
        type=float,
        default=SERVICE_P99_TOLERANCE,
        help="--service only: relative p99 growth allowed "
        f"(default {SERVICE_P99_TOLERANCE})",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="CI mode: also fail on skipped (malformed-ms) records and "
        "on kernels present in the fresh run but absent from the "
        "baseline (a new kernel must land with its baseline entry)",
    )
    args = parser.parse_args()

    default_name = ("service" if args.service
                    else "threads" if args.threads else "microkernels")
    if args.fresh is None:
        args.fresh = f"BENCH_{default_name}.json"
    if args.baseline is None:
        args.baseline = os.path.join(repo_root, "bench", "baselines",
                                     f"{default_name}.json")
    if args.tolerance is None:
        args.tolerance = SERVICE_TOLERANCE if args.service else DEFAULT_TOLERANCE
    impls = ("cold", "warm") if args.service else ("interp", "fused")

    if args.threads:
        try:
            fresh_records = load_records(args.fresh)
            base_records = load_records(args.baseline)
        except OSError as err:
            print(f"bench_check: cannot read record file: {err}\n"
                  "  (run bench_threads first, or pass --fresh/--baseline "
                  "explicitly)", file=sys.stderr)
            return 2
        except (ValueError, json.JSONDecodeError) as err:
            print(f"bench_check: malformed record file: {err}",
                  file=sys.stderr)
            return 2
        failures = check_threads(fresh_records, base_records)
        if failures:
            print("\nbench_check: FAIL", file=sys.stderr)
            for r in failures:
                print(f"  {r}", file=sys.stderr)
            return 1
        print("\nbench_check: OK (thread-speedup floors met)")
        return 0

    skipped = []
    try:
        fresh_records = load_records(args.fresh)
        base_records = load_records(args.baseline)
        fresh = speedup_table(fresh_records, skipped, impls)
        base = speedup_table(base_records, skipped, impls)
    except OSError as err:
        print(
            f"bench_check: cannot read record file: {err}\n"
            f"  (run bench_{default_name} first, or pass --fresh/--baseline "
            "explicitly)",
            file=sys.stderr,
        )
        return 2
    except (ValueError, json.JSONDecodeError) as err:
        print(f"bench_check: malformed record file: {err}", file=sys.stderr)
        return 2

    if not fresh:
        print(f"bench_check: no {impls[0]}/{impls[1]} pairs in {args.fresh}",
              file=sys.stderr)
        for note in skipped:
            print(f"  {note}", file=sys.stderr)
        return 2

    header = f"{'kernel':<10} {'workload':<18} {'baseline':>9} {'fresh':>9} {'delta':>8}  status"
    print(header)
    print("-" * len(header))
    regressions = []
    for key in sorted(base):
        kernel, workload = key
        if key not in fresh:
            print(f"{kernel:<10} {workload:<18} {base[key]:>8.2f}x {'---':>9} {'---':>8}  MISSING")
            regressions.append(f"{kernel}/{workload}: missing from fresh run")
            continue
        b, f = base[key], fresh[key]
        delta = (f - b) / b
        ok = f >= b * (1.0 - args.tolerance)
        status = "ok" if ok else "REGRESSED"
        print(f"{kernel:<10} {workload:<18} {b:>8.2f}x {f:>8.2f}x {delta:>+7.1%}  {status}")
        if not ok:
            what = ("cold-vs-warm cache-hit" if args.service
                    else "fused-vs-interpreted")
            regressions.append(
                f"{kernel}/{workload}: {what} speedup {f:.2f}x "
                f"< baseline {b:.2f}x - {args.tolerance:.0%}"
            )
    for key in sorted(set(fresh) - set(base)):
        kernel, workload = key
        print(f"{kernel:<10} {workload:<18} {'---':>9} {fresh[key]:>8.2f}x {'---':>8}  new")
        if args.strict:
            regressions.append(
                f"{kernel}/{workload}: present in fresh run but not in the "
                "baseline (--strict: add it to bench/baselines)"
            )

    if not args.service:
        # Native (JIT) gate: fused-over-native ratio, present only when
        # the producing machine had a host compiler. A fresh run without
        # native records skips the gate (capability, not regression); a
        # kernel missing from an otherwise-native fresh run means the
        # engine silently fell back, which IS gated.
        nat_fresh = speedup_table(fresh_records, None, ("fused", "native"))
        nat_base = speedup_table(base_records, None, ("fused", "native"))
        if not nat_base:
            print("\nnative-vs-fused: no native records in baseline; "
                  "gate skipped")
        elif not nat_fresh:
            print("\nnative-vs-fused: no native records in fresh run "
                  "(no host compiler for the JIT engine); gate skipped")
        else:
            print(f"\nnative-vs-fused ratios "
                  f"(tolerance {args.native_tolerance:.0%}):")
            print(header)
            print("-" * len(header))
            for key in sorted(nat_base):
                kernel, workload = key
                if key not in nat_fresh:
                    print(f"{kernel:<10} {workload:<18} "
                          f"{nat_base[key]:>8.2f}x {'---':>9} {'---':>8}  "
                          "MISSING")
                    regressions.append(
                        f"{kernel}/{workload}: native column present in "
                        "the fresh run but this kernel fell back"
                    )
                    continue
                b, f = nat_base[key], nat_fresh[key]
                delta = (f - b) / b
                ok = f >= b * (1.0 - args.native_tolerance)
                status = "ok" if ok else "REGRESSED"
                print(f"{kernel:<10} {workload:<18} {b:>8.2f}x "
                      f"{f:>8.2f}x {delta:>+7.1%}  {status}")
                if not ok:
                    regressions.append(
                        f"{kernel}/{workload}: native-vs-fused speedup "
                        f"{f:.2f}x < baseline {b:.2f}x "
                        f"- {args.native_tolerance:.0%}"
                    )
            for key in sorted(set(nat_fresh) - set(nat_base)):
                kernel, workload = key
                print(f"{kernel:<10} {workload:<18} {'---':>9} "
                      f"{nat_fresh[key]:>8.2f}x {'---':>8}  new")
                if args.strict:
                    regressions.append(
                        f"{kernel}/{workload}: native pair present in "
                        "fresh run but not in the baseline (--strict: "
                        "add it to bench/baselines)"
                    )

    if args.service:
        fresh_p99 = p99_ms(fresh_records)
        base_p99 = p99_ms(base_records)
        if fresh_p99 is None:
            regressions.append(
                "service/openloop: no p99 record in the fresh run")
        elif base_p99 is not None:
            limit = base_p99 * (1.0 + args.p99_tolerance)
            ok = fresh_p99 <= limit
            print(
                f"\nopen-loop p99: baseline {base_p99:.3f}ms  "
                f"fresh {fresh_p99:.3f}ms  limit {limit:.3f}ms  "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if not ok:
                regressions.append(
                    f"service/openloop: p99 {fresh_p99:.3f}ms > baseline "
                    f"{base_p99:.3f}ms + {args.p99_tolerance:.0%}"
                )

    if skipped:
        print("\nbench_check: skipped records:", file=sys.stderr)
        for note in skipped:
            print(f"  {note}", file=sys.stderr)
        if args.strict:
            regressions.extend(skipped)

    print_phase_breakdown(
        fresh_records, sorted(set(base) | set(fresh)),
        impls if args.service else ("interp", "fused", "native"))

    if regressions:
        print("\nbench_check: FAIL", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    what = ("cache-hit ratios and p99" if args.service
            else "fused-vs-interpreted and native-vs-fused ratios")
    print(f"\nbench_check: OK (all {what} within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
