"""Cohort compiler benchmark: A/B against the interpreted engine.

Runs the fig6-shaped sweeps interpreted and compiled and records, per
app: byte identity (the compile oracle — metrics, events, RunRecords
and Perfetto must all match), cohort occupancy (fraction of threads
that actually ran compiled), admission guard work per compiled effect,
and raw throughput (events/sec) on each side.

Three apps bracket the design space honestly:

* ``emc-sort`` — the EM-C front-end compiles every thread through the
  codegen tier (with fused Compute+read effects), so this is where the
  cohort engine's speed lives; CI enforces a >=2x events/sec floor.
* ``sort`` / ``fft`` — the native generator workloads branch on remote
  data, which the symbolic recorder (correctly) declines; the live
  tier records the representative's real execution instead and replays
  the rest, so steady-state occupancy is 1.0.  Wall-clock is ~parity,
  not a win: the simulator core (network, engine, event queue) is
  ~85% of the run, so by Amdahl even eliminating all guest-side
  interpretation moves the needle a few percent — the enforced floors
  pin the measured values (0.89-1.00x sort, 0.93-0.97x fft across the
  shapes on the reference host, with memoized admission keeping warm
  guard work near one trace per member) so the replay path can never
  silently regress.

Usage::

    python benchmarks/bench_cohort_engine.py                     # measure + print
    python benchmarks/bench_cohort_engine.py --write BENCH_engine.json
    python benchmarks/bench_cohort_engine.py --shape tiny \
        --check --floor 2.0 --native-floor 0.80                  # CI smoke

``--check`` exits non-zero if any point diverged, if the compiled
events/sec fell below the app's floor (``--floor`` x interpreted for
EM-C, ``--native-floor`` x for the native apps), or if a native app's
steady-state occupancy dropped to 0.5 or below.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from repro.compile.differential import CompileDifferentialHarness
from repro.compile.live import clear_registry

#: Benchmark shapes: name -> (n_pes, per-PE elements, thread sweep).
#: Same geometry as the hotpath section of BENCH_engine.json.
SHAPES = {
    "paper": (16, 64, (1, 2, 4, 8)),
    "tiny": (8, 64, (1, 2, 4)),
}

#: Apps measured -> which throughput floor applies ("emc" | "native").
APPS = {"emc-sort": "emc", "sort": "native", "fft": "native"}

#: Native apps must keep this much of every thread on a compiled tier.
OCCUPANCY_FLOOR = 0.5


def _metadata() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # scalar-table fallback still benchmarks
        numpy_version = None
    return {"cpu_count": os.cpu_count(), "numpy": numpy_version}


def measure(shape: str, repeats: int = 1) -> dict:
    """A/B all three apps across the shape's thread sweep."""
    n_pes, npp, threads = SHAPES[shape]
    out: dict = {"shape": shape, "apps": {}, "metadata": _metadata()}
    for app, tier in APPS.items():
        clear_registry()  # cold start: the identity phase sees the ramp
        harness = CompileDifferentialHarness(app, seed=0)
        identical = True
        events = 0
        occupancy_cold = []
        compiled_effects = guards = bailouts = record_failures = 0
        for h in threads:
            result = harness.run_pair(n_pes=n_pes, n=n_pes * npp, h=h)
            identical &= result.identical
            events += result.interpreted.events_fired
            cohort = result.compiled.cohort or {}
            occupancy_cold.append(cohort.get("occupancy", 0.0))
            record_failures += cohort.get("record_failures", 0)

        # Steady state: the live-trace registry is warm after the
        # identity phase; one more untimed sweep settles codegen'd
        # replay functions, then occupancy and the replay counters
        # (compiled effects only accrue on warm replays) are read from
        # warm runs.
        occupancy = []
        for h in threads:
            harness._run(True, {"n_pes": n_pes, "n": n_pes * npp, "h": h})
        for h in threads:
            report = harness._run(
                True, {"n_pes": n_pes, "n": n_pes * npp, "h": h}
            )
            cohort = report.cohort or {}
            occupancy.append(cohort.get("occupancy", 0.0))
            compiled_effects += cohort.get("compiled_effects", 0)
            guards += cohort.get("guards_checked", 0)
            bailouts += cohort.get("bailouts", 0)

        # Throughput: interleave A/B repeats (so host-speed drift — CPU
        # frequency ramp, page-cache warming — hits both sides alike)
        # and take the best of each.  GC is off during timed regions;
        # a collection pause landing in one side skews the ratio.  Both
        # sides fire identical events (that is the oracle), so the
        # events/sec ratio is the wall-clock speedup.
        best = {False: 0.0, True: 0.0}
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(repeats):
                for compiled in (False, True):
                    gc.collect()
                    gc.disable()
                    t0 = time.perf_counter()
                    for h in threads:
                        harness._run(
                            compiled, {"n_pes": n_pes, "n": n_pes * npp, "h": h}
                        )
                    rate = events / (time.perf_counter() - t0)
                    if gc_was_enabled:
                        gc.enable()
                    best[compiled] = max(best[compiled], rate)
        finally:
            if gc_was_enabled:
                gc.enable()

        out["apps"][app] = {
            "byte_identical": identical,
            "events": events,
            "occupancy": round(sum(occupancy) / len(occupancy), 3),
            "occupancy_cold": round(
                sum(occupancy_cold) / len(occupancy_cold), 3
            ),
            "compiled_effects": compiled_effects,
            "guards_per_compiled_effect": round(
                guards / compiled_effects, 3
            ) if compiled_effects else 0.0,
            "bailouts": bailouts,
            "record_failures": record_failures,
            "interpreted_events_per_sec": round(best[False], 1),
            "compiled_events_per_sec": round(best[True], 1),
            "speedup": round(best[True] / best[False], 3),
            "floor": tier,
        }
    return out


def check(measured: dict, floor: float, native_floor: float) -> int:
    """Identity must hold everywhere; every app must clear its floor;
    native apps must also keep their steady-state occupancy."""
    failures = 0
    for app, res in measured["apps"].items():
        if not res["byte_identical"]:
            print(f"{measured['shape']}/{app}: DIVERGED "
                  f"(compiled run differs from interpreted)")
            failures += 1
            continue
        app_floor = floor if res["floor"] == "emc" else native_floor
        line = (
            f"{measured['shape']}/{app}: identical, occupancy "
            f"{res['occupancy']:.2f}, {res['speedup']:.2f}x events/sec "
            f"(floor {app_floor:.2f}x)"
        )
        if res["speedup"] < app_floor:
            line += " -> REGRESSION"
            failures += 1
        if res["floor"] == "native" and res["occupancy"] <= OCCUPANCY_FLOOR:
            line += f" -> OCCUPANCY below {OCCUPANCY_FLOOR}"
            failures += 1
        print(line)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    ap.add_argument("--repeats", type=int, default=1, help="best-of-N timing")
    ap.add_argument("--write", metavar="FILE", help="record results as the baseline")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero on divergence or a floor miss")
    ap.add_argument("--floor", type=float, default=2.0,
                    help="minimum compiled/interpreted events/sec ratio "
                         "on the EM-C workload (default 2.0)")
    ap.add_argument("--native-floor", type=float, default=0.80,
                    help="minimum ratio on the native live-traced "
                         "workloads; parity minus measurement noise, "
                         "not a speedup claim (default 0.80)")
    args = ap.parse_args(argv)

    measured = measure(args.shape, repeats=args.repeats)
    for app, res in measured["apps"].items():
        print(
            f"{args.shape}/{app}: "
            f"{'identical' if res['byte_identical'] else 'DIVERGED'}, "
            f"occupancy {res['occupancy']:.2f} "
            f"(cold {res['occupancy_cold']:.2f}), "
            f"{res['compiled_effects']} compiled effects "
            f"({res['guards_per_compiled_effect']:.2f} guards/effect), "
            f"{res['compiled_events_per_sec']:,.0f} ev/s compiled vs "
            f"{res['interpreted_events_per_sec']:,.0f} ev/s interpreted "
            f"({res['speedup']:.2f}x)"
        )

    if args.write:
        try:
            with open(args.write) as f:
                payload = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        payload["cohort"] = {"note": (
            "Interpreted-vs-compiled A/B on the fig6-shaped sweeps.  "
            "byte_identical, occupancy and the effect/guard counts are "
            "deterministic; events/sec is host-dependent.  Both sides "
            "fire identical events, so speedup is the wall-clock ratio.  "
            "emc-sort exercises the EM-C codegen tier with fused "
            "Compute+read effects (the enforced >=2x win).  sort and "
            "fft go through the live-tracing tier: data-dependent "
            "shapes the symbolic recorder declines are recorded from "
            "the representative's real execution and replayed, so "
            "steady-state occupancy is 1.0 (occupancy_cold shows the "
            "first-run tracing ramp).  Their floors pin parity, not a "
            "win: the simulator core is ~85% of wall time, so by "
            "Amdahl eliminating guest interpretation is worth a few "
            "percent at most (measured 0.89-1.00x sort, 0.93-0.97x "
            "fft across the shapes; memoized admission keeps warm "
            "guard work near one trace per member)."
        ), "shapes": payload.get("cohort", {}).get("shapes", {})}
        payload["cohort"]["shapes"][args.shape] = measured
        with open(args.write, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        return check(measured, args.floor, args.native_floor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
