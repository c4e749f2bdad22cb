"""Tests of the benchmark itself: output checks, exact counts, cache hygiene.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

They run real passes of the workloads (about a minute in all on a 2-core
host), because what they guard is that the benchmark's checks see the
program's real outputs.
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import pstats
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
for entry in (str(BENCH_DIR), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import hostprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Counts that must repeat exactly from pass to pass.
DETERMINISTIC = (
    "sim.events", "network.hops", "processor.switches.remote_read",
    "processor.switches.iter_sync", "processor.switches.thread_sync",
    "runner.jobs_executed", "runner.disk_hits", "compile.bailouts",
)


def run_pass(name: str, seed: int, workdir, **kwargs) -> workloads.Pass:
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.Export):
        kwargs["workdir"] = str(workdir)
    return workload.run_pass(seed, traced=False, src_root=str(SRC), **kwargs)


def test_benchmark_json_names_every_predicted_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())
    predicted = [m for row in predictions["rows"] for m in row["layer_metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in bench["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]} | {"fail_frac"}
    assert all(set(row["should_move"]) <= end_to_end for row in predictions["rows"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_recorded_digests_match_and_a_perturbed_one_is_a_failure(tmp_path):
    seed = checks.RECORDED_SEEDS[0]
    passes = [run_pass("sort-p16", seed, tmp_path)]
    expected = checks.expected_for("sort-p16", seed)
    assert checks.check_outputs(passes, expected) == (4, 0, [])

    op = sorted(expected)[1]
    perturbed = dict(expected, **{op: "0" * 16})
    attempted, failed, reasons = checks.check_outputs(passes, perturbed)
    assert (attempted, failed) == (4, 1)
    assert op in reasons[0]


def test_a_raising_operation_is_counted_not_raised(tmp_path):
    good = run_pass("fft-p64", 0, tmp_path)
    bad = workloads.Pass(outputs=dict(good.outputs))
    op = sorted(good.outputs)[0]
    del bad.outputs[op]
    bad.errors[op] = "ProgramError: wrong answer"
    attempted, failed, reasons = checks.check_outputs([good, bad], None)
    assert (attempted, failed) == (6, 1)
    assert "wrong answer" in reasons[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    first, second = (run_pass(name, 3, tmp_path) for _ in range(2))
    assert checks.count_mismatches([first, second]) == []
    assert all(first.counts[key] == second.counts[key] for key in DETERMINISTIC)
    assert first.counts["sim.events"] > 0 and first.counts["network.hops"] > 0
    assert checks.check_outputs([first, second], None)[1] == 0


def test_a_lost_cache_fails_the_warm_pass(tmp_path, monkeypatch):
    from repro.runner import ResultCache

    export = workloads.Export(figures=("fig8",))
    healthy = export.run_pass(0, traced=False, src_root=str(SRC), workdir=str(tmp_path))
    assert healthy.errors == {}
    n = sum(op.startswith("read:") for op in healthy.outputs)
    assert n == healthy.counts["runner.disk_hits"] > 0

    monkeypatch.setattr(ResultCache, "put", lambda self, spec, record: None)
    lost = export.run_pass(0, traced=False, src_root=str(SRC), workdir=str(tmp_path))
    assert "warm:stats" in lost.errors
    assert sum(op.startswith("read:") for op in lost.errors) == n
    attempted, failed, _ = checks.check_outputs([healthy, lost], None)
    assert failed == n + 1


def test_sampler_probes_during_cpu_work_and_restores_the_signal():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with hostprobe.Sampler() as sampler:
        deadline = time.process_time() + 0.5
        while time.process_time() < deadline:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert len(sampler.samples) >= 3
    assert 0 < sampler.cost_s < 0.5
    assert hostprobe.rescale(1.0, [hostprobe.REFERENCE_S * 2]) == pytest.approx(0.5)


def test_layer_self_times_account_for_the_profile():
    import repro

    profile = cProfile.Profile()
    profile.enable()
    repro.run("sort", n=64, n_pes=4, h=2)
    profile.disable()
    stats = pstats.Stats(profile)
    layers = tracing.layer_self_times(stats, str(SRC))
    assert set(layers) == set(tracing.LAYERS)
    assert sum(layers.values()) == pytest.approx(stats.total_tt, rel=1e-6)
    assert layers["sim"] > 0 and layers["network"] > 0 and layers["processor.exu"] > 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort-p16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
