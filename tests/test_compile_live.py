"""The live-tracing cohort tier: recording through data-dependent
control flow, cross-run trace registry, vectorized operand tables,
fused effects and the compiled observability goldens.

The pure symbolic recorder (:mod:`repro.compile.recorder`) declines
native bitonic/FFT threads — their effect shapes depend on runtime
data.  The live tier records the representative's *actual* execution
instead and replays later threads from the trace, so these tests pin
the whole ladder: cold run traces, warm run replays, occupancy reaches
1.0, and every step stays byte-identical to the interpreter.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import MachineConfig
from repro.apps.bitonic import run_bitonic
from repro.compile import live
from repro.compile.live import clear_registry, lookup_traces, register_trace
from repro.metrics.serialize import report_to_dict

SHAPE = dict(n=64, n_pes=4, h=2)


def _run(app="sort", compiled=True, **over):
    kwargs = {**SHAPE, **over}
    cfg = MachineConfig(compiled=True) if compiled else None
    return repro.run(app, config=cfg, **kwargs)


def _sans_cohort(report) -> dict:
    d = report_to_dict(report)
    d.pop("cohort", None)
    return d


# ----------------------------------------------------------------------
# The warm-up ladder: trace cold, replay warm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", ["sort", "fft"])
def test_cold_run_traces_and_stays_identical(app):
    compiled = _run(app)
    cohort = compiled.cohort
    assert cohort["gen_traced_threads"] > 0
    assert cohort["live_traces"] > 0
    assert cohort["record_failures"] == 0
    assert _sans_cohort(compiled) == _sans_cohort(_run(app, compiled=False))


@pytest.mark.parametrize("app", ["sort", "fft"])
def test_warm_runs_reach_full_occupancy(app):
    for _ in range(3):
        report = _run(app)
    cohort = report.cohort
    assert cohort["occupancy"] == 1.0
    assert cohort["gen_replayed_threads"] == 4 * 2  # every guest thread
    assert cohort["gen_interpreted_threads"] == 0
    assert cohort["gen_traced_threads"] == 0  # registry already has them
    assert _sans_cohort(report) == _sans_cohort(_run(app, compiled=False))


def test_every_member_validates_under_tight_stride(monkeypatch):
    """Lockstep validation is itself byte-identical: with the sampling
    stride tightened, warm replays shadow the real interpreter and the
    report still matches the interpreted run."""
    monkeypatch.setattr("repro.compile.cohort.VALIDATE_STRIDE", 2)
    for _ in range(3):
        report = _run("sort")
    cohort = report.cohort
    assert cohort["gen_validated_threads"] > 0
    assert cohort["bailouts"] == 0 and cohort["replay_divergences"] == 0
    assert _sans_cohort(report) == _sans_cohort(_run("sort", compiled=False))


# ----------------------------------------------------------------------
# numpy operand tables: optional, never load-bearing
# ----------------------------------------------------------------------
def test_no_numpy_fallback_degrades_not_crashes(monkeypatch):
    monkeypatch.setattr(live, "HAVE_NUMPY", False)
    for _ in range(3):
        report = _run("sort")
    cohort = report.cohort
    assert cohort["numpy"] is False
    assert cohort["occupancy"] == 1.0
    assert _sans_cohort(report) == _sans_cohort(_run("sort", compiled=False))


def test_numpy_and_scalar_tables_agree(monkeypatch):
    """The vectorized admission/param path is an optimisation only:
    with a warm registry, numpy-on and numpy-off runs produce the same
    report and the same tier assignment."""
    for _ in range(3):
        _run("sort")
    vectorized = _run("sort")
    with monkeypatch.context() as mp:
        mp.setattr(live, "HAVE_NUMPY", False)
        scalar = _run("sort")
    dv, ds = report_to_dict(vectorized), report_to_dict(scalar)
    cv, cs = dv.pop("cohort"), ds.pop("cohort")
    assert dv == ds
    assert cv.pop("numpy") is True and cs.pop("numpy") is False
    assert cv == cs


# ----------------------------------------------------------------------
# The cross-run trace registry
# ----------------------------------------------------------------------
def test_registry_dedups_and_clears():
    _run("sort")
    funcs = [(func, n_args, traces)
             for func, per in live._REGISTRY.items()
             for n_args, traces in per.items() if traces]
    assert funcs
    func, n_args, traces = funcs[0]
    before = len(lookup_traces(func, n_args))
    assert register_trace(traces[0]) is False  # identical shape: dropped
    assert len(lookup_traces(func, n_args)) == before
    clear_registry()
    assert lookup_traces(func, n_args) == []


def test_admission_memo_short_circuits_warm_scans():
    # Run 0 records, run 1 replays via the full guard scan (populating
    # the memo), run 2 admits every member off the memo — one trace's
    # guards per member instead of a scan over every registered trace.
    for _ in range(2):
        _run("sort")
    scan = _run("sort").cohort["guards_checked"]
    memo_hit = _run("sort").cohort["guards_checked"]
    assert 0 < memo_hit <= scan
    assert any(live._ADMIT_MEMO.values())
    # Memoized admission must pick exactly what the scan picks.
    for func, per in live._REGISTRY.items():
        for n_args, traces in per.items():
            members = [
                (pe, args) for (pe, args) in live._ADMIT_MEMO.get(func, {})
            ]
            rows = [(pe, 4, args, None) for pe, args in members]
            assigned, _ = live.assign_traces_memo(func, traces, rows)
            assert assigned == live.assign_traces(traces, rows)
    clear_registry()
    assert not live._ADMIT_MEMO


def test_registry_caps_per_key(monkeypatch):
    _run("sort")
    func, per = next(iter(live._REGISTRY.items()))
    n_args, traces = next(iter(per.items()))
    monkeypatch.setattr(live, "MAX_TRACES_PER_KEY", len(traces))
    clone = traces[0]
    # A *different* shape (mutated ops) still bounces off the cap.
    mutated = live.LiveTrace.__new__(live.LiveTrace)
    for slot in live.LiveTrace.__slots__:
        setattr(mutated, slot, getattr(clone, slot))
    mutated.ops = tuple(clone.ops) + (("nop",),)
    assert register_trace(mutated) is False


# ----------------------------------------------------------------------
# Fused effects: one yield for Compute + RemoteRead, same accounting
# ----------------------------------------------------------------------
def _drive(gen, replies):
    """Collect the effect stream of a guest generator, answering each
    suspending effect from ``replies``."""
    from repro.core.effects import FusedRead, FusedReadPair

    effects, send = [], None
    it = iter(replies)
    try:
        while True:
            eff = gen.send(send)
            effects.append(eff)
            send = next(it) if type(eff) in (FusedRead, FusedReadPair) else None
    except StopIteration:
        return effects


class _FakeMem:
    size = 4096
    reads = 0
    writes = 0

    def __init__(self):
        self._words: dict = {}


class _FakeCtx:
    pe = 0
    n_pes = 4

    def __init__(self):
        self.mem = _FakeMem()
        self.state: dict = {}


@pytest.mark.parametrize("source,reply,fused", [
    ("thread f(mate) { var v = rread(mate, 8); mem[0] = v; }", 7, "FusedRead"),
    ("thread f(mate) { var p = rread2(mate, 8, 9); mem[0] = at(p, 0); }",
     (3, 4), "FusedReadPair"),
])
def test_emc_tiers_fuse_reads_identically(source, reply, fused):
    """Both EM-C compile tiers (trace VM and python codegen) emit the
    fused Compute+read effect, and their streams are equal effect for
    effect."""
    from repro.compile.codegen import codegen_thread
    from repro.compile.lower_emc import lower_thread
    from repro.compile.trace import run_trace
    from repro.emc import EmcCosts, compile_program

    compiled = compile_program(source)
    tdef = compiled.ast.threads["f"]
    prog = lower_thread(compiled.ast, tdef, compiled.env, compiled.costs)
    fn = codegen_thread(compiled.ast, tdef, compiled.env, compiled.costs)

    traced = _drive(run_trace(prog, _FakeCtx(), (1,)), [reply])
    coded = _drive(fn(_FakeCtx(), 1), [reply])
    assert [type(e).__name__ for e in traced] == \
           [type(e).__name__ for e in coded]
    assert traced == coded
    assert fused in {type(e).__name__ for e in traced}
    addr = next(e for e in traced if type(e).__name__ == fused)
    assert (addr.addr_a.pe if fused == "FusedReadPair" else addr.addr.pe) == 1


# ----------------------------------------------------------------------
# Observability: Perfetto golden
# ----------------------------------------------------------------------
def _recorded_compiled_run():
    from repro.obs import EventBus, RingRecorder

    bus = EventBus()
    rec = RingRecorder(bus)
    run_bitonic(n_pes=2, n=16, h=2, seed=0, obs=bus,
                config=MachineConfig(compiled=True))
    return rec.events


def test_perfetto_compiled_golden_byte_identical(tmp_path):
    import pathlib

    from repro.obs import write_perfetto

    events = _recorded_compiled_run()
    path = write_perfetto(tmp_path / "out.perfetto.json", events, n_pes=2)
    golden = pathlib.Path(__file__).parent / "goldens" / \
        "sort_p2_n16_h2.compiled.perfetto.json"
    assert path.read_bytes() == golden.read_bytes()
    trace = json.loads(path.read_text())
    assert any(ev.get("cat") == "cohort" for ev in trace["traceEvents"])


# ----------------------------------------------------------------------
# Diagnostics formatting
# ----------------------------------------------------------------------
def test_format_cohort_lists_bail_reasons():
    from repro.metrics.report import format_cohort

    _run("sort")  # ensure a real summary's keys match the formatter
    real = _run("sort").cohort
    text = format_cohort(real)
    assert "cohorts: occupancy" in text

    synthetic = dict(real)
    synthetic.update(record_failures=3,
                     record_failure_reasons={"host-mutation": 2, "other": 1})
    text = format_cohort(synthetic)
    assert "record bails (3): host-mutation x2, other x1" in text


def test_format_cohort_marks_missing_numpy():
    from repro.metrics.report import format_cohort

    cohort = dict(_run("sort").cohort)
    cohort["numpy"] = False
    assert "[no numpy: scalar tables]" in format_cohort(cohort)
