"""Machine-level tests for the cohort manager.

Covers the full contract: byte-identical metrics on compilable
workloads, cohort splitting by branch shape, per-thread (never per-run)
fallback for unrecordable threads, sampled lockstep validation, the
forced mid-run divergence bailout, strict-mode surfacing, and EM-C
front-end tier selection.
"""

from __future__ import annotations

import pytest

import repro
from repro import EMX, MachineConfig
from repro.compile import strict_cohorts
from repro.compile.differential import comparable_compile_report
from repro.errors import CompileDivergence
from repro.obs import Category, EventBus, RingRecorder


def _pingpong_machine(compiled: bool, obs=None, n_pes: int = 4, per_pe: int = 4):
    """A compilable workload: every PE reads a neighbour slot and
    writes the result back locally."""
    m = EMX(MachineConfig(n_pes=n_pes, compiled=compiled), obs)

    @m.thread
    def worker(ctx, peer, slot):
        yield ctx.compute(5)
        value = yield ctx.read(ctx.ga(peer, slot))
        yield ctx.write(ctx.ga(ctx.pe, 16 + slot), value)

    for pe in range(n_pes):
        for slot in range(per_pe):
            m.pes[pe].memory.write(slot, 100 * pe + slot)
            m.spawn(pe, "worker", (pe + 1) % n_pes, slot)
    return m


def test_compiled_run_metric_identical():
    interpreted = _pingpong_machine(False).run()
    compiled = _pingpong_machine(True).run()
    assert comparable_compile_report(interpreted) == comparable_compile_report(
        compiled
    )
    assert interpreted.cohort is None
    summary = compiled.cohort
    assert summary["records"] == 1
    assert summary["gen_compiled_threads"] == 16
    assert summary["gen_interpreted_threads"] == 0
    assert summary["bailouts"] == 0
    assert summary["compiled_effects"] > 0
    assert summary["occupancy"] == 1.0


def test_compiled_memory_state_matches():
    a, b = _pingpong_machine(False), _pingpong_machine(True)
    a.run(), b.run()
    for pe in range(4):
        for slot in range(4):
            assert a.pes[pe].memory.read(16 + slot) == b.pes[pe].memory.read(
                16 + slot
            )


def test_branch_shapes_form_separate_cohorts():
    m = EMX(MachineConfig(n_pes=4, compiled=True))

    @m.thread
    def branchy(ctx, k):
        if ctx.pe == 0:
            yield ctx.compute(10)
        else:
            yield ctx.compute(20)
        yield ctx.compute(k)

    for pe in range(4):
        m.spawn(pe, "branchy", 7)
    report = m.run()
    assert report.cohort["cohorts"] == 2  # pe==0 shape vs the rest
    assert report.cohort["records"] == 2
    assert report.cohort["gen_compiled_threads"] == 4


def test_unrecordable_thread_falls_back_per_thread():
    """ctx.mem users stay interpreted; recording is attempted at most
    twice per shape, and the run still completes correctly."""
    bus = EventBus()
    rec = RingRecorder(bus)
    m = EMX(MachineConfig(n_pes=4, compiled=True), bus)

    @m.thread
    def impure(ctx, slot):
        ctx.mem.write(slot, ctx.mem.read(slot) + 1)
        yield ctx.compute(3)

    for pe in range(4):
        m.pes[pe].memory.write(0, 0)
        m.spawn(pe, "impure", 0)
    report = m.run()
    summary = report.cohort
    assert summary["gen_interpreted_threads"] == 4
    assert summary["gen_compiled_threads"] == 0
    assert summary["record_failures"] == 2  # capped, then straight to interp
    bails = [
        ev
        for ev in rec.events
        if ev.category is Category.COHORT and ev.kind == "record_bail"
    ]
    assert len(bails) == 2
    for pe in range(4):
        assert m.pes[pe].memory.read(0) == 1


def test_validation_sampling(monkeypatch):
    import repro.compile.cohort as cohort_mod

    monkeypatch.setattr(cohort_mod, "VALIDATE_STRIDE", 2)
    m = _pingpong_machine(True)
    report = m.run()
    summary = report.cohort
    # Members at index 1, 3, 5, ... of the 16-member cohort validate.
    assert summary["gen_validated_threads"] == 8
    assert summary["bailouts"] == 0
    assert comparable_compile_report(report) == comparable_compile_report(
        _pingpong_machine(False).run()
    )


def _divergent_machine(compiled: bool, obs=None):
    """Closure-captured mutable state: the second *instantiation* takes
    a different path than the recorded representative, so the first
    validated member must diverge mid-run and bail out."""
    m = EMX(MachineConfig(n_pes=2, compiled=compiled), obs)
    instances = []

    @m.thread
    def shifty(ctx, k):
        # Only the recording pass and validated members actually run
        # this body (fast replay steps the trace), so the second real
        # instantiation is the first lockstep-validated member.
        instances.append(None)
        if len(instances) >= 2:
            yield ctx.compute(99)
        else:
            yield ctx.compute(5)
        yield ctx.compute(k)

    for pe in range(2):
        for _ in range(2):
            m.spawn(pe, "shifty", 1)
    return m


def test_forced_midrun_divergence_bails_per_thread():
    bus = EventBus()
    rec = RingRecorder(bus)
    report = _divergent_machine(True, bus).run()
    summary = report.cohort
    assert summary["bailouts"] >= 1
    bail_events = [
        ev
        for ev in rec.events
        if ev.category is Category.COHORT and ev.kind == "bailout"
    ]
    assert bail_events and bail_events[0].name == "shifty"
    # The bailed member finished on its interpreted twin: the run
    # drained, every thread completed, and the machine reports cleanly.
    assert report.runtime_cycles > 0


def test_forced_midrun_divergence_strict_raises():
    with strict_cohorts():
        m = _divergent_machine(True)
        with pytest.raises(CompileDivergence) as excinfo:
            m.run()
    message = str(excinfo.value)
    assert "diverged at effect" in message
    assert "pe=" in message and "cycle=" in message  # EXU context enrichment


def test_trace_outliving_thread_bails():
    """A validated member whose real generator ends early (impure guest
    shrinking its own trip count) bails instead of fabricating effects."""
    m = EMX(MachineConfig(n_pes=2, compiled=True))
    instances = []

    @m.thread
    def shrinking(ctx, k):
        instances.append(None)
        yield ctx.compute(5)
        if len(instances) < 2:  # representative + member 0 only
            yield ctx.compute(k)

    m.spawn(0, "shrinking", 3)
    m.spawn(1, "shrinking", 3)
    report = m.run()
    assert report.cohort["bailouts"] == 1


def test_emc_front_end_uses_codegen_tier():
    report = repro.run(
        "emc-sort", n=64, n_pes=4, h=2, plan=repro.ExecutionPlan(compiled=True)
    )
    summary = report.cohort
    assert summary["emc_codegen_threads"] > 0
    assert summary["emc_interp_threads"] == 0
    assert summary["occupancy"] == 1.0


def test_emc_compiled_matches_interpreted():
    base = dict(n=64, n_pes=4, h=2)
    interpreted = repro.run("emc-sort", **base)
    compiled = repro.run("emc-sort", plan=repro.ExecutionPlan(compiled=True), **base)
    assert comparable_compile_report(interpreted) == comparable_compile_report(
        compiled
    )


def test_config_compiled_flag_round_trip():
    """compiled=True via config object, repro.run plan, and default
    off all agree on whether the cohort section exists."""
    via_config = repro.run(
        "sort", n=32, n_pes=4, h=1, config=MachineConfig(compiled=True)
    )
    via_kwarg = repro.run(
        "sort", n=32, n_pes=4, h=1, plan=repro.ExecutionPlan(compiled=True)
    )
    off = repro.run("sort", n=32, n_pes=4, h=1)
    assert via_config.cohort is not None
    assert via_kwarg.cohort is not None
    assert off.cohort is None
