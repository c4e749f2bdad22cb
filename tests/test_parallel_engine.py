"""Engine-wide run properties of the reference simulator.

The sharded engine this module was written for is gone; what it leaned
on stays and is still checked here, against the one reference engine:

* every src≠dst packet takes at least ``hop_count + eject`` cycles in
  *both* network models, the bound is tight, and it follows the timing
  model; the two models agree exactly on conflict-free traffic;
* a run with no network traffic terminates, and a guest error fails
  the whole run loudly;
* ``execute_job`` records wall time and RSS on a side channel that never
  leaks into the record.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import EMX, MachineConfig
from repro.config import TimingModel
from repro.network import build_network
from repro.network.topology import CircularOmegaTopology
from repro.packet import Packet, PacketKind
from repro.sim import Engine


# ----------------------------------------------------------------------
# Lookahead: hop_count + eject is a true delivery-latency lower bound
# ----------------------------------------------------------------------
def _probe_latencies(n_pes, model, timing=None):
    """Per-packet delivery latency of every ordered pair, one packet in
    flight at a time (1000-cycle spacing leaves every port idle)."""
    config = MachineConfig(
        n_pes=n_pes, network_model=model, timing=timing or TimingModel()
    )
    engine = Engine()
    net = build_network(engine, config)
    latencies = {}
    sent_at = {}

    def sink_for(dst):
        def sink(pkt):
            latencies[(pkt.src, pkt.dst)] = engine.now - sent_at[(pkt.src, pkt.dst)]

        return sink

    for pe in range(n_pes):
        net.attach(pe, sink_for(pe))
    pairs = [(s, d) for s in range(n_pes) for d in range(n_pes) if s != d]
    for i, (src, dst) in enumerate(pairs):
        when = i * 1000
        sent_at[(src, dst)] = when
        pkt = Packet(kind=PacketKind.READ_REQ, src=src, dst=dst, data=None)
        engine.schedule_at(when, net.send, pkt)
    engine.run()
    assert len(latencies) == len(pairs)
    return latencies


@pytest.mark.parametrize("model", ["detailed", "analytic"])
@pytest.mark.parametrize("n_pes", [2, 16, 64])
def test_lookahead_is_a_true_lower_bound(model, n_pes):
    eject = MachineConfig(n_pes=n_pes).timing.eject
    topo = CircularOmegaTopology(n_pes)
    latencies = _probe_latencies(n_pes, model)
    for (src, dst), latency in latencies.items():
        assert latency >= topo.hop_count(src, dst) + eject
    # ... and tight: the closest pair lands in exactly one hop + eject.
    assert min(latencies.values()) == 1 + eject


def test_lookahead_tracks_timing_model():
    fast_eject = TimingModel().eject
    slow = _probe_latencies(16, "detailed", TimingModel(eject=7))
    fast = _probe_latencies(16, "detailed")
    assert min(slow.values()) - min(fast.values()) == 7 - fast_eject
    assert all(slow[pair] - fast[pair] == 7 - fast_eject for pair in fast)


# ----------------------------------------------------------------------
# Differential: analytic vs detailed agree on conflict-free traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_pes", [2, 16, 64])
def test_models_agree_on_conflict_free_traffic(n_pes):
    detailed = _probe_latencies(n_pes, "detailed")
    analytic = _probe_latencies(n_pes, "analytic")
    assert detailed == analytic


# ----------------------------------------------------------------------
# Runs without network traffic terminate
# ----------------------------------------------------------------------
def _compute_only_app(*, n_pes, n, h, config=None, obs=None, seed=0):
    """An app whose threads never touch the network."""
    machine = EMX(config or MachineConfig(n_pes=n_pes), obs=obs)

    @machine.thread
    def spin(ctx):
        yield ctx.compute(25)
        yield ctx.compute(25)

    for pe in range(n_pes):
        for _ in range(h):
            machine.spawn(pe, "spin")
    report = machine.run()
    return SimpleNamespace(report=report, verified=True)


@pytest.mark.parametrize("n_pes", [1, 2, 4])
def test_empty_window_exchange_terminates(n_pes):
    report = _compute_only_app(n_pes=n_pes, n=n_pes, h=2).report
    assert report.network.packets == 0
    assert report.runtime_cycles > 0
    assert sum(c.threads_started for c in report.counters) == 2 * n_pes


# ----------------------------------------------------------------------
# Failure policy: deterministic errors propagate, loudly
# ----------------------------------------------------------------------
def _failing_app(*, n_pes, n, h, config=None, obs=None, seed=0):
    machine = EMX(config or MachineConfig(n_pes=n_pes), obs=obs)

    @machine.thread
    def boom(ctx):
        yield ctx.compute(5)
        raise ValueError("guest bug")

    machine.spawn(n_pes - 1, "boom")  # lands on the last PE
    report = machine.run()
    return SimpleNamespace(report=report, verified=True)


@pytest.mark.parametrize("n_pes", [1, 2])
def test_guest_errors_fail_the_whole_run(n_pes):
    with pytest.raises(Exception):
        _failing_app(n_pes=n_pes, n=n_pes, h=1)


# ----------------------------------------------------------------------
# Runner: the exec side channel
# ----------------------------------------------------------------------
def test_execute_job_records_wall_time_and_rss(tmp_path):
    from repro.runner import JobSpec, ResultCache
    from repro.runner.worker import execute_job

    spec = JobSpec(app="sort", n_pes=4, npp=8, h=2)
    record = execute_job(spec)
    exec_info = getattr(record, "_exec")
    assert exec_info["wall_seconds"] > 0
    assert exec_info["max_rss_kb"] is None or exec_info["max_rss_kb"] > 0
    cache = ResultCache(str(tmp_path))
    cache.put(spec, record)
    stats = cache.stats()
    assert stats.timed_entries == 1
    assert stats.wall_seconds > 0
    assert "timed entries" in stats.describe()
    # The side channel never leaks into record equality or serialisation.
    from repro.metrics.serialize import run_record_to_dict

    assert "_exec" not in run_record_to_dict(record)
    assert cache.get(spec) == record
