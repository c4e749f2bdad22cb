"""Per-group delivery-latency bounds: the lookahead matrix.

:func:`repro.network.topology.lookahead_matrix` gives, for contiguous
PE groups, the minimum delivery latency between every ordered pair of
groups.  It must be a *true lower bound* on what the reference networks
actually deliver, every off-diagonal entry must dominate the scalar
:func:`repro.network.topology.lookahead`, and the scalar bound is
exactly the matrix minimum.  The serialised report of a reference run
carries no window accounting.
"""

from __future__ import annotations

import pytest

import repro
from repro import MachineConfig
from repro.metrics.serialize import report_to_dict
from repro.network import build_network
from repro.network.topology import lookahead, lookahead_matrix, partition
from repro.packet import Packet, PacketKind
from repro.sim import Engine


# ----------------------------------------------------------------------
# The lookahead matrix: dominance over the scalar bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_pes", [4, 10, 16, 64])
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_matrix_dominates_scalar_lookahead(n_pes, shards):
    config = MachineConfig(n_pes=n_pes)
    bounds = partition(n_pes, shards)
    matrix = lookahead_matrix(config, bounds)
    scalar = lookahead(config)
    off_diag = [
        matrix[i][j] for i in range(shards) for j in range(shards) if i != j
    ]
    assert all(entry >= scalar for entry in off_diag)
    # ... and the scalar bound is exactly the matrix minimum.
    assert min(off_diag) == scalar


def test_matrix_is_symmetric_in_shape_and_positive():
    config = MachineConfig(n_pes=16)
    bounds = partition(16, 4)
    matrix = lookahead_matrix(config, bounds)
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    assert all(entry >= 1 for row in matrix for entry in row)


# ----------------------------------------------------------------------
# The lookahead matrix: a true lower bound on per-pair delivery latency
# ----------------------------------------------------------------------
def _probe_pair_latencies(n_pes, model):
    """Delivery latency of every ordered PE pair, one packet in flight
    at a time (1000-cycle spacing keeps every port idle)."""
    config = MachineConfig(n_pes=n_pes, network_model=model)
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
@pytest.mark.parametrize("n_pes,shards", [(8, 2), (16, 4), (10, 3)])
def test_matrix_is_a_true_lower_bound_per_shard_pair(model, n_pes, shards):
    """matrix[i][j] never exceeds the best latency any (src in i,
    dst in j) pair actually achieves."""
    config = MachineConfig(n_pes=n_pes, network_model=model)
    bounds = partition(n_pes, shards)
    matrix = lookahead_matrix(config, bounds)
    latencies = _probe_pair_latencies(n_pes, model)

    def shard_of(pe):
        return next(i for i, (lo, hi) in enumerate(bounds) if lo <= pe < hi)

    best = {}
    for (src, dst), lat in latencies.items():
        key = (shard_of(src), shard_of(dst))
        best[key] = min(best.get(key, lat), lat)
    for (i, j), lat in best.items():
        assert matrix[i][j] <= lat, (i, j, matrix[i][j], lat)
    # Tight somewhere: at least one cross-group pair achieves its bound
    # exactly, so no larger matrix would still be a lower bound.
    cross = [(i, j) for (i, j) in best if i != j]
    assert any(matrix[i][j] == best[(i, j)] for i, j in cross)


# ----------------------------------------------------------------------
# Reports: no window accounting
# ----------------------------------------------------------------------
def test_sequential_runs_have_no_windows_section():
    report = repro.run("sort", n=128, n_pes=8, h=2)
    assert not hasattr(report, "windows")
    assert "windows" not in report_to_dict(report)
