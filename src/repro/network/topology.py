"""Circular Omega topology and destination-tag routing.

The EM-X prototype connects 80 EMC-Y processors through a *circular*
Omega network: switch boxes form a ring of perfect-shuffle stages, each
box hosting one processor on the third port pair of its 3×3 crossbar.
A hop applies the shuffle-exchange step

    ``node' = ((node << 1) | b) mod S``

where ``b`` is the next destination-tag bit.  Because the network is
circular, a packet simply keeps hopping until its current box equals the
destination tag — so the hop count between two boxes is the smallest
``k`` with the low ``n−k`` bits of ``src`` equal to the high ``n−k``
bits of ``dst`` (``S = 2ⁿ`` boxes).  Processor counts that are not a
power of two (the prototype's 80) are padded with pure switch boxes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ..errors import RoutingError, SimulationError

if TYPE_CHECKING:
    from ..config import MachineConfig

__all__ = [
    "Hop",
    "CircularOmegaTopology",
    "partition",
    "lookahead",
    "lookahead_matrix",
]


class Hop(NamedTuple):
    """One shuffle-exchange traversal: leave ``node`` on output ``bit``."""

    node: int
    bit: int


def _next_pow2(x: int) -> int:
    p = 1
    while p < x:
        p <<= 1
    return p


class CircularOmegaTopology:
    """Routing arithmetic for ``n_pes`` processors on a shuffle ring."""

    def __init__(self, n_pes: int) -> None:
        if n_pes < 1:
            raise RoutingError(f"need at least one processor, got {n_pes}")
        self.n_pes = n_pes
        #: Number of switch boxes (next power of two ≥ max(n_pes, 2)).
        self.n_switches = _next_pow2(max(n_pes, 2))
        self.tag_bits = self.n_switches.bit_length() - 1
        self._mask = self.n_switches - 1
        # Route memoisation is per-instance; hop math is pure.
        self._route_cached = lru_cache(maxsize=None)(self._route)

    # ------------------------------------------------------------------
    def _check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.n_pes):
            raise RoutingError(f"processor {pe} outside machine of {self.n_pes} PEs")

    def hop_count(self, src: int, dst: int) -> int:
        """Switch hops between the boxes of two processors (0 if same)."""
        self._check_pe(src)
        self._check_pe(dst)
        return len(self._route_cached(src, dst))

    def route(self, src: int, dst: int) -> tuple[Hop, ...]:
        """The hop sequence from ``src``'s box to ``dst``'s box."""
        self._check_pe(src)
        self._check_pe(dst)
        return self._route_cached(src, dst)

    def _route(self, src: int, dst: int) -> tuple[Hop, ...]:
        if src == dst:
            return ()
        n, mask = self.tag_bits, self._mask
        # Smallest k such that the low n-k bits of src equal the high
        # n-k bits of dst: after k shuffles the k freshly chosen tag
        # bits complete the destination address.
        for k in range(1, n + 1):
            keep = n - k
            if (src & ((1 << keep) - 1)) == (dst >> k):
                hops = []
                node = src
                for i in range(k):
                    bit = (dst >> (k - 1 - i)) & 1
                    hops.append(Hop(node, bit))
                    node = ((node << 1) | bit) & mask
                if node != dst:  # pragma: no cover - arithmetic invariant
                    raise RoutingError(f"route {src}->{dst} ended at {node}")
                return tuple(hops)
        raise RoutingError(f"no route {src}->{dst} in {self.n_switches}-box ring")  # pragma: no cover

    # ------------------------------------------------------------------
    def latency_cycles(self, src: int, dst: int) -> int:
        """Uncongested delivery latency: k hops land in k+1 cycles."""
        return self.hop_count(src, dst) + 1

    def mean_hops(self) -> float:
        """Average hop count over all ordered PE pairs (incl. self)."""
        total = sum(
            self.hop_count(s, d) for s in range(self.n_pes) for d in range(self.n_pes)
        )
        return total / (self.n_pes * self.n_pes)

    def min_hops_between(
        self, sources: "range | Sequence[int]", targets: "range | Sequence[int]"
    ) -> int:
        """Smallest hop count from any PE in ``sources`` to any *other*
        PE in ``targets`` (same-PE pairs are excluded — a self-send
        never crosses the network)."""
        best: int | None = None
        for src in sources:
            for dst in targets:
                if src == dst:
                    continue
                hops = self.hop_count(src, dst)
                if best is None or hops < best:
                    best = hops
                    if best == 1:
                        return best  # ring minimum for distinct boxes
        if best is None:
            raise RoutingError(
                f"no cross pair between PE groups {sources!r} and {targets!r}"
            )
        return best

    def graph(self):  # pragma: no cover - optional convenience
        """The switch digraph as a ``networkx.DiGraph`` (edges carry ``bit``)."""
        import networkx as nx

        g = nx.DiGraph()
        for node in range(self.n_switches):
            for bit in (0, 1):
                g.add_edge(node, ((node << 1) | bit) & self._mask, bit=bit)
        return g


# ----------------------------------------------------------------------
# Delivery-latency lower bounds
# ----------------------------------------------------------------------
# Both network models deliver a k-hop packet no earlier than
# ``inject + k + eject`` cycles: injection reaches the first switch in
# the same cycle, each later hop costs one cut-through cycle, ejection
# costs ``timing.eject``, and contention only ever delays.  The bounds
# below are pure functions of that arithmetic and the topology; the
# conflict-free probes in the test suite show they are tight.
def partition(n_pes: int, count: int) -> tuple[tuple[int, int], ...]:
    """Contiguous, near-equal ``(lo, hi)`` PE ranges, ``count`` of them.

    When ``count`` does not divide ``n_pes`` the remainder spreads one
    extra PE over the trailing groups (``(n_pes * i) // count`` bounds),
    so sizes differ by at most one and the ranges always tile
    ``[0, n_pes)`` exactly.
    """
    if count < 1:
        raise SimulationError(f"group count must be at least 1, got {count}")
    if count > n_pes:
        raise SimulationError(
            f"cannot split {n_pes} PEs into {count} groups: "
            "each group needs at least one PE"
        )
    return tuple(
        ((n_pes * i) // count, (n_pes * (i + 1)) // count) for i in range(count)
    )


def lookahead(config: "MachineConfig") -> int:
    """Minimum src≠dst injection-to-delivery latency, in cycles.

    Self-sends (src == dst, latency ``eject``) never cross the network
    and are exempt; a one-PE machine, having no distinct pair, gets the
    floor ``eject + 1``.
    """
    if config.n_pes < 2:
        return config.timing.eject + 1
    topo = CircularOmegaTopology(config.n_pes)
    pes = range(config.n_pes)
    return topo.min_hops_between(pes, pes) + config.timing.eject


def lookahead_matrix(
    config: "MachineConfig", bounds: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], ...]:
    """Per-group-pair delivery-latency lower bounds, in cycles.

    ``bounds`` are contiguous PE ranges (see :func:`partition`).  Entry
    ``[i][j]`` is the minimum over all ``src`` in group *i*, ``dst`` in
    group *j*, ``src != dst`` of ``hop_count(src, dst) + eject``, so
    every entry is a true lower bound on that pair's delivery latency
    and is ``>=`` the scalar :func:`lookahead` (which is exactly the
    off-diagonal minimum when there are two or more groups).  A
    single-PE group has no distinct pair with itself and gets the floor
    ``eject + 1`` on the diagonal.
    """
    eject = config.timing.eject
    count = len(bounds)
    if config.n_pes < 2:
        return tuple((eject + 1,) * count for _ in range(count))
    topo = CircularOmegaTopology(config.n_pes)
    rows = []
    for slo, shi in bounds:
        row = []
        for dlo, dhi in bounds:
            if slo == dlo and shi - slo == 1:
                row.append(eject + 1)
            else:
                row.append(topo.min_hops_between(range(slo, shi), range(dlo, dhi)) + eject)
        rows.append(tuple(row))
    return tuple(rows)
