"""Off-default goldens: the configuration branches the default goldens miss.

``golden_runs.json`` pins the default machine only.  This module pins, at
P=4, the digest of the whole :func:`report_to_dict` of runs under each
non-default branch of the packet round trip:

* ``em4``      — EM-4 mode: the EXU, not the by-passing DMA, serves reads;
* ``em4prio``  — EM-4 mode with ``priority_replies`` on (EM-4 replies stay
  NORMAL priority, so only the config section differs from ``em4``);
* ``prio``     — DMA replies go to the high-priority FIFO;
* ``analytic`` — the endpoint-only network model;
* ``obs``      — an event recorder attached (the recorded stream is
  pinned too).

Apps: ``sort`` (single-word reads, token and barrier sync), ``sortblock``
(sort with block reads), ``fft`` (pair reads through the matching store)
and ``transpose``.  Regenerate only after an intentional model change::

    PYTHONPATH=src python tests/test_offdefault_goldens.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro import MachineConfig
from repro.api import get_app, result_ok
from repro.metrics.serialize import report_to_dict
from repro.obs import EventBus, RingRecorder

GOLDEN_FILE = pathlib.Path(__file__).parent / "goldens" / "offdefault_runs.json"

#: name -> (registered app, extra app keywords)
APPS = {
    "sort": ("sort", {}),
    "sortblock": ("sort", {"block_reads": True}),
    "fft": ("fft", {}),
    "transpose": ("transpose", {}),
}
#: name -> (MachineConfig overrides, attach a recorder)
MODES = {
    "em4": ({"em4_mode": True}, False),
    "em4prio": ({"em4_mode": True, "priority_replies": True}, False),
    "prio": ({"priority_replies": True}, False),
    "analytic": ({"network_model": "analytic"}, False),
    "obs": ({}, True),
}
N_PES, NPP, H, SEED = 4, 16, 4, 0


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_case(app: str, mode: str) -> tuple[dict, list | None]:
    """One off-default run: its serialised report and recorded events."""
    name, kwargs = APPS[app]
    overrides, observed = MODES[mode]
    bus = EventBus() if observed else None
    rec = RingRecorder(bus) if observed else None
    result = get_app(name)(
        n_pes=N_PES, n=N_PES * NPP, h=H, seed=SEED,
        config=MachineConfig(**overrides), obs=bus, **kwargs,
    )
    assert result_ok(result), f"{app}/{mode} produced a wrong answer"
    events = None if rec is None else _canonical_events(rec.events)
    return report_to_dict(result.report), events


def _canonical_events(events) -> list:
    """Recorded events as field rows, process-wide ids renumbered from 0.

    Packet ``seq`` and ``barrier_id`` come from process-wide counters, so
    their values depend on what ran earlier in the process; their
    first-seen order does not.
    """
    renumber: dict[str, dict[int, int]] = {"seq": {}, "barrier_id": {}}
    out = []
    for ev in events:
        row = [type(ev).__name__]
        for f in dataclasses.fields(ev):
            value = getattr(ev, f.name)
            ids = renumber.get(f.name)
            if ids is not None:
                value = ids.setdefault(value, len(ids))
            row.append(repr(value))
        out.append(row)
    return out


def make_offdefault_goldens() -> dict[str, str]:
    out = {}
    for app in APPS:
        for mode in MODES:
            report, events = run_case(app, mode)
            out[f"{app}/{mode}"] = _digest(report)
            if events is not None:
                out[f"{app}/{mode}/events"] = _digest(events)
    return out


CASES = [(app, mode) for app in APPS for mode in MODES]


@pytest.mark.parametrize("app,mode", CASES, ids=[f"{a}-{m}" for a, m in CASES])
def test_offdefault_run_matches_golden(app, mode):
    stored = json.loads(GOLDEN_FILE.read_text())
    report, events = run_case(app, mode)
    assert _digest(report) == stored[f"{app}/{mode}"]
    if events is not None:
        assert _digest(events) == stored[f"{app}/{mode}/events"]


def test_golden_file_covers_every_case():
    stored = json.loads(GOLDEN_FILE.read_text())
    expected = {f"{a}/{m}" for a, m in CASES} | {f"{a}/obs/events" for a in APPS}
    assert set(stored) == expected


@pytest.mark.parametrize("app", ["sort", "fft"])
def test_em4_replies_ignore_priority_replies(app):
    plain, _ = run_case(app, "em4")
    prio, _ = run_case(app, "em4prio")
    assert plain.pop("config") != prio.pop("config")
    assert plain == prio


def test_priority_replies_change_the_default_run():
    # Guards the ``prio`` goldens against pinning a no-op: at this size
    # high-priority DMA replies overtake queued packets.
    prio, _ = run_case("sort", "prio")
    default = get_app("sort")(n_pes=N_PES, n=N_PES * NPP, h=H, seed=SEED)
    assert prio["runtime_cycles"] != default.report.runtime_cycles


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_FILE.write_text(json.dumps(make_offdefault_goldens(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
