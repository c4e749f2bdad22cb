"""Output checking: recorded digests, cross-pass identity, exact counts.

Every operation of every pass is compared with the digest recorded in
``digests.json`` for the run's seed.  For a seed with no recording, the
first pass of the run is the reference, so a run still fails when any two
of its passes disagree; the apps' own verification (``sorted_ok`` /
``verified``, checked inside ``repro.run`` and the runner) covers the
answer itself.
"""

from __future__ import annotations

import json
import pathlib

__all__ = ["DIGEST_FILE", "RECORDED_SEEDS", "check_outputs", "count_mismatches", "expected_for"]

DIGEST_FILE = pathlib.Path(__file__).with_name("digests.json")
#: The default app seed and one held-out seed.
RECORDED_SEEDS = (0, 7)


def expected_for(workload: str, seed: int) -> dict | None:
    """Recorded ``{operation: digest}`` for ``workload`` at ``seed``, if any."""
    recorded = json.loads(DIGEST_FILE.read_text())
    return recorded.get(workload, {}).get(str(seed))


def check_outputs(passes, expected: dict | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every operation of ``passes``.

    An operation fails if it raised or failed a pass-level check, if its
    digest differs from the reference, or if the reference lacks it.
    """
    reference = expected if expected is not None else dict(passes[0].outputs)
    attempted = failed = 0
    reasons: list[str] = []
    for index, p in enumerate(passes):
        for op in sorted(set(reference) | set(p.outputs) | set(p.errors)):
            attempted += 1
            if op in p.errors:
                why = p.errors[op]
            elif op not in p.outputs:
                why = "missing"
            elif op not in reference:
                why = "not in the recorded outputs"
            elif p.outputs[op] != reference[op]:
                why = f"digest {p.outputs[op]} != recorded {reference[op]}"
            else:
                continue
            failed += 1
            reasons.append(f"pass {index}: {op}: {why}")
    return attempted, failed, reasons


def count_mismatches(passes) -> list[str]:
    """Counts that differ between passes (they must repeat exactly)."""
    first = passes[0].counts
    return [
        f"pass {i}: {key} = {p.counts[key]} != {first[key]}"
        for i, p in enumerate(passes[1:], 1)
        for key in first
        if p.counts[key] != first[key]
    ]
