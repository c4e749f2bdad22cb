"""ExecutionPlan: the one execution-strategy knob.

Covers the frozen dataclass itself (parse/describe/validate), the
``plan=`` plumbing through ``repro.run``, the runner options and the
CLI, and the removal of every other mode: there is one reference
engine, so ``compiled`` is the plan's only field and the old
``shards``/``fidelity`` spellings are rejected loudly.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

import repro
from repro import ExecutionPlan, MachineConfig
from repro.errors import PlanCompatibilityWarning, PlanError
from repro.metrics.serialize import report_to_dict


# ----------------------------------------------------------------------
# The dataclass: parse, describe, validate
# ----------------------------------------------------------------------
def test_default_plan_is_sequential_detailed_interpreted():
    plan = ExecutionPlan()
    assert [f.name for f in dataclasses.fields(plan)] == ["compiled"]
    assert plan.compiled is False
    assert plan.validate() is plan


def test_plan_is_frozen_and_hashable():
    plan = ExecutionPlan(compiled=True)
    with pytest.raises(Exception):
        plan.compiled = False  # type: ignore[misc]
    assert hash(plan) == hash(ExecutionPlan(compiled=True))
    assert plan != ExecutionPlan()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", ExecutionPlan()),
        ("compiled", ExecutionPlan(compiled=True)),
        ("compiled=true", ExecutionPlan(compiled=True)),
        ("compiled=false", ExecutionPlan()),
    ],
)
def test_parse_accepts_cli_spellings(text, expected):
    assert ExecutionPlan.parse(text) == expected


@pytest.mark.parametrize(
    "text,match",
    [
        ("turbo", "malformed plan token"),
        ("speed=11", "unknown plan key"),
        ("compiled=maybe", "compiled must be a boolean"),
        ("shards=2", "unknown plan key"),
        ("fidelity=hybrid", "unknown plan key"),
    ],
)
def test_parse_rejects_malformed_plans(text, match):
    with pytest.raises(PlanError, match=match):
        ExecutionPlan.parse(text)


@pytest.mark.parametrize("plan", [ExecutionPlan(), ExecutionPlan(compiled=True)])
def test_describe_parse_round_trip(plan):
    assert ExecutionPlan.parse(plan.describe()) == plan


def test_validate_rejects_bad_field_types():
    with pytest.raises(PlanError, match="compiled must be a bool"):
        ExecutionPlan(compiled="yes").validate()  # type: ignore[arg-type]


def test_removed_modes_are_not_fields():
    from repro.runner import JobSpec, RunnerOptions

    for cls in (ExecutionPlan, JobSpec, RunnerOptions, MachineConfig):
        names = {f.name for f in dataclasses.fields(cls)}
        assert not names & {"shards", "fidelity"}, cls
    with pytest.raises(TypeError):
        ExecutionPlan(shards=2)  # type: ignore[call-arg]


# ----------------------------------------------------------------------
# Mode-combination warning
# ----------------------------------------------------------------------
def test_plan_warning_is_a_runtime_warning():
    # Callers filtering on the historical RuntimeWarning still match.
    from repro.compile import strict_cohorts

    with strict_cohorts():
        with pytest.warns(RuntimeWarning):
            ExecutionPlan().validate()


def test_strict_cohorts_without_compiled_warns():
    from repro.compile import strict_cohorts

    with strict_cohorts():
        with pytest.warns(PlanCompatibilityWarning, match="compiled=False"):
            ExecutionPlan().validate()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExecutionPlan(compiled=True).validate()  # no warning


# ----------------------------------------------------------------------
# repro.run(plan=)
# ----------------------------------------------------------------------
def test_run_plan_compiled_matches_legacy_compiled_keyword():
    """plan=ExecutionPlan(compiled=True) and the older spelling,
    MachineConfig(compiled=True), are the same run."""
    from repro.compile.live import clear_registry

    planned = repro.run("sort", n=32, n_pes=4, h=1, plan=ExecutionPlan(compiled=True))
    # Cold-start the second run too: the live-trace registry is warm
    # after the first, which would change the (diagnostic) cohort
    # section this test compares in full.
    clear_registry()
    configured = repro.run(
        "sort", n=32, n_pes=4, h=1, config=MachineConfig(n_pes=4, compiled=True)
    )
    assert planned.cohort is not None
    assert report_to_dict(planned) == report_to_dict(configured)


def test_run_rejects_plan_plus_legacy_keywords():
    # The shards=/fidelity=/compiled= keywords are gone: passing one,
    # with or without a plan, is a TypeError, never a silent default.
    for keyword in ("shards", "fidelity", "compiled"):
        with pytest.raises(TypeError):
            repro.run("sort", n=32, n_pes=4, h=1, **{keyword: 2})
        with pytest.raises(TypeError):
            repro.run(
                "sort", n=32, n_pes=4, h=1,
                plan=ExecutionPlan(compiled=True), **{keyword: 2},
            )


# ----------------------------------------------------------------------
# JobSpec and RunnerOptions integration
# ----------------------------------------------------------------------
def test_jobspec_plan_is_the_same_spec_as_legacy_fields():
    from repro.runner import JobSpec

    planned = JobSpec(
        app="sort", n_pes=8, npp=16, h=2, plan=ExecutionPlan(compiled=True)
    )
    legacy = JobSpec(app="sort", n_pes=8, npp=16, h=2, compiled=True)
    assert planned == legacy
    assert planned.key() == legacy.key()
    assert planned.describe() == legacy.describe()
    assert planned.execution_plan == ExecutionPlan(compiled=True)


def test_jobspec_rejects_plan_plus_legacy_fields():
    from repro.runner import JobSpec

    with pytest.raises(PlanError, match="not both"):
        JobSpec(app="sort", n_pes=8, npp=16, h=2, compiled=True,
                plan=ExecutionPlan(compiled=True))
    with pytest.raises(TypeError):
        JobSpec(app="sort", n_pes=8, npp=16, h=2, shards=2,  # type: ignore[call-arg]
                plan=ExecutionPlan(compiled=True))


def test_jobspec_replace_does_not_resurrect_the_plan():
    from dataclasses import replace

    from repro.runner import JobSpec

    spec = JobSpec(app="sort", n_pes=8, npp=16, h=2, plan=ExecutionPlan(compiled=True))
    bumped = replace(spec, h=4)
    assert bumped.compiled is True and bumped.h == 4
    assert replace(spec, compiled=False).compiled is False


def test_runner_using_accepts_plan(tmp_path):
    from repro.runner import using
    from repro.runner.sweep import get_options

    with using(cache_dir=str(tmp_path), plan=ExecutionPlan(compiled=True)):
        assert get_options().plan == ExecutionPlan(compiled=True)
    assert get_options().plan == ExecutionPlan()


def test_runner_rejects_mode_fields(tmp_path):
    from repro.runner import using

    for keyword in ("shards", "fidelity", "compiled"):
        with pytest.raises(TypeError):
            with using(cache_dir=str(tmp_path), **{keyword: 2}):
                pass


# ----------------------------------------------------------------------
# CLI: --plan is the one spelling
# ----------------------------------------------------------------------
def test_cli_compiled_plan_prints_cohort_diagnostics(capsys):
    from repro.__main__ import main

    main(["sort", "--pes", "4", "--size", "16", "--threads", "2",
          "--plan", "compiled"])
    out = capsys.readouterr().out
    assert "OK" in out
    assert "cohorts: occupancy" in out
    assert "live_traces=" in out


def test_cli_rejects_removed_plan_keys():
    from repro.__main__ import main

    with pytest.raises(PlanError, match="unknown plan key 'shards'"):
        main(["sort", "--pes", "8", "--size", "64", "--threads", "1",
              "--plan", "shards=2"])


def test_cli_plan_conflicts_with_legacy_flags(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["sort", "--pes", "4", "--size", "16", "--threads", "1",
              "--plan", "compiled", "--compiled"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --compiled" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--shards", "2"], ["--fidelity", "hybrid"], ["--compiled"]])
def test_cli_removed_flags_are_usage_errors(flag, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["sort", "--pes", "4", "--size", "16", "--threads", "1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_help_advertises_plan():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["sort", "--help"])
