"""One front door to the paper's workloads.

Every workload (`repro.apps`) registers itself in :data:`APPS` under its
CLI name via :func:`register_app`; :func:`run` is the single public
entry point that looks the app up, runs it with the unified keyword-only
signature, checks verification, and returns the
:class:`~repro.machine.MachineReport`::

    import repro

    report = repro.run("sort", n=1024, n_pes=16, h=4)
    print(report.runtime_cycles)

The CLI (``python -m repro``) and the experiment runner dispatch through
the same registry, so adding a workload is one ``@register_app("name")``
decorator — not parallel edits to three hand-maintained dicts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from .errors import PlanCompatibilityWarning, PlanError, ProgramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import MachineReport

__all__ = [
    "APPS",
    "ExecutionPlan",
    "register_app",
    "get_app",
    "app_names",
    "result_ok",
    "call_with_plan",
    "run",
    "connect",
]

#: Registry of runnable workloads, keyed by CLI name (and aliases).
#: Populated as a side effect of importing :mod:`repro.apps`; use
#: :func:`get_app`/:func:`app_names` to read it with loading handled.
APPS: dict[str, Callable[..., Any]] = {}


def register_app(name: str, *aliases: str) -> Callable:
    """Register a workload entry point under ``name`` (plus aliases).

    The decorated function must take keyword-only arguments including at
    least ``n_pes``, ``n``, ``h``, ``config`` and ``obs``, and return a
    result object exposing ``.report`` (a MachineReport) and a
    verification flag (``sorted_ok`` or ``verified``).  The function is
    registered as is, so a positional call raises ``TypeError``.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        fn.app_names = (name, *aliases)  # type: ignore[attr-defined]
        for key in (name, *aliases):
            if key in APPS:
                raise ProgramError(f"app name {key!r} registered twice")
            APPS[key] = fn
        return fn

    return decorate


def _load_apps() -> None:
    """Make sure the registry is populated (idempotent)."""
    from . import apps  # noqa: F401  (import side effect: decorators run)


def get_app(name: str) -> Callable[..., Any]:
    """The registered entry point for ``name``; raises ProgramError."""
    _load_apps()
    try:
        return APPS[name]
    except KeyError:
        raise ProgramError(
            f"unknown app {name!r}; registered apps: {', '.join(app_names())}"
        ) from None


def app_names() -> tuple[str, ...]:
    """All registered app names (sorted, aliases included)."""
    _load_apps()
    return tuple(sorted(APPS))


def result_ok(result: Any) -> bool:
    """Did an app result pass its self-verification?

    Apps flag verification as ``sorted_ok`` (the sorters) or
    ``verified`` (FFT); results with neither are treated as passing.
    """
    ok = getattr(result, "sorted_ok", None)
    if ok is None:
        ok = getattr(result, "verified", True)
    return bool(ok)


@dataclass(frozen=True)
class ExecutionPlan:
    """How to execute a workload::

        report = repro.run("emc-sort", n=1024, n_pes=16, h=4,
                           plan=repro.ExecutionPlan(compiled=True))

    * ``compiled`` — route thread creation through the cohort compiler
      (:mod:`repro.compile`); metrics are byte-identical to the
      interpreter.

    Every plan runs the one reference engine: the detailed sequential
    simulator.  The class is frozen (hashable, safe as a cache-key
    ingredient); :meth:`validate` checks it and :meth:`parse` turns the
    CLI's ``--plan compiled`` spelling into a plan.
    """

    compiled: bool = False

    def validate(self) -> "ExecutionPlan":
        """Check the plan; returns ``self`` so call sites can chain.

        A malformed plan raises :class:`~repro.errors.PlanError`.  Strict
        cohort validation (:func:`repro.compile.strict_cohorts`) active
        without ``compiled=True`` has nothing to validate, which emits a
        :class:`~repro.errors.PlanCompatibilityWarning`.
        """
        if type(self.compiled) is not bool:
            raise PlanError(f"compiled must be a bool, got {self.compiled!r}")
        if not self.compiled:
            # strict_cohorts() can only be active if its module is
            # already imported; don't pull the compiler in just to ask.
            import sys

            cohort = sys.modules.get("repro.compile.cohort")
            if cohort is not None and cohort.strict_default():
                warnings.warn(
                    "strict_cohorts() is active but the plan has compiled=False: "
                    "no cohort traces will be validated",
                    PlanCompatibilityWarning,
                    stacklevel=2,
                )
        return self

    @classmethod
    def parse(cls, text: str) -> "ExecutionPlan":
        """Build a plan from the CLI spelling ``key[=value][,...]``.

        The one key is ``compiled``, as a bare flag or with a boolean
        literal: ``"compiled"``, ``"compiled=false"``.  An empty string
        is the default plan.
        """
        values: dict[str, Any] = {}
        for token in filter(None, (t.strip() for t in text.split(","))):
            key, sep, raw = token.partition("=")
            if not sep and key != "compiled":
                raise PlanError(f"malformed plan token {token!r}; expected key=value")
            if key != "compiled":
                raise PlanError(f"unknown plan key {key!r}; expected compiled")
            if not sep:
                raw = "true"
            if raw.lower() not in ("true", "false", "1", "0"):
                raise PlanError(f"compiled must be a boolean, got {raw!r}")
            values[key] = raw.lower() in ("true", "1")
        return cls(**values).validate()

    def describe(self) -> str:
        """The canonical compact spelling (parseable by :meth:`parse`)."""
        return "compiled" if self.compiled else ""


def call_with_plan(fn: Callable[..., Any], kwargs: dict, plan: ExecutionPlan) -> Any:
    """Run ``fn(**kwargs)`` under ``plan`` — the single dispatch funnel.

    Every entry point (:func:`run`, the CLI, the runner's
    :func:`~repro.runner.worker.execute_job`) lands here.  ``kwargs`` is
    the app's keyword dict (``config``/``obs`` included).  A plan with
    ``compiled=True`` sets ``config.compiled``; a default plan leaves
    the config as given, so a config built with ``compiled=True`` keeps
    meaning what it always did.
    """
    plan.validate()
    config = kwargs.get("config")
    if plan.compiled and (config is None or not config.compiled):
        from .config import MachineConfig

        config = (
            MachineConfig(compiled=True)
            if config is None
            else replace(config, compiled=True)
        )
        kwargs = {**kwargs, "config": config}
    return fn(**kwargs)


def run(
    app: str,
    *,
    n: int,
    n_pes: int,
    h: int,
    config: Any = None,
    obs: Any = None,
    plan: ExecutionPlan | None = None,
    **app_kwargs: Any,
) -> "MachineReport":
    """Run one workload and return its :class:`~repro.machine.MachineReport`.

    ``app`` is a registry name (see :func:`app_names`); ``n`` the problem
    size, ``n_pes`` the processor count, ``h`` the threads per processor.
    Execution strategy comes in as ``plan=ExecutionPlan(...)`` — see
    :class:`ExecutionPlan`.  Extra keywords are forwarded to the app
    (e.g. ``seed=``, ``verify=``, ``kernel=``).  Raises
    :class:`~repro.errors.ProgramError` for unknown apps or when the run
    fails its self-verification.
    """
    fn = get_app(app)
    kwargs = dict(n_pes=n_pes, n=n, h=h, config=config, obs=obs, **app_kwargs)
    result = call_with_plan(fn, kwargs, plan or ExecutionPlan())
    if not result_ok(result):
        raise ProgramError(f"app {app!r} (n={n}, n_pes={n_pes}, h={h}) failed verification")
    return result.report


def connect(url: str = "http://127.0.0.1:8737", **client_kwargs: Any):
    """A :class:`~repro.service.client.SweepClient` for a running sweep
    service (``repro serve``) — the remote counterpart of :func:`run`::

        client = repro.connect("http://127.0.0.1:8737")
        summary = client.submit(expand_sweep("sort", 8, 64, [1, 2, 4]))

    Submissions are content-keyed, deduplicated against other clients'
    in-flight work on the server, and answered from its shared result
    cache when warm.  Keyword arguments (``retries``, ``backoff_s``,
    ``timeout_s``) configure the client's retry policy.
    """
    from .service import SweepClient

    return SweepClient(url, **client_kwargs)
