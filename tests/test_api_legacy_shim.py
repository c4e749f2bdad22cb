"""No legacy shim: every registered app is its own entry point.

``register_app`` once wrapped each app in a shim that mapped positional
``(n_pes, n, h)`` calls onto keywords with a DeprecationWarning.  The
shim is gone: the registry holds the decorated function itself, and a
positional call fails with ``TypeError`` before anything runs.
"""

from __future__ import annotations

import pytest

from repro.api import app_names, get_app


def test_shim_applies_to_every_registered_app():
    """Every registry entry is the bare app function: it names itself
    (aliases included) and refuses positional arguments."""
    for name in app_names():
        fn = get_app(name)
        assert name in fn.app_names, f"{name} is not registered under its own name"
        assert all(get_app(alias) is fn for alias in fn.app_names)
        assert not hasattr(fn, "__wrapped__"), f"{name} is still wrapped"
        with pytest.raises(TypeError, match="positional"):
            fn(2, 16, 1)
