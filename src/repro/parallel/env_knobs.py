"""Validated reads of the ``REPRO_*`` environment knobs.

The process backend is tuned through environment variables
(``REPRO_PROCESS_WORKERS``, ``REPRO_PROCESS_MIN_WORK``,
``REPRO_PROCESS_TIMEOUT``).  A malformed value used to surface as a raw
``ValueError`` from ``int()`` deep inside backend construction, with no
hint of *which* variable was wrong.  These helpers validate at read time
and raise one named error that echoes the variable name and the
offending value; ``REPRO_KERNEL_BACKEND`` raises the same error for a
name that is not a registered kernel backend.
"""

from __future__ import annotations

import math
import os

__all__ = ["EnvKnobError", "read_int_env", "read_float_env"]


class EnvKnobError(ValueError):
    """A ``REPRO_*`` environment knob holds an unparsable value.

    Subclasses :class:`ValueError` so legacy ``except ValueError`` guards
    keep working; the message names the variable and quotes the value so
    the misconfiguration is identifiable without a debugger.
    """

    def __init__(self, name: str, value: str, expected: str):
        self.name = name
        self.value = value
        super().__init__(
            f"invalid value for environment variable {name}: {value!r} "
            f"(expected {expected})"
        )


def read_int_env(name: str, default: int | None) -> int | None:
    """``int(os.environ[name])`` with a named error on malformed input.

    Unset or empty means ``default`` (matching the historical truthiness
    check on the worker-count knobs, where ``""`` falls through to the
    CPU-count default).
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise EnvKnobError(name, raw, "an integer") from None


def read_float_env(name: str, default: float) -> float:
    """``float(os.environ[name])`` with a named error on malformed input
    — anything but a positive finite number: the one float knob is a
    timeout, which ``nan``, ``inf`` or ``<= 0`` would silently disarm."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise EnvKnobError(name, raw, "a positive finite number")
    return value
