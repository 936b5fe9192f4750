"""Validated environment-knob reads for the concurrent backends.

A malformed ``REPRO_*`` tuning variable used to surface as a bare
``ValueError: invalid literal for int()`` from deep inside backend
construction.  Every integer/float knob now raises the named
:class:`EnvKnobError` that echoes *which* variable is wrong and the
offending value — at the construction site the user actually touched.
"""

from __future__ import annotations

import pytest

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.env_knobs import EnvKnobError, read_float_env, read_int_env
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import build_subdomain_map


def _submap(n_parts=2):
    mesh = structured_quad_mesh(4, 2)
    bc = clamp_edge_dofs(mesh, "left")
    part = ElementPartition.build(mesh, n_parts)
    return build_subdomain_map(mesh, part, bc)


# ----------------------------------------------------------------------
# The reader helpers
# ----------------------------------------------------------------------
def test_unset_and_blank_fall_back_to_default(monkeypatch):
    monkeypatch.delenv("REPRO_X", raising=False)
    assert read_int_env("REPRO_X", 7) == 7
    assert read_float_env("REPRO_X", 2.5) == 2.5
    monkeypatch.setenv("REPRO_X", "   ")
    assert read_int_env("REPRO_X", 7) == 7
    assert read_float_env("REPRO_X", 2.5) == 2.5


def test_valid_values_parse(monkeypatch):
    monkeypatch.setenv("REPRO_X", " 42 ")
    assert read_int_env("REPRO_X", 0) == 42
    assert read_float_env("REPRO_X", 0.0) == 42.0
    monkeypatch.setenv("REPRO_X", "1.5")
    assert read_float_env("REPRO_X", 0.0) == 1.5
    with pytest.raises(EnvKnobError):
        read_int_env("REPRO_X", 0)  # 1.5 is not an integer


def test_error_is_a_value_error_and_names_the_knob(monkeypatch):
    monkeypatch.setenv("REPRO_X", "banana")
    with pytest.raises(ValueError) as exc:  # legacy guards keep working
        read_int_env("REPRO_X", 0)
    err = exc.value
    assert isinstance(err, EnvKnobError)
    assert err.name == "REPRO_X"
    assert err.value == "banana"
    assert "REPRO_X" in str(err) and "'banana'" in str(err)


# ----------------------------------------------------------------------
# Every integer/float knob raises the named error from its real
# consumption site (backend construction), not a bare ValueError.
# ----------------------------------------------------------------------
def _make_process_comm():
    from repro.parallel.process_comm import ProcessComm

    return ProcessComm(_submap())


KNOBS = [
    ("REPRO_PROCESS_WORKERS", _make_process_comm),
    ("REPRO_PROCESS_MIN_WORK", _make_process_comm),
    ("REPRO_PROCESS_TIMEOUT", _make_process_comm),
]


#: Every knob with "not-a-number", plus the values a timeout cannot take
#: and the worker counts that are not positive.
INVALID = [(name, make, "not-a-number") for name, make in KNOBS] + [
    ("REPRO_PROCESS_TIMEOUT", _make_process_comm, raw)
    for raw in ("nan", "inf", "0", "-1")
] + [
    ("REPRO_PROCESS_WORKERS", _make_process_comm, raw) for raw in ("0", "-1")
] + [("REPRO_PROCESS_MIN_WORK", _make_process_comm, "-1")]


@pytest.mark.parametrize(
    "name,make,raw", INVALID,
    ids=[n if r == "not-a-number" else f"{n}={r}" for n, _, r in INVALID],
)
def test_invalid_knob_raises_named_error_at_construction(
    name, make, raw, monkeypatch
):
    monkeypatch.setenv(name, raw)
    with pytest.raises(EnvKnobError) as exc:
        comm = make()
        comm.close()  # pragma: no cover - only on unexpected success
    assert exc.value.name == name
    assert exc.value.value == raw
    assert name in str(exc.value) and repr(raw) in str(exc.value)


@pytest.mark.parametrize("name,make", KNOBS, ids=[n for n, _ in KNOBS])
def test_valid_knob_values_still_construct(name, make, monkeypatch):
    monkeypatch.setenv(name, "2")
    comm = make()
    try:
        assert comm.size == 2
    finally:
        comm.close()


# ----------------------------------------------------------------------
# REPRO_KERNEL_BACKEND names a registered kernel backend: it goes through
# the same named error (it used to be a bare ValueError).
# ----------------------------------------------------------------------
def test_unknown_kernel_backend_raises_named_error(monkeypatch):
    from repro.sparse import kernels

    monkeypatch.setattr(kernels, "_current", [None])  # force the env read
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    with pytest.raises(EnvKnobError) as exc:
        kernels.get_backend()
    assert exc.value.name == "REPRO_KERNEL_BACKEND"
    assert exc.value.value == "numba"
    assert str(kernels.available_backends()) in str(exc.value)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", " NumPy ")
    assert kernels.get_backend().name == "numpy"
