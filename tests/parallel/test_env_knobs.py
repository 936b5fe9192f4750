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


def _make_thread_comm():
    from repro.parallel.thread_comm import ThreadComm

    return ThreadComm(_submap())


KNOBS = [
    ("REPRO_PROCESS_WORKERS", _make_process_comm),
    ("REPRO_PROCESS_MIN_WORK", _make_process_comm),
    ("REPRO_PROCESS_TIMEOUT", _make_process_comm),
    ("REPRO_THREAD_WORKERS", _make_thread_comm),
    ("REPRO_THREAD_MIN_WORK", _make_thread_comm),
]


@pytest.mark.parametrize("name,make", KNOBS, ids=[n for n, _ in KNOBS])
def test_invalid_knob_raises_named_error_at_construction(
    name, make, monkeypatch
):
    monkeypatch.setenv(name, "not-a-number")
    with pytest.raises(EnvKnobError) as exc:
        comm = make()
        comm.close()  # pragma: no cover - only on unexpected success
    assert exc.value.name == name
    assert exc.value.value == "not-a-number"
    assert name in str(exc.value) and "'not-a-number'" in str(exc.value)


@pytest.mark.parametrize("name,make", KNOBS, ids=[n for n, _ in KNOBS])
def test_valid_knob_values_still_construct(name, make, monkeypatch):
    monkeypatch.setenv(name, "2")
    comm = make()
    try:
        assert comm.size == 2
    finally:
        comm.close()


# ----------------------------------------------------------------------
# REPRO_PROCESS_RESIDENT is a 0/1 switch: anything else used to fall
# through silently to the work-threshold default.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", ["yes", "true", "2", "-1"])
def test_resident_switch_rejects_everything_but_0_and_1(value, monkeypatch):
    from repro.parallel.resident import engine_mode

    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    comm = _make_process_comm()
    try:
        monkeypatch.setenv("REPRO_PROCESS_RESIDENT", value)
        with pytest.raises(EnvKnobError) as exc:
            engine_mode(comm, 10**9)
        assert exc.value.name == "REPRO_PROCESS_RESIDENT"
        assert exc.value.value == value
        for ok, mode in (("", "resident"), ("0", "inline"), ("1", "resident")):
            monkeypatch.setenv("REPRO_PROCESS_RESIDENT", ok)
            assert engine_mode(comm, 10**9) == mode
    finally:
        comm.close()
