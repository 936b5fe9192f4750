"""SolverOptions: validation, serialization, driver integration,
keyword-argument rejection, and preconditioner spec round-trips."""

import numpy as np
import pytest

import repro.core.driver as driver_mod
from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions
from repro.precond.spec import make_preconditioner, spec_of


# ----------------------------------------------------------------------
# Validation and serialization
# ----------------------------------------------------------------------
def test_defaults_match_paper_configuration():
    o = SolverOptions()
    assert o.method == "edd-enhanced"
    assert o.precond == "gls(7)"
    assert o.restart == 25
    assert o.comm_backend is None


@pytest.mark.parametrize(
    "bad",
    [
        {"method": "feti"},
        {"orthogonalization": "householder"},
        {"method": "rdd", "orthogonalization": "mgs"},  # RDD is CGS-only
        {"restart": 0},
        {"max_iter": 0},
        {"tol": 0.0},
        {"tol": -1e-6},
        {"mass_shift": (1.0, 2.0, 3.0)},
    ],
)
def test_invalid_options_rejected(bad):
    with pytest.raises(ValueError):
        SolverOptions(**bad)


def test_replace_revalidates():
    o = SolverOptions()
    assert o.replace(restart=50).restart == 50
    with pytest.raises(ValueError):
        o.replace(restart=-1)


def test_frozen():
    with pytest.raises(Exception):
        SolverOptions().restart = 99


def test_dict_roundtrip():
    o = SolverOptions(method="rdd", precond="bj-ilu0", tol=1e-8, dynamic=True)
    d = o.to_dict()
    assert d["mass_shift"] == [1.0, 0.25]
    import json

    json.dumps(d)  # must be JSON-serializable as-is
    assert SolverOptions.from_dict(d) == o


# ----------------------------------------------------------------------
# Driver integration
# ----------------------------------------------------------------------
def test_driver_accepts_options(tiny_problem):
    s = solve_cantilever(
        tiny_problem, n_parts=3, options=SolverOptions(precond="gls(3)")
    )
    assert s.result.converged
    assert s.options.precond == "gls(3)"
    assert s.precond_name == "GLS(3)"
    u_ref = np.linalg.solve(tiny_problem.stiffness.toarray(), tiny_problem.load)
    assert np.allclose(s.result.x, u_ref, rtol=1e-4, atol=1e-10)


def test_fgmres_entry_points_share_options(tiny_problem):
    """edd_fgmres and rdd_fgmres consume the same SolverOptions object."""
    from repro.core.distributed import build_edd_system
    from repro.core.edd import edd_fgmres
    from repro.core.rdd import build_rdd_system, rdd_fgmres
    from repro.partition.element_partition import ElementPartition
    from repro.partition.node_partition import NodePartition

    opts = SolverOptions(precond="gls(5)", tol=1e-8)
    p = tiny_problem
    epart = ElementPartition.build(p.mesh, 2)
    esys = build_edd_system(
        p.mesh, p.material, p.bc, epart, p.bc.expand(p.load)
    )
    npart = NodePartition.build(p.mesh, 2)
    nsys = build_rdd_system(p.mesh, p.bc, npart, p.stiffness, p.load)
    re = edd_fgmres(esys, options=opts)
    rr = rdd_fgmres(nsys, options=opts)
    u_ref = np.linalg.solve(p.stiffness.toarray(), p.load)
    assert re.converged and rr.converged
    assert np.allclose(re.x, u_ref, rtol=1e-5, atol=1e-10)
    assert np.allclose(rr.x, u_ref, rtol=1e-5, atol=1e-10)


def test_summary_to_dict(tiny_problem):
    s = solve_cantilever(tiny_problem, n_parts=2, options=SolverOptions())
    d = s.to_dict()
    assert d["method"] == "edd-enhanced"
    assert d["n_parts"] == 2
    assert d["comm_backend"] in ("virtual", "process")
    assert d["result"]["converged"] is True
    assert "x" not in d["result"]
    assert d["stats"]["n_ranks"] == 2
    assert len(d["stats"]["per_rank"]) == 2
    assert d["options"]["precond"] == "gls(7)"
    assert d["wall_time"] >= 0.0
    import json

    json.dumps(d)
    dx = s.to_dict(include_x=True)
    assert np.allclose(dx["result"]["x"], s.result.x)


# ----------------------------------------------------------------------
# Keyword-argument rejection (the PR-2 legacy shim is gone)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"precond": "gls(3)"},  # was a shimmed legacy knob
        {"restart": 30, "tol": 1e-8},  # several at once: all named
        {"preconditioner": "gls(7)"},  # never was a knob
    ],
)
def test_unknown_kwargs_raise_typeerror_naming_options(tiny_problem, kwargs):
    with pytest.raises(TypeError) as err:
        solve_cantilever(tiny_problem, n_parts=2, **kwargs)
    message = str(err.value)
    assert "SolverOptions" in message  # points callers at the fix
    for name in kwargs:
        assert name in message


def test_no_deprecation_shim_left_in_driver():
    """The one-shot DeprecationWarning machinery was removed outright."""
    assert not hasattr(driver_mod, "_legacy_warned")
    assert not hasattr(driver_mod, "_LEGACY_KWARGS")


# ----------------------------------------------------------------------
# Preconditioner spec round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", ["gls(7)", "neumann(12)", "cheb(4)"])
def test_spec_roundtrip(spec):
    pc = make_preconditioner(spec)
    assert pc.spec == spec
    rebuilt = make_preconditioner(pc.spec)
    assert type(rebuilt) is type(pc)
    assert rebuilt.degree == pc.degree


def test_spec_of_handles_sentinels():
    assert spec_of(None) == "none"
    assert spec_of("bj-ilu0") == "bj-ilu0"
    assert spec_of(make_preconditioner("gls(3)")) == "gls(3)"


def test_make_preconditioner_public_import():
    """The documented public entry point lives at the package root."""
    from repro import make_preconditioner as top

    assert top is make_preconditioner
    # and the legacy driver re-export still resolves to the same function
    assert driver_mod.make_preconditioner is make_preconditioner


def test_bj_ilu0_spec_roundtrip(tiny_problem):
    s = solve_cantilever(
        tiny_problem,
        n_parts=2,
        options=SolverOptions(method="rdd", precond="bj-ilu0"),
    )
    assert s.result.converged
    assert s.precond_name.startswith("BJ-ILU0")
