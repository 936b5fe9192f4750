"""Backend parity: virtual and process comms must be bit-identical.

The Comm contract (shared collectives, disjoint rank bodies, fixed
binary-tree allreduce) guarantees a solve produces the same floats on
every backend; these tests pin that down with exact — not approximate —
comparisons of iteration counts, residual histories and counters.
"""

import numpy as np
import pytest

from repro.core.driver import solve_cantilever
from repro.core.options import SolverOptions

OTHER_BACKENDS = ("process",)


@pytest.fixture(scope="module", autouse=True)
def _drain_pool_at_end():
    """Leave no parked worker processes behind for later test modules."""
    yield
    from repro.parallel.process_comm import shutdown_pool

    shutdown_pool(force=True)


def _solve(problem, backend, **changes):
    opts = SolverOptions(**changes).replace(comm_backend=backend)
    return solve_cantilever(problem, n_parts=4, options=opts)


@pytest.mark.parametrize("other", OTHER_BACKENDS)
@pytest.mark.parametrize(
    "method,precond",
    [
        ("edd-enhanced", "gls(7)"),
        ("edd-enhanced", "none"),
        ("edd-basic", "gls(3)"),
        ("edd-enhanced", "neumann(10)"),
        ("rdd", "gls(7)"),
        ("rdd", "bj-ilu0"),
    ],
)
def test_solve_bit_identical_across_backends(
    tiny_problem, method, precond, other
):
    sv = _solve(tiny_problem, "virtual", method=method, precond=precond)
    st = _solve(tiny_problem, other, method=method, precond=precond)
    assert sv.comm_backend == "virtual" and st.comm_backend == other
    assert sv.result.iterations == st.result.iterations
    assert sv.result.restarts == st.result.restarts
    # Bit-identical, not merely close:
    assert sv.result.residual_history == st.result.residual_history
    assert np.array_equal(sv.result.x, st.result.x)


@pytest.mark.parametrize("other", OTHER_BACKENDS)
def test_counters_identical_across_backends(tiny_problem, other):
    sv = _solve(tiny_problem, "virtual")
    st = _solve(tiny_problem, other)
    for rv, rt in zip(sv.stats.ranks, st.stats.ranks):
        assert rv == rt


def _force_resident(monkeypatch):
    """Worker-resident rank execution: zero residency threshold, two
    real workers."""
    monkeypatch.setenv("REPRO_PROCESS_MIN_WORK", "0")
    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")


@pytest.mark.parametrize(
    "method,precond",
    [
        ("edd-enhanced", "gls(7)"),
        ("edd-enhanced", "none"),
        ("edd-basic", "gls(3)"),
        ("edd-enhanced", "neumann(10)"),
        ("rdd", "gls(7)"),
        ("rdd", "bj-ilu0"),
    ],
)
def test_resident_solve_bit_identical(tiny_problem, method, precond,
                                      monkeypatch):
    """Forced worker-resident execution (rank bodies inside the process
    pool) matches virtual bitwise — solution, residual history and
    per-rank counters — across every solver family."""
    sv = _solve(tiny_problem, "virtual", method=method, precond=precond)
    _force_resident(monkeypatch)
    sp = _solve(tiny_problem, "process", method=method, precond=precond)
    assert sp.comm_backend == "process"
    assert sv.result.iterations == sp.result.iterations
    assert sv.result.residual_history == sp.result.residual_history
    assert np.array_equal(sv.result.x, sp.result.x)
    for rv, rp in zip(sv.stats.ranks, sp.stats.ranks):
        assert rv == rp


def test_resident_mgs_parity(tiny_problem, monkeypatch):
    """MGS keeps its sequential projections at the orchestrator but runs
    matvec and the x-update resident; still bitwise."""
    sv = _solve(tiny_problem, "virtual", orthogonalization="mgs")
    _force_resident(monkeypatch)
    sp = _solve(tiny_problem, "process", orthogonalization="mgs")
    assert sv.result.residual_history == sp.result.residual_history
    assert np.array_equal(sv.result.x, sp.result.x)


def test_resident_dynamic_parity(tiny_dynamic_problem, monkeypatch):
    sv = _solve(tiny_dynamic_problem, "virtual", dynamic=True)
    _force_resident(monkeypatch)
    sp = _solve(tiny_dynamic_problem, "process", dynamic=True)
    assert sv.result.residual_history == sp.result.residual_history
    assert np.array_equal(sv.result.x, sp.result.x)
    for rv, rp in zip(sv.stats.ranks, sp.stats.ranks):
        assert rv == rp


def test_resident_parity_above_the_threaded_ddot_size(monkeypatch):
    """Mesh9 at P=2: 10100 and 10302 rows per rank, the first parity row
    above the 10000 elements from which OpenBLAS threads a ddot — whose
    bits then depend on the thread count, and a pool worker (capped to
    its share of the cores) has another one than the orchestrator
    (default).  60 iterations are enough to cross two restarts."""
    from repro.core.session import PreparedSystem
    from repro.fem.cantilever import cantilever_problem

    monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")
    monkeypatch.delenv("REPRO_PROCESS_MIN_WORK", raising=False)
    problem = cantilever_problem(9)
    runs = []
    for backend in ("virtual", "process"):
        options = SolverOptions(
            precond="gls(7)", max_iter=60, comm_backend=backend
        )
        with PreparedSystem.build(problem, 2, options) as ps:
            assert min(ps.system.submap.local_sizes) > 10000
            # Resident at the default threshold, not a forced one.
            assert ps.system.rank_engine().resident == (backend == "process")
            runs.append(ps.solve())
    sv, sp = runs
    assert sv.result.iterations == sp.result.iterations == 60
    assert sv.result.residual_history == sp.result.residual_history
    assert sv.result.x.tobytes() == sp.result.x.tobytes()
    for rv, rp in zip(sv.stats.ranks, sp.stats.ranks):
        assert rv == rp


# ----------------------------------------------------------------------
# Worker-resident preconditioner state (factor shipping + the fused step)
# ----------------------------------------------------------------------
#
# The resident engines ship preconditioner factor state (BJ-ILU0 L/U
# factors, the two-level restriction basis and factorized Galerkin
# matrix) to the worker pool and run a whole Arnoldi step — the
# preconditioner apply, the matvec, its exchange, the CGS round and the
# norm — as ONE dispatch.  None of that may be observable in the
# numbers: virtual / inline-process / resident-process must stay bitwise
# identical in x, residual history and per-rank CommStats, and the
# resident path really is one dispatch per step (read off the
# ``rank_op`` span vocabulary).

import contextlib
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.parallel.chaos import FaultPlan, FaultRule, use_fault_plan


@contextlib.contextmanager
def _resident_env(resident):
    """Set REPRO_PROCESS_MIN_WORK/WORKERS without monkeypatch (usable
    inside hypothesis examples): threshold 0 forces residency, the unset
    default keeps these tiny systems inline."""
    keys = ("REPRO_PROCESS_MIN_WORK", "REPRO_PROCESS_WORKERS")
    saved = {k: os.environ.get(k) for k in keys}
    try:
        if resident:
            os.environ["REPRO_PROCESS_MIN_WORK"] = "0"
        else:
            os.environ.pop("REPRO_PROCESS_MIN_WORK", None)
        os.environ["REPRO_PROCESS_WORKERS"] = "2"
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _assert_same_solve(a, b, ctx=""):
    assert a.result.converged and b.result.converged, ctx
    assert a.result.residual_history == b.result.residual_history, ctx
    assert a.result.x.tobytes() == b.result.x.tobytes(), ctx
    assert len(a.stats.ranks) == len(b.stats.ranks), ctx
    for r, (ra, rb) in enumerate(zip(a.stats.ranks, b.stats.ranks)):
        assert ra == rb, f"{ctx}: CommStats diverge at rank {r}"


#: Factor-state preconditioners: BJ-ILU0 and the two-level composites,
#: plus a Chebyshev chain (the third fused-recurrence kind).
FACTOR_CONFIGS = [
    ("rdd", "2l(bj-ilu0,deflate)"),
    ("rdd", "2l(gls(3))"),
    ("edd-enhanced", "2l(gls(3),deflate)"),
    ("edd-enhanced", "2l(neumann(8))"),
    ("edd-enhanced", "cheb(4)"),
]


@pytest.mark.parametrize(
    "method,precond", FACTOR_CONFIGS,
    ids=[f"{m}-{p}" for m, p in FACTOR_CONFIGS],
)
def test_factor_state_preconditioners_bitwise_across_backends(
    tiny_problem, method, precond
):
    """x, residual history and per-rank CommStats are bitwise equal on
    virtual, inline-process and resident-process backends."""
    base = _solve(tiny_problem, "virtual", method=method, precond=precond)
    with _resident_env(False):
        inline = _solve(
            tiny_problem, "process", method=method, precond=precond
        )
    with _resident_env(True):
        resident = _solve(
            tiny_problem, "process", method=method, precond=precond
        )
    for name, summary in (
        ("process-inline", inline),
        ("process-resident", resident),
    ):
        _assert_same_solve(base, summary, f"virtual vs {name} ({precond})")


#: RDD polynomial rows: resident RDD solves run the shared Neumann and
#: Horner bodies in the workers.  ``max_iter`` caps the slow ones (rdd
#: cheb(4) takes thousands of iterations on Mesh2).
RDD_CHAIN_CONFIGS = [("rdd", "neumann(10)"), ("rdd", "cheb(4)")]


@pytest.mark.parametrize(
    "method,precond", RDD_CHAIN_CONFIGS,
    ids=[f"{m}-{p}" for m, p in RDD_CHAIN_CONFIGS],
)
def test_rdd_chains_bitwise_across_backends(tiny_problem, method, precond):
    """x, residual history and per-rank CommStats are bitwise equal on
    virtual, inline-process and resident-process backends."""
    opts = {"method": method, "precond": precond, "max_iter": 200}
    base = _solve(tiny_problem, "virtual", **opts)
    with _resident_env(False):
        inline = _solve(tiny_problem, "process", **opts)
    with _resident_env(True):
        resident = _solve(tiny_problem, "process", **opts)
    for name, summary in (
        ("process-inline", inline),
        ("process-resident", resident),
    ):
        _assert_same_solve(base, summary, f"virtual vs {name} ({precond})")


def _rank_ops_under_precond_apply(trc):
    """Map precond_apply span index -> list of rank_op ops beneath it."""
    spans = trc.spans
    applies = {
        i: [] for i, s in enumerate(spans) if s["name"] == "precond_apply"
    }
    for i, s in enumerate(spans):
        if s["name"] != "rank_op":
            continue
        k = spans[i]["parent"]
        while k >= 0:
            if k in applies:
                applies[k].append(s["args"]["op"])
                break
            k = spans[k]["parent"]
    return applies


def test_bj_ilu0_is_one_prec_dispatch_per_apply(tiny_problem, monkeypatch):
    _force_resident(monkeypatch)
    trc = Tracer()
    opts = SolverOptions(method="rdd", precond="bj-ilu0",
                         comm_backend="process")
    summary = solve_cantilever(tiny_problem, n_parts=4, options=opts,
                               tracer=trc)
    assert summary.result.converged
    applies = _rank_ops_under_precond_apply(trc)
    assert applies, "no precond_apply spans recorded"
    for ops in applies.values():
        # The ILU solves ride in the step's one dispatch.
        assert ops == ["step"], ops


@pytest.mark.parametrize(
    "precond,expected",
    [
        # additive: polynomial chain + coarse solve, inside the step
        ("2l(gls(3))", ["step"]),
        # deflate adds exactly ONE operator application (the deflation
        # residual v - A Q v), inside the same dispatch
        ("2l(gls(3),deflate)", ["step"]),
    ],
)
def test_two_level_is_one_chain_plus_one_coarse_dispatch(
    tiny_problem, precond, expected, monkeypatch
):
    _force_resident(monkeypatch)
    trc = Tracer()
    opts = SolverOptions(method="edd-enhanced", precond=precond,
                         comm_backend="process")
    summary = solve_cantilever(tiny_problem, n_parts=4, options=opts,
                               tracer=trc)
    assert summary.result.converged
    applies = _rank_ops_under_precond_apply(trc)
    assert applies, "no precond_apply spans recorded"
    for ops in applies.values():
        # never a per-degree "mv" ladder or per-piece "dots"/"ortho".
        assert sorted(ops) == expected, ops
    coarse = [s for s in trc.spans if s["name"] == "coarse_solve"]
    assert len(coarse) == len(applies)


def test_fused_vocabulary_replaces_per_piece_ops(tiny_problem, monkeypatch):
    _force_resident(monkeypatch)
    trc = Tracer()
    opts = SolverOptions(method="rdd", precond="2l(bj-ilu0,deflate)",
                         comm_backend="process")
    solve_cantilever(tiny_problem, n_parts=4, options=opts, tracer=trc)
    ops = {s["args"]["op"] for s in trc.spans if s["name"] == "rank_op"}
    assert {"seed", "step", "axpy"} <= ops
    assert not ops & {"dots", "ortho"}


@settings(max_examples=8, deadline=None)
@given(
    method=st.sampled_from(["rdd", "edd-enhanced"]),
    kind=st.sampled_from(["gls", "neumann", "cheb"]),
    degree=st.integers(min_value=1, max_value=6),
    two_level=st.booleans(),
)
def test_random_polynomial_resident_parity(
    tiny_problem, method, kind, degree, two_level
):
    """Hypothesis sweep: random polynomial preconditioners, virtual vs
    resident-process, whole-solve bitwise."""
    precond = f"{kind}({degree})"
    if two_level:
        precond = f"2l({precond},deflate)"
    base = _solve(tiny_problem, "virtual", method=method, precond=precond)
    with _resident_env(True):
        res = _solve(tiny_problem, "process", method=method, precond=precond)
    _assert_same_solve(base, res, f"{method} {precond}")


def test_resident_env_does_not_perturb_coarse_allreduce_faults(
    tiny_problem,
):
    """A fault plan aimed at the coarse allreduce fires identically with
    and without forced residency: chaos communicators always run
    inline, so the injected corruption and every downstream float match
    bitwise."""
    plan = FaultPlan(
        rules=(FaultRule("allreduce_sum", "sign_flip", call_index=8),),
        seed=20060815,
    )

    def run(resident):
        opts = SolverOptions(
            method="edd-enhanced",
            precond="2l(gls(7),deflate)",
            comm_backend="chaos",
        )
        with _resident_env(resident), use_fault_plan(plan):
            return solve_cantilever(tiny_problem, n_parts=4, options=opts)

    base = run(False)
    forced = run(True)
    assert base.result.converged == forced.result.converged
    assert base.result.residual_history == forced.result.residual_history
    assert base.result.x.tobytes() == forced.result.x.tobytes()
    assert [e.kind for e in base.result.diagnostics] == [
        e.kind for e in forced.result.diagnostics
    ]
    for ra, rb in zip(base.stats.ranks, forced.stats.ranks):
        assert ra == rb


# ----------------------------------------------------------------------
# One resident protocol for every CGS solve shape
# ----------------------------------------------------------------------
#
# A resident CGS solve runs its restart cycle in the workers whatever
# its width: ``seed``, one ``step`` per Arnoldi step, ``axpy`` — with
# retired block columns compacted worker-side and their x updates riding
# in the cycle's ``axpy``.  Everything else runs inline and dispatches
# nothing.

from repro.core.session import PreparedSystem
from repro.obs import exchanges_per_step, verify_exchange_invariant
from repro.parallel.process_comm import ProcessComm

PROTOCOL_CONFIGS = [
    (method, precond)
    for method in ("edd-enhanced", "edd-basic", "rdd")
    for precond in ("gls(3)", "2l(gls(3),deflate)")
] + [("rdd", "bj-ilu0"), ("rdd", "2l(bj-ilu0,deflate)")]


def _protocol_runs(problem, method, precond, backend):
    """The three shapes on one prepared system, each traced: one
    right-hand side; three columns that leave the block at different
    steps (a zero column, the load, a random load); the same three capped
    by ``max_iter`` in the middle of the second cycle."""
    rng = np.random.default_rng(17)
    block = np.column_stack([
        np.zeros(problem.n_eqn), problem.load,
        rng.standard_normal(problem.n_eqn),
    ])
    options = SolverOptions(
        method=method, precond=precond, comm_backend=backend, restart=5
    )
    runs = []
    with PreparedSystem.build(problem, 4, options) as ps:
        assert ps.system.rank_engine().resident == (backend == "process")
        for solve in (
            lambda t: ps.solve(tracer=t),
            lambda t: ps.solve_batch(block, tracer=t),
            lambda t: ps.solve_batch(
                block, options.replace(max_iter=7), tracer=t
            ),
        ):
            trc = Tracer()
            out = solve(trc)
            results = getattr(out, "results", None) or [out.result]
            runs.append((results, trc.to_dict(), out.stats.ranks))
    return runs


@pytest.mark.parametrize(
    "method,precond", PROTOCOL_CONFIGS,
    ids=[f"{m}-{p}" for m, p in PROTOCOL_CONFIGS],
)
def test_every_cgs_shape_is_one_step_per_arnoldi_step_and_bitwise(
    tiny_problem, method, precond, monkeypatch
):
    """Forced-resident vs virtual at k = 1 and k = 3: x, residual
    histories and per-rank CommStats exactly equal; one ``step`` per
    Arnoldi step and two more rank ops per cycle; the exchange
    invariant of the method holds."""
    base = _protocol_runs(tiny_problem, method, precond, "virtual")
    _force_resident(monkeypatch)
    resident = _protocol_runs(tiny_problem, method, precond, "process")
    iterations = []
    for (rv, _, sv), (rp, trace, sp) in zip(base, resident):
        iterations.append([r.iterations for r in rp])
        for a, b in zip(rv, rp):
            assert a.residual_history == b.residual_history
            assert a.x.tobytes() == b.x.tobytes()
        assert sv == sp
        spans = trace["spans"]
        ops = [s["args"]["op"] for s in spans if s["name"] == "rank_op"]
        steps = sum(s["name"] == "arnoldi_step" for s in spans)
        cycles = sum(s["name"] == "cycle" for s in spans)
        assert ops.count("step") == steps
        assert len(ops) == steps + 2 * cycles
        if method == "rdd":
            assert set(exchanges_per_step(trace).values()) == {1}
        else:
            verify_exchange_invariant(trace, method[len("edd-"):])
    # The batch really is mixed: the zero column never iterates and the
    # other two leave at different steps; the capped batch stops at 7.
    assert iterations[1][0] == 0 and iterations[1][1] != iterations[1][2]
    assert iterations[2] == [0, 7, 7]


def test_mgs_dispatches_nothing(tiny_problem, monkeypatch):
    """MGS runs inline on a resident engine — zero rank ops — and
    matches virtual bitwise."""
    dispatched = []
    real = ProcessComm.run_rank_op

    def counting(self, payload, *args):
        dispatched.append(payload["name"])
        return real(self, payload, *args)

    monkeypatch.setattr(ProcessComm, "run_rank_op", counting)
    results = {}
    for backend in ("virtual", "process"):
        if backend == "process":
            _force_resident(monkeypatch)
        options = SolverOptions(precond="gls(3)", comm_backend=backend)
        with PreparedSystem.build(tiny_problem, 4, options) as ps:
            assert ps.system.rank_engine().resident == (backend == "process")
            results[backend] = ps.solve(
                options.replace(orthogonalization="mgs")
            ).result
    assert dispatched == []
    a, b = results["virtual"], results["process"]
    assert a.residual_history == b.residual_history
    assert a.x.tobytes() == b.x.tobytes()
