"""Element-based domain-decomposition FGMRES (Algorithms 5 and 6).

Both variants run the same numerics — restarted flexible GMRES with a
polynomial preconditioner applied through the communicating matvec — and
differ only in communication structure, exactly as in the paper:

* ``variant="basic"`` (Algorithm 5) keeps the Krylov basis in local
  distributed format and re-assembles at every use: **3** nearest-neighbour
  exchanges per Arnoldi step outside the preconditioner.
* ``variant="enhanced"`` (Algorithm 6) carries each basis vector in both
  formats and keeps the preconditioned vectors global-distributed: **1**
  exchange per Arnoldi step outside the preconditioner.

A degree-``m`` polynomial preconditioner adds ``m`` matvec+exchange pairs
per step in either variant, giving the Table 1 totals ``m+3`` vs ``m+1``.
The mixed-format inner product (Eq. 33) makes every Gram-Schmidt projection
a single allreduce with no neighbour traffic.

The restart cycle itself lives in :func:`repro.solvers.krylov.restarted_fgmres`;
the Arnoldi step in :mod:`repro.sparse.arnoldi`; this module supplies the
Krylov space they run over — :class:`_EDDSpace`, ``(local, global)``
:class:`DistVector` pairs whose parts are vectors (:func:`edd_fgmres`)
or ``(n, k)`` blocks with coalesced exchanges (:func:`edd_fgmres_block`)
— and with it everything that is specific to the element-based
decomposition: which format each vector is in and where the ``⊕Σ∂Ω``
exchanges fall.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributed import DistVector, EDDSystem, _as_cols, _rows
from repro.parallel.resident import KrylovCycle, step_program
from repro.precond.base import PolynomialPreconditioner
from repro.precond.coarse import TwoLevelPreconditioner, TwoLevelSpec
from repro.solvers.krylov import restarted_fgmres
from repro.solvers.result import SolveResult


def _resolve_precond(system, options):
    """Parse ``options.precond`` and bind system-dependent markers (the
    two-level composite) to the built system."""
    from repro.precond.spec import make_preconditioner

    precond = make_preconditioner(options.precond)
    if isinstance(precond, TwoLevelSpec):
        precond = TwoLevelPreconditioner.build(system, precond)
    return precond


def _precondition(system: EDDSystem, precond, v_hat):
    """Apply the polynomial preconditioner through the communicating
    operator: ``m`` matvecs, each followed by one interface assembly
    (the distributed Algorithm 7); a two-level preconditioner adds its
    coarse correction around the same recurrence.  For an ``(n, k)``
    block ``v_hat`` it is the same recurrence, each matvec one SpMM + ONE
    interface assembly for all ``k`` columns."""
    if precond is None:
        return v_hat.copy()
    if isinstance(precond, TwoLevelPreconditioner):
        return precond.apply_edd(system, v_hat)
    if not isinstance(precond, PolynomialPreconditioner):
        raise TypeError(
            "EDD-FGMRES requires a polynomial or two-level preconditioner "
            "(or None): factorization preconditioners cannot be applied to "
            "unassembled local-distributed matrices"
        )
    return precond.apply_linear(system.matvec_assembled, v_hat)


class _EDDSpace(KrylovCycle):
    """The :class:`~repro.solvers.krylov.KrylovSpace` of
    :func:`edd_fgmres` and :func:`edd_fgmres_block`: ``(local, global)``
    :class:`DistVector` pairs shaped like the right-hand side ``b`` —
    vector parts for one column, ``(n, k)`` parts for ``k``.  Its cycle
    (:class:`~repro.parallel.resident.KrylovCycle`) runs inline through
    ``Comm.run_ranks``, or in the pool workers given a step ``plan``; the
    orchestrator keeps ``x`` and computes the residual either way."""

    formats = 2

    def __init__(self, system: EDDSystem, b: DistVector, precond, basic,
                 cgs, restart, plan):
        super().__init__(
            system, precond, restart, plan, [len(p) for p in b.parts]
        )
        self.basic = basic
        self.cgs = cgs
        self.b = b
        self.k = b.k
        self.x_hat = self._vec([np.zeros_like(p) for p in b.parts], "global")

        # The local product, the ``⊕Σ∂Ω`` and Algorithm 5's re-assembly
        # (its exchanges 1 and 3 of 3).  They close over the system, not
        # the space: a cycle would keep the Krylov buffers alive.
        comm = system.comm

        def product(p):
            return system.matvec_local(DistVector(p, "global", comm)).parts

        def reassemble(p):
            hat = DistVector(p, "global", comm)
            return system.assemble(system.localize(hat)).parts

        self.ops = (
            product, comm.interface_assemble, reassemble if basic else None
        )

    def _vec(self, parts, kind) -> DistVector:
        return DistVector(parts, kind, self.comm)

    def residual(self, cols):
        system = self.system
        self.x_hat = self._vec(self._flush(self.x_hat.parts), "global")
        idx = np.asarray(cols)
        self.r_loc = self.b.take_cols(idx) - system.matvec_local(
            self.x_hat.take_cols(idx)
        )
        self.r_hat = system.assemble(self.r_loc)
        self.r_cols = list(cols)
        return np.sqrt(
            np.maximum(np.atleast_1d(system.dot(self.r_loc, self.r_hat)), 0.0)
        )

    def start_cycle(self, cols, betas):
        """``v_0 = r / beta`` in both formats, for column ids ``cols``."""
        r_loc, r_hat = self.r_loc, self.r_hat
        sel = [self.r_cols.index(c) for c in cols]
        if sel != list(range(len(self.r_cols))):
            r_loc, r_hat = r_loc.take_cols(sel), r_hat.take_cols(sel)
        self._open(cols, [(r_loc * (1.0 / betas)).parts,
                          (r_hat * (1.0 / betas)).parts])

    def _apply(self, v):
        return _precondition(
            self.system, self.precond, self._vec(v, "global")
        ).parts

    def _mgs(self, j):
        """Modified Gram-Schmidt: numerically sturdier, but each
        projection needs the *updated* w — j+1 sequential allreduces per
        step, the communication cost that makes parallel GMRES
        implementations prefer CGS."""
        system, ranks = self.system, self.ranks
        v_loc, v_hat = (
            [self._vec([e["basis"][f][i] for e in ranks], kind)
             for i in range(j + 1)]
            for f, kind in enumerate(("local", "global"))
        )
        w_loc = self._vec(self.w[0], "local")
        w_hat = self._vec(self.w[1], "global")
        h = np.empty((j + 2,) + self.tail)
        for i in range(j + 1):
            h[i] = system.dot(v_loc[i], w_hat)
            w_loc = w_loc - v_loc[i] * h[i]
            w_hat = w_hat - v_hat[i] * h[i]
        if self.basic:
            w_hat = system.assemble(system.localize(w_hat))
        h[j + 1] = np.sqrt(np.maximum(system.dot(w_loc, w_hat), 0.0))
        for r, e in enumerate(ranks):
            e["zs"][j] = self.z[r]
            e["w"] = [w_loc.parts[r], w_hat.parts[r]]
        return h.reshape(j + 2, -1)

    def solutions(self):
        # Unscale on the way out (Algorithm 4, step 5): u = D x, per column.
        u_hat = self._vec(
            [_rows(d, p) * p
             for d, p in zip(self.system.d_parts, self.x_hat.parts)],
            "global",
        )
        u = _as_cols(self.system.to_global_vector(u_hat))
        return [np.ascontiguousarray(u[:, c]) for c in range(self.k)]


def _make_space(system, b, precond, basic, cgs, restart):
    """The Krylov space of one solve, vectors or blocks alike: its cycle
    runs in the pool workers when the engine is resident, the
    orthogonalization is CGS and the preconditioner has a worker-side
    program (:func:`~repro.parallel.resident.step_program`); everything
    else — MGS, a preconditioner without a program — runs inline."""
    plan = None
    if cgs and system.rank_engine().resident:
        plan = step_program(precond)
    return _EDDSpace(system, b, precond, basic, cgs, restart, plan)


def _configure(system, precond, restart, tol, max_iter, variant,
               orthogonalization, options):
    """Fold ``options`` over the keyword arguments and validate; returns
    ``(precond, restart, tol, max_iter, basic, cgs)``."""
    if options is not None:
        restart = options.restart
        tol = options.tol
        max_iter = options.max_iter
        orthogonalization = options.orthogonalization
        if options.method in ("edd-basic", "edd-enhanced"):
            variant = options.method[len("edd-"):]
        if precond is None:
            precond = _resolve_precond(system, options)
    if variant not in ("basic", "enhanced"):
        raise ValueError("variant must be 'basic' or 'enhanced'")
    if orthogonalization not in ("cgs", "mgs"):
        raise ValueError("orthogonalization must be 'cgs' or 'mgs'")
    if restart < 1:
        raise ValueError("restart must be >= 1")
    return (precond, restart, tol, max_iter,
            variant == "basic", orthogonalization == "cgs")


def edd_fgmres(
    system: EDDSystem,
    precond=None,
    restart: int = 25,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    variant: str = "enhanced",
    breakdown_tol: float = 1e-14,
    orthogonalization: str = "cgs",
    options=None,
    tracer=None,
) -> SolveResult:
    """Solve the scaled EDD system; returns the *unscaled* global solution.

    Parameters mirror :func:`repro.solvers.fgmres`; ``variant`` selects
    Algorithm 5 (``"basic"``) or Algorithm 6 (``"enhanced"``);
    ``orthogonalization`` selects classical (``"cgs"``, the paper's choice:
    one batched allreduce per step) or modified (``"mgs"``: j+1 sequential
    allreduces per step) Gram-Schmidt.  All communication flows through
    ``system.comm`` and is recorded in its counters.

    ``options`` — a :class:`repro.core.options.SolverOptions` — is the
    unified configuration surface shared with :func:`rdd_fgmres` and the
    driver: when given, it supplies ``restart``/``tol``/``max_iter``/
    ``orthogonalization``, the variant (from ``options.method``) and, if
    ``precond`` is None, the preconditioner parsed from
    ``options.precond``.

    ``tracer`` — a :class:`repro.obs.Tracer` — records per-cycle /
    per-Arnoldi-step spans, a per-iteration metrics stream with
    CommStats deltas, and (via ``system.comm``) the exchange spans the
    claim-3 invariant counts.  ``None`` (the default) costs one hoisted
    bool check per instrumentation site.
    """
    precond, restart, tol, max_iter, basic, cgs = _configure(
        system, precond, restart, tol, max_iter, variant,
        orthogonalization, options,
    )
    b = DistVector([p.copy() for p in system.b_local], "local", system.comm)
    space = _make_space(system, b, precond, basic, cgs, restart)
    return restarted_fgmres(
        space, restart, tol, max_iter, breakdown_tol, tracer
    )[0]


def edd_fgmres_block(
    system: EDDSystem,
    b,
    precond=None,
    restart: int = 25,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    variant: str = "enhanced",
    breakdown_tol: float = 1e-14,
    orthogonalization: str = "cgs",
    options=None,
    tracer=None,
) -> list:
    """Batched multi-RHS EDD-FGMRES: solve the scaled system for all ``k``
    columns of ``b`` simultaneously; returns one :class:`SolveResult` per
    column (unscaled global solutions).

    ``b`` is an ``(n_free, k)`` array of raw right-hand sides (reduced,
    unscaled — what the driver feeds the system builder) or an equivalent
    local-distributed :class:`DistVector` of ``(n_local, k)`` parts.

    Numerics follow the single-RHS solver column by column: every kernel
    in the loop (SpMM, batched assembly, per-column ddots, broadcast
    AXPYs) applies per-column the floating-point operations
    :func:`edd_fgmres` applies, so for ``k == 1`` the residual history is
    bit-identical, and each column of a ``k > 1`` solve follows its own
    single-RHS trajectory to rounding (the ddot of a stride-``k`` column
    sums in another order than a contiguous vector's, see
    :func:`repro.core.distributed.col_dots`; every other kernel is
    column-exact).

    Communication is coalesced: one Arnoldi step costs ONE nearest-
    neighbour exchange and ONE allreduce for all ``k`` columns (message
    count as a single-RHS step, payload words scaled by ``k``).

    Convergence is masked per column: when a column converges, breaks
    down, diverges, or hits ``max_iter``, its solution update is applied
    and it is compacted out of the Krylov blocks, so finished columns stop
    charging flops and words.  Columns whose claimed convergence fails the
    recomputed true-residual check rejoin the next restart cycle, exactly
    as the single-RHS monitor flow would.
    """
    precond, restart, tol, max_iter, basic, cgs = _configure(
        system, precond, restart, tol, max_iter, variant,
        orthogonalization, options,
    )
    if isinstance(b, DistVector):
        if b.kind != "local":
            raise ValueError("RHS block must be local-distributed")
        b_blk = b
    else:
        b_blk = system.rhs_block(b)
    if b_blk.k == 0:
        return []
    space = _make_space(system, b_blk, precond, basic, cgs, restart)
    return restarted_fgmres(space, restart, tol, max_iter, breakdown_tol, tracer)
