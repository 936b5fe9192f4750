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
this module supplies the Krylov space it runs over — :class:`_EDDSpace`,
``(local, global)`` :class:`DistVector` pairs whose parts are vectors
(:func:`edd_fgmres`) or ``(n, k)`` blocks with coalesced exchanges
(:func:`edd_fgmres_block`), per-rank compute through the rank engine —
and with it everything that is specific to the element-based
decomposition: which format each vector is in and where the ``⊕Σ∂Ω``
exchanges fall.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributed import (
    DistVector, EDDSystem, _add_to_columns, _as_cols, _rows,
)
from repro.parallel.resident import ResidentCycle, step_program
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
    engine = system.rank_engine()
    if engine.resident:
        terms = precond.chain_terms()
        if terms is not None:
            # Fused resident path: the whole degree-m matvec/recurrence
            # chain in ONE dispatch, bit-identical output and CommStats;
            # None (blocks) falls back to the inline recurrence.
            out = engine.poly_chain(precond, terms, v_hat)
            if out is not None:
                return out
    return precond.apply_linear(system.matvec_assembled, v_hat)


class _EDDSpace:
    """The :class:`~repro.solvers.krylov.KrylovSpace` of
    :func:`edd_fgmres` and :func:`edd_fgmres_block`: ``(local, global)``
    :class:`DistVector` pairs shaped like the right-hand side ``b`` —
    vector parts for one column, ``(n, k)`` parts for ``k``.  Per-rank
    compute goes through the system's rank engine (inline closures, or
    worker-resident rank ops).  A column that leaves a cycle while
    others stay is compacted out of every live Krylov block, so finished
    columns stop charging flops and words."""

    def __init__(self, system: EDDSystem, b: DistVector, precond, basic, cgs):
        self.system = system
        self.precond = precond
        self.basic = basic
        self.cgs = cgs
        self.comm = system.comm
        self.stats = system.comm.stats
        self.b = b
        self.k = b.k
        self.x_hat = DistVector(
            [np.zeros_like(p) for p in b.parts], "global", system.comm
        )
        self.engine = system.rank_engine()

    def residual(self, cols):
        system = self.system
        idx = np.asarray(cols)
        self.r_loc = self.b.take_cols(idx) - system.matvec_local(
            self.x_hat.take_cols(idx)
        )
        self.r_hat = system.assemble(self.r_loc)
        self.r_cols = list(cols)
        return np.sqrt(
            np.maximum(np.atleast_1d(system.dot(self.r_loc, self.r_hat)), 0.0)
        )

    def _first_vectors(self, cols, betas):
        """``v_0 = r / beta`` in both formats, for column ids ``cols``."""
        r_loc, r_hat = self.r_loc, self.r_hat
        sel = [self.r_cols.index(c) for c in cols]
        if sel != list(range(len(self.r_cols))):
            r_loc, r_hat = r_loc.take_cols(sel), r_hat.take_cols(sel)
        return r_loc * (1.0 / betas), r_hat * (1.0 / betas)

    def start_cycle(self, cols, betas):
        v_loc, v_hat = self._first_vectors(cols, betas)
        self.v_loc = [v_loc]
        self.v_hat = [v_hat]
        self.z_hat: list = []
        self.live = len(cols)

    def precondition(self, j):
        self.z_hat.append(_precondition(self.system, self.precond, self.v_hat[j]))

    def matvec(self, j):
        system = self.system
        if self.basic:
            # Exchange 1 of 3: Algorithm 5's statement 14 re-assembles
            # the preconditioned vector (Algorithm 6 keeps it in global
            # distributed format and skips this).
            self.z_hat[j] = system.assemble(system.localize(self.z_hat[j]))
        self.w_loc = system.matvec_local(self.z_hat[j])
        self.w_hat = system.assemble(self.w_loc)  # the enhanced variant's only exchange

    def orthogonalize(self, j):
        system = self.system
        v_loc, v_hat, w_loc, w_hat = self.v_loc, self.v_hat, self.w_loc, self.w_hat
        h = np.empty((j + 2,) + w_hat.parts[0].shape[1:])
        if self.cgs:
            # Classical Gram-Schmidt (the paper's listings): all
            # coefficients from the unmodified w via the mixed-format
            # inner product, batched into ONE allreduce of j+1 words per
            # column (Eq. 33), the whole coefficient round — partial
            # dots, reduction, AXPY pairs — fused into a single step.
            basis = [v.parts for v in v_loc], [v.parts for v in v_hat]
            wl, wh = self.engine.arnoldi_step(
                j, h, basis, (w_loc.parts, w_hat.parts)
            )
            w_loc = DistVector(wl, "local", self.comm)
            w_hat = DistVector(wh, "global", self.comm)
        else:
            # Modified Gram-Schmidt: numerically sturdier, but each
            # projection needs the *updated* w — j+1 sequential
            # allreduces per step, the communication cost that makes
            # parallel GMRES implementations prefer CGS.
            for i in range(j + 1):
                h[i] = system.dot(v_loc[i], w_hat)
                w_loc = w_loc - v_loc[i] * h[i]
                w_hat = w_hat - v_hat[i] * h[i]
        if self.basic:
            # Exchange 3 of 3: restore format consistency by
            # re-assembling the orthogonalized vector.
            w_hat = system.assemble(system.localize(w_hat))
        h[j + 1] = np.sqrt(np.maximum(system.dot(w_loc, w_hat), 0.0))
        self.w_loc, self.w_hat = w_loc, w_hat
        return h.reshape(j + 2, -1)

    def commit(self, j, keep, h_next):
        w_loc, w_hat = self.w_loc, self.w_hat
        if keep is not None:
            w_loc, w_hat = w_loc.take_cols(keep), w_hat.take_cols(keep)
        inv_h = 1.0 / h_next
        self.v_loc.append(w_loc * inv_h)
        self.v_hat.append(w_hat * inv_h)

    def _add_to_x(self, cols, sel, ys):
        """``x += Z y`` for column ids ``cols`` at live positions ``sel``."""
        _add_to_columns(
            self.comm, self.x_hat.parts,
            [z.parts for z in self.z_hat], cols, sel, ys,
        )

    def retire(self, pos, col, y):
        self._add_to_x(col, pos, [y])
        self.live -= 1
        if self.live:  # the last column out leaves nothing to compact
            for blocks in (self.v_loc, self.v_hat, self.z_hat):
                for i, blk in enumerate(blocks):
                    blocks[i] = blk.drop_col(pos)

    def update(self, cols, ys):
        # All columns share the Krylov dimension: one batched update.
        self._add_to_x(np.asarray(cols), slice(None), ys)

    def solutions(self):
        # Unscale on the way out (Algorithm 4, step 5): u = D x, per column.
        u_hat = DistVector(
            [_rows(d, p) * p for d, p in zip(self.system.d_parts, self.x_hat.parts)],
            "global",
            self.comm,
        )
        u = _as_cols(self.system.to_global_vector(u_hat))
        return [np.ascontiguousarray(u[:, c]) for c in range(self.k)]


class _ResidentEDDSpace(ResidentCycle, _EDDSpace):
    """Single-RHS CGS on a resident engine: the Krylov cycle lives in
    the workers, one dispatch per Arnoldi step
    (:class:`repro.parallel.resident.ResidentCycle`).  The orchestrator
    keeps ``x`` and the residual; ``v_0`` goes out at the head of a
    cycle and ``x`` comes back at its end."""

    def __init__(self, system, b, precond, basic, restart, plan):
        super().__init__(system, b, precond, basic, True)
        self.restart = restart
        self.plan = plan

    def start_cycle(self, cols, betas):
        v_loc, v_hat = self._first_vectors(cols, betas)
        self._seed(v_loc.parts, v_hat.parts)
        self.live = len(cols)

    def _add_to_x(self, cols, sel, ys):
        self.x_hat = DistVector(
            self.engine.axpy_update(self.x_hat.parts, ys[0]),
            "global", self.comm,
        )


def _make_space(system, b, precond, basic, cgs, restart):
    """The Krylov space of one solve: resident when the engine is, the
    right-hand side is one vector, the orthogonalization is CGS and the
    preconditioner has a worker-side program; generic otherwise (blocks
    and MGS go resident for their matvecs and preconditioner applies)."""
    engine = system.rank_engine()
    if engine.resident and cgs and b.parts[0].ndim == 1:
        plan = step_program(precond)
        if plan is not None:
            return _ResidentEDDSpace(system, b, precond, basic, restart, plan)
    return _EDDSpace(system, b, precond, basic, cgs)


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
