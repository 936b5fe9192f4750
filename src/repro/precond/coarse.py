"""Two-level preconditioning: algebraic coarse-space correction.

One-level preconditioners act locally (block Jacobi) or through a short
matvec chain (polynomials); neither moves information across the whole
domain in one application, so iteration counts degrade as the subdomain
count ``P`` grows — the golden records pin BJ-ILU0 blowing up to 64
iterations at ``P = 8`` on Mesh2.  The classical cure is a *coarse grid*:
a tiny ``P x P`` (or ``P k x P k``) Galerkin projection of the operator
that couples every subdomain in a single cheap solve.

Construction (all at setup, nothing charged to the solve counters):

* **Coarse space** ``R0`` — one partition-of-unity aggregate vector per
  subdomain: weight ``1/multiplicity(i)`` on subdomain ``s``'s DOFs for
  EDD (so the columns sum to the global all-ones vector), the ownership
  indicator for RDD (disjoint rows, multiplicity 1).  The optional
  ``tr`` enrichment splits each aggregate into ``dofs_per_node``
  per-component translation vectors — the rigid-body translation modes
  of the elasticity nullspace restricted to the aggregate.
* **Galerkin operator** ``E = R0 A R0^T`` — assembled serially from the
  per-rank matrix blocks (sum of ``(B_s W)^T A^(s) (B_s W)`` terms) and
  Cholesky-factorized once; every rank keeps the (tiny, dense) factor and
  solves redundantly, the standard trade for avoiding a sequential
  bottleneck rank.

Application modes (selected from the spec, Section "two-level" of
DESIGN.md):

* ``additive``:  ``z = M1 v + R0^T E^-1 R0 v`` — one extra coarse-length
  allreduce per application on top of the one-level cost.
* ``deflate``:   ``q = R0^T E^-1 R0 v``; ``z = q + M1 (v - A q)`` — the
  deflation/balancing form; one extra *operator* application per apply
  (an exchange), but the one-level preconditioner then only sees the
  deflated residual, which is what restores near-P-independence for
  strong local preconditioners.

Communication cost per application: ONE allreduce of ``n_coarse``
(times ``k`` for blocks) words — restriction is rank-local against the
ownership-masked basis, the redundant dense solve replicates, and
prolongation is rank-local against the consistent global-distributed
basis.  The whole correction is traced as a ``coarse_solve`` span
(nested inside ``precond_apply``) whose allreduce child reconciles
exactly with the ``CommStats`` reduction charges.

Degeneration: at ``P = 1`` without enrichment the coarse space is the
single global aggregate — a rank-one correction with no cross-subdomain
information to restore — so it is dropped entirely and the two-level
preconditioner is *bit-compatible* with its inner one-level
preconditioner (the parity the golden tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.precond.base import Preconditioner

#: Accepted application modes of a two-level spec.
TWO_LEVEL_MODES = ("additive", "deflate")


@dataclass(frozen=True)
class TwoLevelSpec:
    """Parsed-but-unbound two-level spec (the composite analogue of the
    ``"bj-ilu0"`` marker string): constructing the coarse space needs the
    built distributed system, so :func:`repro.precond.spec.make_preconditioner`
    returns this marker and the session/solvers resolve it through
    :meth:`TwoLevelPreconditioner.build`.

    Attributes
    ----------
    inner_spec:
        Canonical spec string of the one-level (fine) preconditioner —
        any non-composite spec the grammar accepts, including ``"none"``
        and ``"bj-ilu0"`` (RDD only).
    mode:
        ``"additive"`` or ``"deflate"``.
    enrich:
        Whether each aggregate is enriched with per-component translation
        (rigid-body) modes.
    """

    inner_spec: str
    mode: str = "additive"
    enrich: bool = False

    @property
    def spec(self) -> str:
        """Round-trippable canonical spec string."""
        parts = [self.inner_spec]
        if self.mode != "additive":
            parts.append(self.mode)
        if self.enrich:
            parts.append("tr")
        return f"2l({','.join(parts)})"


def _coarse_basis(
    n_global: int, dof_sets: list, weights: list, components, enrich: bool
) -> np.ndarray:
    """The dense ``(n_global, n_coarse)`` coarse basis ``W = R0^T``.

    ``dof_sets[s]`` / ``weights[s]`` give subdomain ``s``'s global DOFs
    and partition-of-unity weights.  Without enrichment, one column per
    subdomain; with it, ``n_components`` columns per subdomain (the
    aggregate split by DOF component — per-component translations).
    """
    if enrich:
        n_comp = int(components.max()) + 1
        w = np.zeros((n_global, len(dof_sets) * n_comp))
        for s, (g, ws) in enumerate(zip(dof_sets, weights)):
            comp = components[g]
            for c in range(n_comp):
                m = comp == c
                w[g[m], s * n_comp + c] = ws[m]
    else:
        w = np.zeros((n_global, len(dof_sets)))
        for s, (g, ws) in enumerate(zip(dof_sets, weights)):
            w[g, s] = ws
    return w


def _factor(e: np.ndarray, spec: TwoLevelSpec):
    """Factor the Galerkin operator once (Cholesky — ``E`` inherits SPD
    from the scaled operator; LU fallback covers near-rank-deficient
    enriched spaces)."""
    import scipy.linalg

    try:
        return ("cho", scipy.linalg.cho_factor(e))
    except np.linalg.LinAlgError:
        pass
    except scipy.linalg.LinAlgError:  # pragma: no cover - alias on newer scipy
        pass
    lu = scipy.linalg.lu_factor(e)
    if not np.all(np.isfinite(lu[0])):
        raise ValueError(
            f"two-level spec {spec.spec!r}: coarse operator E is singular "
            "(linearly dependent coarse-space columns); drop the enrichment "
            "or change the partition"
        )
    return ("lu", lu)


class TwoLevelPreconditioner(Preconditioner):
    """A one-level preconditioner composed with a coarse-space correction,
    bound to a built EDD or RDD system.

    Build through :meth:`build`; apply through the solver-facing
    ``apply_edd`` / ``apply_rdd`` entry points (the EDD/RDD
    ``_precondition`` dispatchers call these), on vectors or ``(n, k)``
    blocks alike.
    """

    def __init__(self, system, inner, spec, *, is_edd, wg_parts, wl_parts,
                 factor, n_coarse, trivial):
        self._system = system
        self._inner = inner
        self._spec = spec
        self._is_edd = is_edd
        #: Consistent (global-distributed / owned-rows) basis per rank,
        #: used by the prolongation.
        self._wg_parts = wg_parts
        #: Ownership-masked basis per rank, used by the restriction (for
        #: RDD ownership is disjoint so this aliases ``_wg_parts``).
        self._wl_parts = wl_parts
        self._factor = factor
        self.n_coarse = n_coarse
        self._trivial = trivial

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, system, spec: TwoLevelSpec, components=None,
              theta=None) -> "TwoLevelPreconditioner":
        """Bind ``spec`` to a built system: resolve the inner
        preconditioner, assemble the coarse basis and the Galerkin
        operator ``E = W^T A W``, and factor it.

        ``components`` — per global free DOF, its DOF component index
        (``0..dofs_per_node-1``); required only for the ``tr``
        enrichment (the session supplies it from the problem's mesh/BC;
        direct solver calls without it get a clear error).
        """
        from repro.precond.spec import BJ_ILU0_MARKER, make_preconditioner

        is_edd = hasattr(system, "submap")
        inner = make_preconditioner(spec.inner_spec, theta)
        if inner == BJ_ILU0_MARKER:
            if is_edd:
                raise ValueError(
                    "two-level inner 'bj-ilu0' is a local assembled-block "
                    "preconditioner; it only applies to the rdd method"
                )
            from repro.precond.block_jacobi import BlockJacobiILU

            inner = BlockJacobiILU(system)

        if spec.enrich and components is None:
            raise ValueError(
                f"two-level spec {spec.spec!r}: the 'tr' enrichment needs "
                "per-DOF component information; build through "
                "PreparedSystem/solve_cantilever (which supply it) or pass "
                "components= explicitly"
            )

        trivial = system.n_parts == 1 and not spec.enrich
        if trivial:
            return cls(
                system, inner, spec, is_edd=is_edd, wg_parts=None,
                wl_parts=None, factor=None, n_coarse=0, trivial=True,
            )

        if components is not None:
            components = np.asarray(components, dtype=np.int64)

        if is_edd:
            submap = system.submap
            dof_sets = submap.l2g
            weights = [1.0 / submap.multiplicity[g] for g in dof_sets]
            w = _coarse_basis(
                system.n_global, dof_sets, weights, components, spec.enrich
            )
            # Consistent global-distributed basis blocks (prolongation)
            # and their ownership-masked forms (restriction): the mixed
            # format pair that makes <W_l, v_hat> the true dot (Eq. 33).
            wg_parts = [np.ascontiguousarray(w[g]) for g in submap.l2g]
            wl_parts = [
                np.ascontiguousarray(p * m[:, None])
                for p, m in zip(wg_parts, system.owner_mask)
            ]
            # E = sum_s (B_s W)^T A^(s) (B_s W): serial setup arithmetic,
            # deliberately outside the comm layer (nothing charged, no
            # spans, no chaos call indices consumed).
            e = np.zeros((w.shape[1], w.shape[1]))
            for a, wgs in zip(system.a_local, wg_parts):
                e += wgs.T @ a.matmat(wgs)
        else:
            dof_sets = system.own
            weights = [np.ones(len(o)) for o in system.own]
            w = _coarse_basis(
                system.n_global, dof_sets, weights, components, spec.enrich
            )
            # Ownership is disjoint: the owned-rows blocks serve both the
            # restriction and the prolongation.
            wg_parts = [np.ascontiguousarray(w[o]) for o in system.own]
            wl_parts = wg_parts
            # E = sum_s W[own_s]^T ( A_loc^(s) W[own_s] + A_ext^(s) W[ext_s] ).
            e = np.zeros((w.shape[1], w.shape[1]))
            for a_loc, a_ext, ext, wgs in zip(
                system.a_loc, system.a_ext, system.ext, wg_parts
            ):
                aw = a_loc.matmat(wgs)
                if a_ext.shape[1]:
                    aw = aw + a_ext.matmat(np.ascontiguousarray(w[ext]))
                e += wgs.T @ aw

        return cls(
            system, inner, spec, is_edd=is_edd, wg_parts=wg_parts,
            wl_parts=wl_parts, factor=_factor(e, spec),
            n_coarse=w.shape[1], trivial=False,
        )

    # ------------------------------------------------------------------
    # Coarse solve (shared plumbing)
    # ------------------------------------------------------------------
    def _solve_coarse(self, rhs: np.ndarray) -> np.ndarray:
        """Redundant dense solve of ``E y = rhs`` (every rank, identical
        result — bit-reproducible because the factor is shared)."""
        import scipy.linalg

        kind, factor = self._factor
        if kind == "cho":
            return scipy.linalg.cho_solve(factor, rhs)
        return scipy.linalg.lu_solve(factor, rhs)

    def _coarse_correct(self, comm, v_parts: list) -> list:
        """The coarse correction ``W E^-1 W^T v`` on raw per-rank parts —
        vectors, or ``(n, k)`` blocks (column-exact).

        Returns the corrected per-rank parts list.  Cost model: rank-local
        restriction dots, ONE allreduce of ``n_coarse * k`` words, a
        redundant ``O(n_coarse^2)`` dense solve per rank (charged to every
        rank), rank-local prolongation — traced as one ``coarse_solve``
        span so its reductions reconcile with the CommStats charges.
        """
        from repro.core.distributed import _n_cols

        nc = self.n_coarse
        k = _n_cols(v_parts[0])
        wl, wg = self._wl_parts, self._wg_parts
        n_parts = len(wl)
        trc = comm.tracer
        traced = trc.enabled
        if traced:
            trc.begin("coarse_solve", "solver", n_coarse=nc, k=k)
        partial = np.zeros((n_parts, nc) + v_parts[0].shape[1:])

        def restrict_body(r: int) -> None:
            partial[r] = wl[r].T @ v_parts[r]
            comm.add_flops(r, 2 * wl[r].size * k)

        comm.run_ranks(restrict_body)
        rhs = comm.allreduce_sum(list(partial), words=nc * k)
        y = self._solve_coarse(rhs)
        # Redundant dense solve: every rank performs the same ~2 nc^2
        # triangular-solve flops (times k columns).
        comm.add_flops_all([2 * nc * nc * k] * n_parts)
        out = [None] * n_parts

        def prolong_body(r: int) -> None:
            out[r] = wg[r] @ y
            comm.add_flops(r, 2 * wg[r].size * k)

        comm.run_ranks(prolong_body)
        if traced:
            trc.end()
        return out

    # ------------------------------------------------------------------
    # EDD application
    # ------------------------------------------------------------------
    def _inner_edd(self, system, v_hat):
        if self._inner is None:
            return v_hat.copy()
        # Route through the EDD dispatcher; never recursive (the inner
        # spec is non-composite by the grammar).
        from repro.core.edd import _precondition

        return _precondition(system, self._inner, v_hat)

    def apply_edd(self, system, v_hat):
        """``z = C_2L v`` on a global-distributed :class:`DistVector` —
        a vector, or an ``(n, k)`` block (column-exact, one coalesced
        coarse allreduce of ``n_coarse * k`` words)."""
        from repro.core.distributed import DistVector

        if self._trivial:
            return self._inner_edd(system, v_hat)
        comm = system.comm
        if self._spec.mode == "additive":
            z = self._inner_edd(system, v_hat)
            q = DistVector(
                self._coarse_correct(comm, v_hat.parts), "global", comm
            )
            return z + q
        q = DistVector(self._coarse_correct(comm, v_hat.parts), "global", comm)
        r = v_hat - system.matvec_assembled(q)
        return self._inner_edd(system, r) + q

    # ------------------------------------------------------------------
    # RDD application
    # ------------------------------------------------------------------
    def _inner_rdd(self, system, v_parts: list) -> list:
        from repro.core.rdd import _precondition_rdd

        return _precondition_rdd(system, self._inner, v_parts)

    def apply_rdd(self, system, v_parts: list) -> list:
        """``z = C_2L v`` on row-partitioned per-rank parts — vectors, or
        ``(n_own, k)`` part blocks."""
        from repro.core.rdd import _axpy_parts

        if self._trivial:
            return self._inner_rdd(system, v_parts)
        comm = system.comm
        if self._spec.mode == "additive":
            z = self._inner_rdd(system, v_parts)
            q = self._coarse_correct(comm, v_parts)
            return _axpy_parts(comm, z, 1.0, q)
        q = self._coarse_correct(comm, v_parts)
        r = _axpy_parts(comm, v_parts, -1.0, system.matvec(q))
        return _axpy_parts(comm, self._inner_rdd(system, r), 1.0, q)

    # ------------------------------------------------------------------
    # Sequential / reporting interface
    # ------------------------------------------------------------------
    def apply(self, v: np.ndarray) -> np.ndarray:
        """Global-vector interface (scatter, apply, gather) for testing —
        the distributed solvers use the ``apply_*`` entry points."""
        v = np.asarray(v, dtype=np.float64)
        if self._is_edd:
            z = self.apply_edd(self._system, self._system.distribute(v))
            return self._system.to_global_vector(z)
        parts = [v[o] for o in self._system.own]
        z_parts = self.apply_rdd(self._system, parts)
        out = np.zeros(self._system.n_global)
        for o, z in zip(self._system.own, z_parts):
            out[o] = z
        return out

    @property
    def name(self) -> str:
        inner = "I" if self._inner is None else self._inner.name
        tr = ",tr" if self._spec.enrich else ""
        return f"2L({inner},{self._spec.mode}{tr},C={self.n_coarse})"

    @property
    def spec(self) -> str:
        """Round-trippable spec (rebuilding needs the built system, which
        the session supplies — same contract as ``"bj-ilu0"``)."""
        return self._spec.spec
