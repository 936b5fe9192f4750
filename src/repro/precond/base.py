"""Preconditioner interfaces.

Polynomial preconditioners carry a small reusable workspace so that the
NumPy fast path of ``apply_linear`` performs **zero array allocations per
degree**: the recurrences run over preallocated ping-pong buffers and the
matvec writes into a workspace via ``out=`` whenever the supplied matvec
supports it (detected with :func:`repro.sparse.kernels.accepts_out`).
Distributed vector types (``DistVector``, ``_RDDVector``) keep using the
generic arithmetic recurrence unchanged, so the per-application exchange
counts of the EDD/RDD drivers (Table 1) are untouched.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.sparse.kernels import accepts_out


class SingularPreconditionerError(RuntimeError):
    """Raised when a preconditioner construction hits a (numerically)
    singular pivot — the failure mode local ILU(k) exhibits on floating
    subdomains (Section 3.2.3, Eq. 45)."""


class Preconditioner(abc.ABC):
    """Left preconditioner ``C ≈ A^{-1}`` applied as ``z = C v``."""

    @abc.abstractmethod
    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``z = C v``."""

    @property
    def name(self) -> str:
        """Short display name, e.g. ``GLS(7)``."""
        return type(self).__name__

    @property
    def spec(self) -> str:
        """Round-trippable spec string:
        ``repro.precond.spec.make_preconditioner(p.spec)`` rebuilds an
        equivalent preconditioner.  Families without a spec grammar raise
        ``NotImplementedError``."""
        raise NotImplementedError(
            f"{type(self).__name__} has no spec-string form"
        )

    def as_operator(self):
        """The preconditioner as a plain callable ``v -> C v``."""
        return self.apply


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: ``z = v``."""

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return a copy of ``v`` (the identity map); writes into ``out``
        when given."""
        if out is not None:
            out[:] = v
            return out
        return np.array(v, dtype=np.float64, copy=True)

    @property
    def name(self) -> str:
        return "I"


class PolynomialPreconditioner(Preconditioner):
    """Base for preconditioners of the form ``z = P_m(A) v``.

    Subclasses implement :meth:`apply_linear`, which performs the ``m``
    matvec recurrence against an *abstract* matvec callable; ``apply``
    simply binds it to the construction-time matrix.  The distributed
    solvers feed a communicating matvec into ``apply_linear`` and the same
    recurrence becomes Algorithm 7.
    """

    def __init__(self, degree: int, matvec=None):
        if degree < 0:
            raise ValueError("polynomial degree must be >= 0")
        self.degree = int(degree)
        self._matvec = matvec

    @abc.abstractmethod
    def apply_linear(self, matvec, v, out=None):
        """Compute ``P_m(A) v`` with ``A`` given only through ``matvec``.

        ``v`` may be any object supporting numpy-style arithmetic
        (``+``, ``-``, scalar ``*``, ``copy()``), allowing distributed
        vector types.  When ``v`` is a 1-D ``ndarray`` and ``matvec``
        accepts ``out=``, implementations run an allocation-free workspace
        recurrence and write the result into ``out`` (allocated when
        None).  ``out`` is only meaningful for ndarray inputs.
        """

    @abc.abstractmethod
    def power_coefficients(self) -> np.ndarray:
        """Coefficients ``a_0..a_m`` of ``P_m`` in the power basis;
        consumed by the Eq. 24 stability bound."""

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply ``P_m(A) v`` through the construction-time bound matvec."""
        if self._matvec is None:
            raise RuntimeError(
                "preconditioner was built without a bound matrix; "
                "use apply_linear(matvec, v)"
            )
        return self.apply_linear(
            self._matvec, np.asarray(v, dtype=np.float64), out=out
        )

    # ------------------------------------------------------------------
    # Workspace fast-path plumbing (zero allocations per degree)
    # ------------------------------------------------------------------
    @staticmethod
    def _use_fast_path(matvec, v) -> bool:
        """ndarray input + out=-capable matvec -> workspace recurrence.

        Applies to 1-D vectors and ``(n, k)`` multi-vector blocks alike;
        for a block input the supplied ``matvec`` must itself accept
        ``(n, k)`` arrays (an SpMM such as ``CSRMatrix.matmat``), so one
        polynomial sweep updates all ``k`` columns.
        """
        return (
            isinstance(v, np.ndarray)
            and v.ndim in (1, 2)
            and accepts_out(matvec)
        )

    def _workspace(self, shape, count: int) -> np.ndarray:
        """``count`` reusable buffers of ``shape`` (``(n,)`` or ``(n, k)``),
        cached across applications (leading-axis slices of one array)."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        ws = self.__dict__.get("_ws")
        if ws is None or ws.shape[0] < count or ws.shape[1:] != shape:
            ws = np.empty((count,) + shape)
            self._ws = ws
        return ws

    @staticmethod
    def _finish(z, out):
        """Copy a generic-path result into ``out`` when requested."""
        if out is not None and isinstance(z, np.ndarray):
            out[:] = z
            return out
        return z

    def chain_terms(self):
        """Picklable recurrence descriptor for the pool workers.

        Returns ``(kind, params)`` when the family's generic-path
        recurrence can be mirrored worker-side from plain coefficients
        (:func:`repro.parallel.resident.step_program` puts it into the
        program every resident Arnoldi ``step`` runs), or None: a solve
        preconditioned by it then runs inline.  The worker recurrence
        must stay token-identical to :meth:`apply_linear`'s generic path.
        """
        return None

    def _three_term_apply(self, matvec, v, out, alphas, betas, mus, degree):
        """Workspace Stieltjes recurrence ``z = sum_i mu_i phi_i(A) v``.

        Shared by the GLS and plain least-squares polynomials.  Four
        ping-pong buffers; every step is one ``matvec`` into a workspace
        plus in-place AXPY-style updates — zero allocations per degree.
        Safe when ``out`` aliases ``v`` (``v`` is consumed before ``out``
        is first written).  ``v`` may be 1-D or an ``(n, k)`` block (the
        recurrence is elementwise apart from the matvec, so each column
        evolves exactly as a separate 1-D application would).
        """
        ws = self._workspace(v.shape, 4)
        phi_prev, phi, w, tmp = ws[0], ws[1], ws[2], ws[3]
        np.multiply(v, 1.0 / betas[0], out=phi)
        if out is None:
            out = np.empty(v.shape)
        np.multiply(phi, mus[0], out=out)
        phi_prev[:] = 0.0
        for i in range(degree):
            matvec(phi, out=w)
            np.multiply(phi, alphas[i], out=tmp)
            np.subtract(w, tmp, out=w)
            np.multiply(phi_prev, betas[i], out=tmp)
            np.subtract(w, tmp, out=w)
            np.multiply(w, 1.0 / betas[i + 1], out=w)
            np.multiply(w, mus[i + 1], out=tmp)
            np.add(out, tmp, out=out)
            phi_prev, phi, w = phi, w, phi_prev
        return out

    def evaluate(self, lam) -> np.ndarray:
        """Evaluate the scalar polynomial ``P_m`` on an array of points
        (runs the same recurrence as ``apply_linear`` with scalar
        multiplication as the 'matvec')."""
        lam = np.asarray(lam, dtype=np.float64)
        return self.apply_linear(lambda x: lam * x, np.ones_like(lam))

    def residual(self, lam) -> np.ndarray:
        """The residual polynomial ``1 - lambda * P_m(lambda)`` whose
        smallness over :math:`\\Theta` is the preconditioner's quality
        measure (Eq. 7; Figs. 1-2)."""
        lam = np.asarray(lam, dtype=np.float64)
        return 1.0 - lam * self.evaluate(lam)
