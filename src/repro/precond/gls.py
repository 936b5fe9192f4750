"""Generalized least-squares (GLS) polynomial preconditioner (Section 2.1.3).

Solves, over a union of disjoint intervals :math:`\\Theta` excluding zero,

.. math:: \\min_{P_m} \\|1 - \\lambda P_m(\\lambda)\\|_w,

with the Chebyshev weight on each interval.  Construction follows the
paper's recipe: build polynomials :math:`\\{\\phi_i\\}` orthonormal w.r.t.
the *modified* weight :math:`\\lambda^2 w(\\lambda)` with the Stieltjes
procedure (so that :math:`\\{\\lambda\\phi_i\\}` is orthonormal w.r.t.
:math:`w`), then the best approximation of the constant 1 in
:math:`\\mathrm{span}\\{\\lambda\\phi_i\\}` is

.. math:: \\lambda P_m(\\lambda) = \\sum_{i=0}^m \\mu_i\\,\\lambda\\phi_i(\\lambda),
          \\qquad \\mu_i = \\langle 1, \\lambda\\phi_i\\rangle_w .

The discrete inner products use per-interval Gauss-Chebyshev quadrature,
which is exact for the polynomial degrees involved; the Stieltjes pass is a
Lanczos process on ``diag(nodes)`` and is numerically stable.  Application
``z = P_m(A) v`` runs the same three-term recurrence on vectors: exactly
``m`` matvecs (hence GLS(10) costs three more matvecs per iteration than
GLS(7) — the Table 3 trade-off).
"""

from __future__ import annotations

import numpy as np

from repro.fem.quadrature import gauss_chebyshev
from repro.precond.base import PolynomialPreconditioner
from repro.sparse.recurrences import three_term
from repro.spectrum.intervals import SpectrumIntervals


def _discrete_measure(theta: SpectrumIntervals, n_quad: int):
    """Gauss-Chebyshev nodes/weights on every interval of ``theta``."""
    nodes = []
    weights = []
    t, w = gauss_chebyshev(n_quad)
    for lo, hi in theta:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes.append(mid + half * t)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _stieltjes(nodes, weights, m):
    """Recurrence coefficients of polynomials orthonormal under the
    discrete measure ``(nodes, weights)``.

    Returns ``(alphas[0..m], betas[0..m])`` for the normalized recurrence

    .. math:: \\beta_{i+1}\\phi_{i+1}(\\lambda)
              = (\\lambda-\\alpha_i)\\phi_i(\\lambda) - \\beta_i\\phi_{i-1}(\\lambda)

    with :math:`\\beta_0\\phi_0 = 1` (so ``betas[0]`` is the norm of the
    constant 1).  Implemented as a Lanczos process on ``diag(nodes)`` with
    full reorthogonalization.
    """
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("measure has nonpositive mass")
    alphas = np.zeros(m + 1)
    betas = np.zeros(m + 1)
    betas[0] = np.sqrt(total)
    phi_prev = np.zeros_like(nodes)
    phi = np.ones_like(nodes) / betas[0]
    table = [phi]
    for i in range(m + 1):
        alphas[i] = float(np.sum(weights * nodes * phi * phi))
        if i == m:
            break
        nxt = (nodes - alphas[i]) * phi - betas[i] * phi_prev
        for p in table:
            nxt -= float(np.sum(weights * nxt * p)) * p
        norm = float(np.sqrt(np.sum(weights * nxt * nxt)))
        if norm < 1e-14 * betas[0]:
            raise ValueError(
                "measure supports fewer orthogonal polynomials than requested"
            )
        betas[i + 1] = norm
        phi_prev, phi = phi, nxt / norm
        table.append(phi)
    return alphas, betas


class GLSPolynomial(PolynomialPreconditioner):
    """Degree-``m`` generalized least-squares polynomial preconditioner:
    ``z = sum_i mu_i phi_i(A) v`` with ``phi_i`` orthonormal under the
    modified weight ``lambda^2 w`` of the Chebyshev measure on ``theta``.

    Parameters
    ----------
    theta:
        Spectrum estimate :math:`\\Theta` (union of intervals, 0 excluded).
    degree:
        Polynomial degree ``m`` (``m`` matvecs per application).
    n_quad:
        Gauss-Chebyshev points per interval; must exceed ``degree + 1`` for
        the discrete inner products to be exact (default auto-picks).
    matvec:
        Optional bound matvec for :meth:`apply`.
    """

    def __init__(
        self,
        theta: SpectrumIntervals,
        degree: int,
        n_quad: int | None = None,
        matvec=None,
    ):
        super().__init__(degree, matvec)
        self.theta = theta
        if n_quad is None:
            n_quad = max(4 * (degree + 2), 64)
        if n_quad < degree + 2:
            raise ValueError("n_quad must exceed degree + 1")
        nodes, weights = _discrete_measure(theta, n_quad)
        # Stieltjes coefficients of the phi_i under lambda^2 w (so
        # lambda phi_i is orthonormal under w) and the expansion
        # mu_i = <1, lambda phi_i>_w of the constant 1.
        self._alphas, self._betas = _stieltjes(
            nodes, weights * nodes * nodes, degree
        )
        mus = np.zeros(degree + 1)
        phi_prev = np.zeros_like(nodes)
        phi = np.ones_like(nodes) / self._betas[0]
        for i in range(degree + 1):
            mus[i] = float(np.sum(weights * nodes * phi))
            if i < degree:
                nxt = (
                    (nodes - self._alphas[i]) * phi - self._betas[i] * phi_prev
                ) / self._betas[i + 1]
                phi_prev, phi = phi, nxt
        self._mus = mus

    @classmethod
    def unit_interval(
        cls, degree: int, eps: float = 1e-6, matvec=None
    ) -> "GLSPolynomial":
        """The paper's default: :math:`\\Theta = (\\varepsilon, 1)` after
        norm-1 diagonal scaling."""
        return cls(SpectrumIntervals.single(eps, 1.0), degree, matvec=matvec)

    def apply_linear(self, matvec, v, out=None):
        """``z = sum_i mu_i phi_i(A) v`` via the three-term recurrence —
        exactly ``degree`` matvecs.

        NumPy inputs with an ``out=``-capable matvec run a workspace
        recurrence over four ping-pong buffers: zero allocations per
        degree, safe when ``out`` aliases ``v``, and for an ``(n, k)``
        block each column evolves exactly as a separate 1-D application
        would.  Other inputs run :func:`repro.sparse.recurrences.three_term`.
        """
        a, b, mu = self._alphas, self._betas, self._mus
        if not self._use_fast_path(matvec, v):
            return self._finish(
                three_term(matvec, v, a, b, mu, self.degree), out
            )
        ws = self._workspace(v.shape, 4)
        phi_prev, phi, w, tmp = ws[0], ws[1], ws[2], ws[3]
        np.multiply(v, 1.0 / b[0], out=phi)
        if out is None:
            out = np.empty(v.shape)
        np.multiply(phi, mu[0], out=out)
        phi_prev[:] = 0.0
        for i in range(self.degree):
            matvec(phi, out=w)
            np.multiply(phi, a[i], out=tmp)
            np.subtract(w, tmp, out=w)
            np.multiply(phi_prev, b[i], out=tmp)
            np.subtract(w, tmp, out=w)
            np.multiply(w, 1.0 / b[i + 1], out=w)
            np.multiply(w, mu[i + 1], out=tmp)
            np.add(out, tmp, out=out)
            phi_prev, phi, w = phi, w, phi_prev
        return out

    def chain_terms(self):
        """Step-program descriptor (see base class): the
        three-term recurrence with the Stieltjes and expansion tables."""
        return (
            "three_term",
            {
                "alphas": [float(x) for x in self._alphas],
                "betas": [float(x) for x in self._betas],
                "mus": [float(x) for x in self._mus],
                "degree": self.degree,
            },
        )

    def power_coefficients(self) -> np.ndarray:
        """Power-basis coefficients of ``P_m`` (the recurrence run on
        ``numpy`` polynomial objects); feeds the Eq. 24 stability bound."""
        lam = np.polynomial.Polynomial([0.0, 1.0])
        total = three_term(
            lambda p: lam * p, np.polynomial.Polynomial([1.0]),
            self._alphas, self._betas, self._mus, self.degree,
        )
        out = np.zeros(self.degree + 1)
        out[: len(total.coef)] = total.coef
        return out

    def residual_sup_norm(self, per_interval: int = 400) -> float:
        """``max |1 - lambda P(lambda)|`` over a fine grid in Theta."""
        grid = self.theta.sample(per_interval)
        return float(np.max(np.abs(self.residual(grid))))

    @property
    def name(self) -> str:
        return f"GLS({self.degree})"

    @property
    def spec(self) -> str:
        """Round-trippable spec string, e.g. ``"gls(7)"``."""
        return f"gls({self.degree})"
