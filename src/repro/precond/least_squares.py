"""Classical least-squares polynomial preconditioner with Jacobi weights.

Section 2.1.3 names "least-squares" among the polynomial methods the GLS
construction generalizes.  The classical method (Saad) minimizes
:math:`\\|1-\\lambda P(\\lambda)\\|_w` on a *single* interval ``(0, h)``
under the Jacobi weight

.. math:: w^{(\\alpha,\\beta)}(\\lambda)
          = (h-\\lambda)^{\\alpha}\\,\\lambda^{\\beta},

with Saad's recommended :math:`(\\alpha,\\beta) = (1/2, -1/2)` — unlike
GLS it cannot handle interval unions (indefinite problems), which is
exactly the paper's case for GLS.  Construction reuses the Stieltjes
machinery of :mod:`repro.precond.gls` on a Gauss-Jacobi discrete measure.
"""

from __future__ import annotations

from scipy.special import roots_jacobi

from repro.precond.gls import _ThreeTermPolynomial
from repro.spectrum.intervals import SpectrumIntervals


class LeastSquaresPolynomial(_ThreeTermPolynomial):
    """Degree-``m`` least-squares polynomial on one interval ``(lo, hi)``.

    Parameters
    ----------
    theta:
        Single positive interval.
    degree:
        Polynomial degree ``m``.
    alpha, beta:
        Jacobi weight exponents; the (0.5, -0.5) default is the classical
        choice that damps the residual hardest near ``lambda = 0``.
    n_quad:
        Gauss-Jacobi points (defaults scale with the degree).
    """

    def __init__(
        self,
        theta: SpectrumIntervals,
        degree: int,
        alpha: float = 0.5,
        beta: float = -0.5,
        n_quad: int | None = None,
        matvec=None,
    ):
        super().__init__(degree, matvec)
        if theta.n_intervals != 1:
            raise ValueError(
                "classical least-squares needs a single interval; "
                "use GLSPolynomial for unions"
            )
        if alpha <= -1 or beta <= -1:
            raise ValueError("Jacobi exponents must exceed -1")
        self.theta = theta
        lo, hi = theta.lo, theta.hi
        if n_quad is None:
            n_quad = max(4 * (degree + 2), 64)
        # Gauss-Jacobi on (-1,1) for (1-t)^alpha (1+t)^beta, mapped to
        # (lo, hi): lambda = lo + (hi-lo)(t+1)/2 so that beta weights the
        # lambda->lo end and alpha the lambda->hi end.
        t, w = roots_jacobi(n_quad, alpha, beta)
        nodes = lo + (hi - lo) * (t + 1.0) / 2.0
        self._fit(nodes, w)

    @property
    def name(self) -> str:
        return f"LS({self.degree})"

    @property
    def spec(self) -> str:
        """Round-trippable spec string, e.g. ``"ls(7)"``."""
        return f"ls({self.degree})"
