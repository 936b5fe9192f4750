"""Chebyshev polynomial preconditioner (single-interval comparison point).

For SPD spectra in ``(lo, hi)`` the min-max residual polynomial is the
shifted-and-scaled Chebyshev polynomial

.. math:: R_m(\\lambda) = T_m\\!\\left(\\frac{hi+lo-2\\lambda}{hi-lo}\\right)
          \\Big/ T_m\\!\\left(\\frac{hi+lo}{hi-lo}\\right),

and the preconditioner is :math:`P_{m-1}(\\lambda) = (1-R_m(\\lambda))/\\lambda`.
The paper lists Chebyshev among the classical alternatives the GLS method
generalizes (it cannot handle interval unions / indefinite spectra); we
include it for the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import PolynomialPreconditioner
from repro.sparse.recurrences import horner
from repro.spectrum.intervals import SpectrumIntervals


class ChebyshevPolynomial(PolynomialPreconditioner):
    """Degree-``m`` Chebyshev preconditioner on one positive interval.

    ``degree`` is the degree of ``P`` (the residual Chebyshev polynomial
    has degree ``degree + 1``), so the per-application matvec count matches
    the other polynomial preconditioners of equal ``degree``.
    """

    def __init__(self, theta: SpectrumIntervals, degree: int, matvec=None):
        super().__init__(degree, matvec)
        if theta.n_intervals != 1:
            raise ValueError(
                "Chebyshev preconditioning needs a single interval; "
                "use GLSPolynomial for interval unions"
            )
        lo, hi = theta.lo, theta.hi
        if lo <= 0:
            raise ValueError("Chebyshev preconditioning needs a positive interval")
        self.theta = theta
        m = degree + 1
        # Chebyshev residual R_m in the power basis via numpy's Chebyshev
        # class, mapped from [-1,1] to [lo,hi] by t = (hi+lo-2*lambda)/(hi-lo).
        t_m = np.polynomial.Chebyshev.basis(m)
        center = (hi + lo) / (hi - lo)
        scale = -2.0 / (hi - lo)
        # R(lambda) = T_m(center + scale*lambda) / T_m(center)
        mapped = t_m(np.polynomial.Polynomial([center, scale]))
        denom = float(t_m(center))
        r = mapped / denom
        r_coef = np.zeros(m + 1)
        r_coef[: len(r.coef)] = r.coef
        # P = (1 - R)/lambda : exact division since R(0) = 1... R(0) is
        # T_m(center)/T_m(center) only when scale*0 drops out -> R(0)=1. The
        # constant term of 1-R is therefore 0 and the shift-down is exact.
        num = -r_coef
        num[0] += 1.0
        if abs(num[0]) > 1e-9:
            raise AssertionError("Chebyshev residual must satisfy R(0)=1")
        self._coef = num[1:].copy()

    def apply_linear(self, matvec, v, out=None):
        """Horner evaluation ``z = (a_0 + a_1 A + ... + a_m A^m) v`` —
        ``degree`` matvecs.

        NumPy inputs with an ``out=``-capable matvec evaluate Horner over
        two cached buffers (``v`` is staged into one of them first, so
        ``out`` may alias ``v``): zero allocations per degree.
        """
        coef = self._coef
        if self._use_fast_path(matvec, v):
            ws = self._workspace(v.shape, 2)
            vv, t = ws[0], ws[1]
            vv[:] = v
            if out is None:
                out = np.empty(v.shape)
            np.multiply(vv, coef[-1], out=out)
            for c in coef[-2::-1]:
                matvec(out, out=t)
                np.multiply(vv, c, out=out)
                np.add(out, t, out=out)
            return out
        return self._finish(horner(matvec, v, coef), out)

    def chain_terms(self):
        """Step-program descriptor (see base class): the
        Horner sweep over the power-basis coefficients."""
        return ("horner", {"coef": [float(c) for c in self._coef]})

    def power_coefficients(self) -> np.ndarray:
        """Power-basis coefficients of ``P`` (already stored that way)."""
        return self._coef.copy()

    @property
    def name(self) -> str:
        return f"Cheb({self.degree})"

    @property
    def spec(self) -> str:
        """Round-trippable spec string, e.g. ``"cheb(5)"``."""
        return f"cheb({self.degree})"
