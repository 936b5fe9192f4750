"""Neumann-series polynomial preconditioner (Section 2.1.2, Algorithm 7).

With :math:`G = I - \\omega A` and :math:`\\rho(G) < 1`,

.. math:: P_m(A) = \\omega (I + G + G^2 + \\dots + G^m) \\approx A^{-1}.

Application is the truncated geometric series: ``m`` matvecs, nothing else
— the simplest polynomial preconditioner and the paper's "Neum(m)"
baseline.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import PolynomialPreconditioner
from repro.sparse.recurrences import neumann
from repro.spectrum.intervals import SpectrumIntervals


class NeumannPolynomial(PolynomialPreconditioner):
    """Degree-``m`` Neumann series preconditioner.

    Parameters
    ----------
    degree:
        The series order ``m`` (``m`` matvecs per application).
    omega:
        Damping factor; must satisfy :math:`\\rho(I - \\omega A) < 1`.
        For a spectrum in ``(0, h)`` any ``0 < omega < 2/h`` works;
        ``omega = 1`` is the natural choice after norm-1 scaling.
    matvec:
        Optional bound matvec for :meth:`apply`.
    """

    def __init__(self, degree: int, omega: float = 1.0, matvec=None):
        super().__init__(degree, matvec)
        if omega <= 0:
            raise ValueError("omega must be positive")
        self.omega = float(omega)

    @classmethod
    def for_interval(
        cls, theta: SpectrumIntervals, degree: int, matvec=None
    ) -> "NeumannPolynomial":
        """Choose ``omega = 2 / (lo + hi)``, which minimizes
        :math:`\\rho(I-\\omega A)` over a single positive interval."""
        if theta.n_intervals != 1 or theta.lo <= 0:
            raise ValueError(
                "Neumann series requires a single positive interval"
            )
        return cls(degree, omega=2.0 / (theta.lo + theta.hi), matvec=matvec)

    def apply_linear(self, matvec, v, out=None):
        """Algorithm 7: ``z = omega * sum_{i=0..m} G^i v`` via the
        recurrence ``s <- s - omega A s`` (one matvec per term).

        NumPy inputs with an ``out=``-capable matvec run on two cached
        ping-pong buffers: zero allocations per degree.  ``(n, k)`` block
        inputs run the same recurrence with all ``k`` columns per matvec
        (the matvec must then be an SpMM accepting blocks).
        """
        if self._use_fast_path(matvec, v):
            ws = self._workspace(v.shape, 2)
            s, t = ws[0], ws[1]
            s[:] = v
            if out is None:
                out = np.empty(v.shape)
            out[:] = s  # via s: safe when out aliases v
            for _ in range(self.degree):
                matvec(s, out=t)
                np.multiply(t, self.omega, out=t)
                np.subtract(s, t, out=s)
                np.add(out, s, out=out)
            np.multiply(out, self.omega, out=out)
            return out
        return self._finish(neumann(matvec, v, self.omega, self.degree), out)

    def chain_terms(self):
        """Step-program descriptor (see base class): the
        Neumann recurrence with its damping and degree."""
        return ("neumann", {"omega": self.omega, "degree": self.degree})

    def power_coefficients(self) -> np.ndarray:
        """Coefficients of :math:`\\omega\\sum_{i\\le m} (1-\\omega\\lambda)^i`
        in the power basis (the recurrence run on ``numpy`` polynomial
        objects)."""
        lam = np.polynomial.Polynomial([0.0, 1.0])
        coef = neumann(
            lambda p: lam * p, np.polynomial.Polynomial([1.0]), self.omega,
            self.degree,
        ).coef
        out = np.zeros(self.degree + 1)
        out[: len(coef)] = coef
        return out

    @property
    def name(self) -> str:
        return f"Neum({self.degree})"

    @property
    def spec(self) -> str:
        """Round-trippable spec string, e.g. ``"neumann(20)"``."""
        return f"neumann({self.degree})"
