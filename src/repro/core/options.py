"""Unified solver configuration.

:class:`SolverOptions` is the single options surface of the public API:
:func:`repro.core.driver.solve_cantilever` accepts it as ``options=``, and
the lower-level entry points :func:`repro.core.edd.edd_fgmres` /
:func:`repro.core.rdd.rdd_fgmres` consume the same object — replacing the
former eleven-keyword driver signature with one validated, immutable,
JSON-serializable value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.parallel.comm import _resolve as _resolve_comm_backend

_METHODS = ("edd-enhanced", "edd-basic", "rdd")
_ORTHO = ("cgs", "mgs")


@dataclass(frozen=True)
class SolverOptions:
    """Validated, immutable configuration of one distributed solve.

    Attributes
    ----------
    method:
        ``"edd-enhanced"`` (Algorithm 6, default), ``"edd-basic"``
        (Algorithm 5) or ``"rdd"`` (Algorithm 8).
    precond:
        Preconditioner spec string for
        :func:`repro.precond.spec.make_preconditioner` (e.g. ``"gls(7)"``,
        ``"neumann(20)"``, ``"cheb(5)"``, ``"bj-ilu0"``) or None/"none".
    restart:
        FGMRES restart length.
    tol:
        Relative-residual convergence tolerance.
    max_iter:
        Inner-iteration cap across all restart cycles.
    partition_method:
        Mesh partitioner name (``"rcb"``, ``"greedy"``, ``"spectral"``...).
    comm_backend:
        Communicator backend (:mod:`repro.parallel.comm`: ``"virtual"``,
        ``"process"`` or ``"chaos"``); None keeps the session default.
    orthogonalization:
        Gram-Schmidt flavour (``"cgs"`` or ``"mgs"``); ``"mgs"`` is
        available for the EDD methods only.
    dynamic:
        Solve the elastodynamics effective system (Eq. 52) instead of the
        static one.
    mass_shift:
        The :math:`(\\alpha, \\beta)` pair of the effective matrix
        :math:`\\alpha M + \\beta K` used when ``dynamic`` is true.
    """

    method: str = "edd-enhanced"
    precond: str | None = "gls(7)"
    restart: int = 25
    tol: float = 1e-6
    max_iter: int = 10_000
    partition_method: str = "rcb"
    comm_backend: str | None = None
    orthogonalization: str = "cgs"
    dynamic: bool = False
    mass_shift: tuple = (1.0, 2.5e-1)

    def __post_init__(self) -> None:
        """Validate eagerly so misconfiguration fails at construction."""
        if self.method not in _METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {_METHODS}"
            )
        if self.orthogonalization not in _ORTHO:
            raise ValueError(
                f"orthogonalization must be one of {_ORTHO}, "
                f"got {self.orthogonalization!r}"
            )
        if self.method == "rdd" and self.orthogonalization != "cgs":
            raise ValueError(
                f"orthogonalization={self.orthogonalization!r} is not "
                "available with method='rdd' (Algorithm 8 is classical "
                "Gram-Schmidt only; 'mgs' applies to the EDD methods)"
            )
        if self.comm_backend is not None:
            _resolve_comm_backend(self.comm_backend)  # raises on unknown
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if len(tuple(self.mass_shift)) != 2:
            raise ValueError("mass_shift must be an (alpha, beta) pair")

    def replace(self, **changes) -> "SolverOptions":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain JSON-serializable dict of every field."""
        out = asdict(self)
        out["mass_shift"] = list(self.mass_shift)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SolverOptions":
        """Inverse of :meth:`to_dict`; unknown keys raise ValueError."""
        payload = dict(payload)
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown SolverOptions fields: {unknown}")
        if "mass_shift" in payload:
            payload["mass_shift"] = tuple(payload["mass_shift"])
        return cls(**payload)
