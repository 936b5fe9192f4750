"""Preconditioner spec strings: parsing and round-tripping.

A *spec* is a short string naming a preconditioner family and its degree,
e.g. ``"gls(7)"`` — the notation the paper's tables use.  This module is
the public home of :func:`make_preconditioner` (the driver module
re-exports it for backwards compatibility); every constructed
preconditioner carries a ``spec`` property such that
``make_preconditioner(p.spec)`` rebuilds an equivalent preconditioner
(with the default spectrum window).

Accepted grammar (case-insensitive; see :data:`SPEC_GRAMMAR`):

* ``None`` / ``"none"`` — no preconditioning.
* ``"gls(m)"`` — generalized least-squares polynomial of degree ``m``.
* ``"neumann(m)"`` — Neumann series of degree ``m``.
* ``"cheb(m)"`` — Chebyshev residual polynomial of degree ``m``.
* ``"bj-ilu0"`` — block-Jacobi ILU(0) (RDD only); returned as the marker
  string because it needs a built system to construct.
* ``"2l(inner[,additive|deflate][,tr])"`` — two-level composite: any of
  the above as the fine-level preconditioner plus an algebraic coarse
  correction (:mod:`repro.precond.coarse`); returned as a
  :class:`~repro.precond.coarse.TwoLevelSpec` marker because the coarse
  space needs a built system.

Malformed specs raise :class:`ValueError` whose message names the
accepted grammar — the CLI relies on this for its rc-2 diagnostics.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.spectrum.intervals import SpectrumIntervals

#: The marker :func:`make_preconditioner` returns for block-Jacobi ILU —
#: resolution into a real preconditioner needs the built RDD system.
BJ_ILU0_MARKER = "bj-ilu0"

#: One-line statement of the accepted spec grammar, appended to every
#: parse error (and printed by ``repro solve`` on a bad ``--precond``).
SPEC_GRAMMAR = (
    "accepted preconditioner specs: 'none', 'gls(m)', 'neumann(m)', "
    "'cheb(m)', 'bj-ilu0', or the two-level composite "
    "'2l(inner[,additive|deflate][,tr])' with any of the former as inner "
    "— m a non-negative integer, e.g. 'gls(7)', '2l(neumann(20),deflate)'"
)

#: Degree-family prefixes -> (module, class) for lazy construction.
_DEGREE_FAMILIES = {
    "gls": ("repro.precond.gls", "GLSPolynomial", True),
    "neumann": ("repro.precond.neumann", "NeumannPolynomial", False),
    "cheb": ("repro.precond.chebyshev", "ChebyshevPolynomial", True),
}


def _parse_degree(text: str, spec: str) -> int:
    try:
        m = int(text)
    except ValueError:
        raise ValueError(
            f"malformed degree {text.strip()!r} in preconditioner spec "
            f"{spec!r}; {SPEC_GRAMMAR}"
        ) from None
    if m < 0:
        raise ValueError(
            f"negative degree {m} in preconditioner spec {spec!r}; "
            f"{SPEC_GRAMMAR}"
        )
    return m


def _split_args(body: str) -> list:
    """Split a composite-spec body on top-level commas (commas inside
    nested parentheses belong to the inner spec)."""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(body[start:i].strip())
            start = i + 1
    args.append(body[start:].strip())
    return args


def _parse_two_level(spec: str, theta):
    from repro.precond.coarse import TWO_LEVEL_MODES, TwoLevelSpec

    body = spec[3:-1].strip()
    args = _split_args(body) if body else []
    if not args or not args[0]:
        raise ValueError(
            f"two-level spec {spec!r} needs an inner preconditioner, e.g. "
            f"'2l(gls(7))'; {SPEC_GRAMMAR}"
        )
    inner_raw = args[0]
    if inner_raw.startswith("2l("):
        raise ValueError(
            f"two-level specs cannot be nested (got {spec!r}); "
            f"{SPEC_GRAMMAR}"
        )
    mode, enrich = "additive", False
    mode_set = False
    for tok in args[1:]:
        if tok in TWO_LEVEL_MODES and not mode_set:
            mode, mode_set = tok, True
        elif tok == "tr" and not enrich:
            enrich = True
        else:
            raise ValueError(
                f"unknown or repeated two-level option {tok!r} in spec "
                f"{spec!r} (expected 'additive', 'deflate' or 'tr'); "
                f"{SPEC_GRAMMAR}"
            )
    inner = make_preconditioner(inner_raw, theta)  # validates inner_raw
    return TwoLevelSpec(inner_spec=spec_of(inner), mode=mode, enrich=enrich)


def make_preconditioner(spec: str | None, theta: SpectrumIntervals | None = None):
    """Parse a preconditioner spec string (grammar: :data:`SPEC_GRAMMAR`).

    Polynomial specs return ready preconditioners.  ``"bj-ilu0"``
    (block-Jacobi ILU, RDD only) returns the spec marker and
    ``"2l(...)"`` composites a :class:`~repro.precond.coarse.TwoLevelSpec`
    marker — both are bound later to the built system by :func:`_bind`.
    ``theta`` defaults to the post-scaling window :math:`(10^{-6}, 1)`.

    Raises :class:`ValueError` naming the accepted grammar on any
    unknown or malformed spec.
    """
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise ValueError(
            f"preconditioner spec must be a string or None, got "
            f"{type(spec).__name__}; {SPEC_GRAMMAR}"
        )
    if theta is None:
        theta = SpectrumIntervals.single(1e-6, 1.0)
    spec = spec.strip().lower()
    if spec == "none":
        return None
    if spec == BJ_ILU0_MARKER:
        return BJ_ILU0_MARKER
    if spec.startswith("2l(") and spec.endswith(")"):
        return _parse_two_level(spec, theta)
    for prefix, (mod_name, cls_name, takes_theta) in _DEGREE_FAMILIES.items():
        if spec.startswith(prefix + "(") and spec.endswith(")"):
            degree = _parse_degree(spec[len(prefix) + 1:-1], spec)
            import importlib

            cls = getattr(importlib.import_module(mod_name), cls_name)
            return cls(theta, degree) if takes_theta else cls(degree)
    raise ValueError(f"unknown preconditioner spec {spec!r}; {SPEC_GRAMMAR}")


def _bind(pc, system, components=None, tracer=NULL_TRACER):
    """Bind a parsed spec (what :func:`make_preconditioner` returns) to a
    built EDD or RDD system — the one place a marker becomes a
    preconditioner: ``"bj-ilu0"`` a
    :class:`~repro.precond.block_jacobi.BlockJacobiILU` (rdd only), a
    :class:`~repro.precond.coarse.TwoLevelSpec` a
    :class:`~repro.precond.coarse.TwoLevelPreconditioner` (whose inner is
    bound here too); anything else is returned as it is.  ``components``
    — per free DOF, its component index — feeds a ``tr`` enrichment;
    ``tracer`` records the construction as a ``precond_build`` span."""
    from repro.precond.coarse import TwoLevelPreconditioner, TwoLevelSpec

    if pc == BJ_ILU0_MARKER:
        if hasattr(system, "submap"):
            raise ValueError(
                "bj-ilu0 is a local (assembled-block) preconditioner; "
                "it only applies to the rdd method"
            )
        from repro.precond.block_jacobi import BlockJacobiILU

        build, args = BlockJacobiILU, {}
    elif isinstance(pc, TwoLevelSpec):
        def build(system):
            return TwoLevelPreconditioner.build(
                system, pc, components=components
            )

        args = {"coarse": True}
    else:
        return pc
    tracer.begin("precond_build", "phase", **args)
    try:
        return build(system)
    finally:
        tracer.end()


def spec_of(precond) -> str:
    """The round-trippable spec string of a preconditioner (or ``"none"``).

    Accepts None, the ``"bj-ilu0"`` marker, a
    :class:`~repro.precond.coarse.TwoLevelSpec` marker, or any object
    with a ``spec`` property.
    """
    if precond is None:
        return "none"
    if isinstance(precond, str):
        return precond
    return precond.spec
