"""One Arnoldi step of CGS FGMRES, written once for every place that runs it.

Algorithms 5, 6 and 8 share one step — commit ``v_j``, precondition,
multiply with its exchange, one classical Gram-Schmidt round and a norm
— and differ only in where the vectors live and where the exchanges
fall.  Each phase is written here once, over per-rank Krylov state (a
mapping ``e`` per rank: ``basis`` — one ``(restart + 1, n[, k])`` array
per vector format —, the ``z`` slots ``zs``, the last ``w`` and the
``saved`` slots of columns compacted out mid-cycle).  Distributed vectors
are containers of per-rank parts (``v[r]``); the per-rank loop ``each``,
the operator, the assembly and the reduction come in as callables:

* the inline solves pass ``Comm.run_ranks``, ``interface_assemble`` /
  ``halo_exchange`` products and ``allreduce_sum``;
* a pool worker passes its owned ranks and its arena exchange and tree
  reduction;
* the orchestrator's charge replay after a resident dispatch charges
  :func:`flops` in place of the phases it does not run.

So the workers' floats are the inline floats because they are the same
expressions.  Numpy-only leaf: a spawned worker imports it without the
solver stack.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.dense import add_columns, col_dots
from repro.sparse.recurrences import run_program


def flops(phase: str, j: int = 0, formats: int = 1) -> int:
    """Flops per row and live column a rank is charged for ``phase`` of
    step ``j``: the ``j + 1`` coefficient dots (``"coef"``), the AXPYs of
    every format (``"ortho"``), the norm dot and the commit scaling."""
    return {
        "coef": 2 * (j + 1), "ortho": 2 * formats * (j + 1),
        "norm": 2, "commit": formats,
    }[phase]


def open_cycle(e, restart: int, v0) -> None:
    """Store ``v_0`` (one part per format) as rank state ``e``'s first
    basis vector; the buffers are allocated once and reused while their
    shape holds."""
    shape = (restart + 1,) + v0[0].shape
    basis = e.get("basis")
    if basis is None or len(basis) != len(v0) or basis[0].shape != shape:
        e["basis"] = basis = [np.empty(shape) for _ in v0]
        e["zs"] = np.empty((restart,) + shape[1:])
    for b, v in zip(basis, v0):
        b[0] = v
    e.update(filled=1, w=None, saved=[])


def commit(e, j: int, keep, inv_h) -> None:
    """``v_j = w * inv_h`` (one scalar per live column) at the head of
    step ``j``.  ``keep`` (None: all) lists the positions of ``w`` that
    stay live: the others leave every Krylov block — their ``z_0 ..
    z_{j-1}`` set aside for the solution update — so later column dots
    read the strides of a block that never held them."""
    if keep is not None:
        zs = e["zs"]
        gone = [c for c in range(zs.shape[-1]) if c not in keep]
        e["saved"] += [np.array(zs[:j, :, c]) for c in gone]
        e["basis"] = [np.delete(b, gone, axis=-1) for b in e["basis"]]
        e["zs"] = np.delete(zs, gone, axis=-1)
        e["w"] = [w[:, keep] for w in e["w"]]
    for b, w in zip(e["basis"], e["w"]):
        np.multiply(w, inv_h, out=b[j])
    e["filled"] = j + 1


class _Parts:
    """One distributed vector as a mapping rank -> part, with the
    arithmetic :func:`~repro.sparse.recurrences.run_program` runs on:
    per rank, the numpy expression the inline vector types evaluate
    (their ``y + 1.0 * x`` / ``y + (-1.0) * x`` are bitwise ``y + x`` /
    ``y - x``)."""

    __slots__ = ("d",)

    def __init__(self, d):
        self.d = d

    def copy(self):
        return _Parts({r: a.copy() for r, a in self.d.items()})

    def __add__(self, other):
        return _Parts({r: a + other.d[r] for r, a in self.d.items()})

    def __sub__(self, other):
        return _Parts({r: a - other.d[r] for r, a in self.d.items()})

    def __mul__(self, scalar):
        return _Parts({r: scalar * a for r, a in self.d.items()})

    __rmul__ = __mul__


def precondition(program, v, operator, coarse, ilu0):
    """``z = C v`` for a preconditioner program on a rank -> part
    mapping; ``operator(u)``, ``coarse(key, u)`` and ``ilu0(key, u)``
    map such mappings too."""
    return run_program(
        program, _Parts(v),
        lambda u: _Parts(operator(u.d)),
        lambda key, u: _Parts(coarse(key, u.d)),
        lambda key, u: _Parts(ilu0(key, u.d)),
    ).d


def matvec(z, operator, assemble=None, reassemble=None):
    """``w = A z`` with its exchange; returns ``z`` and ``w``'s formats,
    the exchanged one last.  EDD passes the local product as
    ``operator`` and its ``⊕Σ∂Ω`` as ``assemble`` (``w`` is kept
    local- and global-distributed); RDD's ``operator`` exchanges
    itself.  Algorithm 5 passes ``reassemble`` (localize, then
    assemble): ``z`` is re-assembled first."""
    if reassemble is not None:
        z = reassemble(z)
    w = operator(z)
    return z, [w] if assemble is None else [w, assemble(w)]


def cgs(each, ranks, j: int, w, reduce, z):
    """The classical Gram-Schmidt round of step ``j``: per rank the
    ``j + 1`` coefficient dots ``<v_i, w>`` (first format of the basis,
    last of ``w``: Eq. 33's mixed pairing for EDD) — the same body files
    ``z_j`` in its slot —, ONE ``reduce`` of the partial rows, then per
    rank and format ``w -= sum_i h_i v_i``, in place in ``w``.  Two
    passes of ``each``; returns the ``(j + 1, ...)`` coefficients."""
    partial = {}

    def dots(r):
        e = ranks[r]
        e["zs"][j] = z[r]
        first, wr = e["basis"][0], w[-1][r]
        partial[r] = np.array([col_dots(first[i], wr) for i in range(j + 1)])

    each(dots)
    h = reduce(partial)

    def ortho(r):
        for w_f, basis in zip(w, ranks[r]["basis"]):
            wr = w_f[r]
            for i in range(j + 1):
                wr = wr - h[i] * basis[i]
            w_f[r] = wr

    each(ortho)
    return h


def norm(each, ranks, w, reduce, reassemble=None):
    """``<w, w>`` (mixed-format for EDD) through ONE ``reduce``, after
    Algorithm 5's ``reassemble`` of the exchanged format; each rank keeps
    ``w`` for the next step's :func:`commit`."""
    if reassemble is not None:
        w[-1] = reassemble(w[-1])
    partial = {}

    def body(r):
        ranks[r]["w"] = [w_f[r] for w_f in w]
        partial[r] = col_dots(w[0][r], w[-1][r])

    each(body)
    return reduce(partial)


def add_x(e, x, terms) -> None:
    """The cycle's solution update on one rank, in place on ``x``: each
    term ``(cols, sel, ys, saved)`` is one
    :func:`~repro.sparse.dense.add_columns` against the live ``z``
    slots, or — ``saved`` an index — against the slots of a column
    compacted out mid-cycle."""
    for cols, sel, ys, saved in terms:
        zs = e["zs"] if saved is None else e["saved"][saved]
        add_columns(x, zs, cols, sel, ys)
