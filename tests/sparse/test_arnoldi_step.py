"""The Arnoldi step of :mod:`repro.sparse.arnoldi`, run bare.

The leaf is driven here the way a pool worker drives it — per-rank
state, a per-rank loop, an operator and a reduction handed in as
callables — but in process, over a 3-rank row split of a small SPD
matrix, with no pool and no communicator.  Over several steps its
Hessenberg columns and basis must match a dense classical Gram-Schmidt
reference, for one vector and for a block of three columns that loses
one column mid-cycle (whose ``z`` slots are set aside and still serve
its solution update).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import arnoldi

N, SPLIT, RESTART, STEPS = 30, (0, 11, 19, 30), 6, 5
#: Two Neumann terms, so ``precondition`` really runs the operator.
PROGRAM = ("chain", "neumann", {"omega": 0.4, "degree": 2})


def _spd(rng):
    q = rng.standard_normal((N, N))
    return q @ q.T / N + np.eye(N)


def _split(x):
    return {r: np.array(x[lo:hi]) for r, (lo, hi) in
            enumerate(zip(SPLIT, SPLIT[1:]))}


def _gather(parts):
    return np.concatenate([parts[r] for r in range(len(SPLIT) - 1)])


def _each(body):
    for r in range(len(SPLIT) - 1):
        body(r)


def _reduce(partial):
    return partial[0] + partial[1] + partial[2]


def _reference(a, v0, steps):
    """Dense CGS Arnoldi on the Neumann-preconditioned operator:
    ``(steps, steps + 1)`` Hessenberg columns, basis and ``z`` vectors."""
    m = 0.4 * (np.eye(N) + (np.eye(N) - 0.4 * a)
               + (np.eye(N) - 0.4 * a) @ (np.eye(N) - 0.4 * a))
    v = [v0]
    zs, hs = [], []
    for j in range(steps):
        z = m @ v[j]
        w = a @ z
        h = np.array([vi @ w for vi in v])
        w = w - sum(hi * vi for hi, vi in zip(h, v))
        hn = np.linalg.norm(w)
        hs.append(np.append(h, hn))
        zs.append(z)
        v.append(w / hn)
    return hs, v, zs


def _run(a, v0, steps, retire=None):
    """Drive the leaf for ``steps`` steps on ``v0`` (``(N,)`` or
    ``(N, k)``); ``retire = (step, position)`` drops one column after
    that step.  Returns per step the Hessenberg columns ``(j + 2, live)``
    and the rank states."""
    def operator(x):
        return _split(a @ _gather(x))

    ranks = [{} for _ in range(3)]
    parts = _split(v0)
    _each(lambda r: arnoldi.open_cycle(ranks[r], RESTART, [parts[r]]))
    keep, inv_h, hs = None, None, []
    for j in range(steps):
        if inv_h is not None:
            _each(lambda r: arnoldi.commit(ranks[r], j, keep, inv_h))
        z = arnoldi.precondition(
            PROGRAM, {r: ranks[r]["basis"][0][j] for r in range(3)},
            operator, None, None,
        )
        z, w = arnoldi.matvec(z, operator)
        h = arnoldi.cgs(_each, ranks, j, w, _reduce, z)
        hn = np.sqrt(arnoldi.norm(_each, ranks, w, _reduce))
        hs.append(np.vstack([h.reshape(j + 1, -1), np.reshape(hn, (1, -1))]))
        live = hn if v0.ndim == 2 else float(hn)
        keep = None
        if retire is not None and retire[0] == j:
            keep = [c for c in range(len(hn)) if c != retire[1]]
            live = hn[keep]
        inv_h = 1.0 / live
    return hs, ranks


def test_vector_step_matches_dense_cgs():
    rng = np.random.default_rng(3)
    a = _spd(rng)
    b = rng.standard_normal(N)
    v0 = b / np.linalg.norm(b)
    hs, ranks = _run(a, v0, STEPS)
    ref_h, ref_v, ref_z = _reference(a, v0, STEPS)
    for j in range(STEPS):
        np.testing.assert_allclose(hs[j][:, 0], ref_h[j], rtol=0, atol=1e-12)
    basis = np.concatenate([e["basis"][0] for e in ranks], axis=1)
    for i in range(STEPS):  # v_0 .. v_{STEPS-1}: the last is never committed
        np.testing.assert_allclose(basis[i], ref_v[i], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            _gather({r: e["zs"][i] for r, e in enumerate(ranks)}),
            ref_z[i], rtol=0, atol=1e-12,
        )


@pytest.mark.parametrize("gone", [0, 1, 2])
def test_block_with_a_column_retired_mid_cycle(gone):
    rng = np.random.default_rng(4)
    a = _spd(rng)
    b = rng.standard_normal((N, 3))
    v0 = b / np.linalg.norm(b, axis=0)
    at = 2
    hs, ranks = _run(a, v0, STEPS, retire=(at, gone))
    stay = [c for c in range(3) if c != gone]
    for c in range(3):
        ref_h, ref_v, ref_z = _reference(a, v0[:, c], STEPS)
        for j in range(STEPS if c != gone else at + 1):
            pos = c if j <= at else stay.index(c)
            np.testing.assert_allclose(
                hs[j][:, pos], ref_h[j], rtol=0, atol=1e-12
            )
        if c == gone:
            # Its z_0 .. z_at were set aside at the next commit and still
            # give the solution update x = Z y.
            y = rng.standard_normal(at + 1)
            x = {r: np.zeros(hi - lo) for r, (lo, hi) in
                 enumerate(zip(SPLIT, SPLIT[1:]))}
            _each(lambda r: arnoldi.add_x(
                ranks[r], x[r], [(0, 0, [y], 0)]
            ))
            np.testing.assert_allclose(
                _gather(x), np.array(ref_z[:at + 1]).T @ y,
                rtol=0, atol=1e-12,
            )
            continue
        pos = stay.index(c)
        for i in range(STEPS):
            got = _gather({r: e["basis"][0][i][:, pos]
                           for r, e in enumerate(ranks)})
            np.testing.assert_allclose(got, ref_v[i], rtol=0, atol=1e-12)
    assert all(e["basis"][0].shape[-1] == 2 for e in ranks)
