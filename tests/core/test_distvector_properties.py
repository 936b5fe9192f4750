"""Property-based tests of the distributed vector algebra and the
interface-assembly operator — the invariants the EDD formulation rests on.

Every property takes the part shape as one more input: it is checked on
``(n,)`` vectors, and again on ``(n, 1)`` and ``(n, 3)`` blocks whose
column ``c`` must be *bitwise* the vector result on column ``c`` (inner
products over ``k > 1`` columns: to rounding, see ``_check_blocks``),
with flops and words scaling by ``k`` while message counts do not."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributed import DistVector, build_edd_system
from repro.fem.bc import clamp_edge_dofs
from repro.fem.material import Material
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.comm import use_comm_backend
from repro.partition.element_partition import ElementPartition

MAT = Material(E=100.0, nu=0.3)

#: Block widths every property is repeated on, next to the 1-D vectors.
WIDTHS = (1, 3)


def _system(seed_parts=2):
    mesh = structured_quad_mesh(4, 2)
    bc = clamp_edge_dofs(mesh, "left")
    part = ElementPartition.build(mesh, seed_parts)
    # This system lives for the whole session (module constant), so pin
    # it to the virtual backend: under REPRO_COMM_BACKEND=process it
    # would otherwise hold a pool borrow open and leak worker processes.
    with use_comm_backend("virtual"):
        return build_edd_system(mesh, MAT, bc, part, np.zeros(mesh.n_dofs))


SYSTEM = _system()


def _rand_global(seed):
    x = np.random.default_rng(seed).standard_normal(SYSTEM.n_global)
    return SYSTEM.distribute(x), x


def _rand_cols(seed, kind):
    """Three random distributed vectors of ``kind`` (consistent on shared
    DOFs when global), the columns every block below is cut from."""
    rng = np.random.default_rng(seed)
    if kind == "global":
        return [
            SYSTEM.distribute(rng.standard_normal(SYSTEM.n_global))
            for _ in range(max(WIDTHS))
        ]
    return [
        DistVector(
            [rng.standard_normal(n) for n in SYSTEM.submap.local_sizes],
            "local",
            SYSTEM.comm,
        )
        for _ in range(max(WIDTHS))
    ]


def _block(cols, k):
    """The ``(n, k)`` block whose column ``c`` is the vector ``cols[c]``."""
    parts = [
        np.ascontiguousarray(np.column_stack([v.parts[r] for v in cols[:k]]))
        for r in range(SYSTEM.n_parts)
    ]
    return DistVector(parts, cols[0].kind, SYSTEM.comm)


def _charged(fn):
    """``fn()`` plus the ``(flops, words, messages, reductions)`` it
    charged to the communicator."""
    stats = SYSTEM.comm.stats

    def snap():
        return np.array([
            sum(rs.flops for rs in stats.ranks),
            stats.total_nbr_words,
            stats.total_nbr_messages,
            stats.max_reductions,
        ])

    before = snap()
    out = fn()
    return out, snap() - before


def _check_blocks(op, col_inputs, vec_outs, vec_cost):
    """Run ``op`` on the ``(n, 1)`` and ``(n, 3)`` blocks of the column
    vectors in ``col_inputs`` (one list of columns per operand): column
    ``c`` of the result must be bitwise ``vec_outs[c]`` — what ``op``
    gave on the 1-D column ``c`` — and the cost must be ``vec_cost``
    with flops and words times ``k``, messages and reductions as is.

    The one exception to bitwise: an inner product over a ``k > 1`` block
    reads column ``c`` with stride ``k``, and BLAS sums a strided ddot in
    another order than a contiguous one (measured here: last-ulp
    differences from ``n = 10`` up) — so scalar results are bitwise at
    ``k = 1`` and equal to rounding beyond."""
    for k in WIDTHS:
        out, cost = _charged(lambda: op(*[_block(c, k) for c in col_inputs]))
        assert cost.tolist() == (vec_cost * [k, k, 1, 1]).tolist()
        for c in range(k):
            ref = vec_outs[c]
            if isinstance(out, DistVector):
                assert out.kind == ref.kind
                for bp, vp in zip(out.parts, ref.parts):
                    assert bp.shape == (len(vp), k)
                    assert np.array_equal(bp[:, c], vp)
            elif k == 1:
                assert np.array_equal(np.asarray(out)[..., c], ref)
            else:
                assert out[c] == pytest.approx(ref, rel=1e-13, abs=1e-13)


def _on_columns(op, *col_inputs):
    """``op`` on each 1-D column (returning the per-column results and
    asserting every column costs the same), then on the blocks."""
    outs, costs = zip(*[
        _charged(lambda c=c: op(*[cols[c] for cols in col_inputs]))
        for c in range(max(WIDTHS))
    ])
    assert all(c.tolist() == costs[0].tolist() for c in costs)
    _check_blocks(op, col_inputs, outs, costs[0])
    return outs


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
def test_exchange_is_linear(seed, alpha, beta):
    """⊕Σ∂Ω is a linear operator: assemble(a*u + b*v) == a*assemble(u) +
    b*assemble(v)."""
    us, vs = _rand_cols(seed, "local"), _rand_cols(seed + 1, "local")
    lhs = _on_columns(lambda u, v: SYSTEM.assemble(alpha * u + beta * v), us, vs)
    rhs_a = _on_columns(SYSTEM.assemble, us)
    rhs_b = _on_columns(SYSTEM.assemble, vs)
    for lh, ra, rb in zip(lhs, rhs_a, rhs_b):
        for lp, ap, bp in zip(lh.parts, ra.parts, rb.parts):
            assert np.allclose(lp, alpha * ap + beta * bp, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_assemble_localize_idempotent(seed):
    """assemble ∘ localize is the identity on global-distributed vectors."""
    vs = _rand_cols(seed, "global")
    ws = _on_columns(lambda v: SYSTEM.assemble(SYSTEM.localize(v)), vs)
    for v, w in zip(vs, ws):
        for a, b in zip(v.parts, w.parts):
            assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mixed_dot_equals_global_dot(seed):
    """Eq. 33 for arbitrary vectors, not just solver iterates."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((max(WIDTHS), SYSTEM.n_global))
    ys = rng.standard_normal((max(WIDTHS), SYSTEM.n_global))
    lhs = _on_columns(
        lambda x, y: SYSTEM.dot(SYSTEM.localize(x), y),
        [SYSTEM.distribute(x) for x in xs],
        [SYSTEM.distribute(y) for y in ys],
    )
    for lh, x, y in zip(lhs, xs, ys):
        assert lh == pytest.approx(float(x @ y), rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_matvec_assembled_is_global_operator(seed):
    """EDD matvec + exchange equals the assembled operator on any input."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((max(WIDTHS), SYSTEM.n_global))
    ys = _on_columns(SYSTEM.matvec_assembled, [SYSTEM.distribute(x) for x in xs])
    # The host-side gather is shape-generic too: block in, block out.
    y_blk = SYSTEM.to_global_vector(_block(ys, 3))
    a_global = np.zeros((SYSTEM.n_global, SYSTEM.n_global))
    for s, a in enumerate(SYSTEM.a_local):
        g = SYSTEM.submap.l2g[s]
        a_global[np.ix_(g, g)] += a.toarray()
    for c, (y, x) in enumerate(zip(ys, xs)):
        y_true = SYSTEM.to_global_vector(y)
        assert np.array_equal(y_blk[:, c], y_true)
        assert np.allclose(y_true, a_global @ x, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(-3, 3, allow_nan=False),
)
def test_distvector_vector_space_axioms(seed, alpha):
    us, vs = _rand_cols(seed, "global"), _rand_cols(seed + 1, "global")
    # commutativity and scalar distribution
    s1 = _on_columns(lambda u, v: u + v, us, vs)
    s2 = _on_columns(lambda u, v: v + u, us, vs)
    d1 = _on_columns(lambda u, v: alpha * (u + v), us, vs)
    d2 = _on_columns(lambda u, v: alpha * u + alpha * v, us, vs)
    # subtraction inverts addition
    zs = _on_columns(lambda u, v: (u + v) - v, us, vs)
    for c, u in enumerate(us):
        for a, b in zip(s1[c].parts, s2[c].parts):
            assert np.array_equal(a, b)
        for a, b in zip(d1[c].parts, d2[c].parts):
            assert np.allclose(a, b, atol=1e-10)
        for a, b in zip(zs[c].parts, u.parts):
            assert np.allclose(a, b, atol=1e-10)
    # one scalar per column is the per-column scalar multiply
    scales = np.array([alpha, 2.0, -0.5])
    scaled = _block(us, 3) * scales
    for c, u in enumerate(us):
        for bp, vp in zip(scaled.parts, (scales[c] * u).parts):
            assert np.array_equal(bp[:, c], vp)


def test_copy_is_deep():
    v, _ = _rand_global(0)
    for w0 in (v, _block([v, v, v], 1), _block([v, v, v], 3)):
        w = w0.copy()
        w.parts[0][0] = 1e9
        assert np.all(w0.parts[0][0] != 1e9)
        assert w.parts[0].shape == w0.parts[0].shape


# ----------------------------------------------------------------------
# Inner products do not depend on the BLAS thread count
# ----------------------------------------------------------------------
#
# OpenBLAS threads a ddot above 10000 elements and a threaded ddot sums
# in an order set by the thread count, so ``a @ b`` at n = 10100 has
# other bits in a 1-thread pool worker than in a 2-thread orchestrator —
# which is what the resident-vs-virtual contract must not see.
# ``col_dots`` never hands BLAS more than ``DOT_BLOCK`` elements; the
# child interpreters below evaluate it (and the coarse
# restriction/prolongation gemvs, the other BLAS calls of a solve) with
# the pool pinned to 1 thread, to 2, and left at its default.

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.distributed import DOT_BLOCK, col_dots

DOT_SIZES = (8192, 8193, 10001, 10100, 20200, 103040)

_CHILD = r"""
import json, sys
import numpy as np
from repro.core.distributed import col_dots

out = {}
for n in json.loads(sys.argv[1]):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n))
    a3, b3 = rng.standard_normal((2, n, 3))
    out[str(n)] = [float(col_dots(a, b)).hex(), float(a @ b).hex()] + [
        float(d).hex() for d in col_dots(a3, b3)
    ]
rng = np.random.default_rng(6)
w, v, y = rng.standard_normal((10100, 6)), rng.standard_normal(10100), \
    rng.standard_normal(6)
out["coarse"] = [float(x).hex() for x in w.T @ v] + [
    float(x).hex() for x in (w @ y)[::1000]
]
print(json.dumps(out))
"""


def _dots_in_child(threads):
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(DOT_SIZES)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_inner_product_bits_do_not_depend_on_blas_threads():
    one, two, default = (_dots_in_child(t) for t in (1, 2, None))
    for n in DOT_SIZES:
        blocked, plain, *cols = one[str(n)]
        assert two[str(n)][0] == default[str(n)][0] == blocked, n
        assert two[str(n)][2:] == default[str(n)][2:] == cols, n
        if n <= DOT_BLOCK:
            # One block: exactly the ddot it has always been.
            assert blocked == plain
    # The coarse restriction/prolongation at 10100 x 6: gemv keeps its
    # bits across thread counts, so they stay plain ``@``.
    assert one["coarse"] == two["coarse"] == default["coarse"]


def test_col_dots_is_a_left_to_right_sum_of_block_dots():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2 * DOT_BLOCK + 5))
    expected = a[:DOT_BLOCK] @ b[:DOT_BLOCK]
    expected += a[DOT_BLOCK:2 * DOT_BLOCK] @ b[DOT_BLOCK:2 * DOT_BLOCK]
    expected += a[2 * DOT_BLOCK:] @ b[2 * DOT_BLOCK:]
    assert col_dots(a, b) == expected
    blk = np.ascontiguousarray(np.column_stack([a, b]))
    assert col_dots(blk, blk).tolist() == [
        col_dots(blk[:, 0], blk[:, 0]), col_dots(blk[:, 1], blk[:, 1]),
    ]
