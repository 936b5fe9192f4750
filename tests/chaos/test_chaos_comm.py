"""ChaosComm unit behaviour: passthrough parity with an empty plan,
per-kind injection semantics on each collective, determinism, and the
count/call-index targeting rules."""

import numpy as np
import pytest

from repro.fem.bc import clamp_edge_dofs
from repro.fem.mesh import structured_quad_mesh
from repro.parallel.chaos import ChaosComm, FaultPlan, FaultRule, use_fault_plan
from repro.parallel.comm import VirtualComm, make_comm, use_comm_backend
from repro.partition.element_partition import ElementPartition
from repro.partition.interface import SubdomainMap, build_subdomain_map

pytestmark = pytest.mark.chaos


@pytest.fixture
def submap4():
    mesh = structured_quad_mesh(8, 2)
    bc = clamp_edge_dofs(mesh, "left")
    labels = np.repeat(np.arange(4), 2)
    part = ElementPartition(mesh, np.concatenate([labels, labels]), 4)
    return build_subdomain_map(mesh, part, bc)


@pytest.fixture
def parts4(submap4, rng):
    return [rng.standard_normal(len(g)) for g in submap4.l2g]


def _halo_submap():
    """Two ranks, two owned DOFs each, no interface sharing."""
    own = [np.array([0, 1]), np.array([2, 3])]
    return SubdomainMap(4, 2, own, np.ones(4, dtype=np.int64), [dict(), dict()])


def _halo_plan():
    """Each rank sends both its entries to the other."""
    return {
        0: {1: (np.array([0, 1]), np.array([0, 1]))},
        1: {0: (np.array([0, 1]), np.array([0, 1]))},
    }


def _chaos(submap, *rules, seed=0) -> ChaosComm:
    return ChaosComm(submap, plan=FaultPlan(rules=tuple(rules), seed=seed))


# ----------------------------------------------------------------------
# Passthrough parity (empty plan == VirtualComm, bit for bit)
# ----------------------------------------------------------------------
def test_empty_plan_is_bit_identical(submap4, parts4):
    ref = VirtualComm(submap4)
    chaos = _chaos(submap4)
    for a, b in zip(ref.interface_assemble(parts4),
                    chaos.interface_assemble(parts4)):
        assert np.array_equal(a, b)
    vals = [float(p[0]) for p in parts4]
    assert ref.allreduce_sum(vals) == chaos.allreduce_sum(vals)
    assert chaos.injected == []


def test_empty_plan_halo_parity():
    submap = _halo_submap()
    x = [np.array([10.0, 11.0]), np.array([12.0, 13.0])]
    ref = VirtualComm(submap).halo_exchange(x, _halo_plan())
    got = _chaos(submap).halo_exchange(x, _halo_plan())
    for a, b in zip(ref, got):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Construction rules
# ----------------------------------------------------------------------
def test_make_comm_builds_chaos_from_active_plan(submap4):
    plan = FaultPlan(rules=(FaultRule("allreduce_sum", "nan"),), seed=3)
    with use_fault_plan(plan):
        with use_comm_backend("chaos"):
            comm = make_comm(submap4)
    assert isinstance(comm, ChaosComm) and isinstance(comm, VirtualComm)
    assert comm.plan == plan


# ----------------------------------------------------------------------
# Value faults
# ----------------------------------------------------------------------
def test_nan_injection_in_assembly(submap4, parts4):
    chaos = _chaos(
        submap4, FaultRule("interface_assemble", "nan", rank=2), seed=5
    )
    ref = VirtualComm(submap4).interface_assemble(parts4)
    out = chaos.interface_assemble(parts4)
    assert np.isnan(out[2]).sum() == 1
    for s in (0, 1, 3):
        assert np.array_equal(out[s], ref[s])
    (rec,) = chaos.injected
    assert rec["kind"] == "nan" and rec["rank"] == 2


def test_sign_flip_changes_one_word(submap4, parts4):
    chaos = _chaos(
        submap4, FaultRule("interface_assemble", "sign_flip", rank=0), seed=5
    )
    ref = VirtualComm(submap4).interface_assemble(parts4)
    out = chaos.interface_assemble(parts4)
    diff = np.flatnonzero(out[0] != ref[0])
    assert len(diff) <= 1  # exactly one word (or a zero got "flipped")
    if len(diff):
        assert out[0][diff[0]] == -ref[0][diff[0]]


def test_zero_word_and_inf_in_halo():
    submap = _halo_submap()
    x = [np.array([10.0, 11.0]), np.array([12.0, 13.0])]
    out = _chaos(
        submap, FaultRule("halo_exchange", "zero_word", rank=0), seed=1
    ).halo_exchange(x, _halo_plan())
    assert (out[0] == 0.0).sum() == 1
    out = _chaos(
        submap, FaultRule("halo_exchange", "inf", rank=1), seed=1
    ).halo_exchange(x, _halo_plan())
    assert np.isinf(out[1]).sum() == 1


def test_allreduce_scalar_corruption(submap4):
    vals = [1.0, 2.0, 3.0, 4.0]
    chaos = _chaos(submap4, FaultRule("allreduce_sum", "sign_flip"))
    assert chaos.allreduce_sum(vals) == -10.0
    chaos = _chaos(submap4, FaultRule("allreduce_sum", "nan"))
    assert np.isnan(chaos.allreduce_sum(vals))


def test_allreduce_array_corruption(submap4, rng):
    vals = [rng.standard_normal(6) for _ in range(4)]
    ref = VirtualComm(submap4).allreduce_sum(vals, words=6)
    out = _chaos(
        submap4, FaultRule("allreduce_sum", "zero_word"), seed=9
    ).allreduce_sum(vals, words=6)
    assert (out != ref).sum() == 1
    assert out[out != ref] == 0.0


# ----------------------------------------------------------------------
# Message-level faults
# ----------------------------------------------------------------------
def test_drop_contribution_in_assembly(submap4, parts4):
    chaos = _chaos(
        submap4, FaultRule("interface_assemble", "drop_contribution", rank=1),
        seed=2,
    )
    ref = VirtualComm(submap4).interface_assemble(parts4)
    out = chaos.interface_assemble(parts4)
    (rec,) = chaos.injected
    t = int(rec["detail"].split()[-1])  # "dropped contribution of rank t"
    shared_idx = submap4.shared[1][t]
    # Dropped DOFs miss exactly rank t's partial sums; all else intact.
    g2l_t = np.full(submap4.n_global, -1, dtype=np.int64)
    g2l_t[submap4.l2g[t]] = np.arange(len(submap4.l2g[t]))
    contrib = parts4[t][g2l_t[submap4.l2g[1][shared_idx]]]
    assert np.allclose(out[1][shared_idx], ref[1][shared_idx] - contrib)
    mask = np.ones(len(out[1]), dtype=bool)
    mask[shared_idx] = False
    assert np.array_equal(out[1][mask], ref[1][mask])


def test_duplicate_contribution_in_assembly(submap4, parts4):
    chaos = _chaos(
        submap4, FaultRule("interface_assemble", "duplicate_payload", rank=1),
        seed=2,
    )
    ref = VirtualComm(submap4).interface_assemble(parts4)
    out = chaos.interface_assemble(parts4)
    (rec,) = chaos.injected
    assert rec["kind"] == "duplicate_payload"
    changed = np.flatnonzero(out[1] != ref[1])
    assert len(changed) > 0
    assert set(changed) <= set(np.asarray(
        submap4.shared[1][int(rec["detail"].split()[3])]
    ))


def test_drop_payload_in_halo():
    submap = _halo_submap()
    x = [np.array([10.0, 11.0]), np.array([12.0, 13.0])]
    out = _chaos(
        submap, FaultRule("halo_exchange", "drop_contribution", rank=0)
    ).halo_exchange(x, _halo_plan())
    assert np.array_equal(out[0], np.zeros(2))  # message never arrived
    assert np.array_equal(out[1], np.array([10.0, 11.0]))


def test_stale_duplicate_payload_in_halo():
    submap = _halo_submap()
    chaos = _chaos(
        submap,
        FaultRule("halo_exchange", "duplicate_payload", rank=0, call_index=1),
    )
    first = [np.array([10.0, 11.0]), np.array([12.0, 13.0])]
    second = [np.array([20.0, 21.0]), np.array([22.0, 23.0])]
    chaos.halo_exchange(first, _halo_plan())
    out = chaos.halo_exchange(second, _halo_plan())
    # Rank 0 got a stale duplicate of call 0's payload from rank 1.
    assert np.array_equal(out[0], np.array([12.0, 13.0]))
    assert np.array_equal(out[1], np.array([20.0, 21.0]))


def test_reorder_payload_in_halo_is_permutation():
    submap = _halo_submap()
    x = [np.array([10.0, 11.0]), np.array([12.0, 13.0])]
    out = _chaos(
        submap, FaultRule("halo_exchange", "reorder_payload", rank=0), seed=11
    ).halo_exchange(x, _halo_plan())
    assert sorted(out[0]) == [12.0, 13.0]  # same words, possibly permuted
    assert np.array_equal(out[1], np.array([10.0, 11.0]))


def test_allreduce_drop_and_duplicate(submap4):
    vals = [1.0, 2.0, 3.0, 4.0]
    chaos = _chaos(submap4, FaultRule("allreduce_sum", "drop_contribution"),
                   seed=4)
    out = chaos.allreduce_sum(vals)
    (rec,) = chaos.injected
    assert out == 10.0 - vals[rec["rank"]]
    chaos = _chaos(submap4, FaultRule("allreduce_sum", "duplicate_payload"),
                   seed=4)
    out = chaos.allreduce_sum(vals)
    (rec,) = chaos.injected
    assert out == 10.0 + vals[rec["rank"]]


def test_allreduce_reorder_is_rounding_level(submap4, rng):
    vals = [rng.standard_normal() for _ in range(4)]
    ref = VirtualComm(submap4).allreduce_sum(vals)
    out = _chaos(
        submap4, FaultRule("allreduce_sum", "reorder_payload")
    ).allreduce_sum(vals)
    assert out == pytest.approx(ref, rel=1e-12)


def test_stall_leaves_numerics_untouched(submap4, parts4):
    chaos = _chaos(
        submap4, FaultRule("*", "stall", param=0.0, count=None)
    )
    ref = VirtualComm(submap4).interface_assemble(parts4)
    for a, b in zip(ref, chaos.interface_assemble(parts4)):
        assert np.array_equal(a, b)
    assert chaos.injected[0]["kind"] == "stall"


# ----------------------------------------------------------------------
# Targeting: call_index, count, determinism
# ----------------------------------------------------------------------
def test_call_index_targets_one_call(submap4, parts4):
    chaos = _chaos(
        submap4, FaultRule("interface_assemble", "nan", call_index=2,
                           count=None)
    )
    ref = VirtualComm(submap4).interface_assemble(parts4)
    for call in range(4):
        out = chaos.interface_assemble(parts4)
        has_nan = any(np.isnan(o).any() for o in out)
        assert has_nan == (call == 2)
        if not has_nan:
            for a, b in zip(ref, out):
                assert np.array_equal(a, b)
    assert [r["call_index"] for r in chaos.injected] == [2]


def test_count_limits_firings(submap4, parts4):
    chaos = _chaos(submap4, FaultRule("interface_assemble", "nan", count=2))
    for _ in range(5):
        chaos.interface_assemble(parts4)
    assert len(chaos.injected) == 2


def test_unlimited_count_fires_every_call(submap4, parts4):
    chaos = _chaos(submap4, FaultRule("interface_assemble", "nan", count=None))
    for _ in range(4):
        chaos.interface_assemble(parts4)
    assert len(chaos.injected) == 4


def test_same_plan_same_injections(submap4, parts4):
    """Bit-for-bit determinism: same plan, same calls => identical
    injection log and identical outputs."""
    plan = FaultPlan(
        rules=(FaultRule("interface_assemble", "nan"),
               FaultRule("allreduce_sum", "drop_contribution")),
        seed=123,
    )
    outs, logs = [], []
    for _ in range(2):
        chaos = ChaosComm(submap4, plan=plan)
        o = chaos.interface_assemble(parts4)
        v = chaos.allreduce_sum([1.0, 2.0, 3.0, 4.0])
        outs.append((o, v))
        logs.append(chaos.injected)
    assert logs[0] == logs[1]
    assert outs[0][1] == outs[1][1]
    for a, b in zip(outs[0][0], outs[1][0]):
        assert np.array_equal(a, b, equal_nan=True)


def test_different_seed_different_target(submap4, parts4):
    """The seed steers random choices (which word, which rank)."""
    hits = set()
    for seed in range(8):
        chaos = _chaos(submap4, FaultRule("interface_assemble", "nan"),
                       seed=seed)
        out = chaos.interface_assemble(parts4)
        (rec,) = chaos.injected
        hits.add((rec["rank"], rec["detail"]))
    assert len(hits) > 1
