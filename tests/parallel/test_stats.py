"""Counter plumbing."""

import threading

import pytest

from repro.parallel.stats import CommStats, RankStats


def test_merge():
    a = RankStats(flops=10, nbr_messages=2, nbr_words=5, reductions=1)
    b = RankStats(flops=5, nbr_words=3, reduction_words=2)
    a.merge(b)
    assert a.flops == 15
    assert a.nbr_messages == 2
    assert a.nbr_words == 8
    assert a.reduction_words == 2


def test_snapshot_independent():
    cs = CommStats(2)
    cs.ranks[0].flops = 7
    snap = cs.snapshot()
    cs.ranks[0].flops = 100
    assert snap.ranks[0].flops == 7


def test_delta():
    cs = CommStats(2)
    cs.ranks[0].flops = 10
    cs.ranks[1].nbr_messages = 3
    before = cs.snapshot()
    cs.ranks[0].flops = 25
    cs.ranks[1].nbr_messages = 7
    d = cs.delta(before)
    assert d.ranks[0].flops == 15
    assert d.ranks[1].nbr_messages == 4


def test_aggregates():
    cs = CommStats(3)
    for i, r in enumerate(cs.ranks):
        r.flops = 10 * (i + 1)
        r.reductions = 2
        r.nbr_messages = i
        r.nbr_words = 5 * i
    assert cs.total_flops == 60
    assert cs.max_flops == 30
    assert cs.total_nbr_messages == 3
    assert cs.total_nbr_words == 15
    assert cs.max_reductions == 2


def test_reset():
    cs = CommStats(2)
    cs.ranks[0].flops = 5
    cs.reset()
    assert cs.total_flops == 0


def test_rank_count_validated():
    with pytest.raises(ValueError):
        CommStats(2, ranks=[RankStats()])


# ----------------------------------------------------------------------
# Thread-safe counters (service executor threads read while solves charge)
# ----------------------------------------------------------------------
def test_commstats_concurrent_hammer():
    """Concurrent per-rank increments + cross-rank charges stay exact."""
    stats = CommStats(8)
    n_iter = 2000

    def per_rank(r):
        for _ in range(n_iter):
            stats.ranks[r].flops += 3

    def collective():
        for _ in range(n_iter):
            stats.charge_all_ranks(reductions=1, reduction_words=2)

    threads = [threading.Thread(target=per_rank, args=(r,)) for r in range(8)]
    threads += [threading.Thread(target=collective) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in stats.ranks:
        assert r.flops == 3 * n_iter
        assert r.reductions == 4 * n_iter
        assert r.reduction_words == 8 * n_iter


def test_commstats_snapshot_during_charges():
    """Snapshots taken mid-hammer see a consistent cross-rank state."""
    stats = CommStats(4)
    stop = threading.Event()

    def charger():
        while not stop.is_set():
            stats.charge_all_ranks(flops=1)

    t = threading.Thread(target=charger)
    t.start()
    try:
        for _ in range(200):
            snap = stats.snapshot()
            flops = [r.flops for r in snap.ranks]
            assert len(set(flops)) == 1  # all ranks charged atomically
    finally:
        stop.set()
        t.join()
