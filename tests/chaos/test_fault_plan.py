"""FaultPlan/FaultRule: validation, JSON round-trip, registry and env
pickup — the reproducibility contract every chaos failure message relies
on."""

import json

import pytest

from repro.parallel.chaos import (
    COLLECTIVES,
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    get_fault_plan,
    set_fault_plan,
    use_fault_plan,
)

pytestmark = pytest.mark.chaos


# ----------------------------------------------------------------------
# Rule validation
# ----------------------------------------------------------------------
def test_rule_rejects_unknown_collective():
    with pytest.raises(ValueError, match="unknown collective"):
        FaultRule("broadcast", "nan")


def test_rule_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultRule("halo_exchange", "bitrot")


def test_rule_rejects_bad_count():
    with pytest.raises(ValueError, match="count"):
        FaultRule("halo_exchange", "nan", count=0)


def test_rule_rejects_negative_call_index():
    with pytest.raises(ValueError, match="call_index"):
        FaultRule("halo_exchange", "nan", call_index=-1)


def test_rule_defaults_are_transient():
    """The default rule fires exactly once — persistent faults make the
    solver iterate a coherently wrong operator, which is undetectable by
    design, so transience is the safe default."""
    r = FaultRule("allreduce_sum", "sign_flip")
    assert r.count == 1
    assert r.rank is None and r.call_index is None


def test_plan_rejects_non_rules():
    with pytest.raises(TypeError, match="FaultRule"):
        FaultPlan(rules=({"kind": "nan"},))


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def _sample_plan() -> FaultPlan:
    return FaultPlan(
        rules=(
            FaultRule("interface_assemble", "sign_flip", rank=1, call_index=4),
            FaultRule("halo_exchange", "drop_contribution", count=None),
            FaultRule("allreduce_sum", "nan", call_index=0, count=3),
            FaultRule("*", "stall", param=0.001),
        ),
        seed=42,
    )


def test_plan_json_roundtrip_exact():
    plan = _sample_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_json_is_compact_and_sorted():
    text = _sample_plan().to_json()
    payload = json.loads(text)
    assert " " not in text  # compact separators: pastable one-liner
    assert list(payload) == sorted(payload)


def test_plan_dict_roundtrip_every_kind_and_collective():
    for coll in COLLECTIVES:
        for kind in FAULT_KINDS:
            plan = FaultPlan(rules=(FaultRule(coll, kind),), seed=7)
            assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_from_json_revalidates():
    bad = json.dumps({"seed": 0, "rules": [{"collective": "halo_exchange",
                                           "kind": "bitrot"}]})
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_json(bad)


def test_empty_plan():
    assert FaultPlan.empty() == FaultPlan(rules=(), seed=0)


# ----------------------------------------------------------------------
# Active-plan registry and environment pickup
# ----------------------------------------------------------------------
def test_use_fault_plan_scopes_and_restores():
    plan = _sample_plan()
    before = get_fault_plan()
    with use_fault_plan(plan) as active:
        assert active is plan
        assert get_fault_plan() is plan
    assert get_fault_plan() == before


def test_set_fault_plan_returns_previous():
    plan = _sample_plan()
    prev = set_fault_plan(plan)
    try:
        assert get_fault_plan() is plan
    finally:
        set_fault_plan(prev)


def test_env_plan_json_string(monkeypatch):
    plan = _sample_plan()
    monkeypatch.setenv("REPRO_CHAOS_PLAN", plan.to_json())
    assert get_fault_plan() == plan


def test_env_plan_json_file(tmp_path, monkeypatch):
    plan = _sample_plan()
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    monkeypatch.setenv("REPRO_CHAOS_PLAN", str(path))
    assert get_fault_plan() == plan


def test_env_default_is_empty_plan(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_PLAN", raising=False)
    assert get_fault_plan() == FaultPlan.empty()
