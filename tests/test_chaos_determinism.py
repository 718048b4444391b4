"""The chaos bench: zero user-visible errors and seed-exact determinism."""

import json
from dataclasses import asdict

import pytest

from repro.bench import chaos
from repro.bench.chaos import run_chaos_scenario
from repro.bench.harness import fingerprint
from repro.bench.qos import run_qos_scenario
from repro.bench.scaleout import run_scaleout

SEEDS = [11, 23, 47]


@pytest.mark.parametrize("seed", SEEDS)
def test_faults_absorbed_with_zero_user_errors(seed):
    report = run_chaos_scenario(seed=seed, operations=120, fault_rate=0.10)
    assert report.ok == 120
    assert report.user_errors == 0
    # faults actually fired and were retried away, not just absent
    assert sum(report.faults.values()) > 0
    assert sum(report.retries.values()) > 0
    assert report.goodput > 0


def test_same_seed_is_byte_identical():
    first = run_chaos_scenario(seed=SEEDS[0], operations=120, fault_rate=0.10)
    second = run_chaos_scenario(seed=SEEDS[0], operations=120, fault_rate=0.10)
    assert fingerprint(asdict(first)) == fingerprint(asdict(second))


def test_different_seeds_diverge():
    a = run_chaos_scenario(seed=SEEDS[0], operations=120, fault_rate=0.10)
    b = run_chaos_scenario(seed=SEEDS[1], operations=120, fault_rate=0.10)
    assert fingerprint(asdict(a)) != fingerprint(asdict(b))


def test_check_determinism_runs_every_seed_twice(tmp_path):
    out = tmp_path / "BENCH_chaos.json"
    seeds = [str(seed) for seed in SEEDS[:2]]
    assert chaos.main(["--seeds", *seeds, "--ops", "60",
                       "--out", str(out), "--check"]) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == {"zero_user_errors": True,
                                "deterministic": True}
    assert [run["seed"] for run in report["runs"]] == SEEDS[:2]


def test_sharded_scaleout_absorbs_faults_with_zero_user_errors():
    """Chaos on the 4-shard cluster: a 10% shard-dispatch fault rate is
    absorbed by the router's retries (and, when a breaker trips, by the
    last-known-good cache) — the client never sees an error."""
    report = run_scaleout(seed=SEEDS[0], shard_counts=(4,), clients=16,
                          duration=0.1, fault_rate=0.10)
    mode = report["modes"]["4"]
    assert mode["user_errors"] == 0
    assert mode["completed"] > 0
    assert mode["faults_injected"] > 0  # chaos actually fired


def test_sharded_scaleout_same_seed_is_byte_identical():
    first = run_scaleout(seed=SEEDS[0], shard_counts=(4,), clients=16,
                         duration=0.1, fault_rate=0.10)
    second = run_scaleout(seed=SEEDS[0], shard_counts=(4,), clients=16,
                          duration=0.1, fault_rate=0.10)
    assert fingerprint(first) == fingerprint(second)


def test_sharded_scaleout_different_seeds_diverge():
    a = run_scaleout(seed=SEEDS[0], shard_counts=(4,), clients=16,
                     duration=0.1, fault_rate=0.10)
    b = run_scaleout(seed=SEEDS[1], shard_counts=(4,), clients=16,
                     duration=0.1, fault_rate=0.10)
    assert fingerprint(a) != fingerprint(b)


def test_qos_chaos_in_budget_tenants_see_no_errors():
    """QoS + 10% storage faults + one abusive tenant: the abuser soaks
    up every 429 while in-budget tenants' paced reads all succeed —
    faults are retried away and throttling never bleeds across
    tenants."""
    report = run_qos_scenario(seed=SEEDS[0], fault_rate=0.10)
    assert report["victim_errors"] == 0
    assert report["victim_ok"] > 0
    assert report["abuser_throttled"] > 0
    assert report["abuser_other_errors"] == 0
    # every shed was audited (allowed=False, TENANT_THROTTLED)
    assert report["audit_denied"] == report["abuser_throttled"]
    shed = report["qos"]["shed"]
    assert set(shed) == {"abuser"}


def test_qos_chaos_same_seed_is_byte_identical():
    first = run_qos_scenario(seed=SEEDS[0], fault_rate=0.10)
    second = run_qos_scenario(seed=SEEDS[0], fault_rate=0.10)
    assert fingerprint(first) == fingerprint(second)


def test_qos_chaos_different_seeds_diverge():
    a = run_qos_scenario(seed=SEEDS[0], fault_rate=0.10)
    b = run_qos_scenario(seed=SEEDS[1], fault_rate=0.10)
    assert fingerprint(a) != fingerprint(b)
