"""The attack supervisor: verdicts, retries, budgets, the acceptance bar."""

import pytest

from repro.attacks.supervisor import (
    ABSTAIN,
    FAILED,
    FOUND,
    AttackSupervisor,
    SUPERVISED_ATTACKS,
    Verdict,
    supervise,
)
from repro.errors import AttackError, CalibrationError, ProbeBudgetExceeded
from repro.machine import Machine


class TestAcceptanceCriterion:
    def test_kaslr_under_default_chaos_nine_of_ten_seeds(self):
        """The PR's headline bar: >= 9/10 seeds recover the true base
        under migration + DVFS + neighbour bursts, <= 3 retries each."""
        correct = 0
        for seed in range(10):
            machine = Machine.linux(seed=seed, chaos="default", kpti=False)
            verdict = supervise(machine, "kaslr")
            assert verdict.retries <= 3
            assert verdict.status in (FOUND, ABSTAIN, FAILED)
            assert verdict.disturbances  # log populated
            if verdict.found and verdict.value == machine.kernel.base:
                correct += 1
        assert correct >= 9

    def test_no_disturbance_surfaces_as_an_exception(self):
        # modules/0 and kaslr/11 re-map a kernel image over the page
        # table an earlier image's 4 KiB tail page left behind
        for attack, seed in (("kaslr", 3), ("modules", 0), ("kaslr", 11)):
            for profile in ("default", "hostile", "rerandomizing"):
                machine = Machine.linux(seed=seed, chaos=profile, kpti=False)
                verdict = supervise(machine, attack)
                assert isinstance(verdict, Verdict)
                assert verdict.status in (FOUND, ABSTAIN, FAILED)


class TestVerdictShape:
    def test_as_dict_round_trip(self):
        machine = Machine.linux(seed=1, chaos="default", kpti=False)
        verdict = supervise(machine, "kaslr")
        record = verdict.as_dict()
        for key in ("attack", "status", "value", "confidence", "retries",
                    "attempts", "disturbances", "probes_spent",
                    "elapsed_ms"):
            assert key in record
        assert record["attack"] == "kaslr"
        if verdict.value is not None:
            assert record["value"].startswith("0x")
        assert all("outcome" in a for a in record["attempts"])

    def test_without_chaos_the_supervisor_still_works(self):
        machine = Machine.linux(seed=2, kpti=False)
        verdict = supervise(machine, "kaslr")
        assert verdict.found
        assert verdict.value == machine.kernel.base
        assert verdict.disturbances == []
        assert verdict.retries == 0

    def test_unknown_attack_rejected(self):
        machine = Machine.linux(seed=0)
        with pytest.raises(AttackError):
            supervise(machine, "rowhammer")

    def test_supervised_attacks_registry(self):
        assert set(SUPERVISED_ATTACKS) == {
            "kaslr", "kpti", "modules", "windows", "userspace", "cloud",
            "sgx", "fingerprint",
        }


class TestDeterminism:
    @pytest.mark.parametrize("engine", [None, "per-op"],
                             ids=["auto", "per-op"])
    def test_same_seed_same_verdict_and_clock(self, engine):
        outcomes = []
        for _ in range(2):
            machine = Machine.linux(seed=6, chaos="default", kpti=False)
            verdict = supervise(machine, "kaslr", engine=engine)
            outcomes.append((verdict.as_dict(), machine.clock.cycles))
        assert outcomes[0] == outcomes[1]

    def test_hostile_profile_deterministic_too(self):
        outcomes = []
        for _ in range(2):
            machine = Machine.linux(seed=9, chaos="hostile", kpti=False)
            verdict = supervise(machine, "kaslr")
            outcomes.append((verdict.as_dict(), machine.clock.cycles))
        assert outcomes[0] == outcomes[1]


class TestFeedbackMechanisms:
    def test_calibration_rejected_when_mean_is_implausible(self):
        machine = Machine.linux(seed=10)
        machine.core.dvfs_scale = 6.0  # absurd frequency regime
        supervisor = AttackSupervisor(machine)
        with pytest.raises(CalibrationError):
            supervisor.checked_calibration()

    def test_drift_detected_after_a_regime_change(self):
        machine = Machine.linux(seed=11)
        supervisor = AttackSupervisor(machine)
        calibration = supervisor.checked_calibration()
        machine.core.dvfs_scale = 1.5
        with pytest.raises(CalibrationError):
            supervisor.check_drift(calibration)

    def test_probe_budget_becomes_a_failed_verdict(self):
        machine = Machine.linux(seed=12, chaos="default", kpti=False)
        verdict = supervise(machine, "kaslr", probe_budget=100)
        assert verdict.status == FAILED
        assert verdict.attempts[-1].outcome == "budget-exceeded"
        assert verdict.probes_spent > 100

    def test_budget_exception_carries_spending(self):
        machine = Machine.linux(seed=13)
        supervisor = AttackSupervisor(machine, probe_budget=10)
        with pytest.raises(ProbeBudgetExceeded) as info:
            supervisor.charge_probes(50)
        assert info.value.probes_spent == 50

    def test_rerandomization_aborts_and_retries(self):
        machine = Machine.linux(seed=4, chaos="rerandomizing", kpti=False)
        verdict = supervise(machine, "kaslr")
        outcomes = [a.outcome for a in verdict.attempts]
        assert "rerandomized" in outcomes
        assert verdict.found
        assert verdict.value == machine.kernel.base

    def test_retries_are_bounded(self):
        machine = Machine.linux(seed=5, chaos="rerandomizing", kpti=False)
        verdict = supervise(machine, "kaslr", max_retries=1)
        assert len(verdict.attempts) <= 2


class TestOtherAttacks:
    def test_kpti_supervised_under_chaos(self):
        machine = Machine.linux(seed=2, chaos="default", kpti=True)
        verdict = supervise(machine, "kpti")
        assert verdict.found
        assert verdict.value == machine.kernel.base

    def test_modules_supervised_under_chaos(self):
        machine = Machine.linux(seed=11, chaos="default", kpti=False)
        verdict = supervise(machine, "modules")
        assert verdict.found
        truth = machine.kernel.module_map
        assert verdict.value
        for name, address in verdict.value.items():
            assert truth[name][0] == address

    def test_windows_supervised_under_chaos(self):
        machine = Machine.windows(seed=2, chaos="default")
        verdict = supervise(machine, "windows")
        assert verdict.found
        assert verdict.value == machine.kernel.base

    def test_windows_attack_needs_windows(self):
        machine = Machine.linux(seed=0)
        verdict = supervise(machine, "windows")
        assert verdict.status == FAILED
        assert verdict.attempts[-1].outcome == "error"

    def test_amd_variant_routes_through_vote_confidence(self):
        machine = Machine.linux(cpu="ryzen5-5600X", seed=3, chaos="quiet")
        verdict = supervise(machine, "kaslr")
        assert verdict.found
        assert verdict.value == machine.kernel.base
