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


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


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
            machine = _on(Machine.linux(seed=6, chaos="default",
                                        kpti=False), engine)
            verdict = supervise(machine, "kaslr")
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

    def test_cloud_charge_covers_the_module_scan(self):
        # the 512-probe base scan fits this budget; the 16384-slot module
        # scan of the same audit does not
        machine = Machine.cloud("ec2", seed=1)
        verdict = supervise(machine, "cloud", probe_budget=4096)
        assert verdict.status == FAILED
        assert verdict.attempts[-1].outcome == "budget-exceeded"
        assert verdict.probes_spent == 512 + 16384

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

    def test_sgx_charges_its_scans_on_the_chosen_engine(self):
        machine = _on(Machine.linux(cpu="i7-1065G7", seed=0), "per-op")
        verdict = supervise(machine, "sgx")
        assert verdict.found
        assert machine.core.last_sweep.engine == "per-op"
        assert verdict.probes_spent == verdict.result.simulated_probes

    def test_sgx_noisy_load_pass_is_not_a_confident_answer(self):
        # seed 0: chaos sprays the first load pass with hundreds of
        # mapped runs and its code base is wrong; with no retry left it
        # must not end found
        machine = Machine.linux(cpu="i7-1065G7", seed=0, chaos="default")
        verdict = supervise(machine, "sgx", max_retries=0)
        assert len(verdict.result.load_runs) > 8
        assert verdict.value != machine.process.text_base
        assert verdict.status == ABSTAIN
        assert [a.outcome for a in verdict.attempts] == ["ok"]
        for seed in range(1, 6):
            machine = Machine.linux(cpu="i7-1065G7", seed=seed,
                                    chaos="default")
            verdict = supervise(machine, "sgx")
            assert verdict.status in (FOUND, ABSTAIN)
            assert verdict.value == machine.process.text_base

    @pytest.mark.parametrize("seed", [0, 2])
    def test_sgx_low_confidence_attempt_is_retried(self, seed):
        # the first load pass is noisy (seed 0 wrong, seed 2 right but
        # below the bar); a fresh attempt after the backoff finds
        machine = Machine.linux(cpu="i7-1065G7", seed=seed, chaos="default")
        verdict = supervise(machine, "sgx")
        assert not (verdict.status == ABSTAIN and verdict.retries == 0)
        assert [a.outcome for a in verdict.attempts] \
            == ["low-confidence", "ok"]
        assert verdict.found
        assert verdict.value == machine.process.text_base

    @staticmethod
    def _scripted(monkeypatch, attack, steps):
        """Replace ``attack``'s runner by one that plays ``steps``:
        a confidence (value = confidence * 100) or an exception."""
        from repro.attacks import supervisor as supervisor_module
        steps = iter(steps)

        def runner(sup):
            step = next(steps)
            if isinstance(step, Exception):
                raise step
            return step * 100, None, step

        monkeypatch.setitem(supervisor_module._RUNNERS, attack, runner)

    def test_abstain_reports_the_most_confident_attempt(self, monkeypatch):
        self._scripted(monkeypatch, "sgx", [0.3, 0.45, 0.2])
        verdict = supervise(Machine.linux(seed=1), "sgx", max_retries=2)
        assert verdict.status == ABSTAIN
        assert (verdict.value, verdict.confidence) == (45.0, 0.45)
        assert verdict.retries == 2
        assert [a.outcome for a in verdict.attempts] \
            == ["low-confidence", "low-confidence", "ok"]

    @pytest.mark.parametrize("exc,outcome", [
        (ProbeBudgetExceeded("over budget", probes_spent=101),
         "budget-exceeded"),
        (AttackError("broken"), "error"),
    ])
    def test_budget_or_error_after_low_confidence_fails(
            self, monkeypatch, exc, outcome):
        # the break that ends the run decides: a failed verdict, as
        # without the earlier below-bar attempt
        self._scripted(monkeypatch, "sgx", [0.3, exc])
        verdict = supervise(Machine.linux(seed=1), "sgx", max_retries=2)
        assert verdict.status == FAILED
        assert (verdict.value, verdict.confidence) == (None, 0.0)
        assert [a.outcome for a in verdict.attempts] \
            == ["low-confidence", outcome]

    def test_rejected_retries_after_low_confidence_abstain(self, monkeypatch):
        self._scripted(monkeypatch, "sgx", [
            0.3, CalibrationError("noisy"), CalibrationError("noisy"),
        ])
        verdict = supervise(Machine.linux(seed=1), "sgx", max_retries=2)
        assert verdict.status == ABSTAIN
        assert (verdict.value, verdict.confidence) == (30.0, 0.3)
        assert [a.outcome for a in verdict.attempts] == [
            "low-confidence", "calibration-rejected", "calibration-rejected",
        ]

    def test_modules_below_the_bar_is_not_retried(self, monkeypatch):
        # its confidence counts resolved modules, not right ones, so a
        # retry could only trade the abstention for a misplaced map
        self._scripted(monkeypatch, "modules", [0.3, 0.9])
        verdict = supervise(Machine.linux(seed=1), "modules", max_retries=2)
        assert verdict.status == ABSTAIN
        assert (verdict.value, verdict.retries) == (30.0, 0)
        assert [a.outcome for a in verdict.attempts] == ["ok"]

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
