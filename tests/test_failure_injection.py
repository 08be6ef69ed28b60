"""Failure injection: the attacks must degrade honestly, not silently."""

import pytest

from repro.attacks.calibrate import ThresholdCalibration
from repro.attacks.kaslr_break import break_kaslr_intel
from repro.attacks.kpti_break import break_kaslr_kpti
from repro.attacks.module_detect import detect_modules, region_accuracy
from repro.machine import Machine


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


class TestNoiseFloods:
    def test_extreme_noise_breaks_the_attack_not_the_code(self):
        machine = Machine.linux(seed=950, noise_factor=24.0)
        result = break_kaslr_intel(machine)
        # the attack runs to completion and returns *something*; at 24x
        # noise the verdict is unreliable, never an exception
        assert result.timings and len(result.timings) == 512

    def test_noise_scales_measured_spread(self):
        quiet = Machine.linux(seed=951, noise_factor=1.0)
        loud = Machine.linux(seed=951, noise_factor=8.0)
        from repro.analysis.stats import summarize

        def spread(machine):
            core = machine.core
            page = machine.playground.user_rw
            core.masked_load(page)
            return summarize(
                [core.timed_masked_load(page) for _ in range(300)]
            ).std

        assert spread(loud) > spread(quiet) * 3


class TestBadCalibrations:
    def test_threshold_below_all_modes_finds_nothing(self):
        machine = Machine.linux(seed=952)
        bogus = ThresholdCalibration(mean=0, std=0, threshold=1, samples=1)
        result = break_kaslr_intel(machine, calibration=bogus)
        assert result.base is None
        assert result.mapped_slots == []

    def test_threshold_above_all_modes_finds_everything(self):
        machine = Machine.linux(seed=953)
        bogus = ThresholdCalibration(
            mean=0, std=0, threshold=10_000, samples=1
        )
        result = break_kaslr_intel(machine, calibration=bogus)
        assert len(result.mapped_slots) == 512
        # and the "base" collapses to slot 0 -- garbage in, garbage out
        assert result.slot == 0


class TestWrongAttackerKnowledge:
    def test_wrong_trampoline_offset_gives_wrong_base(self):
        machine = Machine.linux(seed=954, kpti=True)
        result = break_kaslr_kpti(machine, trampoline_offset=0xA0_0000)
        assert result.base is not None
        assert result.base != machine.kernel.base
        # off by exactly the offset error
        assert machine.kernel.base - result.base == 0xA0_0000 - \
            machine.kernel.trampoline_offset

    def test_amd_attack_with_wrong_page_offsets_fails_closed(self):
        from repro.attacks.kaslr_break import break_kaslr_amd

        machine = Machine.linux(cpu="ryzen5-5600X", seed=955)
        wrong_offsets = (0x10_0000, 0x10_1000, 0x10_4000, 0x10_6000,
                         0x10_7000)
        result = break_kaslr_amd(machine, page_offsets=wrong_offsets)
        # no candidate shows the 5-page deep-walk signature
        assert result.base != machine.kernel.base

    def test_module_detection_against_stale_proc_list(self):
        """A module list from another boot misclassifies sizes."""
        from repro.os.linux.modules import MODULE_CATALOG

        machine = Machine.linux(
            seed=956, modules=list(MODULE_CATALOG[:40])
        )
        result = detect_modules(machine)
        # detection itself (region extraction) still works
        assert region_accuracy(result, machine.kernel) > 0.9
        # but names absent from this boot's /proc/modules never appear
        loaded = {m.name for m in machine.kernel.modules}
        assert set(result.identified) <= loaded


class TestMidRunDisturbances:
    """Dynamic faults (chaos runtime), not just static noise factors."""

    def test_raw_attack_survives_the_default_profile(self):
        machine = Machine.linux(seed=960, chaos="default", kpti=False)
        result = break_kaslr_intel(machine)
        # open-loop: completes and returns a full scan, right or wrong,
        # never an exception
        assert len(result.timings) == 512
        assert machine.chaos.log  # disturbances actually fired

    def test_raw_attack_survives_the_hostile_profile(self):
        machine = Machine.linux(seed=961, chaos="hostile", kpti=False)
        result = break_kaslr_intel(machine)
        assert len(result.timings) == 512

    def test_supervised_attack_closes_the_loop(self):
        from repro.attacks.supervisor import supervise

        machine = Machine.linux(seed=961, chaos="hostile", kpti=False)
        verdict = supervise(machine, "kaslr")
        assert verdict.status in ("found", "abstain", "failed")
        assert verdict.disturbances

    def test_chaos_schedule_is_mode_agnostic(self):
        outcomes = []
        for engine in (None, "per-op"):
            machine = _on(Machine.linux(seed=962, chaos="default",
                                        kpti=False), engine)
            break_kaslr_intel(machine)
            outcomes.append(
                (machine.chaos.log_as_dicts(), machine.clock.cycles)
            )
        assert outcomes[0] == outcomes[1]

    def test_module_detection_under_chaos_returns_regions(self):
        machine = Machine.linux(seed=963, chaos="default", kpti=False)
        result = detect_modules(machine)
        assert result.regions  # degraded maybe, but never empty-handed


class TestEnvironmentMismatches:
    def test_kaslr_disabled_attack_reports_fixed_base(self):
        machine = Machine.linux(seed=957, kaslr=False)
        result = break_kaslr_intel(machine)
        assert result.base == 0xFFFF_FFFF_8100_0000

    def test_flare_machine_defeats_plain_attack_deterministically(self):
        machine = Machine.linux(seed=958, flare=True)
        result = break_kaslr_intel(machine)
        assert len(result.mapped_slots) > 500

    def test_mitigated_machine_produces_flat_scan(self):
        from repro.defenses.nop_mask import enable_nop_mask_mitigation
        from repro.analysis.stats import summarize

        machine = enable_nop_mask_mitigation(Machine.linux(seed=959))
        result = break_kaslr_intel(machine)
        spread = summarize(result.timings)
        # the whole scan collapses into the noise band
        assert spread.p95 - spread.p5 < 12
