"""The disturbance-injection runtime: profiles, effects, determinism."""

import pytest

from repro.attacks.kaslr_break import break_kaslr_intel
from repro.chaos import (
    CHAOS_PROFILES,
    ChaosProfile,
    ChaosRuntime,
    EVENT_KINDS,
    get_chaos_profile,
)
from repro.errors import ConfigError
from repro.machine import Machine


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


def _event_log(machine):
    return machine.chaos.log_as_dicts()


class TestProfiles:
    def test_registry_has_the_documented_profiles(self):
        for name in ("quiet", "default", "hostile", "rerandomizing"):
            assert name in CHAOS_PROFILES

    def test_lookup_by_name_and_passthrough(self):
        profile = get_chaos_profile("default")
        assert profile.name == "default"
        assert get_chaos_profile(profile) is profile
        assert get_chaos_profile(None) is None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            get_chaos_profile("apocalyptic")

    def test_default_profile_arms_the_acceptance_kinds(self):
        kinds = get_chaos_profile("default").active_kinds
        assert set(kinds) == {"migration", "dvfs", "neighbor-burst"}

    def test_active_kinds_ordered_like_event_kinds(self):
        kinds = get_chaos_profile("hostile").active_kinds
        indexes = [EVENT_KINDS.index(k) for k in kinds]
        assert indexes == sorted(indexes)


class TestQuietIsANoOp:
    def test_quiet_profile_bit_identical_to_unattached(self):
        plain = Machine.linux(seed=5)
        quiet = Machine.linux(seed=5, chaos="quiet")
        assert quiet.chaos is not None and not quiet.chaos.active
        r_plain = break_kaslr_intel(plain)
        r_quiet = break_kaslr_intel(quiet)
        assert list(r_plain.timings) == list(r_quiet.timings)
        assert plain.clock.cycles == quiet.clock.cycles
        assert r_plain.base == r_quiet.base
        assert quiet.chaos.log == []


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        logs = []
        for _ in range(2):
            machine = Machine.linux(seed=13, chaos="default")
            break_kaslr_intel(machine)
            logs.append(_event_log(machine))
        assert logs[0] == logs[1]
        assert logs[0]  # the default profile does fire during a break

    def test_different_seeds_differ(self):
        logs = []
        for seed in (13, 14):
            machine = Machine.linux(seed=seed, chaos="default")
            break_kaslr_intel(machine)
            logs.append(_event_log(machine))
        assert logs[0] != logs[1]

    def test_per_op_and_batched_see_identical_disturbances(self):
        outcomes = []
        for engine in (None, "per-op"):
            machine = _on(Machine.linux(seed=7, chaos="default"), engine)
            break_kaslr_intel(machine)
            outcomes.append((_event_log(machine), machine.clock.cycles))
        assert outcomes[0] == outcomes[1]

    def test_events_fire_in_clock_order_with_armed_kinds_only(self):
        machine = Machine.linux(seed=21, chaos="hostile")
        break_kaslr_intel(machine)
        log = _event_log(machine)
        armed = set(get_chaos_profile("hostile").active_kinds)
        assert {e["kind"] for e in log} <= armed
        applied = [e["applied_at_cycles"] for e in log]
        assert applied == sorted(applied)
        for event in log:
            assert event["applied_at_cycles"] >= event["at_cycles"]


class TestEffects:
    def test_dvfs_rescales_measured_cycles(self):
        machine = Machine.linux(seed=30)
        core = machine.core
        page = machine.playground.user_rw
        core.masked_load(page)
        overhead = machine.cpu.measurement_overhead
        baseline = min(core.timed_masked_load(page) for _ in range(50))
        core.dvfs_scale = 2.0
        scaled = min(core.timed_masked_load(page) for _ in range(50))
        # the true op cost doubles; the measurement overhead does not
        assert scaled - overhead >= (baseline - overhead) * 1.8

    def test_irq_spike_lands_on_exactly_one_measurement(self):
        machine = Machine.linux(seed=31)
        core = machine.core
        page = machine.playground.user_rw
        core.masked_load(page)
        core.pending_spike_cycles = 5_000
        spiked = core.timed_masked_load(page)
        after = core.timed_masked_load(page)
        assert spiked > 4_000
        assert after < 1_000
        assert core.pending_spike_cycles == 0

    def test_rerandomize_moves_the_kernel_and_bumps_generation(self):
        profile = ChaosProfile("test-rr", rerandomize_period=10_000)
        machine = Machine.linux(seed=32, chaos=profile)
        old_base = machine.kernel.base
        core = machine.core
        moved = False
        for _ in range(64):
            core.clock.advance(5_000)
            core.chaos_poll()
            if machine.chaos.layout_generation:
                moved = True
                break
        assert moved
        event = _event_log(machine)[0]
        assert event["kind"] == "rerandomize"
        assert event["params"]["old_base"] == old_base
        assert machine.kernel.base == event["params"]["new_base"]
        # the old image really is gone from the page tables
        assert not machine.kernel.is_kernel_text_mapped(old_base) \
            or machine.kernel.base == old_base

    def test_rerandomize_disabled_on_nokaslr_machines(self):
        machine = Machine.linux(seed=33, kaslr=False, chaos="rerandomizing")
        assert "rerandomize" not in machine.chaos._active_kinds

    def test_timer_flip_toggles_resolution(self):
        profile = ChaosProfile("test-tf", timer_flip_period=5_000,
                               coarse_timer_resolution=32)
        machine = Machine.linux(seed=34, chaos=profile)
        core = machine.core
        fine = core.timer_resolution
        core.clock.advance(200_000)
        core.chaos_poll()
        log = _event_log(machine)
        assert log and log[0]["kind"] == "timer-flip"
        assert core.timer_resolution in (fine, 32)

    def test_migration_rescales_noise_sigma(self):
        profile = ChaosProfile("test-mig", migration_period=5_000,
                               migration_sigma_factors=(2.5,))
        machine = Machine.linux(seed=35, chaos=profile)
        base_sigma = machine.chaos._base_sigma
        machine.core.clock.advance(100_000)
        machine.core.chaos_poll()
        assert machine.core.noise.sigma == base_sigma * 2.5


class TestLogAccess:
    def test_mark_and_events_since(self):
        machine = Machine.linux(seed=40, chaos="hostile")
        runtime = machine.chaos
        mark = runtime.mark()
        assert runtime.events_since(mark) == []
        machine.core.clock.advance(2_000_000)
        machine.core.chaos_poll()
        fired = runtime.events_since(mark)
        assert fired and fired == runtime.log[mark:]

    def test_runtime_requires_a_profile(self):
        with pytest.raises(ValueError):
            ChaosRuntime(None)
