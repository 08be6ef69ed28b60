"""Integration tests pinning the paper's headline numbers end-to-end.

Each test reproduces one concrete claim from the paper on the full stack
(machine factory -> attack -> result), asserting the value the paper
reports within a tight tolerance.  These are the regression guards for the
calibration documented in EXPERIMENTS.md.
"""

import statistics

import pytest

from repro.attacks.kaslr_break import break_kaslr, break_kaslr_intel
from repro.attacks.module_detect import detect_modules
from repro.machine import Machine
from repro.mmu.address import PAGE_SIZE_2M
from repro.os.linux import layout


class TestSection3Numbers:
    def test_user_m_load_13_cycles_icelake(self):
        """Figure 2: USER-M masked load ~13 cycles, no assist."""
        machine = Machine.linux(cpu="i7-1065G7", seed=80)
        core = machine.core
        page = machine.playground.user_rw
        core.masked_load(page)
        result = core.masked_load(page)
        assert result.cycles == 13
        assert not result.assist

    def test_p4_381_vs_147_coffeelake(self):
        """Section III-B: TLB miss 381 vs hit 147 on the i9-9900."""
        machine = Machine.linux(cpu="i9-9900", seed=81)
        core = machine.core
        base = machine.kernel.base
        misses, hits = [], []
        for _ in range(100):
            core.evict_translation_caches()
            misses.append(core.masked_load(base).cycles)
            hits.append(core.masked_load(base).cycles)
        assert statistics.median(misses) == 381
        assert statistics.median(hits) == 147

    def test_p6_92_vs_76_icelake(self):
        """Section III-B: KERNEL-M load 92 vs store 76 (16-18 gap)."""
        machine = Machine.linux(cpu="i7-1065G7", seed=82)
        core = machine.core
        base = machine.kernel.base
        core.masked_load(base)
        load = core.masked_load(base).cycles
        store = core.masked_store(base).cycles
        assert load == 92 and store == 76
        assert 16 <= load - store <= 18

    def test_fig4_93_vs_107_alderlake(self):
        """Figure 4: mapped 93 vs unmapped 107 cycles on the i5-12400F."""
        machine = Machine.linux(seed=83)
        core = machine.core
        mapped = machine.kernel.base
        unmapped = mapped - PAGE_SIZE_2M
        core.masked_load(mapped)
        core.masked_load(unmapped)
        core.masked_load(unmapped)  # settle paging-line cache
        assert core.masked_load(mapped).cycles == 93
        assert core.masked_load(unmapped).cycles == 107


class TestTableIRuntimes:
    def test_alderlake_base_runtime(self):
        """Table I: 67 us probing / 0.28 ms total on the i5-12400F."""
        machine = Machine.linux(seed=84)
        result = break_kaslr_intel(machine)
        assert result.base == machine.kernel.base
        assert 0.05 < result.probing_ms < 0.11      # paper 0.067
        assert 0.2 < result.total_ms < 0.4          # paper 0.28

    def test_alderlake_modules_runtime(self):
        """Table I: 2.43 ms probing / 2.62 ms total on the i5-12400F."""
        machine = Machine.linux(seed=85)
        result = detect_modules(machine)
        assert 1.9 < result.probing_ms < 3.1        # paper 2.43
        assert 2.1 < result.total_ms < 3.3          # paper 2.62

    def test_icelake_base_runtime(self):
        """Table I: 0.26 ms probing / 0.57 ms total on the i7-1065G7."""
        machine = Machine.linux(cpu="i7-1065G7", seed=86)
        result = break_kaslr_intel(machine)
        assert result.base == machine.kernel.base
        assert 0.2 < result.probing_ms < 0.45
        assert 0.4 < result.total_ms < 0.8

    def test_ryzen_base_runtime(self):
        """Table I: 1.91 ms probing / 2.90 ms total on the 5600X."""
        machine = Machine.linux(cpu="ryzen5-5600X", seed=87)
        result = break_kaslr(machine)
        assert result.base == machine.kernel.base
        assert 1.2 < result.probing_ms < 2.8
        assert 2.0 < result.total_ms < 3.9

    def test_desktop_faster_than_mobile(self):
        """Table I ordering: the i5-12400F beats the i7-1065G7."""
        desktop = break_kaslr_intel(Machine.linux(seed=88))
        mobile = break_kaslr_intel(Machine.linux(cpu="i7-1065G7", seed=88))
        assert desktop.total_ms < mobile.total_ms


class TestTableIAccuracy:
    """Table I accuracy on the simulator: which boots fail, and why.

    Over seeds 0..599 ``break_kaslr`` misses the base only on the boots
    pinned here.  Each miss is the documented failure mode: an interrupt
    spike inflated the true boundary slot's mean past the threshold, so
    the first classified-mapped slot is a later slot of the same image.
    """

    FAILING = {
        "i5-12400F": (323, 416, 489),
        "i7-1065G7": (40, 174, 179, 340, 464),
    }

    @pytest.mark.parametrize("cpu", sorted(FAILING))
    def test_first_boots_recover_the_base(self, cpu):
        for seed in range(40):
            machine = Machine.linux(cpu=cpu, seed=seed)
            assert break_kaslr(machine).base == machine.kernel.base, seed

    @pytest.mark.parametrize(("cpu", "seed"), [
        (cpu, seed) for cpu, seeds in sorted(FAILING.items())
        for seed in seeds
    ])
    def test_failing_boot_fails_by_spike_mechanism(self, cpu, seed):
        machine = Machine.linux(cpu=cpu, seed=seed)
        result = break_kaslr(machine)
        true_slot = layout.kernel_slot_of(machine.kernel.base)
        assert result.base != machine.kernel.base
        assert result.timings[true_slot] > result.threshold
        assert 0 < result.slot - true_slot < machine.kernel.image_2m_pages


class TestFig4Shape:
    def test_contiguous_fast_run_at_base(self):
        """Figure 4: the fast plots form one run starting at the base."""
        machine = Machine.linux(seed=89)
        # 22 image slots leave 490 usable KASLR slots of the 512
        assert machine.kernel.image_2m_pages == 22
        assert layout.KERNEL_TEXT_SLOTS - machine.kernel.image_2m_pages == 490
        assert layout.kernel_slot_of(machine.kernel.base) < 490
        result = break_kaslr_intel(machine)
        slots = result.mapped_slots
        run = [slots[0]]
        for slot in slots[1:]:
            if slot == run[-1] + 1:
                run.append(slot)
        assert len(run) >= machine.kernel.image_2m_pages
        assert run[0] == result.slot

    def test_timing_gap_is_visible(self):
        machine = Machine.linux(seed=90)
        result = break_kaslr_intel(machine)
        mapped = sorted(result.timings[s] for s in result.mapped_slots)
        unmapped = sorted(
            t for i, t in enumerate(result.timings)
            if i not in set(result.mapped_slots)
        )
        # the slowest mapped probe is still faster than the fastest
        # unmapped probe: the bimodality of Figure 4
        assert mapped[-1] < unmapped[0]


class TestEndToEndDeterminism:
    def test_full_attack_reproducible(self):
        a = break_kaslr_intel(Machine.linux(seed=91))
        b = break_kaslr_intel(Machine.linux(seed=91))
        assert a.base == b.base
        assert a.timings == b.timings
        assert a.total_ms == b.total_ms

    def test_different_boots_different_bases_same_success(self):
        bases = set()
        for seed in range(92, 97):
            machine = Machine.linux(seed=seed)
            result = break_kaslr_intel(machine)
            assert result.base == machine.kernel.base
            bases.add(result.base)
        assert len(bases) >= 4
