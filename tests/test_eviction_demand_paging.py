"""TLB eviction sets and demand-paging semantics."""

import pytest

from repro.attacks.eviction import TLBEvictionBuffer
from repro.errors import MappingError
from repro.machine import Machine
from repro.mmu.address import PAGE_SIZE
from repro.mmu.flags import PageFlags


@pytest.fixture
def machine():
    return Machine.linux(seed=321)


class TestEvictionSets:
    def test_build_set_is_congruent(self, machine):
        buffer = TLBEvictionBuffer(machine, pages=2048)
        target = machine.kernel.module_map["video"][0]
        eviction_set = buffer.build_set(target)
        assert len(eviction_set) > 0
        l1 = machine.core.tlb.l1[PAGE_SIZE]
        stlb = machine.core.tlb.stlb
        target_vpn = target // PAGE_SIZE
        for va in eviction_set.pages:
            vpn = va // PAGE_SIZE
            assert (
                vpn % l1.sets == target_vpn % l1.sets
                or vpn % stlb.sets == target_vpn % stlb.sets
            )

    def test_eviction_displaces_target_translation(self, machine):
        core = machine.core
        target = machine.kernel.module_map["video"][0]
        buffer = TLBEvictionBuffer(machine, pages=2048)
        core.masked_load(target)             # cache the translation
        assert core.tlb.holds(target)
        buffer.evict_address(target)
        assert not core.tlb.holds(target)

    def test_eviction_costs_cycles(self, machine):
        buffer = TLBEvictionBuffer(machine, pages=2048)
        target = machine.kernel.module_map["video"][0]
        eviction_set = buffer.build_set(target)
        cycles = buffer.evict(eviction_set)
        assert cycles > 0

    def test_targeted_eviction_cheaper_than_full_flush(self, machine):
        from repro.cpu.core import EVICTION_COST_CYCLES

        buffer = TLBEvictionBuffer(machine, pages=2048)
        target = machine.kernel.module_map["video"][0]
        eviction_set = buffer.build_set(target)
        machine.core.masked_load(target)
        cycles = buffer.evict(eviction_set)
        assert cycles < EVICTION_COST_CYCLES

    def test_unrelated_translations_survive(self, machine):
        core = machine.core
        target = machine.kernel.module_map["video"][0]
        bystander = machine.playground.user_rw
        buffer = TLBEvictionBuffer(machine, pages=2048)
        core.masked_load(target)
        core.masked_load(bystander)
        survived_before = core.tlb.holds(bystander)
        buffer.evict_address(target)
        # the bystander shares no set with the target (different VPN mod);
        # it may coincidentally conflict, so only assert when disjoint
        l1 = core.tlb.l1[PAGE_SIZE]
        stlb = core.tlb.stlb
        t, b = target // PAGE_SIZE, bystander // PAGE_SIZE
        if t % l1.sets != b % l1.sets and t % stlb.sets != b % stlb.sets:
            assert survived_before and core.tlb.holds(bystander)

    def test_requires_process(self):
        machine = Machine.windows(seed=5)
        with pytest.raises(ValueError):
            TLBEvictionBuffer(machine)


class TestDemandPaging:
    def test_lazy_mmap_not_present(self, machine):
        addr = machine.process.mmap(4, "rw-", populate=False)
        assert not machine.process.is_populated(addr)

    def test_touch_faults_in_one_page(self, machine):
        process = machine.process
        addr = process.mmap(4, "rw-", populate=False)
        assert process.touch(addr) is True
        assert process.is_populated(addr)
        assert not process.is_populated(addr + PAGE_SIZE)

    def test_second_touch_is_noop(self, machine):
        process = machine.process
        addr = process.mmap(1, "rw-", populate=False)
        process.touch(addr)
        assert process.touch(addr) is False

    def test_read_fault_leaves_page_clean(self, machine):
        process = machine.process
        addr = process.mmap(1, "rw-", populate=False)
        process.touch(addr, write=False)
        assert not process.space.translate(addr).flags & PageFlags.DIRTY

    def test_write_fault_installs_dirty(self, machine):
        process = machine.process
        addr = process.mmap(1, "rw-", populate=False)
        process.touch(addr, write=True)
        assert process.space.translate(addr).flags & PageFlags.DIRTY

    def test_write_fault_on_readonly_segfaults(self, machine):
        process = machine.process
        addr = process.mmap(1, "r--", populate=False)
        with pytest.raises(MappingError):
            process.touch(addr, write=True)

    def test_touch_outside_any_region_segfaults(self, machine):
        with pytest.raises(MappingError):
            machine.process.touch(machine.playground.unmapped)

    def test_populated_mmap_unaffected(self, machine):
        addr = machine.process.mmap(1, "rw-")
        assert machine.process.is_populated(addr)
        assert machine.process.touch(addr) is False

    def test_munmap_of_partially_populated_region(self, machine):
        process = machine.process
        addr = process.mmap(4, "rw-", populate=False)
        process.touch(addr + 2 * PAGE_SIZE)
        process.munmap(addr, 4)
        assert process.region_at(addr) is None
        assert process.space.translate(addr + 2 * PAGE_SIZE) is None

    def test_probe_leaks_victim_touch_state(self, machine):
        """Demand paging is itself observable: the probe distinguishes a
        lazily mapped page the victim has touched from one it has not."""
        core = machine.core
        process = machine.process
        addr = process.mmap(2, "rw-", populate=False)
        process.touch(addr)  # victim touched page 0 only

        core.masked_load(addr)
        core.masked_load(addr + PAGE_SIZE)
        touched = core.masked_load(addr).cycles
        untouched = core.masked_load(addr + PAGE_SIZE).cycles
        assert touched < untouched
