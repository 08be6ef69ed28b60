"""Timed page-table walks: PSC short-circuits, hot/cold lines, depth cost."""

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import PageTable
from repro.mmu.psc import PagingLineCache, PagingStructureCache
from repro.mmu.walker import PageTableWalker, WalkTiming

USER_RW = PageFlags.PRESENT | PageFlags.USER | PageFlags.WRITABLE
KERNEL = PageFlags.PRESENT

TIMING = WalkTiming(base=10, access_hot=8, access_cold=56, level_step=2)


def _walker(**kwargs):
    return PageTableWalker(timing=TIMING, **kwargs)


class TestWalkCost:
    def test_cold_4k_walk_cost(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walk = _walker().walk(table, 0x1000)
        # 4 cold accesses + base + 4 level steps
        assert walk.cycles == 10 + 4 * 56 + 4 * 2
        assert walk.accesses == 4
        assert walk.cold_accesses == 4
        assert walk.present

    def test_second_walk_hot_lines(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker(psc=PagingStructureCache(pde_entries=0))
        walker.psc.flush()
        walker.use_psc = False
        walker.walk(table, 0x1000)
        walk = walker.walk(table, 0x1000)
        assert walk.cold_accesses == 0
        assert walk.cycles == 10 + 4 * 8 + 4 * 2

    def test_psc_short_circuits_to_pt(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker()
        walker.walk(table, 0x1000)   # fills PML4E/PDPTE/PDE caches
        walk = walker.walk(table, 0x1000)
        assert walk.start_level == 3
        assert walk.accesses == 1    # only the PT entry is fetched

    def test_2m_walk_has_three_accesses(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M * 4, 0x2, KERNEL, PAGE_SIZE_2M)
        walk = _walker().walk(table, PAGE_SIZE_2M * 4)
        assert walk.accesses == 3
        assert walk.terminal_level == 2
        assert walk.cycles == 10 + 3 * 56 + 3 * 2

    def test_depth_step_makes_pt_slower_than_pd_when_hot(self):
        """P3's key asymmetry: 4 KiB translations out-cost huge pages."""
        table = PageTable()
        table.map(PAGE_SIZE_2M * 4, 0x2, KERNEL, PAGE_SIZE_2M)
        table.map(PAGE_SIZE_2M * 8, 0x3, USER_RW)  # 4 KiB page
        walker = _walker()
        # warm both paths fully
        walker.walk(table, PAGE_SIZE_2M * 4)
        walker.walk(table, PAGE_SIZE_2M * 8)
        pd = walker.walk(table, PAGE_SIZE_2M * 4)
        pt = walker.walk(table, PAGE_SIZE_2M * 8)
        assert pt.cycles > pd.cycles

    def test_nonpresent_walk_not_cached_in_psc(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker()
        walker.walk(table, 0x4000_0000_0000)   # empty PML4 slot
        assert walker.psc.occupancy() == {0: 0, 1: 0, 2: 0}

    def test_nonpresent_walk_caches_present_upper_levels(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker()
        walker.walk(table, 0x3000)   # same PT, entry missing (level 3)
        # PML4E/PDPTE/PDE on the way down were present -> cached
        assert walker.psc.occupancy() == {0: 1, 1: 1, 2: 1}

    def test_walk_counter(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker()
        walker.walk(table, 0x1000)
        walker.walk(table, 0x2000)
        assert walker.completed_walks == 2


class TestPerfCounterConsistency:
    """Walk counting lives in the walker, so the PMU event can't drift."""

    def test_walker_counts_into_perf_block(self):
        from repro.cpu.perfcounters import PerfCounters

        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        perf = PerfCounters()
        walker = _walker(perf=perf)
        first = walker.walk(table, 0x1000)
        second = walker.walk(table, 0x2000)
        assert perf.read("DTLB_LOAD_MISSES.WALK_COMPLETED") == 2
        assert perf.read("DTLB_LOAD_MISSES.WALK_DURATION") == (
            first.cycles + second.cycles
        )
        assert walker.completed_walks == 2

    def test_event_equals_attribute_across_all_core_paths(self):
        """AVX ops, kernel touches, and prefetch probes all walk through
        the same counter: the PMU event always equals completed_walks."""
        from repro.machine import Machine

        machine = Machine.linux(seed=5)
        core = machine.core
        base = machine.kernel.base
        core.masked_load(base)
        core.masked_load(base - (1 << 21))
        core.kernel_touch([base, base + (1 << 21)])
        core.timed_prefetch(machine.playground.user_rw)
        assert (
            core.perf.read("DTLB_LOAD_MISSES.WALK_COMPLETED")
            == core.walker.completed_walks
        )


class TestInvalidation:
    def test_invalidate_address_clears_psc(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker()
        walker.walk(table, 0x1000)
        walker.invalidate_address(0x1000)
        walk = walker.walk(table, 0x1000)
        assert walk.start_level == 0

    def test_flush_clears_lines_too(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker()
        walker.walk(table, 0x1000)
        walker.flush()
        walk = walker.walk(table, 0x1000)
        assert walk.cold_accesses == walk.accesses == 4

    def test_use_psc_false_disables_short_circuit(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        walker = _walker(use_psc=False)
        walker.walk(table, 0x1000)
        walk = walker.walk(table, 0x1000)
        assert walk.start_level == 0
        assert walk.accesses == 4
