"""Set-associative TLB behaviour."""

import pytest

from repro.cpu.avx import make_mask
from repro.machine import Machine
from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import Translation
from repro.mmu.tlb import TLB, TLBEntry, TwoLevelTLB

FLAGS = PageFlags.PRESENT | PageFlags.USER


def _translation(va, page_size=PAGE_SIZE, pfn=0x123):
    return Translation(va, pfn, FLAGS, page_size,
                       {PAGE_SIZE: 3, PAGE_SIZE_2M: 2, PAGE_SIZE_1G: 1}[page_size])


class TestTLBArray:
    def test_miss_then_hit(self):
        tlb = TLB(entries=16, ways=4)
        assert tlb.lookup(5, PAGE_SIZE) is None
        tlb.fill(TLBEntry(5, 0x1, FLAGS, PAGE_SIZE))
        assert tlb.lookup(5, PAGE_SIZE) is not None
        assert tlb.hits == 1 and tlb.misses == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TLB(entries=10, ways=4)

    def test_set_conflict_eviction(self):
        tlb = TLB(entries=8, ways=2)  # 4 sets
        # three VPNs mapping to set 0: 0, 4, 8
        for vpn in (0, 4, 8):
            tlb.fill(TLBEntry(vpn, vpn, FLAGS, PAGE_SIZE))
        assert tlb.lookup(0, PAGE_SIZE) is None      # LRU evicted
        assert tlb.lookup(8, PAGE_SIZE) is not None

    def test_lru_refresh(self):
        tlb = TLB(entries=8, ways=2)
        tlb.fill(TLBEntry(0, 1, FLAGS, PAGE_SIZE))
        tlb.fill(TLBEntry(4, 2, FLAGS, PAGE_SIZE))
        tlb.lookup(0, PAGE_SIZE)                      # refresh vpn 0
        tlb.fill(TLBEntry(8, 3, FLAGS, PAGE_SIZE))    # evicts vpn 4
        assert tlb.lookup(0, PAGE_SIZE) is not None
        assert tlb.lookup(4, PAGE_SIZE) is None

    def test_refill_replaces_in_place(self):
        tlb = TLB(entries=8, ways=2)
        tlb.fill(TLBEntry(0, 1, FLAGS, PAGE_SIZE))
        tlb.fill(TLBEntry(0, 99, FLAGS, PAGE_SIZE))
        assert tlb.occupancy() == 1
        assert tlb.lookup(0, PAGE_SIZE).pfn == 99

    def test_invalidate(self):
        tlb = TLB(entries=8, ways=2)
        tlb.fill(TLBEntry(0, 1, FLAGS, PAGE_SIZE))
        tlb.invalidate(0, PAGE_SIZE)
        assert tlb.lookup(0, PAGE_SIZE) is None

    def test_flush_keep_global(self):
        tlb = TLB(entries=8, ways=2)
        tlb.fill(TLBEntry(0, 1, FLAGS, PAGE_SIZE, is_global=True))
        tlb.fill(TLBEntry(1, 2, FLAGS, PAGE_SIZE))
        tlb.flush(keep_global=True)
        assert tlb.lookup(0, PAGE_SIZE) is not None
        assert tlb.lookup(1, PAGE_SIZE) is None

    def test_conflicting_vpns(self):
        tlb = TLB(entries=64, ways=4)  # 16 sets
        conflicts = list(tlb.conflicting_vpns(5, 3))
        assert conflicts == [21, 37, 53]
        assert all(c % 16 == 5 % 16 for c in conflicts)


class TestTwoLevelTLB:
    def test_fill_and_l1_hit(self):
        tlb = TwoLevelTLB()
        tlb.fill(_translation(0x1000))
        entry, level = tlb.lookup(0x1000)
        assert entry is not None and level == "L1"

    def test_huge_page_lookup_by_contained_address(self):
        tlb = TwoLevelTLB()
        tlb.fill(_translation(PAGE_SIZE_2M * 7, PAGE_SIZE_2M))
        entry, level = tlb.lookup(PAGE_SIZE_2M * 7 + 0x3000)
        assert entry is not None
        assert entry.page_size == PAGE_SIZE_2M

    def test_stlb_promotion(self):
        tlb = TwoLevelTLB(l1_4k=(4, 4))
        # overflow the tiny L1 so an early entry only survives in the sTLB
        for i in range(8):
            tlb.fill(_translation(i * PAGE_SIZE))
        entry, level = tlb.lookup(0)
        assert entry is not None and level == "L2"
        # promoted back: next lookup is L1
        entry, level = tlb.lookup(0)
        assert level == "L1"

    def test_1g_entries_skip_stlb(self):
        tlb = TwoLevelTLB()
        tlb.fill(_translation(PAGE_SIZE_1G, PAGE_SIZE_1G))
        assert tlb.stlb.occupancy() == 0
        entry, __ = tlb.lookup(PAGE_SIZE_1G + 123)
        assert entry is not None

    def test_invalidate_all_sizes(self):
        tlb = TwoLevelTLB()
        tlb.fill(_translation(PAGE_SIZE_2M * 3, PAGE_SIZE_2M))
        tlb.invalidate(PAGE_SIZE_2M * 3 + 0x1000)
        entry, __ = tlb.lookup(PAGE_SIZE_2M * 3 + 0x1000)
        assert entry is None

    def test_flush(self):
        tlb = TwoLevelTLB()
        tlb.fill(_translation(0x1000))
        tlb.flush()
        assert tlb.lookup(0x1000) == (None, None)

    def test_holds_is_side_effect_free(self):
        tlb = TwoLevelTLB()
        tlb.fill(_translation(0x1000))
        hits_before = tlb.l1[PAGE_SIZE].hits
        assert tlb.holds(0x1000)
        assert not tlb.holds(0x2000)
        assert tlb.l1[PAGE_SIZE].hits == hits_before

    def test_nonpresent_never_cached_by_construction(self):
        # TwoLevelTLB.fill takes a Translation, which only exists for
        # present pages; the walker never fills on a failed walk.
        tlb = TwoLevelTLB()
        assert tlb.occupancy()["l1_4k"] == 0


class TestFlagWord:
    """Translations and TLB entries carry the PTE word as a plain int,
    from the node's flag column to the AVX unit's permission tests."""

    @staticmethod
    def _entries(tlb):
        for array in list(tlb.l1.values()) + [tlb.stlb]:
            for bucket in array._sets:
                yield from bucket

    def test_flag_words_are_ints_on_every_path(self):
        machine = Machine.linux(cpu="i7-1065G7", seed=17)
        core = machine.core
        table = core.address_space.page_table
        base = machine.process.mmap(40)
        vas = [base + i * PAGE_SIZE for i in range(40)]
        # per-op: an active store dirties its page and refills the TLB
        core.masked_store(vas[0], make_mask([0]))
        # columnar: hit rows on stale clean entries, then fill rows
        core.sweep_engine = "per-op"
        core.probe_sweep(vas[:20], rounds=1, warm=False)
        for va in vas[1:8]:
            table.set_flag(va, PageFlags.DIRTY)
        core.sweep_engine = "columnar"
        core.probe_sweep(vas, rounds=1, warm=False, op="store")
        assert core.last_sweep.columnar_rows == len(vas)

        entries = list(self._entries(core.tlb))
        assert len(entries) >= 2 * len(vas)
        assert all(type(entry.flags) is int for entry in entries)
        assert type(table.lookup(vas[0]).translation.flags) is int
        assert all(type(translation.flags) is int
                   for __, translation, __ in table.iter_terminal())

        entry, level = core.tlb.lookup(vas[0])
        assert entry.flags & PageFlags.DIRTY
        translation, level, __ = core.avx._translate(
            core.address_space, vas[0], False)
        assert translation is entry and level == "L1"
