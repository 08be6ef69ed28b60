"""4-level page tables: mapping, permissions, lookups, KPTI sharing."""

import gc

import pytest

from repro.errors import MappingError
from repro.mmu.address import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    split_indices,
)
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import AddressSpace, PageTable

from tests.pagetables import walk_nodes

USER_RW = PageFlags.PRESENT | PageFlags.USER | PageFlags.WRITABLE
KERNEL = PageFlags.PRESENT


class TestMapping:
    def test_map_4k_and_lookup(self):
        table = PageTable()
        table.map(0x40_0000, 0x111, USER_RW)
        lookup = table.lookup(0x40_0ABC)
        assert lookup.present
        assert lookup.translation.pfn == 0x111
        assert lookup.translation.page_size == PAGE_SIZE
        assert lookup.translation.level_name == "PT"

    def test_map_2m(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M * 3, 0x200, KERNEL, PAGE_SIZE_2M)
        lookup = table.lookup(PAGE_SIZE_2M * 3 + 0x1234)
        assert lookup.present
        assert lookup.translation.page_size == PAGE_SIZE_2M
        assert lookup.translation.level_name == "PD"
        assert lookup.translation.flags & PageFlags.HUGE

    def test_map_1g(self):
        table = PageTable()
        table.map(PAGE_SIZE_1G, 0x300, KERNEL, PAGE_SIZE_1G)
        lookup = table.lookup(PAGE_SIZE_1G + 0xABCDE)
        assert lookup.translation.level_name == "PDPT"

    def test_physical_address_of_4k(self):
        table = PageTable()
        table.map(0x40_0000, 0x111, USER_RW)
        t = table.lookup(0x40_0ABC).translation
        assert t.physical_address == 0x111 * PAGE_SIZE + 0xABC

    def test_physical_address_of_2m(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M, 0x400, KERNEL, PAGE_SIZE_2M)
        t = table.lookup(PAGE_SIZE_2M + 0x12345).translation
        assert t.physical_address == 0x400 * PAGE_SIZE + 0x12345

    def test_unaligned_map_rejected(self):
        table = PageTable()
        with pytest.raises(MappingError):
            table.map(0x1234, 0x1, USER_RW)
        with pytest.raises(MappingError):
            table.map(PAGE_SIZE, 0x1, KERNEL, PAGE_SIZE_2M)

    def test_double_map_rejected(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        with pytest.raises(MappingError):
            table.map(0x1000, 0x2, USER_RW)

    def test_nonpresent_map_rejected(self):
        with pytest.raises(MappingError):
            PageTable().map(0x1000, 0x1, PageFlags.NONE)

    def test_kernel_half_addresses(self):
        table = PageTable()
        va = 0xFFFF_FFFF_8000_0000
        table.map(va, 0x500, KERNEL, PAGE_SIZE_2M)
        assert table.lookup(va + 0x1000).present


class TestUnmapProtect:
    def test_unmap(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        assert table.unmap(0x1000) == PAGE_SIZE
        assert not table.is_mapped(0x1000)

    def test_unmap_unmapped_raises(self):
        with pytest.raises(MappingError):
            PageTable().unmap(0x1000)

    def test_unmap_keeps_intermediate_structures(self):
        # a later walk of the same address terminates at the PT level
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.unmap(0x1000)
        assert table.lookup(0x1000).terminal_level == 3

    def test_huge_map_replaces_emptied_page_table(self):
        # a 4 KiB unmap leaves its PDE pointing at an empty PT; a 2 MiB
        # map over that PDE (a re-randomized kernel image) must succeed
        table = PageTable()
        table.map(PAGE_SIZE_2M + PAGE_SIZE, 0x1, KERNEL)
        table.unmap(PAGE_SIZE_2M + PAGE_SIZE)
        table.map(PAGE_SIZE_2M, 0x200, KERNEL, PAGE_SIZE_2M)
        lookup = table.lookup(PAGE_SIZE_2M + PAGE_SIZE)
        assert lookup.translation.level_name == "PD"
        assert lookup.translation.pfn == 0x200

    def test_huge_map_over_live_page_table_rejected(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M + PAGE_SIZE, 0x1, KERNEL)
        with pytest.raises(MappingError):
            table.map(PAGE_SIZE_2M, 0x200, KERNEL, PAGE_SIZE_2M)
        assert table.lookup(PAGE_SIZE_2M + PAGE_SIZE).translation.pfn == 0x1

    def test_lookup_terminal_level_without_structures(self):
        assert PageTable().lookup(0x1000).terminal_level == 0

    def test_protect_changes_flags(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.protect(0x1000, PageFlags.PRESENT | PageFlags.USER | PageFlags.NX)
        flags = table.lookup(0x1000).translation.flags
        assert not flags & PageFlags.WRITABLE

    def test_protect_to_none_unmaps(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.protect(0x1000, PageFlags.NONE)
        assert not table.is_mapped(0x1000)

    def test_protect_preserves_huge_bit(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M, 0x2, KERNEL, PAGE_SIZE_2M)
        table.protect(PAGE_SIZE_2M, PageFlags.PRESENT | PageFlags.NX)
        assert table.lookup(PAGE_SIZE_2M).translation.flags & PageFlags.HUGE

    def test_set_flag(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.set_flag(0x1000, PageFlags.DIRTY)
        assert table.lookup(0x1000).translation.flags & PageFlags.DIRTY


class TestWalkNodes:
    def test_walk_touches_four_levels_for_4k(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        lookup = table.lookup(0x1000)
        assert [level for level, __ in lookup.nodes] == [0, 1, 2, 3]

    def test_walk_touches_three_levels_for_2m(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M, 0x2, KERNEL, PAGE_SIZE_2M)
        lookup = table.lookup(PAGE_SIZE_2M)
        assert [level for level, __ in lookup.nodes] == [0, 1, 2]

    def test_nonpresent_walk_stops_at_missing_level(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)        # creates PML4->PDPT->PD->PT
        lookup = table.lookup(0x3000)          # same PT, missing entry
        assert not lookup.present
        assert lookup.terminal_level == 3
        other = table.lookup(0x4000_0000_0000)  # different PML4 slot
        assert other.terminal_level == 0


class TestSharing:
    def test_share_top_level(self):
        kernel = PageTable()
        va = 0xFFFF_FFFF_8000_0000
        kernel.map(va, 0x10, KERNEL, PAGE_SIZE_2M)
        user = PageTable()
        user.share_top_level_from(kernel, 511)
        assert user.lookup(va).present
        # later kernel-side mappings in the same slot appear in both
        kernel.map(va + PAGE_SIZE_2M, 0x20, KERNEL, PAGE_SIZE_2M)
        assert user.lookup(va + PAGE_SIZE_2M).present

    def test_write_through_one_table_is_seen_by_its_alias(self):
        """KPTI: the user table aliases the kernel table's PML4 slot, so
        an unmap or a map through the kernel table shows in the user
        table's next lookup."""
        kva = 0xFFFF_9000_0000_0000
        kernel = PageTable()
        kernel.map(kva, 0x42, KERNEL | PageFlags.WRITABLE)
        user = PageTable()
        user.share_top_level_from(kernel, split_indices(kva)[0])
        assert user.lookup(kva).present

        kernel.unmap(kva)
        assert not user.lookup(kva).present

        kernel.map(kva, 0x43, KERNEL | PageFlags.WRITABLE)
        assert user.lookup(kva).translation.pfn == 0x43

    def test_share_empty_slot_raises(self):
        with pytest.raises(MappingError):
            PageTable().share_top_level_from(PageTable(), 0)


class TestIteration:
    def test_iter_terminal_yields_all(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.map(PAGE_SIZE_2M * 5, 0x2, KERNEL, PAGE_SIZE_2M)
        leaves = list(table.iter_terminal())
        bases = sorted(base for base, __, __ in leaves)
        assert bases == [0x1000, PAGE_SIZE_2M * 5]

    def test_iter_terminal_sign_extends_kernel(self):
        table = PageTable()
        va = 0xFFFF_FFFF_8000_0000
        table.map(va, 0x1, KERNEL, PAGE_SIZE_2M)
        (base, __, size), = list(table.iter_terminal())
        assert base == va
        assert size == PAGE_SIZE_2M


class TestAddressSpace:
    def test_map_range(self):
        space = AddressSpace()
        space.map_range(0x10000, 4 * PAGE_SIZE, USER_RW)
        for i in range(4):
            assert space.translate(0x10000 + i * PAGE_SIZE) is not None

    def test_map_range_contiguous_frames(self):
        space = AddressSpace()
        first = space.map_range(0x10000, 2 * PAGE_SIZE, USER_RW)
        t0 = space.translate(0x10000)
        t1 = space.translate(0x11000)
        assert t0.pfn == first
        assert t1.pfn == first + 1

    def test_huge_range_frame_stride(self):
        space = AddressSpace()
        first = space.map_range(0, 2 * PAGE_SIZE_2M, KERNEL, PAGE_SIZE_2M)
        assert space.translate(PAGE_SIZE_2M).pfn == first + 512

    def test_unmap_range(self):
        space = AddressSpace()
        space.map_range(0x10000, 2 * PAGE_SIZE, USER_RW)
        space.unmap_range(0x10000, 2 * PAGE_SIZE)
        assert space.translate(0x10000) is None

    def test_protect_range(self):
        space = AddressSpace()
        space.map_range(0x10000, PAGE_SIZE, USER_RW)
        space.protect_range(
            0x10000, PAGE_SIZE, PageFlags.PRESENT | PageFlags.USER
        )
        assert not space.translate(0x10000).flags & PageFlags.WRITABLE

    def test_bad_size_rejected(self):
        with pytest.raises(MappingError):
            AddressSpace().map_range(0x10000, 100, USER_RW)


class TestDenseNodes:
    def test_run_adds_no_object_per_page(self):
        """A node holds its slots as columns: a 4,000-page run over nine
        PT nodes adds a few GC-tracked objects per node, not one per
        page."""
        table = PageTable()
        table.map_run(PAGE_SIZE_1G - 100 * PAGE_SIZE, 1, 10, USER_RW)
        before = len(gc.get_objects())
        table.map_run(PAGE_SIZE_1G - 7 * PAGE_SIZE, 100, 4000, USER_RW)
        added = len(gc.get_objects()) - before
        nodes = sum(1 for __ in walk_nodes(table))
        assert nodes == 13
        assert added <= 4 * nodes, added
        assert table.lookup(PAGE_SIZE_1G + 3992 * PAGE_SIZE) \
            .translation.pfn == 4099

    def test_lookups_keep_no_state(self):
        """A lookup is the radix traversal alone: 10,000 distinct VAs,
        mapped and unmapped, in both canonical halves, leave no object
        behind."""
        table = PageTable()
        table.map_run(0x40_0000, 1, 2500, USER_RW)
        kernel = 0xFFFF_FFFF_8000_0000
        table.map_run(kernel, 3000, 2500, KERNEL)
        vas = [base + i * PAGE_SIZE
               for base in (0x40_0000, 0x7F00_0000_0000, kernel,
                            0xFFFF_C000_0000_0000)
               for i in range(2500)]
        assert len(set(vas)) == 10_000
        gc.collect()
        before = len(gc.get_objects())
        present = sum(table.lookup(va).present for va in vas)
        gc.collect()
        assert present == 5000
        assert len(gc.get_objects()) - before <= 16
