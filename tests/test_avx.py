"""AVX masked load/store semantics: P1 fault suppression, assists, timing."""

import pytest

from repro.cpu.avx import ZERO_MASK, make_mask
from repro.cpu.core import Core
from repro.cpu.models import get_cpu_model
from repro.errors import PageFault
from repro.mmu.address import PAGE_SIZE
from repro.mmu.flags import PageFlags, flags_from_prot
from repro.mmu.pagetable import AddressSpace

USER_RW = flags_from_prot(read=True, write=True)
USER_RO = flags_from_prot(read=True)
USER_RX = flags_from_prot(read=True, execute=True)
KERNEL = PageFlags.PRESENT


@pytest.fixture
def setup():
    """A core with a mapped/unmapped page pair (the paper's Figure 1)."""
    space = AddressSpace()
    mapped = 0x10_0000
    space.map_range(mapped, PAGE_SIZE, USER_RW)
    unmapped = mapped + PAGE_SIZE
    core = Core(get_cpu_model("i7-1065G7"), seed=0)
    core.set_address_space(space)
    return core, space, mapped, unmapped


class TestMaskConstruction:
    def test_zero_mask(self):
        assert make_mask() == (False,) * 8
        assert ZERO_MASK == make_mask()

    def test_active_indices(self):
        mask = make_mask([0, 7])
        assert mask[0] and mask[7]
        assert not any(mask[1:7])

    def test_64bit_elements(self):
        assert len(make_mask(element_size=8)) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_mask([8])
        with pytest.raises(ValueError):
            make_mask(element_size=16)


class TestFaultSuppression:
    """The four quadrants of the paper's Figure 1."""

    def test_A_load_active_element_on_unmapped_faults(self, setup):
        core, __, mapped, unmapped = setup
        # vector starts near page end; element 4.. fall on the unmapped page
        va = mapped + PAGE_SIZE - 16
        with pytest.raises(PageFault) as info:
            core.masked_load(va, make_mask([7]))
        assert info.value.present is False
        assert info.value.write is False

    def test_B_store_active_element_on_unmapped_faults(self, setup):
        core, __, mapped, unmapped = setup
        va = mapped + PAGE_SIZE - 16
        with pytest.raises(PageFault) as info:
            core.masked_store(va, make_mask([7]))
        assert info.value.write is True

    def test_C_load_masked_out_elements_suppressed(self, setup):
        core, __, mapped, unmapped = setup
        va = mapped + PAGE_SIZE - 16
        result = core.masked_load(va, make_mask([0]))  # active on mapped side
        assert result is not None

    def test_D_store_masked_out_elements_suppressed(self, setup):
        core, __, mapped, unmapped = setup
        va = mapped + PAGE_SIZE - 16
        result = core.masked_store(va, make_mask([0]))
        assert result is not None

    def test_zero_mask_never_faults_on_unmapped(self, setup):
        core, __, __, unmapped = setup
        result = core.masked_load(unmapped, ZERO_MASK)
        assert result.assist

    def test_zero_mask_never_faults_on_kernel_page(self, setup):
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        result = core.masked_load(kva, ZERO_MASK)
        assert result.assist

    def test_active_access_to_kernel_page_faults(self, setup):
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        with pytest.raises(PageFault) as info:
            core.masked_load(kva, make_mask([0]))
        assert info.value.present is True

    def test_store_to_readonly_active_faults(self, setup):
        core, space, __, __ = setup
        ro = 0x20_0000
        space.map_range(ro, PAGE_SIZE, USER_RO)
        with pytest.raises(PageFault):
            core.masked_store(ro, make_mask([0]))

    def test_page_fault_counter(self, setup):
        core, __, __, unmapped = setup
        with pytest.raises(PageFault):
            core.masked_load(unmapped, make_mask([0]))
        assert core.perf.read("PAGE_FAULTS") == 1


class TestAssists:
    def test_user_mapped_load_no_assist(self, setup):
        core, __, mapped, __ = setup
        result = core.masked_load(mapped)
        assert not result.assist
        assert core.perf.read("ASSISTS.ANY") == 0

    def test_unmapped_load_assists(self, setup):
        core, __, __, unmapped = setup
        result = core.masked_load(unmapped)
        assert result.assist_kind == "load-fault"

    def test_kernel_load_assists(self, setup):
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        result = core.masked_load(kva)
        assert result.assist_kind == "load-inaccessible"

    def test_privileged_kernel_load_no_assist(self, setup):
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        result = core.masked_load(kva, privileged=True)
        assert not result.assist

    def test_store_to_clean_rw_takes_dirty_assist(self, setup):
        core, __, mapped, __ = setup
        result = core.masked_store(mapped)
        assert result.assist_kind == "dirty"

    def test_store_to_dirty_rw_takes_no_assist(self, setup):
        core, space, mapped, __ = setup
        space.page_table.set_flag(mapped, PageFlags.DIRTY)
        result = core.masked_store(mapped)
        assert not result.assist

    def test_store_to_readonly_takes_perm_assist(self, setup):
        core, space, __, __ = setup
        ro = 0x20_0000
        space.map_range(ro, PAGE_SIZE, USER_RO)
        result = core.masked_store(ro)
        assert result.assist_kind == "store-perm"

    def test_store_to_unmapped_takes_fault_assist(self, setup):
        core, __, __, unmapped = setup
        result = core.masked_store(unmapped)
        assert result.assist_kind == "store-fault"

    def test_assists_counted(self, setup):
        core, __, __, unmapped = setup
        core.masked_load(unmapped)
        core.masked_load(unmapped)
        assert core.perf.read("ASSISTS.ANY") == 2


class TestTiming:
    def test_user_mapped_load_is_13_cycles(self, setup):
        """The paper's Figure 2 anchor on Ice Lake."""
        core, __, mapped, __ = setup
        core.masked_load(mapped)                    # TLB fill
        result = core.masked_load(mapped)
        assert result.cycles == 13

    def test_kernel_mapped_load_is_92_cycles(self, setup):
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        core.masked_load(kva)
        result = core.masked_load(kva)
        assert result.cycles == 92

    def test_kernel_mapped_store_is_76_cycles(self, setup):
        """P6: masked store 16 cycles faster than load on KERNEL-M."""
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        core.masked_load(kva)
        result = core.masked_store(kva)
        assert result.cycles == 76

    def test_unmapped_slower_than_kernel_mapped(self, setup):
        """P2: mapped vs unmapped second accesses differ."""
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        unmapped_k = kva + PAGE_SIZE
        core.masked_load(kva)
        core.masked_load(unmapped_k)
        mapped_2nd = core.masked_load(kva).cycles
        unmapped_2nd = core.masked_load(unmapped_k).cycles
        assert unmapped_2nd > mapped_2nd

    def test_tlb_hit_faster_than_walk(self, setup):
        core, __, mapped, __ = setup
        first = core.masked_load(mapped).cycles
        second = core.masked_load(mapped).cycles
        assert second < first

    def test_amd_kernel_probe_never_tlb_hits(self):
        """Zen 3: supervisor translations are not cached for user probes."""
        space = AddressSpace()
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        core = Core(get_cpu_model("ryzen5-5600X"), seed=0)
        core.set_address_space(space)
        first = core.masked_load(kva)
        second = core.masked_load(kva)
        assert first.walks == 1 and second.walks == 1
        assert second.tlb_level is None

    def test_intel_kernel_probe_fills_tlb(self, setup):
        core, space, __, __ = setup
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        core.masked_load(kva)
        second = core.masked_load(kva)
        assert second.tlb_level == "L1"
        assert second.walks == 0


class TestDataMovement:
    def test_load_reads_active_elements(self, setup):
        core, space, mapped, __ = setup
        space.memory.write(
            space.translate(mapped).physical_address, b"\x11\x22\x33\x44"
        )
        result = core.masked_load(mapped, make_mask([0]))
        assert result.value[:4] == b"\x11\x22\x33\x44"
        assert result.value[4:] == b"\x00" * 28

    def test_store_writes_active_elements(self, setup):
        core, space, mapped, __ = setup
        data = bytes(range(32))
        core.masked_store(mapped, make_mask([1]), data=data)
        pa = space.translate(mapped).physical_address
        assert space.memory.read(pa + 4, 4) == data[4:8]
        assert space.memory.read(pa, 4) == b"\x00" * 4

    def test_active_store_sets_dirty(self, setup):
        core, space, mapped, __ = setup
        core.masked_store(mapped, make_mask([0]))
        assert space.translate(mapped).flags & PageFlags.DIRTY

    def test_zero_mask_store_leaves_dirty_clear(self, setup):
        """Crucial for the threshold calibration: probing never dirties."""
        core, space, mapped, __ = setup
        for _ in range(10):
            core.masked_store(mapped, ZERO_MASK)
        assert not space.translate(mapped).flags & PageFlags.DIRTY

    def test_active_load_sets_accessed(self, setup):
        core, space, mapped, __ = setup
        core.masked_load(mapped, make_mask([0]))
        assert space.translate(mapped).flags & PageFlags.ACCESSED

    def test_dirty_visible_to_next_store_via_tlb(self, setup):
        core, __, mapped, __ = setup
        core.masked_store(mapped, make_mask([0]))   # sets D
        result = core.masked_store(mapped, ZERO_MASK)
        assert not result.assist


class TestMitigation:
    def test_zero_mask_nop_flat_timing(self, setup):
        core, space, mapped, __ = setup
        core.avx.zero_mask_nop = True
        kva = 0xFFFF_FFFF_8000_0000
        space.map_range(kva, PAGE_SIZE, KERNEL)
        t_user = core.masked_load(mapped).cycles
        t_kernel = core.masked_load(kva).cycles
        t_unmapped = core.masked_load(mapped + PAGE_SIZE).cycles
        assert t_user == t_kernel == t_unmapped

    def test_zero_mask_nop_no_tlb_side_effects(self, setup):
        core, __, mapped, __ = setup
        core.avx.zero_mask_nop = True
        core.masked_load(mapped)
        assert not core.tlb.holds(mapped)

    def test_active_masks_still_work_under_mitigation(self, setup):
        core, __, mapped, __ = setup
        core.avx.zero_mask_nop = True
        result = core.masked_load(mapped, make_mask([0]))
        assert result.value is not None
