"""Linux OS layer: KASLR policy, kernel image, modules, KPTI, procfs."""

import numpy as np
import pytest

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags
from repro.os.linux import layout
from repro.os.linux.kaslr import KASLRPolicy
from repro.os.linux.kernel import SYSCALL_TABLE, LinuxKernel
from repro.os.linux.modules import (
    MODULE_CATALOG,
    by_name,
    default_module_set,
    page_count_histogram,
    uniquely_sized,
)


class TestLayoutConstants:
    def test_kernel_window_is_1gib_512_slots(self):
        assert layout.KERNEL_TEXT_END - layout.KERNEL_TEXT_START == 1 << 30
        assert layout.KERNEL_TEXT_SLOTS == 512

    def test_module_window_is_64mib_16384_slots(self):
        assert layout.MODULE_END - layout.MODULE_START == 64 << 20
        assert layout.MODULE_SLOTS == 16384

    def test_slot_roundtrip(self):
        base = layout.kernel_base_of_slot(271)
        assert base == 0xFFFF_FFFF_A1E0_0000  # the paper's Figure 4 base
        assert layout.kernel_slot_of(base) == 271

    def test_trampoline_offsets(self):
        assert layout.KPTI_TRAMPOLINE_OFFSETS["5.11.0-27"] == 0xC0_0000
        assert layout.KPTI_TRAMPOLINE_OFFSETS["5.11.0-1020-aws"] == 0xE0_0000


class TestKASLRPolicy:
    def test_kernel_base_aligned_and_in_window(self):
        policy = KASLRPolicy(seed=0)
        for _ in range(100):
            base = policy.kernel_base()
            assert base % layout.KERNEL_ALIGN == 0
            assert layout.KERNEL_TEXT_START <= base < layout.KERNEL_TEXT_END

    def test_image_always_fits(self):
        policy = KASLRPolicy(seed=1)
        for _ in range(200):
            base = policy.kernel_base(image_2m_pages=22)
            end = base + 22 * PAGE_SIZE_2M
            assert end <= layout.KERNEL_TEXT_END

    def test_nokaslr_base_is_fixed(self):
        policy = KASLRPolicy(seed=2, enabled=False)
        assert policy.kernel_base() == 0xFFFF_FFFF_8100_0000
        assert policy.kernel_base() == policy.kernel_base()

    def test_entropy_is_used(self):
        policy = KASLRPolicy(seed=3)
        bases = {policy.kernel_base() for _ in range(64)}
        assert len(bases) > 32

    def test_deterministic_across_equal_seeds(self):
        assert KASLRPolicy(seed=7).kernel_base() == KASLRPolicy(seed=7).kernel_base()

    def test_user_bases_in_expected_regions(self):
        policy = KASLRPolicy(seed=4)
        text = policy.user_text_base()
        assert layout.USER_TEXT_REGION <= text < layout.USER_TEXT_REGION + (
            1 << 40
        )
        assert text % PAGE_SIZE == 0
        mmap_base = policy.user_mmap_base()
        assert layout.USER_MMAP_REGION <= mmap_base

    def test_module_area_start(self):
        policy = KASLRPolicy(seed=5)
        start = policy.module_area_start(4000)
        assert layout.MODULE_START <= start < layout.MODULE_END
        assert start % PAGE_SIZE == 0


class TestModuleCatalog:
    def test_125_modules(self):
        assert len(MODULE_CATALOG) == 125

    def test_19_unique_sizes(self):
        assert len(uniquely_sized()) == 19

    def test_paper_named_uniques(self):
        unique_names = {m.name for m in uniquely_sized()}
        assert {"video", "mac_hid", "pinctrl_icelake"} <= unique_names
        assert {"bluetooth", "psmouse"} <= unique_names

    def test_autofs4_x_tables_collide(self):
        assert by_name("autofs4").pages == by_name("x_tables").pages
        histogram = page_count_histogram()
        assert set(histogram[by_name("autofs4").pages]) == {
            "autofs4", "x_tables"
        }

    def test_no_duplicate_names(self):
        names = [m.name for m in MODULE_CATALOG]
        assert len(names) == len(set(names))

    def test_pages_consistent_with_bytes(self):
        for module in MODULE_CATALOG:
            assert module.pages == -(-module.size_bytes // PAGE_SIZE)
            assert module.pages >= 1

    def test_unknown_module_lookup(self):
        with pytest.raises(KeyError):
            by_name("nonexistent_driver")

    def test_default_set_is_fresh_list(self):
        a = default_module_set()
        b = default_module_set()
        assert a == list(MODULE_CATALOG)
        assert a is not b


class TestLinuxKernel:
    @pytest.fixture
    def kernel(self):
        return LinuxKernel(seed=42)

    def test_image_mapped_from_base(self, kernel):
        assert kernel.kernel_space.translate(kernel.base) is not None
        last = kernel.base + (kernel.image_2m_pages - 1) * PAGE_SIZE_2M
        assert kernel.kernel_space.translate(last) is not None

    def test_text_data_split_respects_wx(self, kernel):
        """Strict kernel memory permissions: no page is both W and X."""
        for base, entry, __ in kernel.kernel_space.page_table.iter_terminal():
            writable = entry.flags & PageFlags.WRITABLE
            executable = not entry.flags & PageFlags.NX
            assert not (writable and executable)

    def test_kernel_pages_are_supervisor(self, kernel):
        translation = kernel.kernel_space.translate(kernel.base)
        assert not translation.flags & PageFlags.USER

    def test_four_k_tail_pages(self, kernel):
        for offset in layout.KERNEL_4K_PAGE_OFFSETS:
            translation = kernel.kernel_space.translate(kernel.base + offset)
            assert translation is not None
            assert translation.page_size == PAGE_SIZE

    def test_slot_before_base_unmapped(self, kernel):
        if kernel.base > layout.KERNEL_TEXT_START:
            assert kernel.kernel_space.translate(
                kernel.base - PAGE_SIZE_2M
            ) is None

    def test_all_modules_loaded(self, kernel):
        assert len(kernel.module_map) == 125
        for name, (start, pages) in kernel.module_map.items():
            assert layout.MODULE_START <= start < layout.MODULE_END
            assert kernel.kernel_space.translate(start) is not None
            last_page = start + (pages - 1) * PAGE_SIZE
            assert kernel.kernel_space.translate(last_page) is not None

    def test_modules_separated_by_guard_pages(self, kernel):
        regions = sorted(kernel.module_map.values())
        for (start_a, pages_a), (start_b, __) in zip(regions, regions[1:]):
            end_a = start_a + pages_a * PAGE_SIZE
            assert start_b > end_a  # at least one unmapped page between
            assert kernel.kernel_space.translate(end_a) is None

    def test_kallsyms_contains_base_and_entry(self, kernel):
        symbols = kernel.kallsyms()
        assert symbols["_text"] == kernel.base
        assert symbols["entry_SYSCALL_64"] == kernel.base + kernel.trampoline_offset
        assert "sys_read" in symbols

    def test_proc_modules_hides_addresses(self, kernel):
        lines = kernel.proc_modules()
        assert len(lines) == 125
        name, size = lines[0]
        assert isinstance(name, str) and isinstance(size, int)

    def test_functions_at_constant_offsets_without_fgkaslr(self):
        a = LinuxKernel(seed=1)
        b = LinuxKernel(seed=2)
        for name in SYSCALL_TABLE[:5]:
            assert a.functions[name] - a.base == b.functions[name] - b.base

    def test_fgkaslr_shuffles_function_offsets(self):
        a = LinuxKernel(seed=1, fgkaslr=True)
        b = LinuxKernel(seed=2, fgkaslr=True)
        offsets_a = [a.functions[n] - a.base for n in SYSCALL_TABLE]
        offsets_b = [b.functions[n] - b.base for n in SYSCALL_TABLE]
        assert offsets_a != offsets_b

    def test_is_kernel_text_mapped_ground_truth(self, kernel):
        assert kernel.is_kernel_text_mapped(kernel.base)
        assert kernel.is_kernel_text_mapped(kernel.base + 0x1234)
        assert not kernel.is_kernel_text_mapped(layout.KERNEL_TEXT_START - 1)


class TestKPTI:
    @pytest.fixture
    def kernel(self):
        return LinuxKernel(seed=7, kpti=True)

    def test_kernel_not_in_user_table(self, kernel):
        assert kernel.user_space is not kernel.kernel_space
        assert kernel.user_space.translate(kernel.base) is None

    def test_trampoline_in_user_table(self, kernel):
        trampoline = kernel.base + kernel.trampoline_offset
        for i in range(layout.KPTI_TRAMPOLINE_PAGES):
            translation = kernel.user_space.translate(trampoline + i * PAGE_SIZE)
            assert translation is not None
            assert not translation.flags & PageFlags.USER  # supervisor page

    def test_modules_not_in_user_table(self, kernel):
        start, __ = kernel.module_map["video"]
        assert kernel.user_space.translate(start) is None

    def test_non_kpti_shares_table(self):
        kernel = LinuxKernel(seed=7, kpti=False)
        assert kernel.user_space is kernel.kernel_space


class TestFlare:
    def test_flare_maps_all_text_slots(self):
        kernel = LinuxKernel(seed=9, flare=True)
        for slot in range(0, layout.KERNEL_TEXT_SLOTS, 17):
            va = layout.kernel_base_of_slot(slot)
            assert kernel.kernel_space.translate(va) is not None

    def test_flare_maps_module_window(self):
        kernel = LinuxKernel(seed=9, flare=True)
        for slot in range(0, layout.MODULE_SLOTS, 1111):
            va = layout.MODULE_START + slot * PAGE_SIZE
            assert kernel.kernel_space.translate(va) is not None


class TestKernelActivity:
    def test_syscall_loads_entry_translation(self):
        from repro.cpu.core import Core
        from repro.cpu.models import get_cpu_model

        kernel = LinuxKernel(seed=3)
        core = Core(get_cpu_model("i5-12400F"), seed=0)
        core.set_address_space(kernel.user_space)
        kernel.syscall(core, "sys_read")
        assert core.tlb.holds(kernel.entry_address)
        assert core.tlb.holds(kernel.functions["sys_read"])

    def test_touch_module_loads_translations(self):
        from repro.cpu.core import Core
        from repro.cpu.models import get_cpu_model

        kernel = LinuxKernel(seed=3)
        core = Core(get_cpu_model("i5-12400F"), seed=0)
        core.set_address_space(kernel.user_space)
        kernel.touch_module(core, "bluetooth", pages=4)
        start, __ = kernel.module_map["bluetooth"]
        for i in range(4):
            assert core.tlb.holds(start + i * PAGE_SIZE)
