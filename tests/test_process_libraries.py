"""Processes (mmap/munmap/mprotect, maps) and library layouts."""

import pytest

from repro.errors import MappingError
from repro.mmu.address import PAGE_SIZE
from repro.mmu.flags import PageFlags, describe
from repro.os.linux import layout
from repro.os.linux.kernel import LinuxKernel
from repro.os.linux.libraries import (
    LIBRARY_CATALOG,
    LibraryImage,
    Section,
    default_library_set,
)
from repro.os.linux.process import Process


@pytest.fixture
def process():
    return Process(LinuxKernel(seed=5))


class TestSections:
    def test_bad_perms_rejected(self):
        with pytest.raises(ValueError):
            Section("x", 1, "rwx+")

    def test_size(self):
        assert Section(".text", 3, "r-x").size == 3 * PAGE_SIZE

    def test_library_total_pages(self):
        libc = LIBRARY_CATALOG["libc.so.6"]
        assert libc.total_pages == 437 + 511 + 4 + 2

    def test_signature(self):
        libc = LIBRARY_CATALOG["libc.so.6"]
        assert libc.signature() == (
            ("r-x", 437), ("---", 511), ("r--", 4), ("rw-", 2)
        )

    def test_load_signature_splits_on_gaps(self):
        libc = LIBRARY_CATALOG["libc.so.6"]
        assert libc.load_signature() == (437, 6)

    def test_load_signature_without_gap(self):
        ld = LIBRARY_CATALOG["ld-linux-x86-64.so.2"]
        assert ld.load_signature() == (41,)

    def test_catalog_signatures_distinct(self):
        signatures = [
            image.signature() for image in LIBRARY_CATALOG.values()
        ]
        assert len(signatures) == len(set(signatures))

    def test_section_order_matches_paper(self):
        """Figure 7: sections appear as r-x, ---, r--, rw-."""
        libc = LIBRARY_CATALOG["libc.so.6"]
        assert [s.perms for s in libc.sections] == ["r-x", "---", "r--", "rw-"]


class TestProcessLoading:
    def test_text_base_in_55_region(self, process):
        assert process.text_base >> 40 == 0x55

    def test_libraries_in_7f_region(self, process):
        for base in process.library_bases.values():
            assert base >> 40 == 0x7F

    def test_default_libraries_loaded(self, process):
        for image in default_library_set():
            assert image.name in process.library_bases

    def test_executable_segments_mapped(self, process):
        assert process.space.translate(process.text_base) is not None
        region = process.region_at(process.text_base)
        assert region.perms == "r-x"

    def test_library_sections_have_correct_perms(self, process):
        base = process.library_bases["libc.so.6"]
        libc = LIBRARY_CATALOG["libc.so.6"]
        cursor = base
        for section in libc.sections:
            if section.perms == "---":
                assert process.space.translate(cursor) is None
            else:
                flags = process.space.translate(cursor).flags
                assert describe(flags) == section.perms
            cursor += section.pages * PAGE_SIZE

    def test_rw_image_sections_are_dirty(self, process):
        """Loader writes relocations: data pages must have D=1 so the
        store probe classifies them fast (Figure 7)."""
        base = process.library_bases["libc.so.6"]
        libc = LIBRARY_CATALOG["libc.so.6"]
        rw_offset = sum(
            s.pages for s in libc.sections if s.perms != "rw-"
        ) * PAGE_SIZE
        flags = process.space.translate(base + rw_offset).flags
        assert flags & PageFlags.DIRTY

    def test_aslr_entropy_between_seeds(self):
        bases = {
            Process(LinuxKernel(seed=s)).text_base for s in range(12)
        }
        assert len(bases) == 12


class TestSyscalls:
    def test_mmap_returns_fresh_address(self, process):
        a = process.mmap(2, "rw-")
        b = process.mmap(2, "rw-")
        assert a != b
        assert process.space.translate(a) is not None

    def test_mmap_prot_none_maps_nothing(self, process):
        addr = process.mmap(2, "---")
        assert process.space.translate(addr) is None
        assert process.region_at(addr).perms == "---"

    def test_guard_page_between_mmaps(self, process):
        a = process.mmap(1, "rw-")
        b = process.mmap(1, "rw-")
        assert b - (a + PAGE_SIZE) >= PAGE_SIZE
        assert process.space.translate(a + PAGE_SIZE) is None

    def test_munmap(self, process):
        addr = process.mmap(2, "rw-")
        process.munmap(addr, 2)
        assert process.space.translate(addr) is None
        assert process.region_at(addr) is None

    def test_partial_munmap_rejected(self, process):
        addr = process.mmap(4, "rw-")
        with pytest.raises(MappingError):
            process.munmap(addr, 2)

    def test_mprotect_change_perms(self, process):
        addr = process.mmap(1, "rw-")
        process.mprotect(addr, 1, "r--")
        assert describe(process.space.translate(addr).flags) == "r--"
        assert process.region_at(addr).perms == "r--"

    def test_mprotect_to_none_unmaps(self, process):
        addr = process.mmap(1, "rw-")
        process.mprotect(addr, 1, "---")
        assert process.space.translate(addr) is None

    def test_mprotect_from_none_maps(self, process):
        addr = process.mmap(1, "---")
        process.mprotect(addr, 1, "r--")
        assert process.space.translate(addr) is not None

    def test_mprotect_partial_rejected(self, process):
        addr = process.mmap(4, "rw-")
        with pytest.raises(MappingError):
            process.mprotect(addr, 2, "r--")


class TestMaps:
    def test_maps_sorted_and_visible_only(self, process):
        maps = process.maps()
        starts = [r.start for r in maps]
        assert starts == sorted(starts)
        assert all(not r.hidden for r in maps)

    def test_hidden_pages_exist_but_unlisted(self, process):
        hidden = [r for r in process.all_regions() if r.hidden]
        assert len(hidden) == 2
        for region in hidden:
            assert process.space.translate(region.start) is not None
            assert region not in process.maps()

    def test_true_permissions(self, process):
        addr = process.mmap(1, "r--")
        assert process.true_permissions(addr) == "r--"
        assert process.true_permissions(addr + 5 * PAGE_SIZE) in ("---", "r--",
                                                                  "rw-", "r-x")

    def test_region_at_boundaries(self, process):
        addr = process.mmap(2, "rw-")
        region = process.region_at(addr + 2 * PAGE_SIZE - 1)
        assert region is not None
        assert process.region_at(addr + 2 * PAGE_SIZE) is not region


class TestCustomLibrary:
    def test_load_custom_image(self, process):
        image = LibraryImage(
            "libtest.so", [Section(".text", 2, "r-x"),
                           Section(".data", 1, "rw-")]
        )
        base = process.load_library(image)
        assert describe(process.space.translate(base).flags) == "r-x"
        assert describe(
            process.space.translate(base + 2 * PAGE_SIZE).flags
        ) == "rw-"
