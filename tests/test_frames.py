"""Frame allocator and sparse physical memory."""

import pytest

from repro.errors import MappingError
from repro.mmu.frames import FrameAllocator, PhysicalMemory


class TestFrameAllocator:
    def test_monotonic(self):
        allocator = FrameAllocator()
        a = allocator.alloc()
        b = allocator.alloc()
        assert b > a

    def test_consecutive_block(self):
        allocator = FrameAllocator()
        first = allocator.alloc(4)
        for i in range(4):
            assert allocator.is_allocated(first + i)

    def test_free(self):
        allocator = FrameAllocator()
        pfn = allocator.alloc(2)
        allocator.free(pfn, 2)
        assert not allocator.is_allocated(pfn)
        assert not allocator.is_allocated(pfn + 1)

    def test_no_reuse_after_free(self):
        allocator = FrameAllocator()
        pfn = allocator.alloc()
        allocator.free(pfn)
        assert allocator.alloc() != pfn

    def test_zero_count_rejected(self):
        with pytest.raises(MappingError):
            FrameAllocator().alloc(0)

    def test_allocated_count(self):
        allocator = FrameAllocator()
        allocator.alloc(3)
        assert allocator.allocated_count == 3

    def test_partial_free_of_a_run(self):
        allocator = FrameAllocator()
        first = allocator.alloc(512)
        allocator.free(first + 100, 12)
        allocator.free(first + 105)  # already free: no double count
        assert allocator.allocated_count == 500
        assert allocator.is_allocated(first + 99)
        assert not allocator.is_allocated(first + 100)
        assert not allocator.is_allocated(first + 111)
        assert allocator.is_allocated(first + 112)
        assert allocator.is_allocated(first + 511)

    def test_outside_the_run_is_not_allocated(self):
        allocator = FrameAllocator(first_pfn=0x100)
        first = allocator.alloc(8)
        assert first == 0x100
        assert not allocator.is_allocated(0xFF)
        assert not allocator.is_allocated(first + 8)
        assert not allocator.is_allocated(first + 1000)
        assert allocator.alloc() == first + 8

    def test_free_of_never_allocated_frame_is_ignored(self):
        allocator = FrameAllocator(first_pfn=0x100)
        first = allocator.alloc(4)
        allocator.free(0x10, 8)
        allocator.free(first + 4, 2)
        allocator.free(first + 2, 10)  # straddles the cursor
        assert allocator.allocated_count == 2
        allocator.alloc(2)
        assert allocator.allocated_count == 4
        assert allocator.is_allocated(first + 4)


class TestPhysicalMemory:
    def test_untouched_reads_zero(self):
        memory = PhysicalMemory()
        assert memory.read(0x1234, 8) == b"\x00" * 8

    def test_write_read_roundtrip(self):
        memory = PhysicalMemory()
        memory.write(0x2000, b"hello")
        assert memory.read(0x2000, 5) == b"hello"

    def test_cross_page_write(self):
        memory = PhysicalMemory()
        memory.write(0x1FFC, b"ABCDEFGH")
        assert memory.read(0x1FFC, 8) == b"ABCDEFGH"
        assert memory.read(0x2000, 4) == b"EFGH"

    def test_partial_overwrite(self):
        memory = PhysicalMemory()
        memory.write(0x3000, b"xxxxxxxx")
        memory.write(0x3002, b"YY")
        assert memory.read(0x3000, 8) == b"xxYYxxxx"

    def test_touched_pages(self):
        memory = PhysicalMemory()
        assert memory.touched_pages == 0
        memory.write(0x0, b"a")
        memory.write(0x5000, b"b")
        assert memory.touched_pages == 2
