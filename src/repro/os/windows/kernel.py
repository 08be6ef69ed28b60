"""Windows 10 kernel address-space model (paper Section IV-G).

The kernel and drivers live between ``0xfffff80000000000`` and
``0xfffff88000000000`` at a 2 MiB boundary -- 262144 slots, 18 bits of
entropy.  The kernel image occupies five consecutive 2 MiB pages; its
entry point is additionally randomized at 4 KiB granularity inside the
region (the remaining 9 bits the paper breaks with the TLB attack).

With KVA Shadow (KVAS, Windows' Meltdown isolation), the kernel is removed
from the user page table except for a transition region; in version 1709
that code (e.g. ``KiSystemCall64Shadow``) sits at a constant +0x298000
from the kernel base and spans three consecutive 4 KiB pages.
"""

import types

import numpy as np

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import AddressSpace

layout = types.SimpleNamespace(
    KERNEL_START=0xFFFF_F800_0000_0000,
    KERNEL_END=0xFFFF_F880_0000_0000,
    KERNEL_ALIGN=PAGE_SIZE_2M,
    KERNEL_IMAGE_2M_PAGES=5,
    KVAS_OFFSET=0x29_8000,
    KVAS_PAGES=3,
)
layout.KERNEL_SLOTS = (
    layout.KERNEL_END - layout.KERNEL_START
) // layout.KERNEL_ALIGN  # 262144 -> 18 bits

_KTEXT = PageFlags.PRESENT
_KDATA = (
    PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.NX
    | PageFlags.DIRTY | PageFlags.ACCESSED
)


class WindowsKernel:
    """One booted Windows kernel with randomized image placement."""

    def __init__(self, version="21H2", kvas=False, rng=None, seed=0):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self.version = version
        self.kvas = kvas

        self.kernel_space = AddressSpace()
        if kvas:
            self.user_space = AddressSpace(
                frames=self.kernel_space.frames,
                memory=self.kernel_space.memory,
            )
        else:
            self.user_space = self.kernel_space

        usable = layout.KERNEL_SLOTS - layout.KERNEL_IMAGE_2M_PAGES
        self.slot = int(self.rng.integers(0, usable))
        self.base = layout.KERNEL_START + self.slot * layout.KERNEL_ALIGN

        #: 4 KiB-granular entry-point randomization inside the region
        #: (the 9 bits the region scan does NOT recover).
        entry_pages = (
            layout.KERNEL_IMAGE_2M_PAGES * PAGE_SIZE_2M // PAGE_SIZE
        )
        self.entry_point = self.base + int(
            self.rng.integers(0, entry_pages)
        ) * PAGE_SIZE

        self._map_image()
        if kvas:
            self._map_kvas_region()

    def _map_image(self):
        """Map the five 2 MiB slots; the slot holding the entry point is
        carved into 4 KiB pages (mixed execute permissions around the
        entry stub prevent a large-page mapping there), which is what
        makes the entry's TLB footprint 4 KiB-granular."""
        entry_slot = (self.entry_point - self.base) // PAGE_SIZE_2M
        for i in range(layout.KERNEL_IMAGE_2M_PAGES):
            flags = _KTEXT if i < 3 else _KDATA
            if i == entry_slot:
                self.kernel_space.map_range(
                    self.base + i * PAGE_SIZE_2M, PAGE_SIZE_2M, flags,
                    page_size=PAGE_SIZE,
                )
            else:
                self.kernel_space.map_range(
                    self.base + i * PAGE_SIZE_2M, PAGE_SIZE_2M, flags,
                    page_size=PAGE_SIZE_2M,
                )

    def _map_kvas_region(self):
        """Alias the KiSystemCall64Shadow pages into the user table."""
        self.kvas_base = self.base + layout.KVAS_OFFSET
        for i in range(layout.KVAS_PAGES):
            va = self.kvas_base + i * PAGE_SIZE
            translation = self.kernel_space.translate(va)
            pfn = (
                translation.pfn
                if translation is not None
                else self.kernel_space.frames.alloc()
            )
            self.user_space.page_table.map(va, pfn, _KTEXT, PAGE_SIZE)

    # -- ground truth ---------------------------------------------------------

    def region_slots(self):
        """Slot indices occupied by the kernel image."""
        return list(range(self.slot, self.slot + layout.KERNEL_IMAGE_2M_PAGES))

    # -- kernel activity --------------------------------------------------------

    def syscall(self, core):
        """Enter the kernel, touching the entry page (TLB side effect)."""
        core.kernel_touch([self.entry_point], space=self.kernel_space)
        core.clock.advance(1100)
