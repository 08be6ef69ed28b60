"""4-level x86-64 page tables.

The hierarchy is PML4 -> PDPT -> PD -> PT.  Terminal mappings may live at

* PT level    : 4 KiB pages,
* PD level    : 2 MiB huge pages  (PS bit set),
* PDPT level  : 1 GiB huge pages  (PS bit set).

Each paging-structure node carries a unique ``node_id`` standing in for the
physical address of the structure itself; the walker uses node ids to model
whether a walk's memory accesses hit the data cache (hot) or go to DRAM
(cold) -- the effect behind the paper's 381-vs-147-cycle TLB-miss result.
"""

import itertools

import numpy as np

from repro.errors import AddressError, MappingError
from repro.mmu.frames import FrameAllocator, PhysicalMemory
from repro.mmu.address import (
    LEVEL_NAMES,
    PAGE_SHIFT,
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    check_canonical,
    is_aligned,
    is_user_address,
    split_indices,
)
from repro.mmu.flags import PageFlags, describe

#: level index (0-based, top-down) at which each page size terminates
_LEVEL_OF_SIZE = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}
_SIZE_OF_LEVEL = {1: PAGE_SIZE_1G, 2: PAGE_SIZE_2M, 3: PAGE_SIZE}

_node_ids = itertools.count(1)

#: permissive flags used for non-terminal (directory) entries, mirroring
#: how Linux sets intermediate entries maximally permissive and enforces
#: permissions at the leaf.
_DIR_FLAGS = int(PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER)
_PRESENT = int(PageFlags.PRESENT)
#: the bits ``protect`` keeps from the old leaf
_KEPT_BITS = int(PageFlags.HUGE | PageFlags.GLOBAL)

class Node:
    """One paging structure: its 512 slots as three dense columns.

    ``flags`` holds each slot's PTE word (uint64; 0 is an empty slot),
    ``pfn`` a leaf's frame (int64) and ``child`` a directory slot's
    next-level node (None for a leaf or an empty slot).  The columnar
    engine (:func:`repro.cpu.columnar._resolve`) gathers from these
    columns directly, so a write to them is all there is to keep in
    sync.
    """

    __slots__ = ("node_id", "level", "flags", "pfn", "child")

    def __init__(self, level):
        self.node_id = next(_node_ids)
        self.level = level
        self.flags = np.zeros(512, dtype=np.uint64)
        self.pfn = np.zeros(512, dtype=np.int64)
        self.child = np.empty(512, dtype=object)  # all None

    def ensure_child(self, index):
        child = self.child[index]
        if child is None:
            if self.flags[index]:
                raise MappingError(
                    "level-{} entry {} already terminal".format(
                        self.level, index)
                )
            child = self.child[index] = Node(self.level + 1)
            self.flags[index] = _DIR_FLAGS
        return child


class Translation:
    """A successful virtual-to-physical translation.

    ``flags`` is the leaf's PTE word as a plain ``int``, read straight
    from its node's flag column; test it against :class:`PageFlags` bits.
    """

    __slots__ = ("va", "pfn", "flags", "page_size", "level")

    def __init__(self, va, pfn, flags, page_size, level):
        self.va = va
        self.pfn = pfn
        self.flags = flags
        self.page_size = page_size
        self.level = level

    @property
    def physical_address(self):
        offset = self.va & (self.page_size - 1)
        return self.pfn * PAGE_SIZE + offset

    @property
    def level_name(self):
        return LEVEL_NAMES[self.level]

    def __repr__(self):
        return "Translation(va={:#x}, pfn={:#x}, {}, {})".format(
            self.va, self.pfn, describe(self.flags), self.level_name
        )


class Lookup:
    """Structural walk outcome: translation or termination level.

    ``indices`` carries the per-level VA indices, so the timed walker
    need not split the VA again.
    """

    __slots__ = ("translation", "terminal_level", "nodes", "indices")

    def __init__(self, translation, terminal_level, nodes, indices):
        self.translation = translation
        self.terminal_level = terminal_level
        self.nodes = nodes
        self.indices = indices

    @property
    def present(self):
        return self.translation is not None


class PageTable:
    """A full 4-level page-table tree rooted at a PML4.

    The table holds nothing but its root: every :meth:`lookup` reads
    the node columns as they are now, so a write is seen by the next
    lookup through this table and through any table that aliases the
    written subtree.
    """

    __slots__ = ("root",)

    def __init__(self):
        self.root = Node(level=0)

    # -- construction -----------------------------------------------------

    def map(self, va, pfn, flags, page_size=PAGE_SIZE):
        """Install a terminal mapping of ``page_size`` bytes at ``va``."""
        va = check_canonical(va)
        if page_size not in _LEVEL_OF_SIZE:
            raise MappingError("unsupported page size {:#x}".format(page_size))
        if not is_aligned(va, page_size):
            raise MappingError(
                "va {:#x} not aligned to page size {:#x}".format(va, page_size)
            )
        if not flags & PageFlags.PRESENT:
            raise MappingError("terminal mappings must be PRESENT")
        terminal_level = _LEVEL_OF_SIZE[page_size]
        indices = split_indices(va)
        node = self.root
        for level in range(terminal_level):
            node = node.ensure_child(indices[level])
        index = indices[terminal_level]
        child = node.child[index]
        # a directory entry whose child table is empty (left behind by
        # ``unmap``) maps nothing, so a huge page may replace it
        if node.flags[index] and (child is None or child.flags.any()):
            raise MappingError("va {:#x} already mapped".format(va))
        if page_size != PAGE_SIZE:
            flags |= PageFlags.HUGE
        node.flags[index] = flags
        node.pfn[index] = pfn
        node.child[index] = None

    def map_run(self, va, pfn, count, flags):
        """Map ``count`` 4 KiB pages at ``va`` to the frames from ``pfn`` on.

        Builds the same tree as ``count`` calls of :meth:`map` over
        ascending VAs and PFNs (directories are created in the same
        order, so node ids match), but walks from the PML4 once per PT
        node the run crosses and writes that node's slots as one slice
        of each column.  A PT node is checked for overlaps before any of
        its slots is written, but a run that fails part-way keeps the
        PT nodes it has already filled.
        """
        va = check_canonical(va)
        if count < 1:
            raise MappingError("cannot map {} pages".format(count))
        if not is_aligned(va, PAGE_SIZE):
            raise MappingError(
                "va {:#x} not aligned to page size {:#x}".format(va, PAGE_SIZE)
            )
        word = int(flags)
        if not word & _PRESENT:
            raise MappingError("terminal mappings must be PRESENT")
        last = va + (count - 1) * PAGE_SIZE
        if check_canonical(last) != last \
                or is_user_address(va) != is_user_address(last):
            raise AddressError(
                "run {:#x}..{:#x} leaves the canonical half".format(va, last)
            )
        vpn = va >> PAGE_SHIFT
        end = vpn + count
        root = self.root
        while vpn < end:
            pml4, pdpt, pd, first = split_indices(vpn << PAGE_SHIFT)
            node = root.ensure_child(pml4).ensure_child(pdpt) \
                .ensure_child(pd)
            stop = min(512, first + end - vpn)
            slots = node.flags[first:stop]
            if np.count_nonzero(slots):
                raise MappingError("va {:#x} already mapped".format(
                    (vpn + int(np.flatnonzero(slots)[0])) << PAGE_SHIFT
                ))
            slots[:] = word
            node.pfn[first:stop] = np.arange(pfn, pfn + stop - first)
            pfn += stop - first
            vpn += stop - first

    def unmap(self, va):
        """Remove the terminal mapping covering ``va``.

        Returns the page size of the removed mapping.  Intermediate
        structures are retained (as real kernels usually do), so a later
        walk of the same address terminates at the old terminal level.
        """
        node, index, level = self._find_terminal(va)
        node.flags[index] = 0
        return _SIZE_OF_LEVEL[level]

    def protect(self, va, flags):
        """Replace the permission flags of the mapping covering ``va``."""
        node, index, __ = self._find_terminal(va)
        if flags & PageFlags.PRESENT:
            node.flags[index] = flags | node.flags.item(index) & _KEPT_BITS
        else:
            # PROT_NONE: drop the leaf, like Linux clearing the present bit.
            node.flags[index] = 0

    def set_flag(self, va, flag):
        """OR ``flag`` into the terminal entry covering ``va`` (A/D bits)."""
        node, index, __ = self._find_terminal(va)
        node.flags[index] = node.flags.item(index) | int(flag)

    # -- lookup ------------------------------------------------------------

    def _find_terminal(self, va):
        """Return (node, index, level) of the terminal entry covering
        ``va``; raise MappingError when there is none."""
        indices = split_indices(va)
        node = self.root
        for level in range(4):
            index = indices[level]
            if not node.flags[index]:
                raise MappingError("va {:#x} is not mapped".format(va))
            child = node.child[index]
            if child is None:
                return node, index, level
            node = child
        raise MappingError("malformed page table at {:#x}".format(va))

    def lookup(self, va):
        """Walk structurally (no timing) and return a :class:`Lookup`.

        ``nodes`` lists the (level, node_id) pairs of every paging
        structure the hardware would read, in top-down order.  Each call
        walks the node columns afresh and returns a new Lookup.
        """
        va = check_canonical(va)
        indices = split_indices(va)
        node = self.root
        touched = []
        for level in range(4):
            touched.append((level, node.node_id))
            index = indices[level]
            word = node.flags.item(index)
            if not word & _PRESENT:
                return Lookup(None, level, touched, indices)
            child = node.child[index]
            if child is None:
                translation = Translation(
                    va,
                    node.pfn.item(index),
                    word,
                    _SIZE_OF_LEVEL[level],
                    level,
                )
                return Lookup(translation, level, touched, indices)
            node = child
        raise MappingError("malformed page table at {:#x}".format(va))

    def is_mapped(self, va):
        """Return True if ``va`` has a present terminal mapping."""
        return self.lookup(va).present

    # -- sharing (KPTI) ----------------------------------------------------

    def share_top_level_from(self, other, pml4_index):
        """Alias one PML4 slot from ``other`` into this table.

        This is how kernels share the kernel half between per-process page
        tables: top-level entries point at the same lower structures.
        """
        child = other.root.child[pml4_index]
        if child is None:
            raise MappingError(
                "source PML4 slot {} is empty".format(pml4_index)
            )
        self.root.flags[pml4_index] = other.root.flags[pml4_index]
        self.root.child[pml4_index] = child

    def iter_terminal(self):
        """Yield (va_base, translation, page_size) for every present
        leaf, in index order."""

        def walk(node, prefix, level):
            for index in np.flatnonzero(node.flags).tolist():
                va = prefix | (index << (39 - 9 * level))
                child = node.child[index]
                if child is not None:
                    yield from walk(child, va, level + 1)
                    continue
                word = node.flags.item(index)
                if word & _PRESENT:
                    if va >> 47 & 1:
                        va |= 0xFFFF_0000_0000_0000
                    size = _SIZE_OF_LEVEL[level]
                    yield va, Translation(va, node.pfn.item(index), word,
                                          size, level), size

        yield from walk(self.root, 0, 0)


class AddressSpace:
    """A page table bound to a frame allocator and physical memory.

    This is the unit the OS layer hands to processes (and, with KPTI, the
    pair of tables a process really has).
    """

    def __init__(self, frames=None, memory=None):
        self.page_table = PageTable()
        self.frames = frames if frames is not None else FrameAllocator()
        self.memory = memory if memory is not None else PhysicalMemory()

    def map_range(self, va, size, flags, page_size=PAGE_SIZE):
        """Map ``size`` bytes at ``va`` with fresh frames; return first PFN."""
        if size <= 0 or size % page_size:
            raise MappingError(
                "size {:#x} is not a multiple of page size".format(size)
            )
        count = size // page_size
        frames_per_page = page_size // PAGE_SIZE
        first = self.frames.alloc(count * frames_per_page)
        if page_size == PAGE_SIZE:
            self.page_table.map_run(va, first, count, flags)
            return first
        for i in range(count):
            self.page_table.map(
                va + i * page_size,
                first + i * frames_per_page,
                flags,
                page_size,
            )
        return first

    def unmap_range(self, va, size, page_size=PAGE_SIZE):
        """Unmap ``size`` bytes starting at ``va``."""
        for offset in range(0, size, page_size):
            self.page_table.unmap(va + offset)

    def protect_range(self, va, size, flags, page_size=PAGE_SIZE):
        """Re-protect ``size`` bytes starting at ``va``."""
        for offset in range(0, size, page_size):
            self.page_table.protect(va + offset, flags)

    def translate(self, va):
        """Structural translation (no timing); None if unmapped."""
        return self.page_table.lookup(va).translation
