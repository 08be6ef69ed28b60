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
from repro.mmu.flags import PageFlags

#: level index (0-based, top-down) at which each page size terminates
_LEVEL_OF_SIZE = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}
_SIZE_OF_LEVEL = {1: PAGE_SIZE_1G, 2: PAGE_SIZE_2M, 3: PAGE_SIZE}

_node_ids = itertools.count(1)

#: permissive flags used for non-terminal (directory) entries, mirroring
#: how Linux sets intermediate entries maximally permissive and enforces
#: permissions at the leaf.
_DIR_FLAGS = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER


class Entry:
    """One slot of a paging structure: either a directory or a leaf."""

    __slots__ = ("flags", "pfn", "child")

    def __init__(self, flags=PageFlags.NONE, pfn=None, child=None):
        self.flags = flags
        self.pfn = pfn
        self.child = child

    @property
    def is_terminal(self):
        return self.child is None


class Node:
    """One paging structure (512 entries, stored sparsely).

    Every write to ``entries`` goes through a method here and drops
    ``columns``, the columnar engine's image of the node
    (:func:`repro.cpu.columnar._node_arrays`), so no image is stale.
    """

    __slots__ = ("node_id", "level", "entries", "columns")

    def __init__(self, level):
        self.node_id = next(_node_ids)
        self.level = level
        self.entries = {}
        self.columns = None

    def put(self, items):
        """Install ``{index: entry}`` items (new or replacing)."""
        self.entries.update(items)
        self.columns = None

    def remove(self, index):
        del self.entries[index]
        self.columns = None

    def add_flags(self, entry, flags):
        """OR ``flags`` into ``entry``, one of this node's entries."""
        entry.flags |= flags
        self.columns = None

    def ensure_child(self, index):
        entry = self.entries.get(index)
        if entry is None:
            entry = Entry(flags=_DIR_FLAGS, child=Node(self.level + 1))
            self.put({index: entry})
        elif entry.child is None:
            raise MappingError(
                "level-{} entry {} already terminal".format(self.level, index)
            )
        return entry.child


class Translation:
    """A successful virtual-to-physical translation."""

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
            self.va, self.pfn, self.flags.describe(), self.level_name
        )


class Lookup:
    """Structural walk outcome: translation or termination level.

    ``indices`` carries the per-level VA indices so consumers that hold a
    cached Lookup (the timed walker) need not recompute them.
    """

    __slots__ = ("translation", "terminal_level", "nodes", "indices")

    def __init__(self, translation, terminal_level, nodes, indices=None):
        self.translation = translation
        self.terminal_level = terminal_level
        self.nodes = nodes
        self.indices = indices

    @property
    def present(self):
        return self.translation is not None


#: Global structural-mutation counter.  It is bumped by *any* mutation of
#: *any* page table; per-table lookup caches are tagged with the value
#: they were filled under and dropped wholesale when it moves.  A global
#: counter (rather than per-table) keeps aliased subtrees correct: KPTI
#: tables share PML4 slots via :meth:`PageTable.share_top_level_from`, so
#: a mutation through one table must invalidate lookups cached by the
#: other.
_mutation_generation = 0


def _bump_generation():
    global _mutation_generation
    _mutation_generation += 1


class PageTable:
    """A full 4-level page-table tree rooted at a PML4.

    Repeated structural lookups of the same VA are memoized in a
    generation-tagged cache: probe sweeps hit the same addresses over and
    over, and the radix traversal dominates their cost.  Any mutation
    (``map``/``map_run``/``unmap``/``protect``/flag updates/top-level
    sharing) bumps the global generation, which drops every table's
    cached lookups.
    """

    def __init__(self):
        self.root = Node(level=0)
        self._lookup_cache = {}
        self._cache_generation = _mutation_generation

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
        existing = node.entries.get(index)
        # a directory entry whose child table is empty (left behind by
        # ``unmap``) maps nothing, so a huge page may replace it
        if existing is not None and existing.flags & PageFlags.PRESENT \
                and (existing.child is None or existing.child.entries):
            raise MappingError("va {:#x} already mapped".format(va))
        if page_size != PAGE_SIZE:
            flags |= PageFlags.HUGE
        node.put({index: Entry(flags=flags, pfn=pfn)})
        _bump_generation()

    def map_run(self, va, pfn, count, flags):
        """Map ``count`` 4 KiB pages at ``va`` to the frames from ``pfn`` on.

        Builds the same tree as ``count`` calls of :meth:`map` over
        ascending VAs and PFNs (directories are created in the same
        order, so node ids match), but walks from the PML4 once per PT
        node the run crosses and fills that node's contiguous PTEs
        directly.  A PT node is checked for overlaps before any of its
        PTEs is written.  The mutation generation moves once per run.
        """
        va = check_canonical(va)
        if count < 1:
            raise MappingError("cannot map {} pages".format(count))
        if not is_aligned(va, PAGE_SIZE):
            raise MappingError(
                "va {:#x} not aligned to page size {:#x}".format(va, PAGE_SIZE)
            )
        if not flags & PageFlags.PRESENT:
            raise MappingError("terminal mappings must be PRESENT")
        last = va + (count - 1) * PAGE_SIZE
        if check_canonical(last) != last \
                or is_user_address(va) != is_user_address(last):
            raise AddressError(
                "run {:#x}..{:#x} leaves the canonical half".format(va, last)
            )
        # bumped up front: nothing looks up a table while the run fills
        # it, and a run that fails part-way has still mutated
        _bump_generation()
        vpn = va >> PAGE_SHIFT
        end = vpn + count
        root = self.root
        while vpn < end:
            pml4, pdpt, pd, first = split_indices(vpn << PAGE_SHIFT)
            node = root.ensure_child(pml4).ensure_child(pdpt) \
                .ensure_child(pd)
            entries = node.entries
            slots = range(first, min(512, first + end - vpn))
            if entries and not entries.keys().isdisjoint(slots):
                for index in slots:
                    existing = entries.get(index)
                    if existing is not None \
                            and existing.flags & PageFlags.PRESENT:
                        raise MappingError("va {:#x} already mapped".format(
                            (vpn + index - first) << PAGE_SHIFT
                        ))
            node.put(zip(slots, map(
                Entry, itertools.repeat(flags), range(pfn, pfn + len(slots))
            )))
            pfn += len(slots)
            vpn += len(slots)

    def unmap(self, va):
        """Remove the terminal mapping covering ``va``.

        Returns the page size of the removed mapping.  Intermediate
        structures are retained (as real kernels usually do), so a later
        walk of the same address terminates at the old terminal level.
        """
        node, index, entry, level = self._find_terminal(va)
        if entry is None:
            raise MappingError("va {:#x} is not mapped".format(va))
        node.remove(index)
        _bump_generation()
        return _SIZE_OF_LEVEL[level]

    def protect(self, va, flags):
        """Replace the permission flags of the mapping covering ``va``."""
        node, index, entry, level = self._find_terminal(va)
        if entry is None:
            raise MappingError("va {:#x} is not mapped".format(va))
        keep = entry.flags & (PageFlags.HUGE | PageFlags.GLOBAL)
        if not flags & PageFlags.PRESENT:
            # PROT_NONE: drop the leaf, like Linux clearing the present bit.
            node.remove(index)
            _bump_generation()
            return
        node.put({index: Entry(flags=flags | keep, pfn=entry.pfn)})
        _bump_generation()

    def set_flag(self, va, flag):
        """OR ``flag`` into the terminal entry covering ``va`` (A/D bits)."""
        node, __, entry, __ = self._find_terminal(va)
        if entry is None:
            raise MappingError("va {:#x} is not mapped".format(va))
        if entry.flags & flag != flag:
            node.add_flags(entry, flag)
            _bump_generation()

    # -- lookup ------------------------------------------------------------

    def _find_terminal(self, va):
        """Return (node, index, entry, level) of the terminal entry, if any."""
        indices = split_indices(va)
        node = self.root
        for level in range(4):
            entry = node.entries.get(indices[level])
            if entry is None:
                return node, indices[level], None, level
            if entry.is_terminal:
                return node, indices[level], entry, level
            node = entry.child
        raise MappingError("malformed page table at {:#x}".format(va))

    def lookup(self, va):
        """Walk structurally (no timing) and return a :class:`Lookup`.

        ``nodes`` lists the (level, node_id) pairs of every paging
        structure the hardware would read, in top-down order.  Results are
        memoized per VA until the next structural mutation.
        """
        if self._cache_generation != _mutation_generation:
            self._lookup_cache.clear()
            self._cache_generation = _mutation_generation
        else:
            cached = self._lookup_cache.get(va)
            if cached is not None:
                return cached
        result = self._lookup_uncached(va)
        self._lookup_cache[va] = result
        return result

    def _lookup_uncached(self, va):
        """The raw radix traversal behind :meth:`lookup` (never cached)."""
        va = check_canonical(va)
        indices = split_indices(va)
        node = self.root
        touched = []
        for level in range(4):
            touched.append((level, node.node_id))
            entry = node.entries.get(indices[level])
            if entry is None or not entry.flags & PageFlags.PRESENT:
                return Lookup(None, level, touched, indices)
            if entry.is_terminal:
                translation = Translation(
                    va,
                    entry.pfn,
                    entry.flags,
                    _SIZE_OF_LEVEL[level],
                    level,
                )
                return Lookup(translation, level, touched, indices)
            node = entry.child
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
        entry = other.root.entries.get(pml4_index)
        if entry is None:
            raise MappingError(
                "source PML4 slot {} is empty".format(pml4_index)
            )
        self.root.put({pml4_index: entry})
        _bump_generation()

    def iter_terminal(self):
        """Yield (va_base, entry, page_size) for every present leaf."""

        def walk(node, prefix, level):
            for index, entry in sorted(node.entries.items()):
                va = prefix | (index << (39 - 9 * level))
                if entry.is_terminal:
                    if entry.flags & PageFlags.PRESENT:
                        base = va
                        if base >> 47 & 1:
                            base |= 0xFFFF_0000_0000_0000
                        yield base, entry, _SIZE_OF_LEVEL[level]
                else:
                    yield from walk(entry.child, va, level + 1)

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
