"""Property-based tests (hypothesis) for the MMU substrate invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, MappingError

from repro.mmu.address import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    is_canonical,
    page_align_down,
    page_align_up,
    split_indices,
)
from repro.mmu.flags import PageFlags, flags_from_prot
from repro.mmu.pagetable import AddressSpace, PageTable
from repro.mmu.psc import PagingStructureCache
from repro.mmu.tlb import TLB, TLBEntry

from tests.pagetables import page_table_steps, walk_nodes, writers

#: canonical user-half addresses
user_vas = st.integers(min_value=0, max_value=0x0000_7FFF_FFFF_FFFF)
#: canonical kernel-half addresses
kernel_vas = st.integers(
    min_value=0xFFFF_8000_0000_0000, max_value=0xFFFF_FFFF_FFFF_FFFF
)
canonical_vas = st.one_of(user_vas, kernel_vas)
page_bases = user_vas.map(lambda va: page_align_down(va))


class TestAddressProperties:
    @given(canonical_vas)
    def test_canonical_addresses_accepted(self, va):
        assert is_canonical(va)

    @given(canonical_vas)
    def test_split_indices_in_range(self, va):
        indices = split_indices(va)
        assert len(indices) == 4
        assert all(0 <= i <= 511 for i in indices)

    @given(canonical_vas)
    def test_indices_reconstruct_address(self, va):
        """The four indices plus the page offset fully determine the VA."""
        pml4, pdpt, pd, pt = split_indices(va)
        rebuilt = (pml4 << 39) | (pdpt << 30) | (pd << 21) | (pt << 12)
        rebuilt |= va & 0xFFF
        if pml4 >= 256:  # kernel half: sign extension
            rebuilt |= 0xFFFF_0000_0000_0000
        assert rebuilt == va

    @given(user_vas)
    def test_align_sandwich(self, va):
        down = page_align_down(va)
        up = page_align_up(va)
        assert down <= va <= up
        assert up - down in (0, PAGE_SIZE)
        assert down % PAGE_SIZE == 0 and up % PAGE_SIZE == 0


class TestPageTableProperties:
    @given(st.lists(page_bases, min_size=1, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_map_lookup_roundtrip(self, bases):
        table = PageTable()
        flags = flags_from_prot(read=True, write=True)
        for pfn, base in enumerate(bases, start=1):
            table.map(base, pfn, flags)
        for pfn, base in enumerate(bases, start=1):
            translation = table.lookup(base).translation
            assert translation is not None
            assert translation.pfn == pfn

    @given(st.lists(page_bases, min_size=1, max_size=20, unique=True),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_unmap_removes_exactly_target(self, bases, data):
        table = PageTable()
        flags = flags_from_prot(read=True)
        for pfn, base in enumerate(bases, start=1):
            table.map(base, pfn, flags)
        victim = data.draw(st.sampled_from(bases))
        table.unmap(victim)
        for base in bases:
            assert table.is_mapped(base) == (base != victim)

    @given(st.lists(page_bases, min_size=1, max_size=16, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_iter_terminal_matches_mappings(self, bases):
        table = PageTable()
        flags = flags_from_prot(read=True)
        for pfn, base in enumerate(bases, start=1):
            table.map(base, pfn, flags)
        found = sorted(base for base, __, __ in table.iter_terminal())
        assert found == sorted(bases)

    @given(page_bases, user_vas)
    @settings(max_examples=100, deadline=None)
    def test_unmapped_addresses_never_translate(self, mapped, probe):
        table = PageTable()
        table.map(mapped, 1, flags_from_prot(read=True))
        lookup = table.lookup(probe)
        if page_align_down(probe) != mapped:
            assert not lookup.present
        else:
            assert lookup.present


class TestTLBProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 24),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, vpns):
        tlb = TLB(entries=16, ways=4)
        flags = PageFlags.PRESENT | PageFlags.USER
        for vpn in vpns:
            tlb.fill(TLBEntry(vpn, vpn, flags, PAGE_SIZE))
        assert tlb.occupancy() <= 16
        for bucket in tlb._sets:
            assert len(bucket) <= 4

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_most_recent_fill_always_resident(self, vpns):
        tlb = TLB(entries=16, ways=4)
        flags = PageFlags.PRESENT | PageFlags.USER
        for vpn in vpns:
            tlb.fill(TLBEntry(vpn, vpn, flags, PAGE_SIZE))
        assert tlb.lookup(vpns[-1], PAGE_SIZE) is not None

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24),
                    min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_flush_empties(self, vpns):
        tlb = TLB(entries=16, ways=4)
        flags = PageFlags.PRESENT
        for vpn in vpns:
            tlb.fill(TLBEntry(vpn, vpn, flags, PAGE_SIZE))
        tlb.flush()
        assert tlb.occupancy() == 0


class TestPSCProperties:
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1, max_size=100,
    ))
    @settings(max_examples=50, deadline=None)
    def test_hit_level_never_exceeds_filled(self, fills):
        psc = PagingStructureCache()
        filled = set()
        for pml4, pdpt, pd, level in fills:
            indices = (pml4, pdpt, pd, 0)
            psc.fill(indices, level, node_id=1)
            filled.add((indices[: level + 1], level))
        for pml4, pdpt, pd, __ in fills:
            indices = (pml4, pdpt, pd, 0)
            hit = psc.deepest_hit(indices)
            if hit is not None:
                # every reported hit corresponds to a prior fill whose key
                # prefix matches
                assert any(
                    key == indices[: lvl + 1] and lvl == hit
                    for key, lvl in filled
                ) or hit < 3

    @given(st.integers(min_value=0, max_value=511))
    def test_occupancy_bounded(self, index):
        psc = PagingStructureCache(pml4e_entries=2, pdpte_entries=2,
                                   pde_entries=2)
        for i in range(10):
            psc.fill((index, i, 0, 0), 1, node_id=i)
        assert psc.occupancy()[1] <= 2


#: a run starts ``back`` pages below a 1 GiB boundary (the edge of a PD
#: node, and every 512th one the edge of a PDPT node), so long runs cross
#: PT-node and PD-node edges
gib_edges = st.one_of(
    st.integers(min_value=1, max_value=(1 << 17) - 1),
    st.sampled_from([512, 1024, (1 << 17) - 512]),
).map(lambda gib: gib << 30)
run_pages = st.integers(min_value=1, max_value=1100)
back_pages = st.integers(min_value=0, max_value=1100)
#: pre-existing leaves, as page offsets from the run start
prior_offsets = st.lists(
    st.integers(min_value=-600, max_value=1700), max_size=8, unique=True
)


def _leaves(table):
    return [(va, leaf.pfn, int(leaf.flags), size)
            for va, leaf, size in table.iter_terminal()]


def _shape(table):
    root_id = table.root.node_id
    return [(path, node.level, node.node_id - root_id)
            for path, node in walk_nodes(table)]


def _lookup_record(table, va):
    lookup = table.lookup(va)
    root_id = table.root.node_id
    translation = lookup.translation
    return (
        lookup.terminal_level,
        [(level, node_id - root_id) for level, node_id in lookup.nodes],
        None if translation is None else (
            translation.pfn, int(translation.flags), translation.page_size
        ),
    )


class TestMapRunProperties:
    """One ``map_range`` equals per-page ``PageTable.map`` over its frames."""

    @given(gib_edges, back_pages, run_pages, prior_offsets)
    @settings(max_examples=60, deadline=None)
    def test_run_equals_per_page_loop(self, edge, back, count, prior):
        start = edge - back * PAGE_SIZE
        flags = flags_from_prot(read=True, write=True)
        prior_flags = flags_from_prot(read=True)
        # each table is built whole before the next, so node ids
        # relative to the root compare
        space = AddressSpace()
        for offset in prior:
            space.page_table.map(start + offset * PAGE_SIZE, 7, prior_flags)
        if any(0 <= offset < count for offset in prior):
            with pytest.raises(MappingError):
                space.map_range(start, count * PAGE_SIZE, flags)
            return
        first = space.map_range(start, count * PAGE_SIZE, flags)
        loop = PageTable()
        for offset in prior:
            loop.map(start + offset * PAGE_SIZE, 7, prior_flags)
        for i in range(count):
            loop.map(start + i * PAGE_SIZE, first + i, flags)

        table = space.page_table
        assert _leaves(table) == _leaves(loop)
        assert _shape(table) == _shape(loop)
        probes = {start - PAGE_SIZE, start, edge, edge - PAGE_SIZE,
                  start + (count - 1) * PAGE_SIZE, start + count * PAGE_SIZE}
        probes.update(start + offset * PAGE_SIZE for offset in prior)
        for va in sorted(probes):
            assert _lookup_record(table, va) == _lookup_record(loop, va)

    @given(gib_edges, back_pages, run_pages)
    @settings(max_examples=40, deadline=None)
    def test_huge_leaf_in_the_way_raises(self, edge, back, count):
        start = edge - back * PAGE_SIZE
        end = start + count * PAGE_SIZE
        space = AddressSpace()
        # a 2 MiB leaf over the 2 MiB frame holding the run's last page
        huge = page_align_down(end - PAGE_SIZE, PAGE_SIZE_2M)
        space.page_table.map(huge, 0x1000, PageFlags.PRESENT, PAGE_SIZE_2M)
        with pytest.raises(MappingError):
            space.map_range(start, count * PAGE_SIZE, PageFlags.PRESENT)

    @given(gib_edges, back_pages, run_pages)
    @settings(max_examples=30, deadline=None)
    def test_lookup_sees_new_run(self, edge, back, count):
        start = edge - back * PAGE_SIZE
        space = AddressSpace()
        last = start + (count - 1) * PAGE_SIZE
        assert not space.page_table.lookup(start).present
        assert not space.page_table.lookup(last).present
        first = space.map_range(start, count * PAGE_SIZE, PageFlags.PRESENT)
        assert space.page_table.lookup(start).translation.pfn == first
        assert space.page_table.lookup(last).translation.pfn \
            == first + count - 1

    def test_invalid_runs_rejected(self):
        table = PageTable()
        with pytest.raises(MappingError):
            table.map_run(0x1000, 1, 2, PageFlags.NONE)
        with pytest.raises(MappingError):
            table.map_run(0x1800, 1, 2, PageFlags.PRESENT)
        with pytest.raises(MappingError):
            table.map_run(0x1000, 1, 0, PageFlags.PRESENT)
        with pytest.raises(AddressError):
            table.map_run(0x0000_8000_0000_0000, 1, 1, PageFlags.PRESENT)
        # a run off the top of the user half would cross the hole
        with pytest.raises(AddressError):
            table.map_run(0x0000_7FFF_FFFF_F000, 1, 2, PageFlags.PRESENT)
        assert list(table.iter_terminal()) == []


# -- one address space against a dict-of-pages model ---------------------------

_LEVEL_OF_SIZE = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}
_SIZE_OF_LEVEL = {level: size for size, level in _LEVEL_OF_SIZE.items()}
_FIRST_PFN = 0x100  # FrameAllocator's default cursor


def _index_va(path):
    """The VA of the entry at index ``path`` (PML4 index first)."""
    return sum(index << (39 - 9 * level) for level, index in enumerate(path))


class _SpaceModel:
    """A page table as two plain collections keyed by index path.

    ``leaves`` maps the path of every terminal entry to ``(pfn, flags)``;
    ``dirs`` holds the path of every directory entry.  Directories are
    kept when their last leaf goes, as the real table keeps them.
    ``shared`` holds the PML4 slots a second table aliases.  Each op
    mutates in the order the real table does, so an op that fails
    part-way (a run crossing PT nodes) leaves what the real one leaves.
    """

    def __init__(self):
        self.leaves = {}
        self.dirs = set()
        self.shared = set()
        self.next_pfn = _FIRST_PFN

    def state(self):
        return dict(self.leaves), set(self.dirs), set(self.shared)

    def walk(self, va):
        """``(path, level)``: the leaf covering ``va``, or None and the
        level where the walk stops."""
        indices = split_indices(va)
        for level in range(4):
            path = indices[:level + 1]
            if path in self.leaves:
                return path, level
            if path not in self.dirs:
                return None, level
        raise AssertionError("a PT-level entry is never a directory")

    def lookup(self, va):
        path, level = self.walk(va)
        if path is None:
            return level, None
        pfn, flags = self.leaves[path]
        return level, (pfn, flags, _SIZE_OF_LEVEL[level])

    def _has_children(self, path):
        depth = len(path) + 1
        return any(len(key) == depth and key[:-1] == path
                   for key in list(self.leaves) + list(self.dirs))

    def _descend(self, indices, level):
        """Directories down to ``level``; a leaf on the way is an error."""
        for upper in range(1, level):
            if indices[:upper + 1] in self.leaves:
                raise MappingError("terminal on the way")
        self.dirs.update(indices[:upper + 1] for upper in range(level))

    def map(self, va, pfn, flags, page_size):
        level = _LEVEL_OF_SIZE[page_size]
        indices = split_indices(va)
        self._descend(indices, level)
        path = indices[:level + 1]
        if path in self.leaves \
                or (path in self.dirs and self._has_children(path)):
            raise MappingError("already mapped")
        self.dirs.discard(path)
        if page_size != PAGE_SIZE:
            flags |= PageFlags.HUGE
        self.leaves[path] = (pfn, int(flags))

    def map_run(self, va, pfn, count, flags):
        vpn = va >> 12
        end = vpn + count
        while vpn < end:
            indices = split_indices(vpn << 12)
            slots = range(indices[3], min(512, indices[3] + end - vpn))
            self._descend(indices, 3)
            paths = [indices[:3] + (index,) for index in slots]
            if any(path in self.leaves for path in paths):
                raise MappingError("already mapped")
            for offset, path in enumerate(paths):
                self.leaves[path] = (pfn + offset, int(flags))
            pfn += len(slots)
            vpn += len(slots)

    def map_range(self, va, size, flags, page_size):
        count = size // page_size
        frames = page_size // PAGE_SIZE
        first = self.next_pfn
        self.next_pfn += count * frames
        if page_size == PAGE_SIZE:
            self.map_run(va, first, count, flags)
        else:
            for i in range(count):
                self.map(va + i * page_size, first + i * frames, flags,
                         page_size)
        return first

    def _terminal(self, va):
        path, __ = self.walk(va)
        if path is None:
            raise MappingError("not mapped")
        return path

    def unmap(self, va):
        del self.leaves[self._terminal(va)]

    def protect(self, va, flags):
        path = self._terminal(va)
        pfn, old = self.leaves[path]
        if not flags & PageFlags.PRESENT:
            del self.leaves[path]
            return
        keep = old & (PageFlags.HUGE | PageFlags.GLOBAL)
        self.leaves[path] = (pfn, int(flags) | keep)

    def set_flag(self, va, flag):
        path = self._terminal(va)
        pfn, flags = self.leaves[path]
        self.leaves[path] = (pfn, flags | int(flag))

    def share(self, slot):
        if (slot,) not in self.dirs:
            raise MappingError("empty slot")
        self.shared.add(slot)


def _model_va(pml4, pdpt, pd, pt):
    return _index_va((pml4, pdpt, pd, pt))


#: two user PML4 slots, and indices at both edges of every paging
#: structure, so runs cross PT-node and PD-node boundaries
_pml4s = st.sampled_from([0, 1])
_edges = st.sampled_from([0, 1, 511])
_vas_4k = st.builds(_model_va, _pml4s, _edges, _edges, _edges)
_vas_2m = st.builds(_model_va, _pml4s, _edges, _edges, st.just(0))
_vas_1g = st.builds(_model_va, _pml4s, _edges, st.just(0), st.just(0))
_any_va = st.one_of(_vas_4k, _vas_2m, _vas_1g)
#: the target of an unmap/protect/set_flag: any VA, or ``("leaf", k)``,
#: the base of the model's k-th leaf (modulo their count) at that step
_targets = st.one_of(_any_va, st.tuples(st.just("leaf"),
                                        st.integers(0, 63)))
_space_steps = page_table_steps(
    _vas_4k, _vas_2m, _targets, vas_1g=_vas_1g,
    extra=[st.tuples(st.just("share"), _pml4s)],
)


def _step_vas(step):
    """The VAs a step touches: its start, its last page and the next."""
    kind, va = step[0], step[1]
    if kind == "share":
        return {_model_va(va, 0, 0, 0)}
    if kind == "map_run":
        span = step[3] * PAGE_SIZE
    elif kind == "map_range":
        span = step[2]
    elif kind == "map":
        span = step[4]
    else:
        span = PAGE_SIZE
    return {va, va + PAGE_SIZE, va + span - PAGE_SIZE, va + span}


def _table_state(table):
    """Every leaf, and every node with its index path and id."""
    return _leaves(table), [(path, node.node_id)
                            for path, node in walk_nodes(table)]


def _record(table, va):
    lookup = table.lookup(va)
    translation = lookup.translation
    return lookup.terminal_level, lookup.nodes, None if translation is None \
        else (translation.pfn, int(translation.flags), translation.page_size)


def _path_nodes(table, va, level):
    """``(level, node_id)`` of each node on ``va``'s path from the root
    down to ``level``, as :func:`walk_nodes` finds them."""
    ids = {path: node.node_id for path, node in walk_nodes(table)}
    indices = split_indices(va)
    return [(depth, ids[indices[:depth]]) for depth in range(level + 1)]


class TestAddressSpaceAgainstModel:
    """Random map/unmap/protect/A-D sequences against a dict-of-pages model.

    A second table aliases PML4 slots of the first, as KPTI's user
    table does.  After every step the lookups of every touched VA in
    both tables, the raised error type and the whole tree match the
    model, and each lookup names the nodes on the VA's path.
    """

    @given(st.lists(_space_steps, min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_steps_match_model(self, steps):
        space = AddressSpace()
        table = space.page_table
        alias = PageTable()
        model = _SpaceModel()
        touched = set()
        for step in steps:
            if isinstance(step[1], tuple):
                leaves = sorted(model.leaves)
                va = _index_va(leaves[step[1][1] % len(leaves)]) \
                    if leaves else 0
                step = (step[0], va) + step[2:]
            kind, args = step[0], step[1:]
            target = dict(
                writers(space),
                share=lambda slot: alias.share_top_level_from(table, slot),
            )[kind]
            before_model, before = model.state(), _table_state(table)
            expected = actual = None
            try:
                result = getattr(model, kind)(*args)
            except MappingError as error:
                expected = type(error)
            try:
                returned = target(*args)
            except (MappingError, AddressError) as error:
                actual = type(error)
            assert actual is expected, step
            if expected is None and kind == "map_range":
                assert returned == result
            if expected is not None and model.state() == before_model:
                assert _table_state(table) == before
            touched |= _step_vas(step)

            assert _leaves(table) == sorted(
                (_index_va(path), pfn, flags, _SIZE_OF_LEVEL[len(path) - 1])
                for path, (pfn, flags) in model.leaves.items())
            assert {path for path, __ in _table_state(table)[1][1:]} \
                == model.dirs
            assert set(np.flatnonzero(alias.root.flags).tolist()) \
                == model.shared
            for slot in model.shared:
                assert alias.root.child[slot] is table.root.child[slot]
            for va in sorted(touched):
                level, leaf = model.lookup(va)
                assert _record(table, va) \
                    == (level, _path_nodes(table, va, level), leaf), hex(va)
                translation = space.translate(va)
                assert (translation is None) == (leaf is None)
                if split_indices(va)[0] not in model.shared:
                    level, leaf = 0, None
                assert _record(alias, va) \
                    == (level, _path_nodes(alias, va, level), leaf), hex(va)
