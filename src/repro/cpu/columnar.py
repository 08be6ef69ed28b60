"""Columnar probe engine: struct-of-arrays state evolution for sweeps.

The batched engine (:mod:`repro.cpu.engine`) already collapses each VA's
``rounds`` repetitions into two reference ops plus a closed-form replay,
but those two ops still run the per-op simulator: a Python TLB lookup
over four arrays, a Python radix walk, per-level line-cache dictionary
traffic -- per address.  Full-range scans (16 Ki module slots, hundreds
of thousands of userspace pages) spend all their time there.

This module removes the per-address simulator from the loop.  It
*compiles* a window of the sweep against the machine's current MMU state
into dense numpy arrays -- one column per per-VA attribute:

* structural resolution: per-level page-table node ids and indices,
  terminal level, present/user/writable/dirty bits, PFN (derived by a
  vectorized radix descent that gathers from each page-table node's own
  slot columns);
* timing inputs: walk base cycles, assist costs, op base;
* replacement-state interaction points: *run* boundaries (the node chain
  changed -> the PSC resume depth must be measured against the real
  LRU state) and *group* boundaries (the terminal paging line changed ->
  the line cache must really be touched).

Only boundary rows interact with the real PSC / paging-line caches --
through the exact same ``deepest_hit`` / ``access`` / ``fill`` call
sequence the walker issues, in row order.  Every interior row's cache
outcome is forced by the boundary row that opened its run or group (the
walk resumes at the terminal level and its line is hot and
most-recently-used), so interior rows are pure array arithmetic.

The TLB is evolved the same way, from a proof over the live TLB
contents taken once per window.  A row's first lookup either misses
every array (a *walking* row: it walks and may fill) or hits exactly one
cached entry (a *hit* row: no walk, no fill, no PSC or line-cache
traffic; it refreshes its entry, an sTLB hit is promoted into L1, and
its steady op is an L1 hit).  Hit rows take their cost and assist from
the cached entry, which can disagree with the page table, and they are
invisible to the run/group decomposition -- they leave the walker's
state exactly as they found it.  A window is *eligible* when no row sees
two cached candidate keys, no fill or promotion collides with a cached
key, no key is touched by two rows, and no set holding a hit entry
receives more insertions than it has free ways (so no entry a hit row
needs is evicted first).  Then hit/miss counters, per-set bucket order
(untouched entries, then touched and inserted ones in row order) and the
closed-form clock/perf replay are applied per window instead of per op.

Anything the proof does not cover -- ineligible windows, non-canonical
or page-spanning addresses, zero-mask-NOP hardware, disabled or
undersized PSC/line caches -- falls back to the per-op reference row
loop (:func:`repro.cpu.engine.sweep_rows`), window by window, inside
the same sweep; traced windows report the metrics its ops would.  Both
paths write the same :class:`~repro.cpu.engine.SweepState` and share one
:func:`~repro.cpu.engine.finalize_sweep`, which is what keeps the
columnar path *bit-identical* to the batched engine: same measured
matrix, same clock, same performance counters, same TLB/PSC/line-cache
state, same chaos schedule.  The per-op simulator remains the oracle;
``tests/test_columnar.py`` asserts the three-way equivalence.

Under an active chaos runtime the sweep is additionally segmented by
:meth:`~repro.chaos.runtime.ChaosRuntime.next_deadline`: the window
executes vectorized only up to the row whose poll boundary would fire
the next disturbance, the event fires at exactly the per-op clock value,
and the remainder recompiles against the disturbed machine state.
"""

import collections

import numpy as np

from repro.cpu import engine as _engine
from repro.mmu.address import (
    CANONICAL_HIGH_START,
    CANONICAL_LOW_END,
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.mmu.flags import PageFlags
from repro.mmu.tlb import TLBEntry

#: below this sweep length the compile overhead is not worth it; the
#: auto selection in :meth:`repro.cpu.core.Core.probe_sweep` keeps such
#: sweeps (calibration single pages, supervisor re-probes) on the
#: batched engine
COLUMNAR_MIN_VAS = 32

#: rows compiled per window: bounds the blast radius of an ineligible
#: address (the whole window falls back to the per-op row loop) and the
#: recompile cost after a mid-sweep disturbance
WINDOW_ROWS = 4096

_SIZE_CODE = {PAGE_SIZE: 0, PAGE_SIZE_2M: 1, PAGE_SIZE_1G: 2}
#: terminal level -> vpn shift / packed size code / page size (level 0
#: entries are unreachable for present rows; the compiler rejects them)
_VPN_SHIFT_OF_LEVEL = np.array([12, 30, 21, 12], dtype=np.uint64)
_CODE_OF_LEVEL = np.array([0, 2, 1, 0], dtype=np.int64)
_SIZE_OF_LEVEL_ARR = np.array(
    [0, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE], dtype=np.int64
)

_LEVEL_SHIFTS_U64 = tuple(np.uint64(s) for s in (39, 30, 21, 12))
_INDEX_MASK_U64 = np.uint64(0x1FF)

#: the PTE bits the engine reads from a node's flag column
_PRESENT, _USER, _WRITABLE, _DIRTY = (
    np.uint64(flag) for flag in (PageFlags.PRESENT, PageFlags.USER,
                                 PageFlags.WRITABLE, PageFlags.DIRTY))


class _Ineligible(Exception):
    """Raised during compile when a window cannot be proven safe."""


class _Resolved:
    """Structural-resolution columns for one window (SoA Lookup): a
    terminal row's leaf PFN and flag word, 0 for any other row."""

    __slots__ = ("node_ids", "T", "pfn", "flags")

    def __init__(self, n):
        self.node_ids = np.full((4, n), -1, dtype=np.int64)
        self.T = np.zeros(n, dtype=np.int64)
        self.pfn = np.zeros(n, dtype=np.int64)
        self.flags = np.zeros(n, dtype=np.uint64)


def _resolve(node, level, rows, idx_cols, out):
    """Vectorized radix descent: classify ``rows`` through ``node``,
    gathering from the node's own columns."""
    out.node_ids[level, rows] = node.node_id
    out.T[rows] = level
    idx = idx_cols[level][rows]
    flags = node.flags[idx]
    live = flags & _PRESENT != 0
    if not live.any():
        return
    live_rows = rows[live]
    live_idx = idx[live]
    terminal = np.equal(node.child[live_idx], None)
    if terminal.any():
        if level == 0:
            raise _Ineligible("terminal-at-pml4")
        term_rows = live_rows[terminal]
        out.pfn[term_rows] = node.pfn[live_idx[terminal]]
        out.flags[term_rows] = flags[live][terminal]
    if not terminal.all():
        if level == 3:
            raise _Ineligible("malformed-pt")
        dir_rows = live_rows[~terminal]
        dir_idx = live_idx[~terminal]
        for slot in sorted(set(dir_idx.tolist())):
            _resolve(
                node.child[slot], level + 1,
                dir_rows[dir_idx == slot], idx_cols, out,
            )


class _Plan:
    """One compiled, eligibility-proven window of a sweep."""

    __slots__ = ("n", "T", "present", "idx_all", "node_ids", "term_node",
                 "term_idx", "run_first", "boundary", "trans_base",
                 "op_base", "assist", "has_assist", "fill_mask", "walks2",
                 "vpn", "pfn", "flags", "page_size", "size_code", "hit",
                 "hit_rows", "hit_entries", "hit_l2", "user")


#: the page-size order of :meth:`repro.mmu.tlb.TwoLevelTLB.lookup`'s
#: probes, in L1 and again in the sTLB
_PROBE_SIZES = (PAGE_SIZE, PAGE_SIZE_2M, PAGE_SIZE_1G)


def _cached_keys(tlb):
    """The packed (vpn, size) keys of every entry the live TLB holds, of
    every tag, sorted: built once per compile."""
    keys = []
    for code, size in enumerate(_PROBE_SIZES):
        keys += [entry.vpn * 4 + code
                 for bucket in tlb.l1[size]._sets for entry in bucket]
    keys += [entry.vpn * 4 + _SIZE_CODE[entry.page_size]
             for bucket in tlb.stlb._sets for entry in bucket]
    return np.sort(np.array(keys, dtype=np.int64))


def _cached(tlb, key):
    """``(l1_entry, stlb_entry)`` the live TLB holds under packed ``key``,
    of any tag, None where it holds none (an array caches a key at most
    once, as TLB.fill replaces in place)."""
    vpn, size = key >> 2, _PROBE_SIZES[key & 3]
    return tuple(
        next((entry for entry in array._sets[vpn % array.sets]
              if entry.vpn == vpn and entry.page_size == size), None)
        for array in (tlb.l1[size], tlb.stlb))


def _member(keys, values):
    """``np.isin(values, keys)`` for a sorted, non-empty ``keys``."""
    pos = np.searchsorted(keys, values)
    return keys[np.minimum(pos, keys.size - 1)] == values


def _set_overflows(tlb, vpn, size_code, fill_mask, hit_entries, hit_l2):
    """Condition D: does a set holding a hit entry receive more
    insertions (fills and sTLB promotions) than it has free ways?"""
    stlb = tlb.stlb
    inserts = collections.Counter()
    fill_rows = np.flatnonzero(fill_mask)
    for code, size in enumerate(_PROBE_SIZES):
        vpns = vpn[fill_rows[size_code[fill_rows] == code]]
        if not vpns.size:
            continue
        arrays = (tlb.l1[size],) if size == PAGE_SIZE_1G \
            else (tlb.l1[size], stlb)
        for array in arrays:
            sets, counts = np.unique(vpns % array.sets, return_counts=True)
            for set_index, count in zip(sets.tolist(), counts.tolist()):
                inserts[array, set_index] += count
    touched = []
    for entry, l2 in zip(hit_entries, hit_l2.tolist()):
        l1 = tlb.l1[entry.page_size]
        if l2:
            inserts[l1, entry.vpn % l1.sets] += 1
            touched.append((stlb, entry.vpn % stlb.sets))
        else:
            touched.append((l1, entry.vpn % l1.sets))
    return any(
        inserts[array, set_index]
        > array.ways - len(array._sets[set_index])
        for array, set_index in touched
    )


_NO_ROWS = np.empty(0, dtype=np.int64)


def _compile(core, vas, op):
    """Compile one window (``vas``: uint64 array) into a :class:`_Plan`.

    Returns the rejection reason instead (``"non-canonical"``,
    ``"page-span"``, ``"malformed-pt"``, ``"multi-hit"``,
    ``"fill-collision"``, ``"duplicate-key"``, ``"tlb-set-overflow"``,
    ...) when the window cannot be proven equivalent to the per-op path;
    the caller then routes those rows through
    :func:`repro.cpu.engine.sweep_rows`.
    """
    n = vas.size
    canonical = (vas <= np.uint64(CANONICAL_LOW_END)) \
        | (vas >= np.uint64(CANONICAL_HIGH_START))
    if not canonical.all():
        return "non-canonical"
    # a 32-byte vector whose base offset exceeds 4064 spans two pages
    if ((vas & np.uint64(0xFFF)) > np.uint64(4064)).any():
        return "page-span"

    idx_cols = [
        ((vas >> shift) & _INDEX_MASK_U64).astype(np.int64)
        for shift in _LEVEL_SHIFTS_U64
    ]
    out = _Resolved(n)
    try:
        _resolve(core.address_space.page_table.root, 0,
                 np.arange(n, dtype=np.int64), idx_cols, out)
    except _Ineligible as exc:
        return str(exc)

    T = out.T
    present = out.flags & _PRESENT != 0
    user = out.flags & _USER != 0
    vpn = (vas >> _VPN_SHIFT_OF_LEVEL[T]).astype(np.int64)
    size_code = _CODE_OF_LEVEL[T]
    cpu = core.cpu
    tlb = core.tlb

    # -- TLB eligibility proof -------------------------------------------
    # A: a row's candidate lookup keys (one per page size) match at most
    #    one visible entry: none makes it a walking row (its first access
    #    misses every array), one a hit row;
    # B: no fill key may match a cached key of any tag, or TLB.fill would
    #    replace in place instead of appending (it ignores the asid); the
    #    same holds for an sTLB hit's promotion into L1;
    # C: no fill or hit key may be another row's candidate key, so sweep
    #    rows never hit, refresh or replace each other's entries;
    # D: no set holding a hit entry may receive more insertions than it
    #    has free ways, so no entry is evicted before its hit row runs.
    cand = np.stack([
        (vas >> np.uint64(12)).astype(np.int64) << 2,
        ((vas >> np.uint64(21)).astype(np.int64) << 2) | 1,
        ((vas >> np.uint64(30)).astype(np.int64) << 2) | 2,
    ])
    cached = _cached_keys(tlb)
    asid = tlb.active_asid

    def visible(entry):
        return entry is not None and (entry.asid == asid or entry.is_global)

    hit = np.zeros(n, dtype=bool)
    hit_rows = _NO_ROWS
    hit_keys = _NO_ROWS
    if cached.size:
        matches = _member(cached, cand)
        if matches.any():
            # only an entry of the active tag (or a global one) can hit
            matches[matches] = [any(map(visible, _cached(tlb, key)))
                                for key in cand[matches].tolist()]
        if matches.any():
            count = matches.sum(axis=0)
            if (count > 1).any():
                return "multi-hit"
            hit = count == 1
            hit_rows = np.flatnonzero(hit)
            hit_keys = cand[matches[:, hit_rows].argmax(axis=0), hit_rows]
    fill_mask = present & ~hit \
        & (user | cpu.fills_tlb_for_supervisor_user_probe)
    fill_keys = (vpn * 4 + size_code)[fill_mask]
    if fill_keys.size and cached.size and _member(cached, fill_keys).any():
        return "fill-collision"
    owned = np.concatenate([fill_keys, hit_keys])
    if owned.size:
        flat = np.sort(cand, axis=None)
        if (np.searchsorted(flat, owned, "right")
                - np.searchsorted(flat, owned) > 1).any():
            return "duplicate-key"
    hit_entries = []
    hit_l2 = np.zeros(hit_rows.size, dtype=bool)
    for k, key in enumerate(hit_keys.tolist()):
        entry, stlb_entry = _cached(tlb, key)
        if entry is None:
            entry = stlb_entry
            hit_l2[k] = True
        elif not visible(entry):
            return "fill-collision"
        hit_entries.append(entry)
    if hit_entries and _set_overflows(tlb, vpn, size_code, fill_mask,
                                      hit_entries, hit_l2):
        return "tlb-set-overflow"

    # -- per-row timing inputs -------------------------------------------
    timing = core.walker.timing
    plan = _Plan()
    plan.n = n
    plan.T = T
    plan.present = present
    plan.user = user
    plan.idx_all = np.stack(idx_cols)
    plan.node_ids = out.node_ids
    plan.vpn = vpn
    plan.pfn = out.pfn
    plan.flags = out.flags
    plan.page_size = _SIZE_OF_LEVEL_ARR[T]
    plan.size_code = size_code
    plan.fill_mask = fill_mask
    plan.walks2 = ~(fill_mask | hit)
    plan.hit = hit
    plan.hit_rows = hit_rows
    plan.hit_entries = hit_entries
    plan.hit_l2 = hit_l2
    # first-op translation cost before the walk's line accesses: walk
    # base plus level steps, or a hit row's L1/L2 hit cost
    plan.trans_base = timing.base + timing.level_step * (T + 1)
    if op == "load":
        plan.op_base = cpu.load_base
        plan.has_assist = ~(present & user)
        plan.assist = np.where(plan.has_assist, cpu.assist_load, 0)
    else:
        plan.op_base = cpu.store_base
        writable = out.flags & _WRITABLE != 0
        dirty = out.flags & _DIRTY != 0
        plan.has_assist = ~(present & user & writable & dirty)
        plan.assist = np.where(
            ~present, cpu.assist_store_fault,
            np.where(~user | ~writable, cpu.assist_store,
                     np.where(~dirty, cpu.assist_dirty, 0)),
        )
    # a hit row's assist comes from the cached entry's flags, which a
    # chaos remap may have left behind the page table
    avx = core.avx
    for row, entry, l2 in zip(hit_rows.tolist(), hit_entries,
                              hit_l2.tolist()):
        kind = avx._page_assist(entry, False, op == "store")
        plan.has_assist[row] = kind is not None
        plan.assist[row] = avx._assist_cost(kind) if kind else 0
        plan.trans_base[row] = cpu.tlb_hit_l2 if l2 else cpu.tlb_hit_l1

    # -- run / group decomposition over the walking rows -------------------
    rows = np.arange(n)
    plan.term_node = plan.node_ids[T, rows]
    plan.term_idx = plan.idx_all[T, rows]
    node_ids, levels = plan.node_ids, T
    term_node, term_line = plan.term_node, plan.term_idx >> 3
    walking = rows
    if hit_rows.size:
        walking = np.flatnonzero(~hit)
        node_ids, levels = node_ids[:, walking], levels[walking]
        term_node, term_line = term_node[walking], term_line[walking]
    plan.run_first = np.zeros(n, dtype=bool)
    plan.boundary = walking
    if walking.size:
        run_first = np.empty(walking.size, dtype=bool)
        run_first[0] = True
        run_first[1:] = (
            (node_ids[:, 1:] != node_ids[:, :-1]).any(axis=0)
            | (levels[1:] != levels[:-1])
        )
        group_first = run_first.copy()
        group_first[1:] |= (
            (term_node[1:] != term_node[:-1])
            | (term_line[1:] != term_line[:-1])
        )
        plan.run_first[walking] = run_first
        plan.boundary = walking[group_first]
    return plan


def _sim_boundary(core, plan, row, walk1_extra):
    """Replay (and trace) row ``row``'s real replacement-state interaction.

    Run-first rows issue the walker's exact PSC probe / line accesses /
    PSC fills; group-first rows touch just the (new) terminal line.
    Interior rows are never simulated: their walk resumes at the
    terminal level and finds its line hot and MRU, so they have no state
    effect at all (LRU refreshes of an MRU key are no-ops).  Hit rows
    between them do not walk, so they change none of this.
    """
    walker = core.walker
    timing = walker.timing
    lines = walker.line_cache
    if not plan.run_first[row]:
        hot = lines.access(int(plan.term_node[row]), int(plan.term_idx[row]))
        walk1_extra[row] = timing.access_hot if hot else timing.access_cold
        if walker.obs is not None and walker.obs.enabled:
            walker.record_walk(int(plan.T[row]), int(plan.trans_base[row]
                               + walk1_extra[row]), 1, int(not hot),
                               int(plan.T[row]))
        return
    terminal = int(plan.T[row])
    indices = tuple(int(x) for x in plan.idx_all[:, row])
    psc = walker.psc
    hit = psc.deepest_hit(indices)
    start = min(hit + 1, terminal) if hit is not None else 0
    hot = [lines.access(int(plan.node_ids[level, row]), indices[level])
           for level in range(start, terminal + 1)]
    cold = hot.count(False)
    extra = timing.access_hot * (len(hot) - cold) + timing.access_cold * cold
    for position in range(start, terminal):
        psc.fill(indices, position, int(plan.node_ids[position + 1, row]))
    walk1_extra[row] = extra
    if walker.obs is not None and walker.obs.enabled:
        walker.record_walk(terminal, int(plan.trans_base[row]) + extra,
                           terminal + 1 - start, cold, start)


def _row_cycles(core, plan, walk1_extra, lo, hi, ops_per_va):
    """First/steady true cycles for plan rows [lo, hi), post-DVFS."""
    cpu = core.cpu
    timing = core.walker.timing
    window = slice(lo, hi)
    trans_base = plan.trans_base[window]
    assist = plan.assist[window]
    first_raw = plan.op_base + trans_base + walk1_extra[window] + assist
    if ops_per_va == 1:
        steady_raw = first_raw
    else:
        # rows that filled or hit find their entry in L1; the rest walk
        # again, resuming at the terminal level with its line hot
        steady_raw = np.where(
            plan.walks2[window],
            plan.op_base + trans_base + timing.access_hot + assist,
            plan.op_base + cpu.tlb_hit_l1 + assist,
        )
    scale = core.dvfs_scale
    if scale != 1.0:
        first = np.rint(first_raw * scale).astype(np.int64)
        steady = first if ops_per_va == 1 \
            else np.rint(steady_raw * scale).astype(np.int64)
        return first, steady
    return first_raw, steady_raw


def _run_window(core, plan, state, rounds, warm, seg_start, deadline):
    """Execute plan rows vectorized; stop at the chaos deadline.

    Returns ``(rows_done, walk1_extra)``.  Boundary simulations are only
    applied for rows that actually execute; with a deadline, the stop
    row is predicted exactly (integer cycle arithmetic) so the next
    ``chaos.poll()`` fires at the same clock value as the per-op path's.
    """
    n = plan.n
    timing = core.walker.timing
    walk1_extra = np.full(n, timing.access_hot, dtype=np.int64)
    walk1_extra[plan.hit_rows] = 0
    ops_per_va = 2 * rounds if warm else rounds

    if deadline is None:
        for row in plan.boundary.tolist():
            _sim_boundary(core, plan, row, walk1_extra)
        first, steady = _row_cycles(core, plan, walk1_extra, 0, n, ops_per_va)
        state.first[seg_start:seg_start + n] = first
        state.steady[seg_start:seg_start + n] = steady
        return n, walk1_extra

    budget = deadline - core.clock.cycles
    if budget <= 0:
        return 0, walk1_extra
    cpu = core.cpu
    per_va_overhead = rounds * (cpu.measurement_overhead + cpu.loop_overhead)
    # every row priced as an interior one; each boundary simulation then
    # reprices its own row and shifts the polls of the rows after it
    first, steady = _row_cycles(core, plan, walk1_extra, 0, n, ops_per_va)
    polls = np.cumsum(first + steady * (ops_per_va - 1) + per_va_overhead)
    shift = 0
    done = n
    starts = plan.boundary.tolist()
    if plan.hit[0]:
        starts.insert(0, 0)  # the window opens with hit rows
    for k, row in enumerate(starts):
        if not plan.hit[row]:
            _sim_boundary(core, plan, row, walk1_extra)
            cycles = _row_cycles(core, plan, walk1_extra, row, row + 1,
                                 ops_per_va)[0][0]
            shift += int(cycles - first[row])
            first[row] = cycles  # steady too, when it is the same array
        # rows after ``row`` poll at base + polls[r - 1] + shift: the
        # first to reach the deadline stops the window
        trip = max(int(np.searchsorted(polls, budget - shift)), row) + 1
        nxt = starts[k + 1] if k + 1 < len(starts) else n
        if trip <= nxt:
            done = min(trip, n)
            break
    state.first[seg_start:seg_start + done] = first[:done]
    state.steady[seg_start:seg_start + done] = steady[:done]
    return done, walk1_extra


def _count_l1_hits(tlb, size, ops):
    """Counters of ``ops`` lookups that hit L1 at ``size``: the arrays
    :meth:`repro.mmu.tlb.TwoLevelTLB.lookup` probes first all miss."""
    for smaller in _PROBE_SIZES[:_PROBE_SIZES.index(size)]:
        tlb.l1[smaller].misses += ops
    tlb.l1[size].hits += ops


def _count_hits(tlb, plan, hits, second_op):
    """Hit/miss counters of hit rows ``plan.hit_rows[:hits]``.

    The first op hits L1, or misses all three L1 arrays and hits the
    sTLB after missing the smaller page sizes there; the second op (if
    any) hits L1.
    """
    stlb = tlb.stlb
    for k in range(hits):
        size = plan.hit_entries[k].page_size
        l1_ops = int(second_op)
        if plan.hit_l2[k]:
            for array in tlb.l1.values():
                array.misses += 1
            stlb.misses += _PROBE_SIZES.index(size)
            stlb.hits += 1
        else:
            l1_ops += 1
        if l1_ops:
            _count_l1_hits(tlb, size, l1_ops)


def _replay_buckets(tlb, plan, done, hits):
    """Per-set bucket order after rows [0, done).

    Each (array, set) keeps its untouched entries in order, followed by
    the entries the window filled, promoted or refreshed, in row order
    -- one shared TLBEntry per fill, as TLB.fill makes -- and drops the
    oldest beyond ``ways``.  The proof guarantees that a set which hit
    rows refresh never overflows.
    """
    asid = tlb.active_asid
    stlb = tlb.stlb
    pending = {}
    refreshed = set()
    hit_index = dict(zip(plan.hit_rows[:hits].tolist(), range(hits)))
    rows = np.flatnonzero(plan.fill_mask[:done] | plan.hit[:done])
    for row, vpn, pfn, word, size in zip(
            rows.tolist(), plan.vpn[rows].tolist(), plan.pfn[rows].tolist(),
            plan.flags[rows].tolist(), plan.page_size[rows].tolist()):
        k = hit_index.get(row)
        if k is None:
            entry = TLBEntry(vpn, pfn, word, size, False, asid)
            arrays = (tlb.l1[size],) if size == PAGE_SIZE_1G \
                else (tlb.l1[size], stlb)
        else:
            entry = plan.hit_entries[k]
            vpn = entry.vpn
            l1 = tlb.l1[entry.page_size]
            arrays = (stlb, l1) if plan.hit_l2[k] else (l1,)
            refreshed.add((arrays[0], id(entry)))
        for array in arrays:
            key = (array, vpn % array.sets)
            events = pending.get(key)
            if events is None:
                pending[key] = [entry]
            else:
                events.append(entry)
    for (array, set_index), entries in pending.items():
        bucket = array._sets[set_index]
        if refreshed:
            bucket = [e for e in bucket if (array, id(e)) not in refreshed]
        array._sets[set_index] = (bucket + entries)[-array.ways:]


def _apply_accounting(core, plan, state, walk1_extra, done, seg_start,
                      rounds, warm, op):
    """Apply clock / perf / TLB effects for executed plan rows [0, done)."""
    if not done:
        return
    ops_per_va = 2 * rounds if warm else rounds
    cpu = core.cpu
    per_va_overhead = rounds * (cpu.measurement_overhead + cpu.loop_overhead)
    first = state.first[seg_start:seg_start + done]
    steady = state.steady[seg_start:seg_start + done]
    core.clock.advance(
        int(first.sum()) + (ops_per_va - 1) * int(steady.sum())
        + done * per_va_overhead
    )

    perf = core.perf
    perf.increment(
        "MEM_INST_RETIRED.ALL_STORES" if op == "store"
        else "MEM_INST_RETIRED.ALL_LOADS",
        done * ops_per_va,
    )
    hits = int(np.searchsorted(plan.hit_rows, done))
    walking = done - hits
    walks2 = plan.walks2[:done]
    second_walks = int(walks2.sum())
    walks_total = walking + second_walks * (ops_per_va - 1)
    perf.increment("DTLB_LOAD_MISSES.WALK_COMPLETED", walks_total)
    core.walker.completed_walks += walks_total
    trans_base = plan.trans_base[:done]
    # walk durations are pre-DVFS, exactly as the walker counts them;
    # hit rows carry a hit cost in trans_base and no walk
    duration = int((trans_base + walk1_extra[:done]).sum())
    if hits:
        duration -= int(trans_base[plan.hit_rows[:hits]].sum())
    if ops_per_va > 1 and second_walks:
        duration += (ops_per_va - 1) * int(
            (trans_base[walks2] + core.walker.timing.access_hot).sum()
        )
    perf.increment("DTLB_LOAD_MISSES.WALK_DURATION", duration)
    assists = int(plan.has_assist[:done].sum())
    if assists:
        perf.increment("ASSISTS.ANY", assists * ops_per_va)
    l2_hits = int(plan.hit_l2[:hits].sum())
    if l2_hits:
        perf.increment("DTLB_LOAD_MISSES.STLB_HIT", l2_hits)

    # -- TLB counters: a walking row's first op fully misses; its second
    # op either hits the row's own fill in L1 (after missing the smaller
    # page sizes' arrays) or fully misses again.
    # Skipped repetitions never touch TLB counters (the engine replays
    # perf counters only), so the second-op effects land exactly once.
    tlb = core.tlb
    l1_arrays = list(tlb.l1.values())
    for array in l1_arrays:
        array.misses += walking
    tlb.stlb.misses += 3 * walking
    fill_mask = plan.fill_mask[:done]
    fills = int(fill_mask.sum())
    if ops_per_va > 1:
        if second_walks:
            for array in l1_arrays:
                array.misses += second_walks
            tlb.stlb.misses += 3 * second_walks
        if fills:
            for code, size in enumerate(_PROBE_SIZES):
                count = int((fill_mask & (plan.size_code[:done] == code))
                            .sum())
                if count:
                    _count_l1_hits(tlb, size, count)
    if hits:
        _count_hits(tlb, plan, hits, ops_per_va > 1)
    if fills or hits:
        _replay_buckets(tlb, plan, done, hits)


def _trace_window(core, plan, state, done, seg_start, second_op):
    """Trace executed plan rows [0, done) as the row loop would: steady
    cycles per page class, and the hot terminal-level walks
    :func:`_sim_boundary` leaves out (an interior row's first op; with
    ``second_op``, the second op of a row that did not fill or hit)."""
    obs = core.obs
    if obs.enabled:
        for size, user, cycles in zip(
                (plan.page_size[:done] * plan.present[:done]).tolist(),
                plan.user[:done].tolist(),
                state.steady[seg_start:seg_start + done].tolist()):
            _engine.observe_probe_cycles(obs.metrics, size, user, cycles)
    walker = core.walker
    if walker.obs is None or not walker.obs.enabled:
        return
    interior = ~plan.hit[:done]
    interior[plan.boundary[plan.boundary < done]] = False
    rows = np.concatenate([np.flatnonzero(interior),
                           np.flatnonzero(plan.walks2[:done] & second_op)])
    for terminal, cycles in zip(
            plan.T[rows].tolist(),
            (plan.trans_base[rows] + walker.timing.access_hot).tolist()):
        walker.record_walk(terminal, cycles, 1, 0, terminal)


def _delegate_reason(core):
    """Whole-sweep conditions the columnar model does not cover."""
    if core.avx.zero_mask_nop:
        return "zero-mask-nop"
    walker = core.walker
    if not walker.use_psc:
        return "no-psc"
    if any(c.capacity < 1 for c in walker.psc._caches.values()):
        return "psc-capacity"
    if walker.line_cache._lines.capacity < 1:
        return "line-capacity"
    return None


def columnar_sweep(core, vas, rounds, op="load", warm=True, reduce="mean",
                   fallback=None):
    """Columnar probe sweep: row-loop-equivalent, array-evolved.

    Called through :meth:`repro.cpu.core.Core.probe_sweep` (which
    validates the arguments and handles the empty sweep).  Identical
    semantics to the batched row loop (measured matrix, clock, counters,
    MMU state, chaos schedule); windows the compile step cannot prove
    safe run through :func:`repro.cpu.engine.sweep_rows` instead.

    ``fallback`` names a reason to run the whole sweep on the row loop
    -- the batched engine (``"forced"``, ``"short-sweep"``); whole-sweep
    conditions the columnar model does not cover (zero-mask-NOP
    hardware, ...) make it one rejected window.  Records a
    :class:`~repro.cpu.engine.SweepReport` as ``core.last_sweep``; its
    ``reason`` names the first window rejection of a columnar sweep.
    """
    n = len(vas)
    whole = fallback or _delegate_reason(core)
    if whole is None:
        try:
            vas_u64 = np.array(vas, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            whole = "unrepresentable-vas"
    obs = core.obs
    if obs.enabled:
        obs.metrics.inc("engine.sweeps")
        obs.metrics.inc("engine.probes", n * rounds)
    chaos = core.chaos if (core.chaos is not None and core.chaos.active) \
        else None
    with obs.span("probe-sweep", vas=n, rounds=rounds, op=op,
                  warm=warm) as span:
        state = _engine.SweepState(n, rounds, chaos)
        columnar_rows = windows = start = 0
        reason = whole
        while start < n:
            if chaos is not None:
                core.chaos_poll()
            end = n if whole else min(n, start + WINDOW_ROWS)
            plan = whole or _compile(core, vas_u64[start:end], op)
            if isinstance(plan, str):
                reason = reason or plan
                _engine.sweep_rows(core, vas, rounds, op, warm, state, start,
                                   end)
                start = end
                continue
            windows += 1
            deadline = chaos.next_deadline() if chaos is not None else None
            done, walk1_extra = _run_window(core, plan, state, rounds, warm,
                                            start, deadline)
            _apply_accounting(core, plan, state, walk1_extra, done, start,
                              rounds, warm, op)
            _trace_window(core, plan, state, done, start, warm or rounds > 1)
            if chaos is not None:
                state.spike_col[start] = core.pending_spike_cycles
                core.pending_spike_cycles = 0
                state.resolution[start:start + done] = core.timer_resolution
                state.noise[start:start + done] = core.noise.sample_rows(
                    core.rng, done, rounds)
            columnar_rows += done
            start += done
        report = core.last_sweep = _engine.SweepReport(
            "batched" if whole else "columnar", columnar_rows,
            n - columnar_rows, windows, reason)
        span.set(**{name: getattr(report, name) for name in report.__slots__})
        return _engine.finalize_sweep(core, state, warm, reduce)
