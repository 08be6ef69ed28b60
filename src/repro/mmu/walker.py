"""Cycle-accounting page-table walker.

The walker charges a fixed TLB-miss overhead plus one paging-structure
memory access per level actually visited.  Two state machines shorten or
lengthen the walk, and both are observable through the paper's timing
channel:

* the :class:`~repro.mmu.psc.PagingStructureCache` lets the walk resume
  below the PML4 (P3: "execution time increases with the number of levels
  the walk must fetch");
* the :class:`~repro.mmu.psc.PagingLineCache` decides whether each fetched
  entry is hot (data cache) or cold (DRAM) -- the difference between the
  147-cycle warm and 381-cycle cold kernel accesses in the paper's P4
  experiment.

Invariants the columnar engine (``repro.cpu.columnar``) compiles against:

* a walk's cycle cost is a pure function of ``(terminal level, start
  level, per-level line hotness)``:
  ``base + level_step * (terminal+1) + sum(access_hot|access_cold)``.
  No hidden state enters the formula, so once the engine knows which
  lines a row touches and whether they are hot, the cost is closed-form;
* the walker owns ``completed_walks`` and is the single incrementer of
  the two ``DTLB_LOAD_MISSES.*`` counters; ``WALK_DURATION`` is charged
  in *pre-DVFS* cycles (the clock's scale is applied later by the
  core), which the columnar accounting mirrors;
* PSC fills happen only for directory levels ``start..terminal-1`` of
  a present walk, after the line accesses -- the fill order within one
  walk is level-ascending, which bucket replay depends on.
"""

from repro.mmu.address import split_indices
from repro.mmu.psc import PagingLineCache, PagingStructureCache
from repro.obs.metrics import DEPTH_BUCKETS


class WalkTiming:
    """Cost parameters of one walk (provided by the CPU model).

    ``level_step`` is charged once per paging level of the walk's
    termination depth (PML4-terminated walk = 1, PT = 4), modelling the
    serial per-level latency of the walk state machine.  It is what makes
    a depth-4 (4 KiB) translation measurably slower than a depth-3 huge
    page even with every paging-structure line hot -- the signal behind
    the paper's P3 and the AMD KASLR break.
    """

    __slots__ = ("base", "access_hot", "access_cold", "level_step")

    def __init__(self, base=10, access_hot=8, access_cold=56, level_step=2):
        self.base = base
        self.access_hot = access_hot
        self.access_cold = access_cold
        self.level_step = level_step


class WalkResult:
    """Outcome of one timed page-table walk."""

    __slots__ = (
        "translation",
        "terminal_level",
        "cycles",
        "accesses",
        "cold_accesses",
        "start_level",
    )

    def __init__(
        self,
        translation,
        terminal_level,
        cycles,
        accesses,
        cold_accesses,
        start_level,
    ):
        self.translation = translation
        self.terminal_level = terminal_level
        self.cycles = cycles
        self.accesses = accesses
        self.cold_accesses = cold_accesses
        self.start_level = start_level

    @property
    def present(self):
        return self.translation is not None


class PageTableWalker:
    """Walks a page table, charging cycles and updating PSC/line caches.

    ``perf`` (optional) is the owning core's performance-counter block;
    when present the walker is the *single* place that counts completed
    walks and walk cycles, so ``DTLB_LOAD_MISSES.WALK_COMPLETED`` can
    never drift from :attr:`completed_walks` no matter which execution
    path (AVX unit, kernel touches, prefetch/TSX baselines) triggered the
    walk.

    Owned state: ``psc`` and ``line_cache`` (the only mutable walk
    caches), the monotonic ``completed_walks`` counter, and the ``obs``
    binding.  ``timing`` and ``use_psc`` are configuration, fixed for
    the machine's lifetime -- the columnar engine snapshots them once
    per sweep and treats ``use_psc=False`` as a delegation reason.
    """

    def __init__(self, timing=None, psc=None, line_cache=None, use_psc=True,
                 perf=None):
        self.timing = timing if timing is not None else WalkTiming()
        self.psc = psc if psc is not None else PagingStructureCache()
        self.line_cache = (
            line_cache if line_cache is not None else PagingLineCache()
        )
        self.use_psc = use_psc
        self.perf = perf
        self.completed_walks = 0
        #: observability sink; rebound by Tracer.attach().  Kept None (not
        #: the null tracer) so un-attached walkers skip even the guard's
        #: attribute chase.
        self.obs = None

    def walk(self, page_table, va, fill_psc=True):
        """Perform one timed walk of ``va`` through ``page_table``.

        The structural :meth:`~repro.mmu.pagetable.PageTable.lookup` says
        which paging structures the walk reads; the PSC, the paging-line
        cache and the timing parameters say what reading them costs.
        """
        lookup = page_table.lookup(va)
        indices = lookup.indices
        terminal = lookup.terminal_level

        start_level = 0
        if self.use_psc:
            hit = self.psc.deepest_hit(indices)
            if hit is not None:
                start_level = min(hit + 1, terminal)

        cycles = self.timing.base + self.timing.level_step * (terminal + 1)
        accesses = 0
        cold = 0
        for level, node_id in lookup.nodes[start_level:]:
            hot = self.line_cache.access(node_id, indices[level])
            cycles += self.timing.access_hot if hot else self.timing.access_cold
            accesses += 1
            if not hot:
                cold += 1

        if self.use_psc and fill_psc:
            # Cache the present non-terminal entries the walk just read.
            # lookup.nodes[i + 1] is the child structure that the entry at
            # level i points to; only such directory entries are cacheable.
            for position in range(start_level, terminal):
                level, __ = lookup.nodes[position]
                child_id = lookup.nodes[position + 1][1]
                self.psc.fill(indices, level, child_id)

        self.completed_walks += 1
        if self.perf is not None:
            self.perf.increment("DTLB_LOAD_MISSES.WALK_COMPLETED")
            self.perf.increment("DTLB_LOAD_MISSES.WALK_DURATION", cycles)
        if self.obs is not None and self.obs.enabled:
            self.record_walk(terminal, cycles, accesses, cold, start_level)
        return WalkResult(
            translation=lookup.translation,
            terminal_level=terminal,
            cycles=cycles,
            accesses=accesses,
            cold_accesses=cold,
            start_level=start_level,
        )

    def record_walk(self, terminal, cycles, accesses, cold, start_level):
        """Add one walk to the ``walker.*`` metrics of the enabled obs."""
        metrics = self.obs.metrics
        metrics.inc("walker.walks")
        metrics.inc("walker.accesses", accesses)
        metrics.inc("walker.cold_accesses", cold)
        metrics.observe("walker.depth", terminal + 1, buckets=DEPTH_BUCKETS)
        metrics.observe("walker.cycles", cycles)
        if self.use_psc:
            metrics.inc("walker.psc_lookups")
            if start_level > 0:
                metrics.inc("walker.psc_hits")

    def invalidate_address(self, va):
        """INVLPG side effects on the walker's caches."""
        self.psc.invalidate_address(split_indices(va))

    def flush(self):
        """Full flush of PSC and paging-line cache (CR3 write, WBINVD...)."""
        self.psc.flush()
        self.line_cache.flush()
