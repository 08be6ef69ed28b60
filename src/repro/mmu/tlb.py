"""Set-associative translation lookaside buffers.

The model mirrors a contemporary Intel core:

* L1 dTLB, split by page size (64 x 4 KiB entries, 32 x 2 MiB, 4 x 1 GiB),
* a unified second-level sTLB shared by 4 KiB and 2 MiB translations.

Only successful (present) translations are cached -- a non-present page
never creates a TLB entry, which is precisely why the paper's double-probe
trick (P2) works: the second access to a mapped page is a TLB hit while the
second access to an unmapped page walks again.

State-ownership / invariants (the columnar engine's SoA compiler,
``repro.cpu.columnar``, derives its array layout from these; keep them
accurate when changing this file):

* each :class:`TLB` array owns exactly ``sets`` buckets; an entry for
  ``vpn`` can only ever live in bucket ``vpn % sets`` (linear indexing,
  no hashing), so a whole array is describable as per-set lists;
* replacement state is *positional*: a bucket is a plain list ordered
  LRU-first / MRU-last.  ``lookup`` refreshes by move-to-back,
  ``fill`` evicts ``bucket[0]``.  There is no other metadata -- the
  list order IS the replacement state, which is what lets the columnar
  engine replay a window as ``(untouched + touched)[-ways:]``: the
  entries no row refreshed, in order, then the filled, promoted and
  refreshed ones in row order;
* re-filling an already-cached ``(vpn, page_size)`` replaces in place
  and refreshes, and notably matches *regardless of asid* (hardware
  replaces the stale tagged entry rather than duplicating it);
* a lookup that hits refreshes only the hit array; sTLB hits are
  additionally promoted into L1 by :meth:`TwoLevelTLB.lookup`, which
  probes (and counts) L1 then the sTLB in 4 KiB, 2 MiB, 1 GiB order.
"""

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M


class TLBEntry:
    """One cached translation.

    ``flags`` is the leaf's PTE word as a plain ``int``, as the cached
    :class:`~repro.mmu.pagetable.Translation` carries it.

    ``asid`` is the PCID tag: with kernel page-table isolation plus PCID,
    kernel- and user-mode translations coexist in the TLB under different
    tags, and a lookup only matches entries of the active tag (or global
    ones).  Tag 0 is the default shared space used when PCID is off.
    """

    __slots__ = ("vpn", "pfn", "flags", "page_size", "is_global", "asid")

    def __init__(self, vpn, pfn, flags, page_size, is_global=False, asid=0):
        self.vpn = vpn
        self.pfn = pfn
        self.flags = flags
        self.page_size = page_size
        self.is_global = is_global
        self.asid = asid

    def __repr__(self):
        return "TLBEntry(vpn={:#x}, size={:#x})".format(
            self.vpn, self.page_size
        )


class TLB:
    """A single set-associative TLB array for one page size (or unified).

    ``entries`` / ``ways`` define the geometry; the set index is taken from
    the low bits of the VPN, the standard linear-indexing scheme that makes
    software eviction sets possible (paper's TLB attack uses one).

    Owned state: ``_sets`` (one LRU-ordered list of :class:`TLBEntry`
    per set, front = LRU victim, back = MRU) and the cumulative
    ``hits`` / ``misses`` counters.  Nothing else persists between
    calls; two arrays with equal ``_sets`` contents and counters are
    behaviourally identical, which is the equality the columnar
    engine's bucket-replay relies on.
    """

    def __init__(self, entries, ways, name="tlb"):
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.name = name
        self.ways = ways
        self.sets = entries // ways
        self._sets = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def _set_index(self, vpn):
        return vpn % self.sets

    def lookup(self, vpn, page_size, asid=None):
        """Return the matching entry (refreshing LRU) or None.

        ``asid=None`` ignores tags (legacy / PCID-off behaviour); with a
        tag, only same-tag or global entries match.
        """
        bucket = self._sets[self._set_index(vpn)]
        for i, entry in enumerate(bucket):
            if entry.vpn == vpn and entry.page_size == page_size and (
                asid is None or entry.asid == asid or entry.is_global
            ):
                bucket.append(bucket.pop(i))
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def fill(self, entry):
        """Insert ``entry``, evicting the LRU way if the set is full.

        The in-place-replace branch matches on ``(vpn, page_size)``
        only -- deliberately ignoring ``asid`` -- so a refill under a
        new tag displaces the stale one.  The columnar engine's window
        eligibility check (condition B) quotes exactly this rule: a
        candidate fill whose key matches any cached key of *any* asid
        would mutate a bucket mid-window and forces per-row fallback.
        """
        bucket = self._sets[self._set_index(entry.vpn)]
        for i, existing in enumerate(bucket):
            if existing.vpn == entry.vpn and existing.page_size == entry.page_size:
                bucket[i] = entry
                bucket.append(bucket.pop(i))
                return
        if len(bucket) >= self.ways:
            bucket.pop(0)
        bucket.append(entry)

    def invalidate(self, vpn, page_size):
        """Drop the entry for (vpn, page_size) if cached."""
        bucket = self._sets[self._set_index(vpn)]
        self._sets[self._set_index(vpn)] = [
            e for e in bucket if not (e.vpn == vpn and e.page_size == page_size)
        ]

    def flush(self, keep_global=False):
        """Drop all entries (optionally sparing global ones, as MOV CR3 does)."""
        for i, bucket in enumerate(self._sets):
            if keep_global:
                self._sets[i] = [e for e in bucket if e.is_global]
            else:
                self._sets[i] = []

    def occupancy(self):
        return sum(len(bucket) for bucket in self._sets)

    def stats(self):
        """``(hits, misses)`` accumulated since construction."""
        return (self.hits, self.misses)

    def conflicting_vpns(self, vpn, count):
        """Yield ``count`` distinct VPNs mapping to the same set as ``vpn``.

        These are the addresses a software eviction set must touch; the
        attacker-side eviction helper uses them.
        """
        step = self.sets
        for i in range(1, count + 1):
            yield vpn + i * step


class TwoLevelTLB:
    """L1 (per page size) + unified sTLB, with a simple inclusive policy."""

    def __init__(
        self,
        l1_4k=(64, 4),
        l1_2m=(32, 4),
        l1_1g=(4, 4),
        stlb=(1536, 12),
    ):
        #: the PCID tag translations are looked up and filled under;
        #: stays 0 unless the OS model runs with KPTI + PCID
        self.active_asid = 0
        self.l1 = {
            PAGE_SIZE: TLB(*l1_4k, name="dtlb-4k"),
            PAGE_SIZE_2M: TLB(*l1_2m, name="dtlb-2m"),
            PAGE_SIZE_1G: TLB(*l1_1g, name="dtlb-1g"),
        }
        self.stlb = TLB(*stlb, name="stlb")

    @staticmethod
    def _vpn(va, page_size):
        return va // page_size

    def lookup(self, va):
        """Look ``va`` up across page sizes and levels.

        Returns ``(entry, level)`` where level is "L1" or "L2", or
        ``(None, None)`` on a full miss.  The L1 arrays are probed 4 KiB,
        2 MiB, 1 GiB, then the sTLB in the same order; every probe counts
        a hit or a miss on its array.  An sTLB hit is promoted into the
        appropriate L1 array, as hardware does.  Matching respects the
        active PCID tag.
        """
        asid = self.active_asid
        for page_size, l1 in self.l1.items():
            entry = l1.lookup(self._vpn(va, page_size), page_size, asid)
            if entry is not None:
                return entry, "L1"
        for page_size in (PAGE_SIZE, PAGE_SIZE_2M, PAGE_SIZE_1G):
            entry = self.stlb.lookup(
                self._vpn(va, page_size), page_size, asid
            )
            if entry is not None:
                self.l1[page_size].fill(entry)
                return entry, "L2"
        return None, None

    def holds(self, va, asid=None):
        """Non-counting containment check used by tests and the spy model.

        ``asid=None`` checks under the active tag; pass a tag explicitly
        to inspect another address space's entries.
        """
        if asid is None:
            asid = self.active_asid

        def matches(entry, vpn, page_size):
            return (
                entry.vpn == vpn and entry.page_size == page_size
                and (entry.asid == asid or entry.is_global)
            )

        for page_size, l1 in self.l1.items():
            vpn = self._vpn(va, page_size)
            bucket = l1._sets[l1._set_index(vpn)]
            if any(matches(e, vpn, page_size) for e in bucket):
                return True
        for page_size in (PAGE_SIZE, PAGE_SIZE_2M, PAGE_SIZE_1G):
            vpn = self._vpn(va, page_size)
            bucket = self.stlb._sets[self.stlb._set_index(vpn)]
            if any(matches(e, vpn, page_size) for e in bucket):
                return True
        return False

    def fill(self, translation, is_global=False):
        """Cache a completed translation in both levels (active tag)."""
        entry = TLBEntry(
            vpn=self._vpn(translation.va, translation.page_size),
            pfn=translation.pfn,
            flags=translation.flags,
            page_size=translation.page_size,
            is_global=is_global,
            asid=self.active_asid,
        )
        self.l1[translation.page_size].fill(entry)
        if translation.page_size in (PAGE_SIZE, PAGE_SIZE_2M):
            self.stlb.fill(entry)
        return entry

    def invalidate(self, va):
        """INVLPG: drop every entry that could translate ``va``."""
        for page_size, l1 in self.l1.items():
            l1.invalidate(self._vpn(va, page_size), page_size)
        for page_size in (PAGE_SIZE, PAGE_SIZE_2M):
            self.stlb.invalidate(self._vpn(va, page_size), page_size)

    def flush(self, keep_global=False):
        for l1 in self.l1.values():
            l1.flush(keep_global)
        self.stlb.flush(keep_global)

    def occupancy(self):
        return {
            "l1_4k": self.l1[PAGE_SIZE].occupancy(),
            "l1_2m": self.l1[PAGE_SIZE_2M].occupancy(),
            "l1_1g": self.l1[PAGE_SIZE_1G].occupancy(),
            "stlb": self.stlb.occupancy(),
        }

    def stats(self):
        """Hit/miss counters per array, keyed by the array's name.

        Read twice and differenced by :meth:`repro.obs.trace.Tracer`
        (snapshot at attach, delta at finish) so TLB hit rates reach the
        trace without any per-lookup instrumentation cost.
        """
        arrays = list(self.l1.values()) + [self.stlb]
        return {array.name: array.stats() for array in arrays}
