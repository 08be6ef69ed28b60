"""AVX masked load/store execution model (VMASKMOV / VPMASKMOV).

This module encodes the six vulnerable properties the paper derives in
Section III:

* **P1 fault suppression** -- elements whose mask bit is clear never fault,
  even on invalid or inaccessible pages; an *active* element on a bad page
  raises an architectural #PF.
* **P2/P4 timing** -- the op's latency is the sum of a dispatch base, the
  address-translation cost (TLB hit, or a timed page walk), and a microcode
  assist penalty whenever the touched page is invalid or inaccessible.
* **P5 permissions** -- the assist flavour differs for stores: a write-
  permission assist on read-only pages, an A/D-bit assist on clean writable
  pages, and the full fault-determination path on non-present pages.
* **P6 load/store asymmetry** -- the store assist retires faster than the
  load assist (paper: 16-18 cycles on Ice Lake).

The Intel/AMD behavioural split (whether a user-mode probe of a
kernel-mapped page leaves a TLB entry behind) is applied here via the CPU
model's ``fills_tlb_for_supervisor_user_probe`` flag.
"""

from repro.errors import PageFault
from repro.mmu.address import PAGE_SIZE, page_align_down
from repro.mmu.flags import PageFlags

#: Vector width in bytes (256-bit YMM operand).
VECTOR_BYTES = 32

#: Supported element widths (VMASKMOVPS/D, VPMASKMOVD/Q).
ELEMENT_SIZES = (4, 8)

#: the PTE bits the unit reads and sets, as plain ints
_USER = int(PageFlags.USER)
_WRITABLE = int(PageFlags.WRITABLE)
_DIRTY = int(PageFlags.DIRTY)
_ACCESSED = int(PageFlags.ACCESSED)


def make_mask(active_indices=(), element_size=4):
    """Build a mask tuple for a 256-bit vector.

    ``active_indices`` lists the element positions whose mask MSB is set.
    The common attack configuration is the all-zero mask, ``make_mask()``.
    """
    if element_size not in ELEMENT_SIZES:
        raise ValueError("element size must be one of {}".format(ELEMENT_SIZES))
    count = VECTOR_BYTES // element_size
    mask = [False] * count
    for index in active_indices:
        if not 0 <= index < count:
            raise ValueError(
                "element index {} out of range for {} elements".format(
                    index, count
                )
            )
        mask[index] = True
    return tuple(mask)


ZERO_MASK = make_mask()


class MaskedOpResult:
    """Outcome of one masked load/store."""

    __slots__ = (
        "cycles",
        "assist",
        "assist_kind",
        "tlb_level",
        "walks",
        "value",
        "is_store",
    )

    def __init__(self, cycles, assist, assist_kind, tlb_level, walks, value, is_store):
        self.cycles = cycles
        self.assist = assist
        self.assist_kind = assist_kind
        self.tlb_level = tlb_level
        self.walks = walks
        self.value = value
        self.is_store = is_store


class AVXUnit:
    """Executes masked vector loads/stores against a core's MMU state.

    The unit is stateless apart from references to its owning core's TLB,
    walker, performance counters and CPU model; one instance lives per
    :class:`~repro.cpu.core.Core`.
    """

    def __init__(self, cpu, tlb, walker, perf):
        self.cpu = cpu
        self.tlb = tlb
        self.walker = walker
        self.perf = perf
        #: Section V-B mitigation: retire all-zero-mask ops as NOPs --
        #: no translation, no assist, no TLB side effects.
        self.zero_mask_nop = False

    # -- public entry points ------------------------------------------------

    def masked_load(self, space, va, mask=ZERO_MASK, element_size=4,
                    privileged=False):
        """VPMASKMOV load: returns a :class:`MaskedOpResult`."""
        return self._masked_op(
            space, va, mask, element_size, privileged, is_store=False,
            data=None,
        )

    def masked_store(self, space, va, mask=ZERO_MASK, element_size=4,
                     privileged=False, data=None):
        """VPMASKMOV store of ``data`` (bytes per active element)."""
        return self._masked_op(
            space, va, mask, element_size, privileged, is_store=True,
            data=data,
        )

    # -- implementation -----------------------------------------------------

    def _masked_op(self, space, va, mask, element_size, privileged, is_store,
                   data):
        if element_size not in ELEMENT_SIZES:
            raise ValueError("bad element size {}".format(element_size))
        count = VECTOR_BYTES // element_size
        if len(mask) != count:
            raise ValueError(
                "mask has {} bits, vector has {} elements".format(
                    len(mask), count
                )
            )

        self.perf.increment(
            "MEM_INST_RETIRED.ALL_STORES" if is_store
            else "MEM_INST_RETIRED.ALL_LOADS"
        )

        cycles = self.cpu.store_base if is_store else self.cpu.load_base

        if self.zero_mask_nop and not any(mask):
            # mitigated hardware: the op never reaches the memory pipeline
            return MaskedOpResult(
                cycles=cycles, assist=False, assist_kind=None,
                tlb_level=None, walks=0,
                value=None if is_store else b"\x00" * VECTOR_BYTES,
                is_store=is_store,
            )
        pages = self._spanned_pages(va, element_size, count)

        # 1. translate every page the vector spans, charging TLB/walk time
        translations = {}
        tlb_level = None
        walks = 0
        for page in pages:
            translation, level, walk_cycles = self._translate(
                space, page, privileged
            )
            translations[page] = translation
            cycles += walk_cycles
            if level is not None:
                tlb_level = level
            else:
                walks += 1

        # 2. fault check for *active* elements only (P1)
        self._check_faults(va, mask, element_size, translations, privileged,
                           is_store)

        # 3. microcode assist (P2/P5/P6)
        assist_kind, assist_cycles = self._assist(
            translations.values(), privileged, is_store
        )
        if assist_kind is not None:
            self.perf.increment("ASSISTS.ANY")
            cycles += assist_cycles

        # 4. architectural data movement + A/D bit updates
        value = self._move_data(space, va, mask, element_size, translations,
                                is_store, data, privileged)

        return MaskedOpResult(
            cycles=cycles,
            assist=assist_kind is not None,
            assist_kind=assist_kind,
            tlb_level=tlb_level,
            walks=walks,
            value=value,
            is_store=is_store,
        )

    @staticmethod
    def _spanned_pages(va, element_size, count):
        """Distinct page bases covered by [va, va + 32)."""
        first = page_align_down(va)
        last = page_align_down(va + element_size * count - 1)
        if first == last:
            return (first,)
        return (first, last)

    def _translate(self, space, page_va, privileged):
        """TLB-first translation of one page.

        Returns ``(translation_or_None, tlb_level_or_None, cycles)``; on
        a TLB hit the translation is the cached :class:`TLBEntry`.
        """
        entry, level = self.tlb.lookup(page_va)
        if entry is not None:
            cost = (
                self.cpu.tlb_hit_l1 if level == "L1" else self.cpu.tlb_hit_l2
            )
            if level == "L2":
                self.perf.increment("DTLB_LOAD_MISSES.STLB_HIT")
            return entry, level, cost

        walk = self.walker.walk(space.page_table, page_va)
        translation = walk.translation
        if translation is not None and self._may_cache(translation, privileged):
            self.tlb.fill(translation)
        return translation, None, walk.cycles

    def _may_cache(self, translation, privileged):
        """TLB fill policy -- the Intel/AMD split of the paper."""
        if translation.flags & _USER or privileged:
            return True
        return self.cpu.fills_tlb_for_supervisor_user_probe

    def _check_faults(self, va, mask, element_size, translations, privileged,
                      is_store):
        for index, active in enumerate(mask):
            if not active:
                continue
            element_va = va + index * element_size
            page = page_align_down(element_va)
            translation = translations[page]
            fault = None
            if translation is None:
                fault = PageFault(element_va, present=False, write=is_store,
                                  user=not privileged)
            else:
                flags = translation.flags
                if not privileged and not flags & _USER:
                    fault = PageFault(element_va, present=True, write=is_store,
                                      user=True)
                elif is_store and not flags & _WRITABLE:
                    fault = PageFault(element_va, present=True, write=True,
                                      user=not privileged)
            if fault is not None:
                self.perf.increment("PAGE_FAULTS")
                raise fault

    def _assist(self, translations, privileged, is_store):
        """Pick the assist flavour; the most expensive page wins (one
        assist is issued per instruction).  Returns (kind, cycles)."""
        kind, cost = None, 0
        for translation in translations:
            candidate = self._page_assist(translation, privileged, is_store)
            if candidate is None:
                continue
            candidate_cost = self._assist_cost(candidate)
            if candidate_cost > cost:
                kind, cost = candidate, candidate_cost
        return kind, cost

    @staticmethod
    def _page_assist(translation, privileged, is_store):
        if translation is None:
            # Full fault-determination microcode path (P1 suppression).
            return "store-fault" if is_store else "load-fault"
        flags = translation.flags
        accessible = flags & _USER or privileged
        if not is_store:
            return None if accessible else "load-inaccessible"
        if not accessible or not flags & _WRITABLE:
            return "store-perm"
        if not flags & _DIRTY:
            return "dirty"
        return None

    def _assist_cost(self, kind):
        costs = {
            "load-inaccessible": self.cpu.assist_load,
            "load-fault": self.cpu.assist_load,
            "store-perm": self.cpu.assist_store,
            "dirty": self.cpu.assist_dirty,
            "store-fault": self.cpu.assist_store_fault,
        }
        return costs[kind]

    def _move_data(self, space, va, mask, element_size, translations,
                   is_store, data, privileged):
        """Perform the architectural byte movement for active elements."""
        if not any(mask):
            return None if is_store else b"\x00" * VECTOR_BYTES
        if is_store and data is None:
            data = b"\x00" * VECTOR_BYTES
        out = bytearray(VECTOR_BYTES)
        dirtied = set()
        for index, active in enumerate(mask):
            if not active:
                continue
            element_va = va + index * element_size
            page = page_align_down(element_va)
            translation = translations[page]
            offset_in_page = element_va - page
            pa = translation.pfn * PAGE_SIZE + (
                offset_in_page
                if translation.page_size == PAGE_SIZE
                else element_va & (translation.page_size - 1)
            )
            start = index * element_size
            if is_store:
                space.memory.write(pa, bytes(data[start : start + element_size]))
                if page not in dirtied:
                    space.page_table.set_flag(page, _DIRTY | _ACCESSED)
                    dirtied.add(page)
            else:
                out[start : start + element_size] = space.memory.read(
                    pa, element_size
                )
                space.page_table.set_flag(page, _ACCESSED)
        if is_store and dirtied:
            # Refresh cached flags so later stores see the dirty bit.
            for page in dirtied:
                refreshed = space.page_table.lookup(page).translation
                if refreshed is not None and self._may_cache(
                    refreshed, privileged
                ):
                    self.tlb.fill(refreshed)
        return None if is_store else bytes(out)
