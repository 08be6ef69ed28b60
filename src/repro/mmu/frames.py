"""Physical memory: frame allocation and sparse byte storage.

The simulator rarely needs real data, but the AVX masked load/store model
does move bytes, so :class:`PhysicalMemory` stores page contents sparsely
(untouched memory reads as zero, like freshly allocated frames under an OS
that zero-fills).
"""

from repro.errors import MappingError
from repro.mmu.address import PAGE_SHIFT, PAGE_SIZE


class FrameAllocator:
    """Hands out physical frame numbers (PFNs) monotonically.

    Frames are never reused after :meth:`free`; this keeps stale TLB/PSC
    entries harmless in tests and mirrors how the attacks never rely on
    frame reuse.  Because allocation only advances a cursor, the
    allocated frames are the run ``[first_pfn, cursor)`` minus the
    frames freed since; nothing is recorded per frame on :meth:`alloc`.
    """

    def __init__(self, first_pfn=0x100):
        self._first_pfn = first_pfn
        self._next_pfn = first_pfn
        self._freed = set()

    def alloc(self, count=1):
        """Allocate ``count`` consecutive frames, returning the first PFN."""
        if count < 1:
            raise MappingError("cannot allocate {} frames".format(count))
        pfn = self._next_pfn
        self._next_pfn += count
        return pfn

    def free(self, pfn, count=1):
        """Release ``count`` frames starting at ``pfn``.

        Frames that were never allocated are ignored.
        """
        self._freed.update(range(
            max(pfn, self._first_pfn), min(pfn + count, self._next_pfn)
        ))

    def is_allocated(self, pfn):
        """Return True if ``pfn`` is currently allocated."""
        return self._first_pfn <= pfn < self._next_pfn \
            and pfn not in self._freed

    @property
    def allocated_count(self):
        return self._next_pfn - self._first_pfn - len(self._freed)


class PhysicalMemory:
    """Sparse byte-addressable physical memory.

    Pages materialize on first write; reads from untouched pages return
    zero bytes.
    """

    def __init__(self):
        self._pages = {}

    def _page(self, pfn, create):
        page = self._pages.get(pfn)
        if page is None and create:
            page = bytearray(PAGE_SIZE)
            self._pages[pfn] = page
        return page

    def read(self, pa, length):
        """Read ``length`` bytes starting at physical address ``pa``."""
        out = bytearray()
        while length > 0:
            pfn = pa >> PAGE_SHIFT
            offset = pa & (PAGE_SIZE - 1)
            chunk = min(length, PAGE_SIZE - offset)
            page = self._page(pfn, create=False)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset : offset + chunk])
            pa += chunk
            length -= chunk
        return bytes(out)

    def write(self, pa, data):
        """Write ``data`` starting at physical address ``pa``."""
        offset_in = 0
        length = len(data)
        while offset_in < length:
            pfn = pa >> PAGE_SHIFT
            offset = pa & (PAGE_SIZE - 1)
            chunk = min(length - offset_in, PAGE_SIZE - offset)
            page = self._page(pfn, create=True)
            page[offset : offset + chunk] = data[offset_in : offset_in + chunk]
            pa += chunk
            offset_in += chunk

    @property
    def touched_pages(self):
        """Number of physical pages that have ever been written."""
        return len(self._pages)
