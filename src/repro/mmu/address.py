"""Virtual-address arithmetic for 48-bit x86-64 canonical addresses.

x86-64 with 4-level paging uses 48 significant virtual-address bits; bits
63..47 must all equal bit 47 ("canonical" form).  The canonical space is
split in two halves:

* user half    : 0x0000000000000000 .. 0x00007fffffffffff
* kernel half  : 0xffff800000000000 .. 0xffffffffffffffff

A virtual address decomposes into four 9-bit page-table indices plus a
12-bit page offset::

    63..48 sign | 47..39 PML4 | 38..30 PDPT | 29..21 PD | 20..12 PT | 11..0
"""

from repro.errors import AddressError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT          # 4 KiB
PAGE_SIZE_2M = 1 << 21               # 2 MiB huge page (PD level)
PAGE_SIZE_1G = 1 << 30               # 1 GiB huge page (PDPT level)

CANONICAL_LOW_END = 0x0000_7FFF_FFFF_FFFF
CANONICAL_HIGH_START = 0xFFFF_8000_0000_0000

_INDEX_MASK = 0x1FF
_VA_MASK = (1 << 64) - 1

#: Shift amount of each paging level's index field, top-down.
LEVEL_SHIFTS = (39, 30, 21, 12)

#: Human-readable level names, top-down, matching :data:`LEVEL_SHIFTS`.
LEVEL_NAMES = ("PML4", "PDPT", "PD", "PT")


def is_canonical(va):
    """Return True if ``va`` is a canonical 48-bit virtual address."""
    va &= _VA_MASK
    return va <= CANONICAL_LOW_END or va >= CANONICAL_HIGH_START


def is_user_address(va):
    """Return True if ``va`` lies in the lower (user) canonical half."""
    return 0 <= (va & _VA_MASK) <= CANONICAL_LOW_END


def is_kernel_address(va):
    """Return True if ``va`` lies in the upper (kernel) canonical half."""
    return (va & _VA_MASK) >= CANONICAL_HIGH_START


def check_canonical(va):
    """Raise :class:`AddressError` unless ``va`` is canonical."""
    if not is_canonical(va):
        raise AddressError("non-canonical virtual address {:#x}".format(va))
    return va & _VA_MASK


def split_indices(va):
    """Return the (pml4, pdpt, pd, pt) index tuple of ``va``."""
    va = check_canonical(va)
    return (va >> 39 & _INDEX_MASK, va >> 30 & _INDEX_MASK,
            va >> 21 & _INDEX_MASK, va >> 12 & _INDEX_MASK)


def page_offset(va, page_size=PAGE_SIZE):
    """Return the offset of ``va`` within its enclosing page."""
    return va & (page_size - 1)


def page_align_down(va, page_size=PAGE_SIZE):
    """Round ``va`` down to a ``page_size`` boundary."""
    return va & ~(page_size - 1)


def page_align_up(va, page_size=PAGE_SIZE):
    """Round ``va`` up to a ``page_size`` boundary."""
    return (va + page_size - 1) & ~(page_size - 1)


def is_aligned(va, page_size=PAGE_SIZE):
    """Return True if ``va`` is a multiple of ``page_size``."""
    return (va & (page_size - 1)) == 0


def vpn_of(va, page_size=PAGE_SIZE):
    """Return the virtual page number of ``va`` for the given page size."""
    return check_canonical(va) // page_size


def pages_in_range(start, end, page_size=PAGE_SIZE):
    """Yield the page-aligned base addresses covering [start, end)."""
    if end < start:
        raise AddressError(
            "range end {:#x} precedes start {:#x}".format(end, start)
        )
    va = page_align_down(start, page_size)
    while va < end:
        yield va
        va += page_size
