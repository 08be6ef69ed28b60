"""Page-table entry flags with x86-64 semantics.

Only the architecturally relevant subset is modelled: the bits that the
paper's side channel depends on are Present (P), Read/Write (RW),
User/Supervisor (US), Dirty (D), Accessed (A), Page Size (PS) and
Execute-Disable (NX).
"""

import enum


class PageFlags(enum.IntFlag):
    """PTE flag bits (numeric values follow the Intel SDM layout)."""

    NONE = 0
    PRESENT = 1 << 0       # P  : translation is valid
    WRITABLE = 1 << 1      # RW : writes permitted
    USER = 1 << 2          # US : accessible from CPL 3
    ACCESSED = 1 << 5      # A  : set by hardware on first access
    DIRTY = 1 << 6         # D  : set by hardware on first write
    HUGE = 1 << 7          # PS : terminal entry at PD/PDPT level
    GLOBAL = 1 << 8        # G  : survives CR3 switches
    NX = 1 << 63           # XD : instruction fetches disallowed


def describe(flags):
    """Return a /proc/PID/maps style ``rwx`` permission string of a PTE
    word (an ``int`` or a :class:`PageFlags`)."""
    if not flags & PageFlags.PRESENT:
        return "---"
    write = "w" if flags & PageFlags.WRITABLE else "-"
    execute = "-" if flags & PageFlags.NX else "x"
    return "r" + write + execute


#: Convenience combinations used throughout the OS layer.
KERNEL_RX = PageFlags.PRESENT
KERNEL_RW = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.NX
USER_RX = PageFlags.PRESENT | PageFlags.USER
USER_RO = PageFlags.PRESENT | PageFlags.USER | PageFlags.NX
USER_RW = (
    PageFlags.PRESENT | PageFlags.USER | PageFlags.WRITABLE | PageFlags.NX
)


def flags_from_prot(read=True, write=False, execute=False, user=True):
    """Build :class:`PageFlags` from mmap-style protection booleans.

    ``read=False`` with no other permission models a PROT_NONE mapping:
    the page is tracked by the OS but its PTE is non-present, exactly how
    Linux implements PROT_NONE.
    """
    if not (read or write or execute):
        return PageFlags.NONE
    flags = PageFlags.PRESENT
    if write:
        flags |= PageFlags.WRITABLE
    if not execute:
        flags |= PageFlags.NX
    if user:
        flags |= PageFlags.USER
    return flags
