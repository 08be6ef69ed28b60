"""x86-64 Linux virtual-memory layout constants (paper Section II/IV).

All values follow the stock Documentation/x86/x86_64/mm.rst layout for
4-level paging, which is what the paper attacks.
"""

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M

#: Kernel text mapping window: 1 GiB, 2 MiB aligned -> 512 slots, 9 bits.
KERNEL_TEXT_START = 0xFFFF_FFFF_8000_0000
KERNEL_TEXT_END = 0xFFFF_FFFF_C000_0000
KERNEL_ALIGN = PAGE_SIZE_2M
KERNEL_TEXT_SLOTS = (KERNEL_TEXT_END - KERNEL_TEXT_START) // KERNEL_ALIGN

#: Module mapping window: 64 MiB, 4 KiB aligned -> 16384 probe slots.
MODULE_START = 0xFFFF_FFFF_C000_0000
MODULE_END = 0xFFFF_FFFF_C400_0000
MODULE_ALIGN = PAGE_SIZE
MODULE_SLOTS = (MODULE_END - MODULE_START) // MODULE_ALIGN

#: Direct physical map base (not randomized in our model).
DIRECT_MAP_START = 0xFFFF_8880_0000_0000

#: User-space ASLR (paper Section IV-F): 28 bits of entropy, 4 KiB grain.
USER_ASLR_BITS = 28
USER_TEXT_REGION = 0x5500_0000_0000          # code text: 0x55XXXXXXX000
USER_MMAP_REGION = 0x7F00_0000_0000          # libraries: 0x7fXXXXXXX000
USER_STACK_TOP = 0x7FFF_FFFF_F000

#: Size of the mapped kernel image in 2 MiB text/data pages (typical for a
#: distro 5.x kernel: ~44 MiB of text+rodata+data mapped large).
KERNEL_IMAGE_2M_PAGES = 22

#: Offsets (from the kernel base) of the handful of 4 KiB kernel mappings
#: that Linux's kernel-mapped area contains (paper Section IV-B exploits
#: exactly five of them for the AMD break).
KERNEL_4K_PAGE_OFFSETS = (
    0x2C0_0000,
    0x2C0_1000,
    0x2C0_4000,
    0x2C0_6000,
    0x2C0_7000,
)

#: KPTI trampoline offset from the kernel base, per kernel build
#: (paper: 0xc00000 on Ubuntu 5.11.0-27, 0xe00000 on the AWS 5.11 kernel).
KPTI_TRAMPOLINE_OFFSETS = {
    "5.11.0-27": 0xC0_0000,
    "5.11.0-1020-aws": 0xE0_0000,
    "5.13.0-30": 0xC0_0000,
    "5.4.0-81": 0xC0_0000,
}
DEFAULT_TRAMPOLINE_OFFSET = 0xC0_0000

#: Number of 4 KiB pages forming the KPTI trampoline ("minimal set of
#: kernel pages" left in the user page table).
KPTI_TRAMPOLINE_PAGES = 3


def kernel_slot_of(base):
    """Map a kernel base address back to its 2 MiB KASLR slot index."""
    return (base - KERNEL_TEXT_START) // KERNEL_ALIGN


def kernel_base_of_slot(slot):
    """Kernel base address of KASLR slot ``slot``."""
    return KERNEL_TEXT_START + slot * KERNEL_ALIGN
