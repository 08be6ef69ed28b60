"""Windows 10 KASLR breaks (paper Section IV-G).

* **Region scan** -- probe the 262144 2-MiB slots of the kernel window;
  the kernel image shows up as five consecutive fast slots.  Finding it
  derandomizes the full 18 bits of region entropy (the remaining 9 bits
  of entry-point entropy fall to the TLB attack).
* **KVAS scan** -- on a KVA-Shadow kernel the user table contains only the
  transition pages; scanning at 4 KiB granularity finds the three
  consecutive KVAS pages, and the kernel base follows from their constant
  offset (0x298000 on version 1709).

Simulation note: the full scans cover 262144 (region) / ~134M (KVAS)
probes; like the user-space scan, the simulation probes a representative
sample (a window around populated slots plus a uniform background) and
extrapolates the runtime from the measured per-probe cost.
"""

import math

from repro.attacks.calibrate import calibrate_store_threshold
from repro.mmu.address import PAGE_SIZE
from repro.os.windows.kernel import layout

#: region scan: 2 MiB slots probed on each side of a populated slot, and
#: evenly spaced slots probed across the whole window
WINDOW_SLOTS = 256
BACKGROUND_SLOTS = 4096
#: KVAS scan: the same two sample sizes at 4 KiB granularity
KVAS_WINDOW_PAGES = 512
KVAS_BACKGROUND_SLOTS = 8192


class WindowsBreakResult:
    """Outcome of one Windows derandomization run."""

    __slots__ = (
        "base",
        "region_slots",
        "derandomized_bits",
        "probing_seconds",
        "simulated_probes",
        "full_probe_count",
        "method",
    )

    def __init__(self, base, region_slots, derandomized_bits,
                 probing_seconds, simulated_probes, full_probe_count, method):
        self.base = base
        self.region_slots = region_slots
        self.derandomized_bits = derandomized_bits
        self.probing_seconds = probing_seconds
        self.simulated_probes = simulated_probes
        self.full_probe_count = full_probe_count
        self.method = method

    def __repr__(self):
        return "WindowsBreakResult(base={}, {} bits, {:.2f}s)".format(
            hex(self.base) if self.base else None,
            self.derandomized_bits, self.probing_seconds,
        )


def find_entry_point(machine, region_base, hit_threshold=None):
    """Break the remaining 9 bits: locate the 4 KiB entry point (P4).

    The region scan recovers the 18-bit region; the kernel entry point is
    further randomized at 4 KiB granularity inside it.  The TLB attack
    finds it: evict, perform a syscall (the kernel executes its entry
    stub), then probe one page -- a hit means the entry's translation was
    just loaded.  The prime-evict cycle runs per probe because sweeping
    the region would load the 2 MiB slots' own translations and drown the
    signal.
    """
    core = machine.core
    kernel = machine.kernel
    cpu = machine.cpu
    if hit_threshold is None:
        hit_threshold = (
            cpu.expected_kernel_mapped_load_tlb_hit()
            + cpu.measurement_overhead + 8
        )

    region_pages = (
        layout.KERNEL_IMAGE_2M_PAGES * layout.KERNEL_ALIGN // PAGE_SIZE
    )
    hot = []
    for page in range(region_pages):
        core.evict_translation_caches()
        kernel.syscall(core)
        va = region_base + page * PAGE_SIZE
        measured = core.timed_masked_load(va)
        if measured <= hit_threshold:
            hot.append(va)
    # a hit on a page inside a 2 MiB slot means the whole slot's entry was
    # warm (the syscall touched it); only an isolated 4 KiB hit pinpoints
    # the entry.  With the entry slot 4 KiB-mapped, exactly one page hits.
    return hot[0] if len(hot) == 1 else None


def _sample_slots(total_slots, hot_slots, window, background):
    """Slot sample: a window around each populated slot + background."""
    sampled = set()
    for slot in hot_slots:
        for s in range(max(0, slot - window), min(total_slots, slot + window)):
            sampled.add(s)
    stride = max(1, total_slots // background)
    sampled.update(range(0, total_slots, stride))
    return sorted(sampled)


def find_kernel_region(machine, rounds=None, calibration=None):
    """Locate the five consecutive 2 MiB kernel slots (18 bits)."""
    core = machine.core
    if rounds is None:
        rounds = machine.cpu.rounds_default
    core.run_setup()
    if calibration is None:
        calibration = calibrate_store_threshold(machine)

    slots = _sample_slots(
        layout.KERNEL_SLOTS, machine.kernel.region_slots(),
        WINDOW_SLOTS, BACKGROUND_SLOTS,
    )
    probe_start = core.clock.cycles
    vas = [layout.KERNEL_START + slot * layout.KERNEL_ALIGN for slot in slots]
    timings = core.probe_sweep(vas, rounds=rounds, op="load")
    verdicts = [
        (slot, calibration.classify_mapped(t))
        for slot, t in zip(slots, timings)
    ]
    elapsed = core.clock.elapsed_since(probe_start)
    per_probe = elapsed / len(slots)

    run = []
    found = None
    for slot, mapped in verdicts:
        if mapped and (not run or slot == run[-1] + 1):
            run.append(slot)
        elif mapped:
            run = [slot]
        else:
            if len(run) >= layout.KERNEL_IMAGE_2M_PAGES:
                found = run
                break
            run = []
    if found is None and len(run) >= layout.KERNEL_IMAGE_2M_PAGES:
        found = run

    base = (
        layout.KERNEL_START + found[0] * layout.KERNEL_ALIGN
        if found else None
    )
    probing_seconds = core.clock.cycles_to_seconds(
        int(per_probe * layout.KERNEL_SLOTS)
    )
    bits = int(math.log2(layout.KERNEL_SLOTS))
    return WindowsBreakResult(
        base, found or [], bits, probing_seconds, len(slots),
        layout.KERNEL_SLOTS, method="region-scan",
    )


def find_kvas_region(machine, rounds=1):
    """Locate the three consecutive KVAS pages and recover the base."""
    core = machine.core
    if not machine.kernel.kvas:
        raise ValueError("find_kvas_region needs a KVAS-enabled kernel")
    core.run_setup()
    calibration = calibrate_store_threshold(machine)

    total_pages = (layout.KERNEL_END - layout.KERNEL_START) // PAGE_SIZE
    kvas_page = (machine.kernel.kvas_base - layout.KERNEL_START) // PAGE_SIZE
    pages = _sample_slots(
        total_pages, [kvas_page], KVAS_WINDOW_PAGES, KVAS_BACKGROUND_SLOTS
    )
    probe_start = core.clock.cycles
    vas = [layout.KERNEL_START + page * PAGE_SIZE for page in pages]
    timings = core.probe_sweep(vas, rounds=rounds, op="load")
    verdicts = [
        (page, calibration.classify_mapped(t))
        for page, t in zip(pages, timings)
    ]
    elapsed = core.clock.elapsed_since(probe_start)
    per_probe = elapsed / len(pages)

    run = []
    found = None
    for page, mapped in verdicts:
        if mapped and (not run or page == run[-1] + 1):
            run.append(page)
        elif mapped:
            run = [page]
        else:
            if len(run) == layout.KVAS_PAGES:
                found = run
                break
            run = []
    if found is None and len(run) == layout.KVAS_PAGES:
        found = run

    base = None
    if found:
        kvas_base = layout.KERNEL_START + found[0] * PAGE_SIZE
        base = kvas_base - layout.KVAS_OFFSET
    probing_seconds = core.clock.cycles_to_seconds(
        int(per_probe * total_pages)
    )
    bits = int(math.log2(layout.KERNEL_SLOTS)) + 9  # 4 KiB grain: 27 bits
    return WindowsBreakResult(
        base, found or [], bits, probing_seconds, len(pages), total_pages,
        method="kvas-scan",
    )
