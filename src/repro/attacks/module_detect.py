"""Kernel-module detection and identification (Section IV-C, Figure 5).

Modules load 4 KiB-aligned into a 64 MiB window (16384 probe slots) and
consecutive modules are separated by unmapped guard pages.  The attack:

1. double-probe every slot (P2) and classify mapped/unmapped,
2. split the mapped bitmap into maximal runs -- each run is one module,
3. correlate each run's page count with the sizes /proc/modules reports
   (names and sizes are world-readable; addresses are not).

A module whose page count is unique among loaded modules is identified
exactly; modules sharing a footprint (the paper's autofs4 / x_tables pair)
remain ambiguous.
"""

from repro.attacks.calibrate import calibrate_store_threshold
from repro.mmu.address import PAGE_SIZE
from repro.os.linux import layout


class DetectedRegion:
    """One contiguous mapped run in the module window."""

    __slots__ = ("start", "pages", "candidates")

    def __init__(self, start, pages, candidates=()):
        self.start = start
        self.pages = pages
        self.candidates = tuple(candidates)

    @property
    def identified(self):
        return len(self.candidates) == 1

    @property
    def name(self):
        return self.candidates[0] if self.identified else None

    def __repr__(self):
        return "DetectedRegion({:#x}, {} pages, {})".format(
            self.start, self.pages, self.candidates or "?"
        )


class ModuleDetectionResult:
    """Outcome of one module-detection run."""

    __slots__ = (
        "regions",
        "identified",
        "ambiguous",
        "probing_ms",
        "total_ms",
        "threshold",
    )

    def __init__(self, regions, identified, ambiguous, probing_ms, total_ms,
                 threshold):
        self.regions = regions
        self.identified = identified
        self.ambiguous = ambiguous
        self.probing_ms = probing_ms
        self.total_ms = total_ms
        self.threshold = threshold

    def address_of(self, name):
        """Recovered load address of an identified module (or None)."""
        return self.identified.get(name)

    def __repr__(self):
        return (
            "ModuleDetectionResult({} regions, {} identified, "
            "{:.2f} ms)".format(
                len(self.regions), len(self.identified), self.total_ms
            )
        )


def _runs_from_bitmap(mapped_flags, start_va):
    """Collapse a per-slot mapped bitmap into (start, pages) runs."""
    runs = []
    run_start = None
    for index, mapped in enumerate(mapped_flags):
        if mapped and run_start is None:
            run_start = index
        elif not mapped and run_start is not None:
            runs.append((start_va + run_start * PAGE_SIZE, index - run_start))
            run_start = None
    if run_start is not None:
        runs.append(
            (start_va + run_start * PAGE_SIZE,
             len(mapped_flags) - run_start)
        )
    return runs


def module_candidates(max_slots=layout.MODULE_SLOTS):
    """The first ``max_slots`` 4 KiB probe slots of the module window."""
    return [
        layout.MODULE_START + slot * PAGE_SIZE for slot in range(max_slots)
    ]


def scan(core, vas, rounds, engine=None):
    """Time one double-probe load per slot, min-filtered: a single spike
    must not split a module in two."""
    return core.probe_sweep(vas, rounds=rounds, op="load", reduce="min",
                            engine=engine)


def decode_modules(mapped_flags, proc_modules, probing_ms, total_ms,
                   threshold):
    """Split the mapped bitmap into runs and name them by size.

    ``proc_modules`` is the world-readable ``(name, size_bytes)`` list;
    a run whose page count matches exactly one loaded module is
    identified, any other run stays ambiguous.
    """
    size_to_names = {}
    for name, size_bytes in proc_modules:
        pages = -(-size_bytes // PAGE_SIZE)
        size_to_names.setdefault(pages, []).append(name)

    regions = []
    identified = {}
    ambiguous = []
    for start, pages in _runs_from_bitmap(mapped_flags, layout.MODULE_START):
        region = DetectedRegion(start, pages, size_to_names.get(pages, []))
        regions.append(region)
        if region.identified:
            identified[region.name] = start
        else:
            ambiguous.append(region)
    return ModuleDetectionResult(
        regions, identified, ambiguous, probing_ms, total_ms, threshold,
    )


def detect_modules(machine, rounds=None, calibration=None,
                   max_slots=layout.MODULE_SLOTS, engine=None):
    """Run the full module detection + size classification attack.

    ``max_slots`` restricts the scan (the full window is 16384 slots);
    the default probes everything, like the paper.  ``engine`` selects
    the sweep executor (:meth:`repro.cpu.core.Core.probe_sweep`).
    """
    core = machine.core
    if rounds is None:
        rounds = machine.cpu.rounds_default

    total_start = core.clock.cycles
    core.run_setup()
    if calibration is None:
        calibration = calibrate_store_threshold(machine, engine=engine)

    probe_start = core.clock.cycles
    timings = scan(core, module_candidates(max_slots), rounds, engine)
    mapped_flags = [calibration.classify_mapped(t) for t in timings]
    probing_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(probe_start)
    )
    total_ms = core.clock.cycles_to_ms(core.clock.elapsed_since(total_start))
    return decode_modules(
        mapped_flags, machine.kernel.proc_modules(), probing_ms, total_ms,
        calibration.threshold,
    )


def region_accuracy(result, kernel):
    """Fraction of ground-truth modules whose run was recovered exactly.

    A module counts as correct when some detected region matches its true
    (start, pages) pair -- the per-module notion behind Table I's module
    accuracy column.
    """
    truth = kernel.module_map
    detected = {(r.start, r.pages) for r in result.regions}
    correct = sum(
        1 for start, pages in truth.values() if (start, pages) in detected
    )
    return correct / len(truth) if truth else 1.0
