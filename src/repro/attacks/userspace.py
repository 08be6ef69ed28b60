"""User-space ASLR breaks (paper Section IV-F, Figure 7).

Two attacks:

* **Code-base scan** -- linearly probe the 28-bit / 4 KiB-grain region the
  executable can live in.  User pages need only a *single* probe per
  address: a mapped user page takes no microcode assist (fast) while an
  unmapped one assists and walks (slow), so one access separates them.
* **Library identification** -- the two-pass load+store probe of the
  mmap region recovers a per-page permission map (``r`` / ``rw`` / ``---``)
  and matches the section-size signatures of known libraries (r-x, ---,
  r--, rw- section orders).

Simulation note: the full code-base scan covers 2^28 addresses, far more
than a Python interpreter can usefully simulate one by one.  The scan
therefore simulates a *representative sample* -- every address around the
populated windows plus a uniform background -- and extrapolates the total
runtime from the measured per-probe cost times the true probe count.  The
classification logic itself runs on honestly simulated timings only.
"""

from repro.attacks.primitives import PermissionAttack
from repro.mmu.address import PAGE_SIZE
from repro.os.linux import layout
from repro.os.linux.libraries import LIBRARY_CATALOG

#: pages 4 KiB-probed on each side of a populated region
WINDOW_PAGES = 64
#: evenly spaced pages probed across the whole region
BACKGROUND_SAMPLES = 2048
#: pages the executable's base can fall on (the 28-bit ASLR range)
REGION_PAGES = 1 << layout.USER_ASLR_BITS
#: single probes of the unmapped guard page that set the scan boundary
BOUNDARY_SAMPLES = 200


class UserScanResult:
    """Outcome of a code-base scan."""

    __slots__ = (
        "base",
        "mapped_runs",
        "simulated_probes",
        "full_probe_count",
        "probing_seconds",
        "per_probe_cycles",
        "mode",
    )

    def __init__(self, base, mapped_runs, simulated_probes, full_probe_count,
                 probing_seconds, per_probe_cycles, mode):
        self.base = base
        self.mapped_runs = mapped_runs
        self.simulated_probes = simulated_probes
        self.full_probe_count = full_probe_count
        self.probing_seconds = probing_seconds
        self.per_probe_cycles = per_probe_cycles
        self.mode = mode

    def __repr__(self):
        return "UserScanResult(base={}, {:.1f}s {} scan)".format(
            hex(self.base) if self.base else None,
            self.probing_seconds, self.mode,
        )


def _calibrate_unmapped_boundary(machine):
    """Self-calibrate against the attacker's own unmapped guard page."""
    values = sorted(machine.core.probe_sweep(
        [machine.playground.unmapped], rounds=BOUNDARY_SAMPLES, op="load",
        warm=False, reduce=None,
    )[0])
    median = values[len(values) // 2]
    return median - 12


def _sample_addresses(machine):
    """Probe set: windows around populated areas + uniform background."""
    region_start = layout.USER_TEXT_REGION
    region_end = region_start + REGION_PAGES * PAGE_SIZE
    sampled = set()
    for region in machine.process.all_regions():
        if region.end <= region_start or region.start >= region_end:
            continue
        lo = max(region_start, region.start - WINDOW_PAGES * PAGE_SIZE)
        hi = min(region_end, region.end + WINDOW_PAGES * PAGE_SIZE)
        va = lo
        while va < hi:
            sampled.add(va)
            va += PAGE_SIZE
    stride = max(1, REGION_PAGES // BACKGROUND_SAMPLES)
    for index in range(0, REGION_PAGES, stride):
        sampled.add(region_start + index * PAGE_SIZE)
    return sorted(sampled)


def _runs_of(addresses):
    """Group sorted page addresses into contiguous (first, last) runs."""
    runs = []
    for va in addresses:
        if runs and va == runs[-1][1] + PAGE_SIZE:
            runs[-1] = (runs[-1][0], va)
        else:
            runs.append((va, va))
    return runs


def _region_scan(machine, classify, op, rounds, mode):
    """Shared scan: single-probe the sample set, classify, extrapolate.

    Each sampled page takes ``rounds`` bare ``op`` ("load"/"store")
    probes, min-filtered.
    """
    core = machine.core
    addresses = _sample_addresses(machine)

    probe_start = core.clock.cycles
    best_of = core.probe_sweep(addresses, rounds=rounds, op=op, warm=False,
                               reduce="min")
    positives = [va for va, best in zip(addresses, best_of) if classify(best)]
    elapsed = core.clock.elapsed_since(probe_start)
    per_probe = elapsed / (len(addresses) * rounds)

    runs = _runs_of(positives)
    full_count = REGION_PAGES * rounds
    probing_seconds = core.clock.cycles_to_seconds(
        int(per_probe * full_count)
    )
    return UserScanResult(
        runs[0][0] if runs else None, runs, len(addresses) * rounds,
        full_count, probing_seconds, per_probe, mode,
    )


def find_user_code_base(machine, rounds=2):
    """Scan the 0x55XXXXXXX000 region for the executable's base (P2).

    A single masked-load probe per page suffices here: a mapped *user*
    page takes no microcode assist while an unmapped one assists and
    walks.  Read-write data pages need the store pass
    (:func:`scan_rw_pages`) -- the paper's two-pass combination.
    """
    boundary = _calibrate_unmapped_boundary(machine)
    return _region_scan(machine, lambda t: t <= boundary, "load", rounds,
                        mode="load")


def scan_rw_pages(machine, rounds=2):
    """The paper's second (masked-store) pass: find written data pages.

    A store on a dirty writable page retires with no assist at all -- far
    below every other mode -- so one boundary flags the read-write pages
    the load pass cannot see (Section IV-F's "probed again using the
    masked store to identify the read-write pages").
    """
    cpu = machine.cpu
    fast_store = cpu.store_base + cpu.tlb_hit_l1
    ro_store = fast_store + cpu.assist_store
    boundary = cpu.measurement_overhead + (fast_store + ro_store) / 2
    return _region_scan(machine, lambda t: t <= boundary, "store", rounds,
                        mode="store-rw")


class LibraryMatch:
    """One identified library instance."""

    __slots__ = ("name", "base", "runs")

    def __init__(self, name, base, runs):
        self.name = name
        self.base = base
        self.runs = runs

    def __repr__(self):
        return "LibraryMatch({!r} @ {:#x})".format(self.name, self.base)


class LibraryIdentification:
    """Outcome of the fine-grained library scan."""

    __slots__ = ("permission_map", "matches", "extra_pages", "window")

    def __init__(self, permission_map, matches, extra_pages, window):
        self.permission_map = permission_map
        self.matches = matches
        self.extra_pages = extra_pages
        self.window = window

    def base_of(self, name):
        for match in self.matches:
            if match.name == name:
                return match.base
        return None


def _observable_signature(image):
    """(run page-perms pattern) list as the load+store probes can see it.

    Each mapped run becomes a tuple of (perm_class, pages) with r-x/r--
    collapsed to 'r' (Figure 3: loads and stores cannot split them).
    """
    runs = []
    current = []
    for section in image.sections:
        if section.perms == "---":
            if current:
                runs.append(tuple(current))
                current = []
            continue
        perm_class = "rw" if section.perms == "rw-" else "r"
        if current and current[-1][0] == perm_class:
            current[-1] = (perm_class, current[-1][1] + section.pages)
        else:
            current.append((perm_class, section.pages))
        current = [tuple(c) for c in current]
    if current:
        runs.append(tuple(current))
    return tuple(runs)


def _detected_runs(permission_map):
    """Collapse the per-page map into mapped runs of (perm, pages) groups."""
    runs = []
    current = []
    run_base = None
    prev_va = None
    for va in sorted(permission_map):
        perm = permission_map[va]
        broken = prev_va is not None and va != prev_va + PAGE_SIZE
        if perm == "---" or broken:
            if current:
                runs.append((run_base, tuple(current)))
                current = []
                run_base = None
            if broken and perm != "---":
                pass
        if perm != "---":
            if not current:
                run_base = va
                current = [(perm, 1)]
            elif current[-1][0] == perm:
                current[-1] = (perm, current[-1][1] + 1)
            else:
                current.append((perm, 1))
        prev_va = va
    if current:
        runs.append((run_base, tuple(current)))
    return runs


def identify_libraries(machine, rounds=None, margin_pages=8,
                       catalog=None):
    """Two-pass permission scan of the library region + signature match."""
    if catalog is None:
        catalog = LIBRARY_CATALOG
    attack = PermissionAttack(machine, rounds=rounds)

    # scan window: the populated part of the 0x7f region (the full-range
    # version is the extrapolated scan of find_user_code_base)
    lib_regions = [
        r for r in machine.process.all_regions()
        if r.start >= layout.USER_MMAP_REGION
    ]
    lo = min(r.start for r in lib_regions) - margin_pages * PAGE_SIZE
    hi = max(r.end for r in lib_regions) + margin_pages * PAGE_SIZE

    permission_map = {}
    va = lo
    while va < hi:
        permission_map[va] = attack.classify(va)
        va += PAGE_SIZE

    runs = _detected_runs(permission_map)

    # signature matching: a library is a consecutive sub-sequence of runs
    signatures = {
        name: _observable_signature(image)
        for name, image in catalog.items()
    }
    matches = []
    used = set()
    for name, signature in signatures.items():
        length = len(signature)
        for start in range(len(runs) - length + 1):
            if any((start + k) in used for k in range(length)):
                continue
            window = runs[start : start + length]
            if tuple(groups for __, groups in window) == signature:
                matches.append(LibraryMatch(name, window[0][0], window))
                used.update(range(start, start + length))
                break

    # pages the probe found that /proc/PID/maps does not report
    visible = set()
    for region in machine.process.maps():
        if region.perms == "---":
            continue
        for i in range(region.pages):
            visible.add(region.start + i * PAGE_SIZE)
    extra = [
        va for va, perm in sorted(permission_map.items())
        if perm != "---" and va not in visible
    ]
    return LibraryIdentification(permission_map, matches, extra, (lo, hi))
