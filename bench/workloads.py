"""Seeded scenario generators for the benchmark workloads.

Every workload is built from the ``--seed`` alone: the generator turns
the seed into a list of scenario specs (the dicts
:func:`repro.scenarios.run_scenario` takes) and the program under test
receives only those specs.  The *composition* of a pass -- how many
units of each attack on each CPU model -- is fixed; the seed draws each
unit's boot seed (and with it the KASLR slide, module layout, process
layout and chaos schedule) and the serve arrival schedule.  Two seeds
therefore cost about the same to simulate but produce different
outcomes, and one seed always produces the same inputs.

Only (environment, attack) pairs known to recover ground truth are
drawn: :data:`SUPPORTED` lists them, taken from ``scenarios/`` and
``EXPERIMENTS.md`` and checked by measurement.  A naive mix fails, for
example, every Azure unit under the Linux ``kaslr`` attack (Azure runs
Windows) and every module scan on the KPTI-default ``xeon-e5-2676``.

This module imports nothing from ``repro``: the benchmark harness
times the program's imports itself.
"""

import random

#: the CPU catalog of :mod:`repro.cpu.models`, in catalog order
CPUS = (
    "i7-1065G7", "i9-9900", "i5-12400F", "i7-6600U", "ryzen5-5600X",
    "xeon-e5-2676", "xeon-cascade-lake", "xeon-8171m", "ryzen7-3700X",
    "ryzen5-2600", "i7-1185G7", "i5-10400",
)
#: Intel parts: the P2 TLB-fill leak the KPTI, user-space and Windows
#: breaks need (AMD walks every kernel probe, Section IV-C)
INTEL_CPUS = tuple(cpu for cpu in CPUS if not cpu.startswith("ryzen"))
#: module detection and fingerprinting: Intel, minus the EC2 Haswell
#: whose module scan misses ground truth on every seed
MODULE_CPUS = tuple(cpu for cpu in INTEL_CPUS if cpu != "xeon-e5-2676")
#: Windows region scan: Intel parts that boot without KVAS
WINDOWS_CPUS = ("i7-1065G7", "i9-9900", "i5-12400F", "xeon-cascade-lake",
                "i7-1185G7", "i5-10400")
#: supervised module detection under the default chaos profile: the
#: parts that recover ground truth on every measured seed (i9-9900,
#: i5-10400, i7-1185G7 and i7-6600U each miss on 1-3 of 10)
CHAOS_CPUS = ("i5-12400F", "xeon-cascade-lake")
#: SGX-capable parts (Section IV-F)
SGX_CPUS = ("i7-1065G7", "i9-9900", "i7-6600U", "i7-1185G7")
#: the fingerprinting application catalog of :mod:`repro.workloads.apps`
APPS = ("video-call", "file-transfer", "music-player", "gaming", "idle")
#: cloud provider -> the attack its instance needs (Section IV-H)
CLOUD_ATTACKS = (("ec2", "kpti"), ("gce", "kaslr"),
                 ("azure", "windows-region"))

#: attack -> environments it recovers ground truth on
SUPPORTED = {
    "kaslr": frozenset(
        ["linux/{}".format(cpu) for cpu in CPUS] + ["cloud/gce"]),
    "kpti": frozenset(
        ["linux/{}/kpti".format(cpu) for cpu in INTEL_CPUS]
        + ["cloud/ec2"]),
    "windows-region": frozenset(
        ["windows/{}".format(cpu) for cpu in WINDOWS_CPUS]
        + ["cloud/azure"]),
    "modules": frozenset("linux/{}".format(cpu) for cpu in MODULE_CPUS),
    "user-scan": frozenset("linux/{}".format(cpu) for cpu in INTEL_CPUS),
    "fingerprint": frozenset(
        "linux/{}".format(cpu) for cpu in MODULE_CPUS),
    "supervised/modules": frozenset(
        "linux/{}/chaos=default".format(cpu) for cpu in CHAOS_CPUS),
    "sgx": frozenset("linux/{}".format(cpu) for cpu in SGX_CPUS),
}

#: paper Table I total runtimes (ms) by (CPU, attack)
PAPER_TOTAL_MS = {
    ("i5-12400F", "kaslr"): 0.28,
    ("i7-1065G7", "kaslr"): 0.57,
    ("ryzen5-5600X", "kaslr"): 2.90,
    ("i5-12400F", "modules"): 2.62,
    ("i7-1065G7", "modules"): 8.64,
}

#: units per pass (full size, smoke size).  Passes are short so that a
#: 20-s run repeats them ~10 (boot) or ~4 (sweep) times: the median
#: pass then survives the few-second host slowdowns of a shared machine
BOOT_BOUND_UNITS = (100, 20)
SWEEP_BOUND_UNITS = (60, 12)
#: served units cycle through one pass of this many boot-bound specs
SERVE_PASS_UNITS = (100, 20)
#: the two campaign plan sizes whose fit gives fixed and marginal cost.
#: The small plan is tiny so that the intercept is nearly a direct
#: measurement: with 60 units its noise is the whole fixed cost
CAMPAIGN_SIZES = ((6, 150), (2, 12))


def environment_of(spec):
    """The environment a spec boots, e.g. ``linux/i5-12400F/kpti``."""
    machine = spec["machine"]
    if machine["os"] == "cloud":
        return "cloud/" + machine["provider"]
    env = "{}/{}".format(machine["os"], machine["cpu"])
    if machine.get("kpti"):
        env += "/kpti"
    if machine.get("chaos"):
        env += "/chaos=" + machine["chaos"]
    return env


def attack_of(spec):
    """The attack a spec runs, e.g. ``kaslr`` or ``supervised/modules``."""
    attack = spec["attack"]
    if attack["kind"] == "supervised":
        return "supervised/" + attack["attack"]
    return attack["kind"]


def is_supported(spec):
    return environment_of(spec) in SUPPORTED.get(attack_of(spec), ())


def paper_total_ms(spec):
    """Paper Table I total for this spec's (CPU, attack), or None."""
    machine = spec["machine"]
    if machine["os"] != "linux" or machine.get("kpti") \
            or machine.get("chaos"):
        return None
    return PAPER_TOTAL_MS.get((machine["cpu"], attack_of(spec)))


def _linux(cpu, kpti=False, chaos=None):
    machine = {"os": "linux", "cpu": cpu, "kpti": kpti}
    if chaos is not None:
        machine["chaos"] = chaos
    return machine


def _rotation(items):
    """Cycle through ``items``: call the result for the next one."""
    state = {"at": 0}

    def take():
        item = items[state["at"] % len(items)]
        state["at"] += 1
        return item
    return take


def _finish(rng, prefix, units):
    """Give each ``(machine, attack)`` a name and a fresh boot seed."""
    specs = []
    for index, (machine, attack) in enumerate(units):
        machine = dict(machine, seed=rng.getrandbits(31))
        specs.append({
            "name": "{}-{:04d}".format(prefix, index),
            "machine": machine,
            "attack": attack,
            "expect": {"correct": True},
        })
    return specs


def boot_bound(seed, units):
    """Boot-dominated units: base KASLR on all 12 CPUs, KPTI, Windows, cloud.

    A cycle of 20 units: one base-KASLR break per CPU model, four KPTI
    trampoline breaks and two Windows region scans rotating over the
    parts that support them, and two cloud audits rotating over
    EC2/GCE/Azure.  Booting the victim is ~15 of each unit's ~17 ms.
    """
    rng = random.Random("boot-bound:{}".format(seed))
    kpti = _rotation(INTEL_CPUS)
    windows = _rotation(WINDOWS_CPUS)
    cloud = _rotation(CLOUD_ATTACKS)
    cycle = []
    while len(cycle) < units:
        for cpu in CPUS:
            cycle.append((_linux(cpu), {"kind": "kaslr"}))
        for __ in range(4):
            cycle.append((_linux(kpti(), kpti=True), {"kind": "kpti"}))
        for __ in range(2):
            cycle.append(({"os": "windows", "cpu": windows()},
                          {"kind": "windows-region"}))
        for __ in range(2):
            provider, kind = cloud()
            cycle.append(({"os": "cloud", "provider": provider},
                          {"kind": kind}))
    return _finish(rng, "boot", cycle[:units])


def sweep_bound(seed, units):
    """Probe-engine-dominated units: full-range scans and the per-op SGX path.

    A cycle of 12 units: six full-range module scans, three user-space
    code scans, one application fingerprint, one supervised module scan
    under the default chaos profile and one SGX enclave scan (per-op
    probes, no ``probe_sweep`` call).
    """
    rng = random.Random("sweep-bound:{}".format(seed))
    modules = _rotation(MODULE_CPUS)
    user = _rotation(INTEL_CPUS)
    finger = _rotation(MODULE_CPUS)
    apps = _rotation(APPS)
    chaos = _rotation(CHAOS_CPUS)
    sgx = _rotation(SGX_CPUS)
    cycle = []
    while len(cycle) < units:
        for __ in range(6):
            cycle.append((_linux(modules()), {"kind": "modules"}))
        for __ in range(3):
            cycle.append((_linux(user()), {"kind": "user-scan"}))
        cycle.append((_linux(finger()), {"kind": "fingerprint",
                                         "app": apps(), "intervals": 20}))
        cycle.append((_linux(chaos(), chaos="default"),
                      {"kind": "supervised", "attack": "modules"}))
        cycle.append(({"os": "linux", "cpu": sgx()}, {"kind": "sgx"}))
    return _finish(rng, "sweep", cycle[:units])


def arrivals(seed, tag, rate, duration_s):
    """Poisson arrival offsets (s) at ``rate`` per second over ``duration_s``.

    The count is fixed at ``rate * duration_s`` and the offsets are
    uniform given it -- a Poisson process conditioned on its count -- so
    that every seed offers the same load.  ``tag`` names the phase, so
    each phase of one seed draws its own schedule.
    """
    rng = random.Random("arrivals:{}:{}".format(seed, tag))
    return sorted(rng.uniform(0.0, duration_s)
                  for __ in range(round(rate * duration_s)))
