"""Application fingerprinting via kernel-module TLB states.

The extension the paper predicts at the end of Section IV-E: instead of
watching one module, the spy watches a *vector* of sentinel modules per
interval and matches the observed activity rates against per-application
templates.

Pipeline:

1. locate the sentinel modules by size (the Section IV-C attack),
2. per interval: evict, let the victim run, single-probe the first page
   of each sentinel -> a binary activity vector,
3. average vectors over the observation window -> an activity-rate
   signature,
4. classify against templates by nearest (Euclidean) signature.
"""

import math

from repro.attacks.module_detect import detect_modules
from repro.errors import AttackError
from repro.workloads.apps import SENTINEL_MODULES, ApplicationWorkload


class Observation:
    """One spy run: per-module activity rates over the window."""

    __slots__ = ("rates", "intervals")

    def __init__(self, rates, intervals):
        self.rates = dict(rates)
        self.intervals = intervals

    def distance(self, template):
        """Euclidean distance to a template rate vector."""
        keys = set(self.rates) | set(template)
        return math.sqrt(sum(
            (self.rates.get(k, 0.0) - template.get(k, 0.0)) ** 2
            for k in keys
        ))


class ApplicationFingerprinter:
    """TLB-state spy over a sentinel-module vector."""

    def __init__(self, machine, sentinels=SENTINEL_MODULES,
                 hit_threshold=None, module_addresses=None):
        self.machine = machine
        self.core = machine.core
        cpu = machine.cpu
        if hit_threshold is None:
            hit_threshold = (
                cpu.expected_kernel_mapped_load_tlb_hit()
                + cpu.measurement_overhead + 8
            )
        self.hit_threshold = hit_threshold

        if module_addresses is None:
            detection = detect_modules(machine)
            module_addresses = {}
            for name in sentinels:
                address = detection.address_of(name)
                if address is None:
                    raise AttackError(
                        "sentinel {!r} not identifiable by size".format(name)
                    )
                module_addresses[name] = address
        self.sentinels = {
            name: module_addresses[name] for name in sentinels
        }

    def observe(self, workload, intervals=30, interval_s=1.0):
        """Spy for ``intervals`` sampling windows; returns an Observation."""
        counts = {name: 0 for name in self.sentinels}
        interval_cycles = int(
            interval_s * self.machine.cpu.freq_ghz * 1e9
        )
        for _ in range(intervals):
            self.core.chaos_poll()
            self.core.evict_translation_caches()
            workload.deliver(self.machine, 0.0, interval_s)
            self.core.clock.advance(interval_cycles)
            for name, address in self.sentinels.items():
                measured = self.core.timed_masked_load(address)
                if measured <= self.hit_threshold:
                    counts[name] += 1
        rates = {
            name: count / intervals for name, count in counts.items()
        }
        return Observation(rates, intervals)

    def classify(self, observation, profiles):
        """Nearest-template match; returns (name, distance) ranking."""
        ranking = sorted(
            (
                (profile.name,
                 observation.distance(profile.module_rates))
                for profile in profiles
            ),
            key=lambda item: item[1],
        )
        return ranking

    def identify(self, workload, profiles, intervals=30):
        """Observe then classify; returns the best-matching app name."""
        observation = self.observe(workload, intervals)
        ranking = self.classify(observation, profiles)
        return ranking[0][0], observation, ranking


def fingerprint_confusion(machine_factory, app_names, trials=3,
                          intervals=24, seed0=0):
    """Confusion matrix over the app catalog.

    ``machine_factory(seed)`` builds a victim machine; each trial runs a
    fresh machine, fresh workload RNG, and one identification.
    """
    from repro.workloads.apps import APP_CATALOG

    profiles = [APP_CATALOG[name] for name in app_names]
    matrix = {truth: {guess: 0 for guess in app_names}
              for truth in app_names}
    seed = seed0
    for truth in app_names:
        for _ in range(trials):
            machine = machine_factory(seed)
            spy = ApplicationFingerprinter(machine)
            workload = ApplicationWorkload(truth, seed=seed + 7)
            guess, __, __ = spy.identify(workload, profiles, intervals)
            matrix[truth][guess] += 1
            seed += 1
    return matrix
