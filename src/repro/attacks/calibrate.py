"""Threshold calibration (paper Section IV-B).

The attack needs a decision boundary between "mapped" and "unmapped"
probe timings without ever having seen a kernel page.  The paper's
observation: *the masked store on a user-mapped page whose dirty bit is
clear costs the same as the masked load on a kernel-mapped page* (both
take one microcode assist plus a TLB hit).  So the attacker measures that
store on its own freshly mmap'd page and derives the threshold from the
resulting distribution.
"""

import math

#: the store threshold sits this many noise sigmas above the calibrated
#: mean, plus a fixed cycle margin
SLACK_SIGMAS = 3.0
SLACK_CYCLES = 2.0


class ThresholdCalibration:
    """Result of the self-calibration step."""

    __slots__ = ("mean", "std", "threshold", "samples")

    def __init__(self, mean, std, threshold, samples):
        self.mean = mean
        self.std = std
        self.threshold = threshold
        self.samples = samples

    def classify_mapped(self, measured):
        """True if a (second-access) probe timing indicates a mapped page."""
        return measured <= self.threshold

    def __repr__(self):
        return "ThresholdCalibration(mean={:.1f}, thr={:.1f})".format(
            self.mean, self.threshold
        )


def robust_stats(values):
    """Median and a spike-resistant std estimate (trimmed)."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    trimmed = ordered[: max(1, int(n * 0.95))]
    mean = sum(trimmed) / len(trimmed)
    var = sum((v - mean) ** 2 for v in trimmed) / max(1, len(trimmed) - 1)
    return median, mean, math.sqrt(var)


def calibrate_store_threshold(machine, samples=600):
    """Measure the masked store on the attacker's clean USER-M page.

    Returns a :class:`ThresholdCalibration` whose threshold sits a few
    noise sigmas above the measured mean -- i.e. between the kernel-mapped
    and kernel-unmapped timing modes.
    """
    values = list(machine.core.probe_sweep(
        [machine.playground.user_rw], rounds=samples, op="store",
        warm=False, reduce=None,
    )[0])
    __, mean, std = robust_stats(values)
    threshold = mean + SLACK_SIGMAS * max(std, 1.0) + SLACK_CYCLES
    return ThresholdCalibration(mean, std, threshold, samples)


def calibrate_user_load(machine, samples=200):
    """Baseline: masked load on USER-M (the no-assist fast path).

    Not used for classification; exposed because Figure 2 plots it and
    because tests pin it to the paper's 13-cycle figure.
    """
    core = machine.core
    page = machine.playground.user_rw
    core.chaos_poll()
    values = [core.timed_masked_load(page) for _ in range(samples)]
    __, mean, std = robust_stats(values)
    return ThresholdCalibration(mean, std, mean + 3 * std, samples)
