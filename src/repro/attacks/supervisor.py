"""Adaptive attack supervision: retries, re-probing, confidence, verdicts.

The raw attacks are open-loop: one calibration, one sweep, a bare result.
On a lab-quiet machine that is enough; under the disturbance runtime
(:mod:`repro.chaos`) it is not -- a DVFS step between calibration and
sweep silently mis-classifies every slot, a mid-scan re-randomization
makes the whole sweep describe a layout that no longer exists.

The :class:`AttackSupervisor` closes the loop around every attack:

* **calibration sanity check** -- a fresh calibration is rejected (and
  retried) when its spread or location is implausible
  (:class:`~repro.errors.CalibrationError`);
* **drift detection** -- after probing, the calibration page is
  re-measured; if the store mode moved (a frequency transition landed
  mid-attack), the attempt is discarded and re-run with a fresh
  calibration;
* **repair** -- holes in the mapped run, slots whose timing sits within
  a margin of the decision threshold, and the run's leading edge are
  re-measured per-op with doubled rounds before classification is
  final;
* **re-randomization aborts** -- if the chaos log shows the kernel moved
  mid-attempt, the attempt raises
  :class:`~repro.errors.DisturbanceAbort` and is retried;
* **budgets + backoff** -- a probe budget and a time budget bound the
  total work (:class:`~repro.errors.ProbeBudgetExceeded`); retries back
  off exponentially in simulated time, letting transients pass;
* **verdicts** -- every run returns a :class:`Verdict`
  (``found`` / ``abstain`` / ``failed``) with a confidence score, the
  retry count, per-attempt records, and the disturbance log -- never an
  unhandled disturbance exception.

All supervisor-side measurements (drift checks, canaries, re-probes)
run through the scalar per-op path whatever the core's ``sweep_engine``,
so the supervised control flow advances the simulated clock identically
under every engine and the chaos schedule stays engine-agnostic.
"""

from repro.attacks import kaslr_break
from repro.attacks.calibrate import calibrate_store_threshold, robust_stats
from repro.attacks.kpti_break import trampoline_offset_of
from repro.attacks.module_detect import decode_modules, module_candidates
from repro.attacks.primitives import double_probe_load
from repro.errors import (
    AttackError,
    CalibrationError,
    DisturbanceAbort,
    ProbeBudgetExceeded,
)
from repro.os.linux import layout

#: verdict statuses
FOUND = "found"
ABSTAIN = "abstain"
FAILED = "failed"

#: confidence at or above which a non-None value is reported as FOUND
FOUND_CONFIDENCE = 0.5

#: attacks whose attempt below FOUND_CONFIDENCE ends the run at once:
#: the modules decode scores how many /proc/modules entries it resolved,
#: not whether they sit where it reports them, so under chaos a retry
#: turns an abstention into a confident misplaced map
NO_LOW_CONFIDENCE_RETRY = frozenset({"modules"})

#: base simulated-cycle pause before a retry (doubles per retry)
BACKOFF_BASE_CYCLES = 40_000

#: re-probes of one scan chunk whose canaries disagree before the
#: attempt is rejected
MAX_CHUNK_RETRIES = 2

#: |timing - threshold| at or below this marks a slot ambiguous
AMBIGUITY_MARGIN_CYCLES = 6.0

#: absolute drift (cycles) always tolerated between calibration and
#: post-attack re-measurement, on top of the sigma-scaled slack
DRIFT_SLACK_CYCLES = 10.0

#: application the fingerprint attack identifies unless told otherwise
FINGERPRINT_WORKLOAD = "video-call"

#: confidence multiplier applied when a verdict is degraded instead of
#: dropped (deadline exhaustion, late completion under a campaign)
DEGRADE_FACTOR = 0.5


def apply_degradation(status, confidence, factor=DEGRADE_FACTOR):
    """The degradation rule shared by verdicts and scenario results.

    A budget- or deadline-compromised outcome keeps its value but loses
    trust: the confidence is scaled down by ``factor`` and a ``found``
    status that no longer clears the reporting bar becomes ``abstain``.
    Returns the downgraded ``(status, confidence)``.
    """
    confidence = confidence * factor
    if status == FOUND and confidence < FOUND_CONFIDENCE:
        status = ABSTAIN
    return status, confidence


class AttemptRecord:
    """What happened during one supervised attempt."""

    __slots__ = ("index", "outcome", "detail", "disturbances")

    def __init__(self, index, outcome, detail="", disturbances=0):
        self.index = index
        #: "ok" (completed; the verdict says whether it cleared the
        #: reporting bar), "low-confidence" (completed below the bar and
        #: retried), "calibration-rejected", "drift", "rerandomized",
        #: "budget-exceeded" or "error"
        self.outcome = outcome
        self.detail = detail
        self.disturbances = disturbances

    def as_dict(self):
        return {
            "index": self.index,
            "outcome": self.outcome,
            "detail": self.detail,
            "disturbances": self.disturbances,
        }


class Verdict:
    """Structured outcome of a supervised attack."""

    __slots__ = (
        "attack",
        "status",
        "value",
        "result",
        "confidence",
        "retries",
        "attempts",
        "disturbances",
        "probes_spent",
        "elapsed_ms",
        "degraded",
    )

    def __init__(self, attack, status, value, result, confidence, retries,
                 attempts, disturbances, probes_spent, elapsed_ms,
                 degraded=None):
        self.attack = attack
        self.status = status
        #: the attack's headline answer (kernel base, module dict, ...)
        self.value = value
        #: the raw attack result object of the reported attempt: the one
        #: that found, else the most confident one below the bar (or None)
        self.result = result
        self.confidence = confidence
        self.retries = retries
        self.attempts = attempts
        #: disturbance log covering the whole supervised run
        self.disturbances = disturbances
        self.probes_spent = probes_spent
        self.elapsed_ms = elapsed_ms
        #: degradation reason ("deadline", "budget", ...) or None
        self.degraded = degraded

    @property
    def found(self):
        return self.status == FOUND

    def as_dict(self):
        value = self.value
        if isinstance(value, int) and not isinstance(value, bool):
            value = hex(value)
        return {
            "attack": self.attack,
            "status": self.status,
            "value": value,
            "confidence": round(self.confidence, 4),
            "retries": self.retries,
            "attempts": [a.as_dict() for a in self.attempts],
            "disturbances": self.disturbances,
            "probes_spent": self.probes_spent,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "degraded": self.degraded,
        }

    def __repr__(self):
        return "Verdict({!r}, {}, confidence={:.2f}, retries={})".format(
            self.attack, self.status, self.confidence, self.retries
        )


class AttackSupervisor:
    """Run attacks with feedback, retries and structured verdicts."""

    def __init__(self, machine, max_retries=3, probe_budget=None,
                 time_budget_ms=None):
        self.machine = machine
        self.core = machine.core
        self.max_retries = max_retries
        self.probe_budget = probe_budget
        self.time_budget_ms = time_budget_ms
        self.probes_spent = 0
        self._start_cycles = None

    # -- bookkeeping ----------------------------------------------------------

    def charge_probes(self, count):
        """Account for ``count`` probes; raise once over budget."""
        self.probes_spent += count
        if self.probe_budget is not None \
                and self.probes_spent > self.probe_budget:
            raise ProbeBudgetExceeded(
                "probe budget of {} exhausted ({} spent)".format(
                    self.probe_budget, self.probes_spent
                ),
                probes_spent=self.probes_spent,
                elapsed_ms=self._elapsed_ms(),
            )

    def _elapsed_ms(self):
        if self._start_cycles is None:
            return 0.0
        return self.machine.clock.cycles_to_ms(
            self.machine.clock.elapsed_since(self._start_cycles)
        )

    def _check_time_budget(self):
        if self.time_budget_ms is not None \
                and self._elapsed_ms() > self.time_budget_ms:
            raise ProbeBudgetExceeded(
                "time budget of {} ms exhausted".format(self.time_budget_ms),
                probes_spent=self.probes_spent,
                elapsed_ms=self._elapsed_ms(),
            )

    # -- calibration with feedback --------------------------------------------

    def checked_calibration(self, samples=600):
        """Calibrate and sanity-check the decision boundary.

        The masked-store mode is analytically pinned (store base + TLB
        hit + A/D assist, all DVFS-scaled together), so a calibration
        whose spread is far beyond the noise floor, or whose mean sits
        outside any plausible frequency scaling of that mode, can only
        be a disturbed measurement -- reject it instead of classifying
        a whole sweep against it.
        """
        core = self.core
        cpu = self.machine.cpu
        with core.obs.span("calibrate", samples=samples) as span:
            calibration = calibrate_store_threshold(self.machine,
                                                    samples=samples)
            self.charge_probes(samples)
            std_ceiling = max(6.0 * core.noise.sigma,
                              core.timer_resolution, 12.0)
            expected = cpu.store_base + cpu.tlb_hit_l1 + cpu.assist_dirty
            lo = (cpu.measurement_overhead + 0.4 * expected
                  - core.timer_resolution)
            hi = cpu.measurement_overhead + 2.5 * expected
            span.set(mean=calibration.mean, std=calibration.std,
                     threshold=calibration.threshold)
            if calibration.std > std_ceiling:
                raise CalibrationError(
                    "calibration spread {:.1f} exceeds ceiling {:.1f}".format(
                        calibration.std, std_ceiling
                    )
                )
            if not lo <= calibration.mean <= hi:
                raise CalibrationError(
                    "calibration mean {:.1f} outside plausible range "
                    "[{:.1f}, {:.1f}]".format(calibration.mean, lo, hi)
                )
        return calibration

    def check_drift(self, calibration, samples=24):
        """Re-measure the calibration page; raise on a moved store mode.

        Runs per-op under every engine (identical clock cost).  A
        significant shift means the timing regime changed *after*
        calibration -- typically a DVFS transition -- so every
        classification made against the stale threshold is suspect.
        """
        core = self.core
        with core.obs.span("drift-check", samples=samples) as span:
            median = _canary(self, samples)
            slack = max(
                4.0 * max(calibration.std, 1.0) + DRIFT_SLACK_CYCLES,
                core.timer_resolution,
            )
            drift = abs(median - calibration.mean)
            span.set(drift=drift, slack=slack)
            if drift > slack:
                raise CalibrationError(
                    "store mode drifted {:.1f} cycles since calibration "
                    "(slack {:.1f})".format(drift, slack)
                )

    def _layout_generation(self):
        chaos = self.machine.chaos
        return chaos.layout_generation if chaos is not None else 0

    def _check_layout_stable(self, generation_before):
        if self._layout_generation() != generation_before:
            raise DisturbanceAbort(
                "kernel layout re-randomized mid-attempt; measurements "
                "describe a stale layout"
            )

    # -- the supervision loop -------------------------------------------------

    def run(self, attack, **kwargs):
        """Supervise one attack end to end; always returns a Verdict."""
        try:
            runner = _RUNNERS[attack]
        except KeyError:
            raise AttackError(
                "unknown attack {!r}; known: {}".format(
                    attack, ", ".join(sorted(_RUNNERS))
                )
            )
        chaos = self.machine.chaos
        obs = self.core.obs
        self._start_cycles = self.core.clock.cycles
        self.probes_spent = 0
        start_mark = chaos.mark() if chaos is not None else 0

        attempts = []
        value, result, confidence = None, None, 0.0
        #: the most confident completed attempt below the reporting bar
        best = None
        status = FAILED
        with obs.span("supervised-attack", attack=attack):
            for attempt in range(self.max_retries + 1):
                mark = chaos.mark() if chaos is not None else 0
                generation = self._layout_generation()
                value, result, confidence = None, None, 0.0
                with obs.span("attempt", index=attempt) as attempt_span:
                    try:
                        self._check_time_budget()
                        value, result, confidence = runner(self, **kwargs)
                        self._check_layout_stable(generation)
                    except (CalibrationError, DisturbanceAbort) as exc:
                        outcome = ("calibration-rejected"
                                   if isinstance(exc, CalibrationError)
                                   else "rerandomized")
                        attempts.append(self._record(
                            attempt, outcome, exc, chaos, mark
                        ))
                        attempt_span.set(outcome=outcome)
                        obs.event("retry", attempt=attempt, outcome=outcome,
                                  detail=str(exc))
                        if obs.enabled:
                            obs.metrics.inc("supervisor.retries")
                        self._backoff(attempt)
                        continue
                    except AttackError as exc:
                        outcome = ("budget-exceeded"
                                   if isinstance(exc, ProbeBudgetExceeded)
                                   else "error")
                        attempts.append(self._record(
                            attempt, outcome, exc, chaos, mark
                        ))
                        attempt_span.set(outcome=outcome)
                        # a budget or error break fails the run, whatever
                        # an earlier attempt completed below the bar
                        best = None
                        break
                    found = value is not None \
                        and confidence >= FOUND_CONFIDENCE
                    if not found and (best is None or confidence > best[2]):
                        best = (value, result, confidence)
                    if found or attempt == self.max_retries \
                            or attack in NO_LOW_CONFIDENCE_RETRY:
                        attempts.append(self._record(
                            attempt, "ok", "", chaos, mark
                        ))
                        attempt_span.set(outcome="ok")
                        if found:
                            status = FOUND
                        break
                    # completed below the bar: a fresh attempt may see a
                    # quieter machine, so retry while retries remain
                    attempts.append(self._record(
                        attempt, "low-confidence",
                        "confidence {:.2f}".format(confidence), chaos, mark
                    ))
                    attempt_span.set(outcome="low-confidence")
                    obs.event("retry", attempt=attempt,
                              outcome="low-confidence",
                              detail=attempts[-1].detail)
                    if obs.enabled:
                        obs.metrics.inc("supervisor.retries")
                    self._backoff(attempt)
        if status != FOUND and best is not None:
            status = ABSTAIN
            value, result, confidence = best

        retries = max(0, len(attempts) - 1)
        disturbances = (
            [e.as_dict() for e in chaos.events_since(start_mark)]
            if chaos is not None else []
        )
        verdict = Verdict(
            attack=attack,
            status=status,
            value=value,
            result=result,
            confidence=confidence if status != FAILED else 0.0,
            retries=retries,
            attempts=attempts,
            disturbances=disturbances,
            probes_spent=self.probes_spent,
            elapsed_ms=self._elapsed_ms(),
        )
        if obs.enabled:
            obs.event(
                "verdict", attack=attack, status=verdict.status,
                value=verdict.as_dict()["value"],
                confidence=round(verdict.confidence, 4),
                retries=verdict.retries,
                probes_spent=verdict.probes_spent,
            )
        return verdict

    def _record(self, index, outcome, detail, chaos, mark):
        count = len(chaos.events_since(mark)) if chaos is not None else 0
        return AttemptRecord(index, outcome, str(detail), count)

    def _backoff(self, attempt):
        """Exponential simulated-time pause before the next attempt."""
        self.core.clock.advance(BACKOFF_BASE_CYCLES * (2 ** attempt))


# -- per-attack runners --------------------------------------------------------
#
# Each runner performs one *checked* attempt: calibrate (with sanity
# checks), run the raw attack under canary supervision, re-probe
# ambiguity, and return (value, raw_result, confidence).  The Linux
# slot scans take their candidates and decode from the drivers and own
# only the scan and repair between them.  Disturbance-triggered
# problems surface as CalibrationError / DisturbanceAbort, which the
# supervision loop converts into retries.


def _canary(sup, samples=16):
    """Quick re-measurement of the calibration store mode (per-op).

    The masked-store mode on the attacker's clean page scales with
    frequency exactly like the kernel-mapped-load mode does (the paper's
    calibration identity), so a handful of stores pins the *current*
    timing regime cheaply -- the anchor the chunked scan re-derives its
    threshold from.
    """
    core = sup.core
    core.chaos_poll()
    page = sup.machine.playground.user_rw
    values = [core.timed_masked_store(page) for _ in range(samples)]
    sup.charge_probes(samples)
    median, __, __ = robust_stats(values)
    return median


def _canary_slack(sup, calibration):
    return max(
        4.0 * max(calibration.std, 1.0) + 4.0,
        float(sup.core.timer_resolution),
    )


def supervised_scan(sup, vas, rounds, calibration, take_min=False,
                    chunk_size=64):
    """Threshold scan with per-chunk canary tracking.

    Probes ``vas`` in chunks.  Before/after each chunk the canary pins
    the current store mode; a chunk whose canaries disagree (a DVFS
    transition or migration landed inside it) is re-probed under the
    settled regime -- up to ``MAX_CHUNK_RETRIES`` times, after which the
    attempt is rejected with :class:`CalibrationError`.  Each timing is
    classified against a threshold re-anchored to its chunk's canary,
    which makes the scan immune to *between*-chunk regime changes
    entirely.

    Returns ``(timings, thresholds)`` (both per-VA lists).
    """
    core = sup.core
    obs = core.obs
    offset = calibration.threshold - calibration.mean
    slack = _canary_slack(sup, calibration)
    timings = []
    thresholds = []
    pre = _canary(sup)
    with obs.span("scan", vas=len(vas), rounds=rounds,
                  chunk_size=chunk_size):
        for start in range(0, len(vas), chunk_size):
            chunk = vas[start : start + chunk_size]
            index = start // chunk_size
            with obs.span("chunk", index=index, size=len(chunk)) as span:
                for attempt in range(MAX_CHUNK_RETRIES + 1):
                    sup.charge_probes(len(chunk) * rounds)
                    chunk_t = list(core.probe_sweep(
                        chunk, rounds=rounds, op="load",
                        reduce="min" if take_min else "mean",
                    ))
                    post = _canary(sup)
                    if abs(post - pre) <= slack:
                        break
                    # the regime moved during this chunk: its timings mix
                    # two regimes; settle on the new one and probe again
                    obs.event("chunk-regime-shift", chunk=index,
                              attempt=attempt, pre=pre, post=post)
                    if obs.enabled:
                        obs.metrics.inc("supervisor.chunk_retries")
                    pre = post
                else:
                    raise CalibrationError(
                        "store mode kept moving during the scan "
                        "(chunk at index {})".format(start)
                    )
                anchor = (pre + post) / 2.0
                span.set(attempts=attempt + 1)
                obs.event("threshold-reanchor", chunk=index, anchor=anchor,
                          threshold=anchor + offset)
                if obs.enabled:
                    obs.metrics.inc("supervisor.chunks")
                timings.extend(chunk_t)
                thresholds.extend([anchor + offset] * len(chunk))
                pre = post
    return timings, thresholds


def _bitmap_confidence(mapped_slots, expected_len):
    """Confidence of a threshold scan from the shape of its positives.

    A clean break is one contiguous run of the expected length starting
    at the recovered base.  Coverage inside that window and purity
    against stray positives elsewhere both scale the score.
    """
    if not mapped_slots:
        return 0.0
    first = mapped_slots[0]
    in_window = sum(
        1 for s in mapped_slots if first <= s < first + expected_len
    )
    coverage = in_window / expected_len
    purity = in_window / len(mapped_slots)
    return max(0.0, min(1.0, coverage * (0.3 + 0.7 * purity)))


def _run_kaslr(sup, rounds=None, variant=None):
    """KASLR base recovery (Intel P2 / AMD P3 / KPTI trampoline)."""
    machine = sup.machine
    if rounds is None:
        rounds = machine.cpu.rounds_default
    if variant is None:
        variant = kaslr_break.kaslr_variant(machine)

    if variant == "amd":
        result = kaslr_break.break_kaslr_amd(machine, rounds=rounds)
        sup.charge_probes(len(kaslr_break.amd_candidates()) * rounds)
        votes = result.timings
        if result.base is None:
            return None, result, 0.0
        ranked = sorted(votes, reverse=True)
        margin = (ranked[0] - ranked[1]) if len(ranked) > 1 else ranked[0]
        confidence = min(1.0, ranked[0] / len(layout.KERNEL_4K_PAGE_OFFSETS)) \
            * (0.5 + 0.5 * min(1.0, margin / 2.0))
        return result.base, result, confidence

    core = sup.core
    total_start = core.clock.cycles
    core.run_setup()
    calibration = sup.checked_calibration()
    expected_len = 1 if variant == "kpti" \
        else layout.KERNEL_IMAGE_2M_PAGES

    vas = kaslr_break.slot_candidates()
    probe_start = core.clock.cycles
    timings, thresholds = supervised_scan(sup, vas, rounds, calibration)
    probing_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(probe_start)
    )
    mapped_bits = [t <= thr for t, thr in zip(timings, thresholds)]

    # outlier rejection: an interrupt spike can only *add* cycles, so it
    # punches unmapped-looking holes into (or truncates the edges of)
    # the true mapped run.  Re-probe suspects per-op with escalated
    # rounds + min-filter against a freshly anchored threshold.
    obs = core.obs
    with obs.span("repair"):
        offset = calibration.threshold - calibration.mean
        thr_now = _canary(sup) + offset

        def reprobe(slot, why):
            sup.charge_probes(rounds * 2)
            timing = double_probe_load(
                core, vas[slot], rounds * 2, take_min=True
            )
            timings[slot] = timing
            if obs.enabled:
                obs.metrics.inc("supervisor.reprobes")
                obs.event("reprobe", slot=slot, why=why, timing=timing,
                          threshold=thr_now)
            return timing <= thr_now

        for slot in range(1, len(vas) - 1):
            if not mapped_bits[slot] and mapped_bits[slot - 1] \
                    and mapped_bits[slot + 1]:
                mapped_bits[slot] = reprobe(slot, "hole")
        # ambiguity: anything within the margin of its decision threshold
        for slot, (t, thr) in enumerate(zip(timings, thresholds)):
            if abs(t - thr) <= AMBIGUITY_MARGIN_CYCLES:
                mapped_bits[slot] = reprobe(slot, "ambiguous")

        mapped = [s for s, bit in enumerate(mapped_bits) if bit]
        # edge repair: extend the leading run downward while the slot
        # just before it re-probes mapped (a spike on the true first slot
        # would otherwise shift the recovered base)
        extensions = 0
        while mapped and mapped[0] > 0 and extensions < 4:
            if not reprobe(mapped[0] - 1, "edge"):
                break
            mapped.insert(0, mapped[0] - 1)
            extensions += 1

    base, slot = kaslr_break.decode_slots(
        mapped,
        trampoline_offset_of(machine.kernel) if variant == "kpti" else None,
    )
    total_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(total_start)
    )
    result = kaslr_break.KaslrBreakResult(
        base, slot, timings, calibration.threshold, probing_ms, total_ms,
        mapped, method="supervised-" + variant,
    )
    confidence = _bitmap_confidence(mapped, expected_len)
    return base, result, confidence


def _run_modules(sup, rounds=None, max_slots=layout.MODULE_SLOTS):
    """Module detection + size identification (canary-tracked scan)."""
    machine = sup.machine
    core = sup.core
    if rounds is None:
        rounds = machine.cpu.rounds_default

    total_start = core.clock.cycles
    core.run_setup()
    calibration = sup.checked_calibration()

    vas = module_candidates(max_slots)
    probe_start = core.clock.cycles
    # min-filtered, as in the raw attack: a spike must not split a module
    timings, thresholds = supervised_scan(
        sup, vas, rounds, calibration, take_min=True, chunk_size=256
    )
    probing_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(probe_start)
    )
    mapped_flags = [t <= thr for t, thr in zip(timings, thresholds)]
    total_ms = core.clock.cycles_to_ms(
        core.clock.elapsed_since(total_start)
    )
    proc_modules = machine.kernel.proc_modules()
    result = decode_modules(mapped_flags, proc_modules, probing_ms, total_ms,
                            calibration.threshold)

    total = len(proc_modules)
    if total == 0:
        return {}, result, 1.0
    resolved = len(result.identified) + 0.5 * sum(
        1 for region in result.ambiguous if region.candidates
    )
    confidence = max(0.0, min(1.0, resolved / total))
    if not result.identified:
        return None, result, 0.0
    return dict(result.identified), result, confidence


def _run_windows(sup, rounds=None):
    """Windows 18-bit region scan."""
    from repro.attacks.windows_break import find_kernel_region
    from repro.os.windows.kernel import layout as win_layout

    machine = sup.machine
    if machine.os_family != "windows":
        raise AttackError("the windows attack needs a Windows machine")
    if rounds is None:
        rounds = machine.cpu.rounds_default
    calibration = sup.checked_calibration()
    result = find_kernel_region(machine, rounds=rounds,
                                calibration=calibration)
    sup.charge_probes(result.simulated_probes * rounds)
    sup.check_drift(calibration)
    if result.base is None:
        return None, result, 0.0
    run_len = len(result.region_slots)
    confidence = min(1.0, run_len / win_layout.KERNEL_IMAGE_2M_PAGES)
    return result.base, result, confidence


def _run_userspace(sup, rounds=2):
    """User-space code-base scan (single-probe load pass)."""
    from repro.attacks.userspace import find_user_code_base

    machine = sup.machine
    if machine.process is None:
        raise AttackError("the userspace attack needs a Linux process")
    result = find_user_code_base(machine, rounds=rounds)
    sup.charge_probes(result.simulated_probes)
    if result.base is None:
        return None, result, 0.0
    return result.base, result, _runs_confidence(result.mapped_runs)


def _runs_confidence(mapped_runs):
    """Confidence in a user-space load pass, judged by its mapped runs.

    A believable scan shows few, compact mapped runs; a regime change
    mid-scan sprays spurious runs across the sampled region.
    """
    runs = len(mapped_runs)
    return 0.9 if runs <= 8 else max(0.2, 0.9 - 0.05 * (runs - 8))


def _run_cloud(sup, detect_kernel_modules=True):
    """Per-provider cloud audit (base break + module detection)."""
    from repro.attacks.cloud_break import audit_cloud

    machine = sup.machine
    if machine.instance is None:
        raise AttackError(
            "the cloud attack needs a machine built by Machine.cloud()"
        )
    generation = sup._layout_generation()
    result = audit_cloud(
        machine.instance.provider, machine=machine,
        detect_kernel_modules=detect_kernel_modules)
    sup.charge_probes(result.simulated_probes)
    sup._check_layout_stable(generation)
    if result.base is None:
        return None, result, 0.0
    confidence = 0.85
    if result.modules_identified:
        confidence = min(1.0, confidence + 0.05 * result.modules_identified)
    return result.base, result, confidence


def _run_sgx(sup, rounds=2, identify=True):
    """In-enclave host-process derandomization."""
    from repro.attacks.sgx_break import break_aslr_from_enclave

    machine = sup.machine
    if machine.enclave is None:
        machine.create_enclave()
    result = break_aslr_from_enclave(machine, rounds=rounds,
                                     identify=identify)
    sup.charge_probes(result.simulated_probes)
    if result.code_base is None:
        return None, result, 0.0
    # the code base comes from the load pass: judge it as the user-space
    # attack judges its own, by how many mapped runs that pass saw
    confidence = _runs_confidence(result.load_runs)
    if identify and result.libraries is not None \
            and result.libraries.matches:
        confidence = min(1.0, confidence
                         + 0.05 * len(result.libraries.matches))
    return result.code_base, result, confidence


def _run_fingerprint(sup, workload=FINGERPRINT_WORKLOAD, intervals=24,
                     profiles=None):
    """Application fingerprinting over sentinel-module TLB states."""
    from repro.attacks.fingerprint import ApplicationFingerprinter
    from repro.workloads.apps import APP_CATALOG, ApplicationWorkload

    machine = sup.machine
    if profiles is None:
        profiles = list(APP_CATALOG.values())
    else:
        profiles = [
            APP_CATALOG[p] if isinstance(p, str) else p for p in profiles
        ]
    if isinstance(workload, str):
        workload = ApplicationWorkload(
            workload, seed=int(machine.rng.integers(1 << 31))
        )
    # locate the sentinels through the canary-tracked module scan -- the
    # raw detect_modules inside the spy would misattribute sizes under a
    # mid-scan regime change
    from repro.workloads.apps import SENTINEL_MODULES

    addresses, __, __ = _run_modules(sup)
    if not addresses:
        raise CalibrationError("module scan identified nothing this attempt")
    missing = [s for s in SENTINEL_MODULES if s not in addresses]
    if missing:
        raise CalibrationError(
            "sentinels not identifiable this attempt: {}".format(
                ", ".join(missing)
            )
        )
    spy = ApplicationFingerprinter(
        machine, module_addresses={s: addresses[s] for s in SENTINEL_MODULES},
    )
    guess, observation, ranking = spy.identify(
        workload, profiles, intervals=intervals
    )
    sup.charge_probes(intervals * len(spy.sentinels))
    if len(ranking) > 1:
        best, runner_up = ranking[0][1], ranking[1][1]
        spread = runner_up - best
        confidence = max(0.0, min(1.0, spread / (runner_up + 1e-9)))
    else:
        confidence = 1.0
    return guess, (observation, ranking), confidence


_RUNNERS = {
    "kaslr": _run_kaslr,
    "kpti": lambda sup, **kw: _run_kaslr(sup, variant="kpti", **kw),
    "modules": _run_modules,
    "windows": _run_windows,
    "userspace": _run_userspace,
    "cloud": _run_cloud,
    "sgx": _run_sgx,
    "fingerprint": _run_fingerprint,
}

#: the attacks the supervisor knows how to wrap
SUPERVISED_ATTACKS = tuple(sorted(_RUNNERS))


def supervised_truth(machine, attack, **kwargs):
    """The ground truth a supervised ``attack`` on ``machine`` recovers.

    ``kwargs`` are the attack's runner arguments (the fingerprinted
    ``workload``).  The answer is a kernel or process base, the true
    module load addresses by name, or the running application's name.
    """
    if attack in ("kaslr", "kpti", "windows", "cloud"):
        return machine.kernel.base
    if attack in ("userspace", "sgx"):
        return machine.process.text_base
    if attack == "modules":
        return {name: start
                for name, (start, __) in machine.kernel.module_map.items()}
    if attack == "fingerprint":
        workload = kwargs.get("workload", FINGERPRINT_WORKLOAD)
        return workload if isinstance(workload, str) \
            else workload.profile.name
    raise AttackError("no ground truth for attack {!r}".format(attack))


def verdict_correct(verdict, truth):
    """Whether ``verdict`` recovered ``truth`` (:func:`supervised_truth`).

    A module verdict is correct when it identified some module and every
    address it reports is that module's true load address.
    """
    if isinstance(truth, dict):
        return bool(verdict.value) and all(
            truth.get(name) == address
            for name, address in verdict.value.items()
        )
    return verdict.value == truth


def supervise(machine, attack, max_retries=3, probe_budget=None,
              time_budget_ms=None, **kwargs):
    """One-call convenience: build a supervisor and run one attack."""
    supervisor = AttackSupervisor(
        machine, max_retries=max_retries, probe_budget=probe_budget,
        time_budget_ms=time_budget_ms,
    )
    return supervisor.run(attack, **kwargs)
