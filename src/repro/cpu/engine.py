"""Sweep execution: the per-op reference loop and the batched row loop.

Every paper experiment is a probe *sweep* -- the same masked op repeated
``rounds`` times over each address of a long scan range.
:meth:`repro.cpu.core.Core.probe_sweep` is the one entry point; this
module holds the building blocks its engines share.

:func:`per_op_sweep` is the reference: it executes every probe as an
isolated simulated op, exactly like the hand-written double/single
probe loops of the paper.  It is the oracle.

:func:`sweep_rows` is the batched row loop.  It exploits the
simulator's own steady-state property to skip almost all ops:

* the **first** access to a VA changes microarchitectural state (TLB
  fill or LRU refresh, PSC fill, paging lines turning hot) and has a
  distinct latency;
* the **second** access runs against the settled state, and every access
  after it is *idempotent*: identical cycles, identical performance-
  counter deltas, no further state change.

So the row loop executes at most two reference ops per VA through the
bit-exact per-op path, then accounts for the skipped repetitions in
closed form:

* the simulated clock advances by exactly the cycles the per-op path
  would have charged (first + steady x (ops - 1) plus the per-measurement
  RDTSC/loop overhead),
* performance counters (and the walker's ``completed_walks``) replay the
  steady op's delta once per skipped op, so counter reads are *equal* to
  the per-op path's,
* measurement noise comes from the canonical kernel in
  :mod:`repro.cpu.noise`: one vectorized call for a quiet sweep, one
  kernel-equivalent row of :meth:`~repro.cpu.noise.NoiseModel.sample_rows`
  per VA under chaos (same distribution as the scalar path; the RNG
  stream is consumed in a different order, so individual noise values
  -- but not their statistics or the classification outcomes -- differ
  from the per-op path).

The columnar engine (:mod:`repro.cpu.columnar`) executes eligible row
ranges as array passes and hands the rest to ``sweep_rows``; both write
one :class:`SweepState` and share one :func:`finalize_sweep` (the
vectorized noise/coarsening/reduce tail), which is what keeps the
batched and columnar engines bit-identical on the measured matrix.  The
batched engine is the columnar engine with every row forced onto
``sweep_rows``.
"""

import numpy as np

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags

_USER = int(PageFlags.USER)
_PAGE_SUFFIX = {PAGE_SIZE: "4k", PAGE_SIZE_2M: "2m", PAGE_SIZE_1G: "1g"}


def observe_probe_cycles(metrics, page_size, user, cycles):
    """Record one probed VA's steady ``cycles`` under its page class:
    mapping kind plus page size, or ``unmapped`` without a ``page_size``.

    The per-page-class split is what makes the forensics report useful:
    a misclassification shows up as probe cycles landing in the wrong
    class's distribution.
    """
    label = "unmapped" if not page_size else "{}-{}".format(
        "user" if user else "kernel", _PAGE_SUFFIX.get(page_size, "other"))
    metrics.observe("engine.probe_cycles." + label, cycles)


class SweepState:
    """Per-row observation state accumulated while a sweep executes.

    ``first``/``steady`` hold each VA's first-access and steady-state true
    cycle counts.  Under an active chaos runtime, noise / spike / timer
    resolution become per-row state captured at each VA's poll boundary
    (``noise``, ``spike_col``, ``resolution``): the row loop draws each
    row's noise with :meth:`~repro.cpu.noise.NoiseModel.sample_rows`
    after its poll, a columnar window draws all of its rows in one such
    call, and both consume the generator exactly as one kernel call per
    row would.  On a quiet machine they stay None and
    :func:`finalize_sweep` draws one vectorized noise block instead.
    Both the row loop (:func:`sweep_rows`) and the columnar engine write
    into the same state object, so a sweep can mix vectorized and per-op
    row ranges without changing its output.
    """

    __slots__ = ("n", "rounds", "chaos", "first", "steady", "noise",
                 "spike_col", "resolution")

    def __init__(self, n, rounds, chaos):
        self.n = n
        self.rounds = rounds
        self.chaos = chaos
        self.first = np.empty(n, dtype=np.int64)
        self.steady = np.empty(n, dtype=np.int64)
        if chaos is not None:
            self.noise = np.empty((n, rounds), dtype=np.int64)
            self.spike_col = np.zeros(n, dtype=np.int64)
            self.resolution = np.ones(n, dtype=np.int64)
        else:
            self.noise = None
            self.spike_col = None
            self.resolution = None


def sweep_rows(core, vas, rounds, op, warm, state, lo, hi):
    """Execute sweep rows ``vas[lo:hi]`` through the per-op reference path.

    This is the engine's row loop: at most two reference ops per VA plus
    the closed-form replay of the skipped repetitions.  Results land in
    ``state.first``/``state.steady`` (and the chaos per-row arrays) at
    rows ``lo..hi``; the clock, performance counters, walker and TLB are
    advanced exactly as the per-op path would.
    """
    obs = core.obs
    execute = core.masked_load if op == "load" else core.masked_store
    cpu = core.cpu
    ops_per_va = 2 * rounds if warm else rounds
    # per-measurement RDTSC + loop overhead, charged per VA inside the
    # loop (not at sweep end) so the mid-sweep clock agrees with the
    # per-op path at every chaos poll boundary
    per_va_overhead = rounds * (cpu.measurement_overhead
                                + cpu.loop_overhead)
    chaos = state.chaos
    first = state.first
    steady = state.steady

    for i in range(lo, hi):
        va = vas[i]
        if chaos is not None:
            core.chaos_poll()
            state.spike_col[i] = core.pending_spike_cycles
            core.pending_spike_cycles = 0
            state.resolution[i] = core.timer_resolution
            state.noise[i:i + 1] = core.noise.sample_rows(core.rng, 1, rounds)
        result = execute(va)
        first[i] = result.cycles
        if ops_per_va == 1:
            steady[i] = result.cycles
        else:
            skipped = ops_per_va - 2
            if not skipped:
                steady[i] = execute(va).cycles
            else:
                snap = core.perf.snapshot()
                walks_before = core.walker.completed_walks
                result = execute(va)
                steady[i] = result.cycles

                delta = core.perf.delta_since(snap)
                for event, count in delta.items():
                    if count:
                        core.perf.increment(event, count * skipped)
                walk_delta = core.walker.completed_walks - walks_before
                if walk_delta:
                    core.walker.completed_walks += walk_delta * skipped
                core.clock.advance(int(result.cycles) * skipped)

        # each of this VA's ``rounds`` timed measurements charges the
        # RDTSC + loop overhead the per-op _observe() path would have
        core.clock.advance(per_va_overhead)
        if obs.enabled:
            translation = core.address_space.page_table.lookup(va).translation
            observe_probe_cycles(
                obs.metrics, translation and translation.page_size,
                translation and translation.flags & _USER, int(steady[i]),
            )


def finalize_sweep(core, state, warm, reduce):
    """Turn accumulated sweep state into the measured/reduced matrix.

    Quiet sweeps draw their noise here in one vectorized call; chaos
    sweeps already carry per-row noise/spike/resolution in ``state``.
    """
    rounds = state.rounds
    timed = np.repeat(state.steady[:, None], rounds, axis=1)
    if not warm:
        timed[:, 0] = state.first
    if state.chaos is None:
        noise = core.noise.sample_array(
            core.rng, (state.n, rounds)
        ).astype(np.int64)
    else:
        noise = state.noise
    measured = timed + core.cpu.measurement_overhead + noise
    if state.chaos is not None:
        measured[:, 0] += state.spike_col
        measured -= measured % state.resolution[:, None]
    elif core.timer_resolution > 1:
        measured -= measured % core.timer_resolution

    return reduce_measured(measured, reduce)


def reduce_measured(measured, reduce):
    """Collapse a ``(n, rounds)`` observation matrix per ``reduce``."""
    if reduce == "mean":
        return measured.mean(axis=1)
    if reduce == "min":
        return measured.min(axis=1)
    return measured


def validate_sweep_args(op, reduce, rounds):
    """Shared argument validation for every sweep engine."""
    if op not in ("load", "store"):
        raise ValueError("op must be 'load' or 'store', not {!r}".format(op))
    if reduce not in ("mean", "min", None):
        raise ValueError("reduce must be 'mean', 'min' or None")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")


def per_op_sweep(core, vas, rounds, op, warm, reduce):
    """The per-op reference engine: every probe is one simulated op.

    Per VA: one chaos poll, then ``rounds`` x (an untimed warming op if
    ``warm``, then a timed op) -- the paper's double probe
    (:func:`repro.attacks.primitives.double_probe_load`) or bare single
    probes, with no closed-form replay.  Values, clock, counters, RNG
    stream and chaos schedule equal those of looping the primitives
    directly; this is the oracle the batched and columnar engines are
    checked against.
    """
    if op == "load":
        warm_op, timed_op = core.masked_load, core.timed_masked_load
    else:
        warm_op, timed_op = core.masked_store, core.timed_masked_store
    rows = []
    for va in vas:
        core.chaos_poll()
        row = []
        for _ in range(rounds):
            if warm:
                warm_op(va)
            row.append(timed_op(va))
        rows.append(row)
    return reduce_measured(np.array(rows, dtype=np.int64), reduce)


class SweepReport:
    """How the last :meth:`repro.cpu.core.Core.probe_sweep` executed.

    Recorded as ``core.last_sweep``.  ``engine`` is the executor that
    ran: ``"per-op"``, ``"batched"`` (the row loop over the whole sweep)
    or ``"columnar"`` (array windows; windows the compiler could not
    prove safe count as ``fallback_rows``).  ``reason`` says why a
    sweep ran whole on the row loop: ``"forced"`` (the core's
    ``sweep_engine`` is ``"batched"``), ``"short-sweep"`` (automatic
    selection below the columnar floor) or a whole-sweep condition such
    as ``"zero-mask-nop"``; for a columnar sweep it names the first
    window the compiler rejected (such as ``"tlb-set-overflow"`` or
    ``"page-span"``), None if none was.
    """

    __slots__ = ("engine", "columnar_rows", "fallback_rows", "windows",
                 "reason")

    def __init__(self, engine, columnar_rows=0, fallback_rows=0, windows=0,
                 reason=None):
        self.engine = engine
        self.columnar_rows = columnar_rows
        self.fallback_rows = fallback_rows
        self.windows = windows
        self.reason = reason
