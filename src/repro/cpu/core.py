"""A simulated logical core: clock + MMU state + AVX unit + timers.

The :class:`Core` is what attack code drives.  It provides:

* raw masked-op execution (advancing the cycle clock),
* RDTSC-delimited *measurements* (adding measurement overhead and noise --
  what the attacker actually observes),
* translation-cache eviction (the paper's TLB attack needs it),
* privileged helpers that let the OS layer model kernel activity touching
  its own pages (syscalls, driver interrupts) so the TLB reflects it.
"""

import numpy as np

from repro.cpu.avx import ZERO_MASK, AVXUnit
from repro.cpu.clock import SimClock
from repro.cpu.noise import NoiseModel
from repro.cpu.perfcounters import PerfCounters
from repro.errors import ConfigError
from repro.mmu.psc import PagingLineCache, PagingStructureCache
from repro.mmu.tlb import TwoLevelTLB
from repro.mmu.walker import PageTableWalker, WalkTiming
from repro.obs.trace import NULL_TRACER

#: cycles charged for one full software eviction of the translation caches
EVICTION_COST_CYCLES = 4200

#: the executors :attr:`Core.sweep_engine` may name (None: automatic)
SWEEP_ENGINES = ("per-op", "batched", "columnar")


class Core:
    """One logical core bound to a CPU model."""

    def __init__(self, cpu, rng=None, seed=0):
        self.cpu = cpu
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self.clock = SimClock(cpu.freq_ghz)
        self.noise = NoiseModel(
            rng,
            sigma=cpu.noise_sigma,
            spike_prob=cpu.spike_prob,
            spike_cycles=cpu.spike_cycles,
        )
        self.perf = PerfCounters()
        self.tlb = TwoLevelTLB(
            l1_4k=cpu.tlb_l1_4k,
            l1_2m=cpu.tlb_l1_2m,
            l1_1g=cpu.tlb_l1_1g,
            stlb=cpu.stlb,
        )
        self.walker = PageTableWalker(
            timing=WalkTiming(
                base=cpu.walk_base,
                access_hot=cpu.walk_access_hot,
                access_cold=cpu.walk_access_cold,
                level_step=cpu.level_step_cycles,
            ),
            psc=PagingStructureCache(
                pml4e_entries=cpu.psc_pml4e,
                pdpte_entries=cpu.psc_pdpte,
                pde_entries=cpu.psc_pde,
            ),
            line_cache=PagingLineCache(cpu.paging_line_capacity),
            perf=self.perf,
        )
        self.avx = AVXUnit(cpu, self.tlb, self.walker, self.perf)
        self._space = None
        #: PCID tag the kernel runs under (None: kernel shares tag 0, the
        #: non-KPTI configuration); set by the Machine factory for
        #: KPTI + PCID kernels.
        self.kernel_asid = None
        #: KPTI without PCID: the CR3 write on kernel exit flushes the
        #: kernel's (non-global) TLB entries.
        self.kernel_exit_flushes = False
        #: timer coarsening (cycles): measurements round down to a
        #: multiple of this.  1 = the full-precision RDTSC the paper's
        #: attack requires (its SGX variant needs SGX2 exactly for this);
        #: larger values model coarsened/fuzzed timer defenses.
        self.timer_resolution = 1
        #: disturbance-injection runtime (:mod:`repro.chaos`), or None on
        #: a lab-quiet machine; polled at probe boundaries via chaos_poll
        self.chaos = None
        #: DVFS multiplier on true cycle counts: 1.0 at nominal frequency,
        #: >1 when a chaos frequency transition clocked the core down
        self.dvfs_scale = 1.0
        #: one-shot extra cycles an interrupt/SMI storm adds to the next
        #: timed measurement (consumed by _observe / the batched engine)
        self.pending_spike_cycles = 0
        #: observability sink (:mod:`repro.obs`); the null tracer unless a
        #: Tracer.attach() rebinds it, so hot paths can guard on
        #: ``self.obs.enabled`` without a None check
        self.obs = NULL_TRACER
        #: executor of every probe_sweep: None for the automatic choice,
        #: otherwise one of SWEEP_ENGINES (``"per-op"`` is the oracle)
        self.sweep_engine = None
        #: :class:`~repro.cpu.engine.SweepReport` of the last probe_sweep
        self.last_sweep = None

    def chaos_poll(self):
        """Fire any due disturbances (no-op on lab-quiet machines).

        Every sweep engine calls this at the same probe boundaries (once
        per probed VA, plus calibration/scan entry points), which is what
        keeps the disturbance schedule identical across engines for the
        same seed.
        """
        if self.chaos is not None:
            self.chaos.poll()

    # -- address-space management -------------------------------------------

    @property
    def address_space(self):
        if self._space is None:
            raise ConfigError("no address space attached to core")
        return self._space

    def set_address_space(self, space, flush=True):
        """MOV CR3: switch the active translations.

        ``flush=False`` models PCID-tagged switches that spare the TLB.
        """
        self._space = space
        if flush:
            self.tlb.flush(keep_global=True)
            self.walker.psc.flush()

    # -- raw execution (advances the clock) ----------------------------------

    def masked_load(self, va, mask=ZERO_MASK, element_size=4,
                    privileged=False):
        result = self.avx.masked_load(
            self.address_space, va, mask, element_size, privileged,
        )
        if self.dvfs_scale != 1.0:
            result.cycles = int(round(result.cycles * self.dvfs_scale))
        self.clock.advance(result.cycles)
        return result

    def masked_store(self, va, mask=ZERO_MASK, element_size=4,
                     privileged=False, data=None):
        result = self.avx.masked_store(
            self.address_space, va, mask, element_size, privileged, data,
        )
        if self.dvfs_scale != 1.0:
            result.cycles = int(round(result.cycles * self.dvfs_scale))
        self.clock.advance(result.cycles)
        return result

    # -- attacker-visible measurements ---------------------------------------

    def probe_sweep(self, vas, rounds=None, op="load", warm=True,
                    reduce="mean"):
        """Measure every address in ``vas`` with ``rounds`` zero-mask probes.

        The one sweep entry point of every attack.  ``warm=True`` is the
        paper's double probe (an untimed warming op before each timed
        one); ``warm=False`` takes bare single probes, so the first
        observation carries the cold first-access latency.  ``reduce`` is
        ``"mean"``, ``"min"`` or None for the raw ``(len(vas), rounds)``
        matrix; ``rounds=None`` uses the CPU model's default.

        The core's :attr:`sweep_engine` selects the executor:

        * ``"per-op"`` -- the reference: one simulated op per probe
          (:func:`repro.cpu.engine.per_op_sweep`), the oracle;
        * ``"batched"`` -- the closed-form row loop
          (:func:`repro.cpu.engine.sweep_rows`) over the whole sweep;
        * ``"columnar"`` -- struct-of-arrays windows
          (:mod:`repro.cpu.columnar`), falling back to the row loop
          window by window;
        * None -- columnar for sweeps of at least
          ``COLUMNAR_MIN_VAS`` addresses, batched below.

        Batched and columnar are bit-identical to each other and equal
        per-op on clock, counters and MMU state; they draw the same noise
        distribution from a differently ordered RNG stream.  How the
        sweep ran is recorded in :attr:`last_sweep`.
        """
        from repro.cpu import columnar as _columnar
        from repro.cpu import engine as _engine

        engine = self.sweep_engine
        if engine is not None and engine not in SWEEP_ENGINES:
            raise ConfigError(
                "unknown sweep engine {!r} (use one of: {})".format(
                    engine, ", ".join(SWEEP_ENGINES))
            )
        if rounds is None:
            rounds = self.cpu.rounds_default
        _engine.validate_sweep_args(op, reduce, rounds)
        vas = list(vas)
        if not vas:
            self.last_sweep = _engine.SweepReport(
                engine or "batched", reason=None if engine else "short-sweep")
            return np.empty((0,) if reduce else (0, rounds),
                            dtype=np.float64)
        if engine == "per-op":
            result = _engine.per_op_sweep(self, vas, rounds, op, warm,
                                          reduce)
            self.last_sweep = _engine.SweepReport("per-op")
            return result
        fallback = None
        if engine == "batched":
            fallback = "forced"
        elif engine != "columnar" \
                and len(vas) < _columnar.COLUMNAR_MIN_VAS:
            fallback = "short-sweep"
        return _columnar.columnar_sweep(self, vas, rounds, op=op, warm=warm,
                                        reduce=reduce, fallback=fallback)

    def timed_masked_load(self, va, mask=ZERO_MASK, element_size=4):
        """RDTSC / op / RDTSCP measurement of one masked load.

        Returns the cycle count the attacker reads: true latency plus
        serialization overhead plus measurement noise.
        """
        result = self.masked_load(va, mask, element_size)
        return self._observe(result.cycles)

    def timed_masked_store(self, va, mask=ZERO_MASK, element_size=4):
        result = self.masked_store(va, mask, element_size)
        return self._observe(result.cycles)

    def _observe(self, true_cycles):
        measured = (
            true_cycles + self.cpu.measurement_overhead + self.noise.sample()
        )
        if self.pending_spike_cycles:
            # an injected interrupt/SMI storm lands on this measurement
            measured += self.pending_spike_cycles
            self.pending_spike_cycles = 0
        if self.timer_resolution > 1:
            measured -= measured % self.timer_resolution
        self.clock.advance(self.cpu.measurement_overhead
                           + self.cpu.loop_overhead)
        return measured

    def read_tsc(self):
        """RDTSC: current cycle count (charges the instruction's cost)."""
        self.clock.advance(self.cpu.measurement_overhead // 2)
        return self.clock.cycles

    # -- prior-art probe primitives (baseline attacks) -------------------------

    def timed_prefetch(self, va):
        """PREFETCHT0-style probe (the Gruss et al. baseline).

        Prefetches never fault, so no masking is needed -- but the
        hardware may silently drop the hint before translation, in which
        case the measurement carries no signal.  That drop rate is why
        prefetch attacks need heavy repetition/noise filtering, the
        practicality gap the paper's introduction calls out.
        """
        space = self.address_space
        cycles = self.cpu.prefetch_base
        # a dropped hint retires early in constant time, untranslated
        if self.rng.random() >= self.cpu.prefetch_drop_prob:
            cycles += self._translate(space, va)
        self.clock.advance(cycles)
        return self._observe(cycles)

    def _translate(self, space, va):
        """A baseline probe's translation cycles: TLB hit, or walk + fill."""
        entry, level = self.tlb.lookup(va)
        if entry is not None:
            return self.cpu.tlb_hit_l1 if level == "L1" else self.cpu.tlb_hit_l2
        walk = self.walker.walk(space.page_table, va)
        if walk.translation is not None \
                and self.avx._may_cache(walk.translation, False):
            self.tlb.fill(walk.translation)
        return walk.cycles

    def tsx_probe(self, va):
        """Intel TSX abort-timing probe (the DrK / Jang et al. baseline).

        Accessing a kernel address inside a transaction aborts without a
        delivered #PF; the abort latency carries the translation timing.
        Raises ConfigError on parts without TSX -- which is every recent
        one, the reason the paper's AVX channel matters.
        """
        if not self.cpu.supports_tsx:
            raise ConfigError(
                "{} has no (enabled) TSX; the DrK baseline cannot run"
                .format(self.cpu.name)
            )
        space = self.address_space
        cycles = self.cpu.tsx_abort_base + self._translate(space, va)
        self.clock.advance(cycles)
        return self._observe(cycles)

    # -- translation-cache manipulation ---------------------------------------

    def evict_translation_caches(self):
        """Software eviction of TLB + PSC + paging-structure lines.

        Models the attacker touching a large eviction buffer: every
        translation entry is displaced and the cached page-table lines are
        pushed out of the data cache, so the next walk is fully cold (the
        paper's 381-cycle case).
        """
        self.tlb.flush(keep_global=False)
        self.walker.flush()
        self.clock.advance(EVICTION_COST_CYCLES)

    def invlpg(self, va):
        """Privileged INVLPG (used by in-kernel experiment drivers)."""
        self.tlb.invalidate(va)
        self.walker.invalidate_address(va)
        self.clock.advance(200)

    # -- privileged execution (OS-side activity) ------------------------------

    def kernel_touch(self, vas, space=None):
        """Model the kernel touching its own pages (syscall, IRQ, driver).

        Each address is accessed in supervisor mode so its translation
        lands in the TLB -- the state the paper's TLB attack (P4) and the
        FLARE bypass observe.
        """
        space = space if space is not None else self.address_space
        user_asid = self.tlb.active_asid
        if self.kernel_asid is not None:
            # KPTI + PCID: kernel-mode fills are tagged with the kernel's
            # PCID and invisible to user-mode lookups (why the TLB attack
            # dies on such kernels)
            self.tlb.active_asid = self.kernel_asid
        try:
            for va in vas:
                entry, __ = self.tlb.lookup(va)
                if entry is None:
                    walk = self.walker.walk(space.page_table, va)
                    if walk.translation is not None:
                        self.tlb.fill(walk.translation)
                    self.clock.advance(walk.cycles)
                else:
                    self.clock.advance(self.cpu.tlb_hit_l1)
        finally:
            self.tlb.active_asid = user_asid
        if self.kernel_exit_flushes:
            # KPTI without PCID: returning to user mode rewrites CR3 and
            # drops the kernel's freshly loaded translations
            self.tlb.flush(keep_global=True)
            self.clock.advance(300)

    def run_setup(self):
        """Charge the attack's fixed setup cost (mmap, calibration plumbing)."""
        self.clock.advance(self.cpu.setup_cycles)
