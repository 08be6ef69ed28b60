"""The sweep engines, cross-validated: per-op, batched and columnar.

The contract under test (see :meth:`repro.cpu.core.Core.probe_sweep`):

* **the per-op engine is the primitive loop** -- a core whose
  ``sweep_engine`` is ``"per-op"`` returns exactly the values of the
  hand-written double/single probe loops, with the same clock,
  counters, TLB image, RNG state and chaos schedule, for every sweep
  shape the drivers use;

* **bit-exactness vs batched** -- the columnar path produces the *same
  bytes*: measured matrix, simulated clock, performance counters, TLB
  hit/miss counters *and per-set bucket order*, walker state, and chaos
  schedule digest all equal the batched engine's, for every target
  shape (2 MiB kernel slots, 4 KiB module slots, mapped userspace,
  unmapped ranges), op, reduce mode, CPU model, and chaos profile;
* **outcome-equality vs per-op** -- the per-op simulator remains the
  oracle: classification outcomes, clock, perf counters and TLB stats
  agree (noise values differ only because the vectorized RNG consumes
  the stream in a different order);
* **TLB-resident rows stay columnar** -- rows that hit translations an
  earlier sweep cached (the SGX break's store pass after its load pass)
  run in the compiled plan;
* **graceful fallback** -- windows the compiler cannot prove safe
  (duplicate pages, a cached entry's set that would overflow, vectors
  spanning two pages) run through the per-op row loop *inside* the same
  sweep, stay bit-exact and name their reason; zero-mask-NOP hardware
  delegates the whole sweep;
* **traced sweeps stay columnar** -- with a tracer attached, columnar
  windows report the same metrics and spans as the row loop;
* **random sequences** -- a differential fuzzer drives all three
  engines through random sweep sequences on random machines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.kaslr_break import break_kaslr, break_kaslr_intel
from repro.attacks.module_detect import detect_modules
from repro.attacks.primitives import double_probe_load, double_probe_store
from repro.attacks.supervisor import supervise
from repro.attacks.userspace import find_user_code_base, scan_rw_pages
from repro.cpu import columnar
from repro.cpu.engine import SweepReport
from repro.errors import AddressError, MappingError
from repro.machine import Machine
from repro.mmu.address import PAGE_SIZE_2M, page_align_up
from repro.mmu.flags import PageFlags
from repro.obs import Tracer
from repro.os.linux import layout

from tests.pagetables import page_table_steps, writers

CPUS = ["i5-12400F", "i7-1065G7", "ryzen5-5600X"]


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


def _tlb_image(tlb):
    """Full TLB replacement state: per-set bucket order, entry fields."""
    image = []
    for name, array in list(tlb.l1.items()) + [("stlb", tlb.stlb)]:
        buckets = [
            [(e.vpn, e.pfn, int(e.flags), e.page_size, e.is_global, e.asid)
             for e in bucket]
            for bucket in array._sets
        ]
        image.append((str(name), array.hits, array.misses, buckets))
    return image


def _machine_state(machine):
    core = machine.core
    return (
        core.clock.cycles,
        core.perf.snapshot(),
        core.walker.completed_walks,
        core.tlb.stats(),
        _tlb_image(core.tlb),
    )


def _trace_records(records):
    """Span and event records, with the sweep report dropped from the
    ``probe-sweep`` spans: the engine and its row counts are the one
    part of a trace that differs between the batched and columnar
    engines."""
    return [
        dict(r, attrs={k: v for k, v in r["attrs"].items()
                       if k not in SweepReport.__slots__})
        if r.get("name") == "probe-sweep" else r
        for r in records if r["type"] in ("span", "event")
    ]


# -- target shapes ------------------------------------------------------------

def _base_vas(machine):
    """Fig. 4: the 512 2 MiB-aligned KASLR slots."""
    return [layout.kernel_base_of_slot(s)
            for s in range(layout.KERNEL_TEXT_SLOTS)]


def _module_vas(machine):
    """Table I: a 4 KiB-grained module-region scan (subset for speed)."""
    return [layout.MODULE_START + i * 4096 for i in range(2048)]


def _user_vas(machine):
    """Userspace two-pass scan shape: mapped pages + unmapped tail."""
    base = machine.process.mmap(256)
    return ([base + i * 4096 for i in range(256)]
            + [base + (256 + 64 + i) * 4096 for i in range(256)])


TARGETS = {
    "base": (_base_vas, dict(rounds=4, op="load", warm=True, reduce="mean")),
    "modules": (_module_vas,
                dict(rounds=3, op="load", warm=False, reduce="min")),
    "userspace": (_user_vas,
                  dict(rounds=2, op="store", warm=False, reduce="min")),
}


#: every (op, warm, reduce) shape a driver sweeps: the TARGETS, the module
#: scan's double probe with min-filter, and the store-threshold calibration
DRIVER_SHAPES = dict(
    TARGETS,
    **{
        "module-detect": (
            lambda machine: _module_vas(machine)[:512],
            dict(rounds=3, op="load", warm=True, reduce="min"),
        ),
        "calibration": (
            lambda machine: [machine.playground.user_rw],
            dict(rounds=600, op="store", warm=False, reduce=None),
        ),
    }
)


def _primitive_loop(core, vas, rounds, op, warm, reduce):
    """The paper's probe loops, written directly against the primitives."""
    if warm:
        probe = double_probe_load if op == "load" else double_probe_store
        return [probe(core, va, rounds, take_min=reduce == "min")
                for va in vas]
    timed = core.timed_masked_load if op == "load" \
        else core.timed_masked_store
    values = []
    for va in vas:
        core.chaos_poll()
        samples = [timed(va) for _ in range(rounds)]
        values.append(min(samples) if reduce == "min" else samples)
    return values


def _run_pair(target, cpu, chaos=None, seed=42):
    """Same sweep on twin machines: batched vs columnar."""
    make_vas, kwargs = TARGETS[target]
    batched = Machine.linux(cpu=cpu, seed=seed, chaos=chaos)
    col = Machine.linux(cpu=cpu, seed=seed, chaos=chaos)
    vas = make_vas(batched)
    assert make_vas(col) == vas
    rb = _on(batched, "batched").core.probe_sweep(vas, **kwargs)
    rc = _on(col, "columnar").core.probe_sweep(vas, **kwargs)
    return batched, col, rb, rc


class TestPerOpEngine:
    """The per-op sweep engine is exactly the primitive loops it
    replaces."""

    @pytest.mark.parametrize("chaos", [None, "default"])
    @pytest.mark.parametrize("cpu", CPUS)
    @pytest.mark.parametrize("shape", sorted(DRIVER_SHAPES))
    def test_equals_primitive_loop(self, shape, cpu, chaos):
        make_vas, kwargs = DRIVER_SHAPES[shape]
        loop = Machine.linux(cpu=cpu, seed=42, chaos=chaos)
        perop = Machine.linux(cpu=cpu, seed=42, chaos=chaos)
        vas = make_vas(loop)
        assert make_vas(perop) == vas
        reference = _primitive_loop(loop.core, vas, **kwargs)
        measured = _on(perop, "per-op").core.probe_sweep(vas, **kwargs)
        assert measured.tolist() == reference
        assert _machine_state(loop) == _machine_state(perop)
        assert (loop.core.rng.bit_generator.state
                == perop.core.rng.bit_generator.state)
        if chaos is not None:
            assert (loop.core.chaos.schedule_digest()
                    == perop.core.chaos.schedule_digest())
        assert perop.core.last_sweep.engine == "per-op"


class TestBitExactVsBatched:
    """Columnar output and machine state equal the batched engine's."""

    @pytest.mark.parametrize("cpu", CPUS)
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_quiet(self, cpu, target):
        batched, col, rb, rc = _run_pair(target, cpu)
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)
        assert col.core.last_sweep.engine == "columnar"
        assert col.core.last_sweep.fallback_rows == 0

    @pytest.mark.parametrize("cpu", CPUS)
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_under_chaos(self, cpu, target):
        batched, col, rb, rc = _run_pair(target, cpu, chaos="default")
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)
        assert (batched.core.chaos.schedule_digest()
                == col.core.chaos.schedule_digest())

    def test_hostile_chaos_segments_and_matches(self):
        batched, col, rb, rc = _run_pair("modules", "i5-12400F",
                                         chaos="hostile")
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)
        assert (batched.core.chaos.log_as_dicts()
                == col.core.chaos.log_as_dicts())
        # hostile profiles force mid-sweep re-segmentation
        assert col.core.last_sweep.windows > 1

    def test_raw_matrix_reduce_none(self):
        batched = Machine.linux(seed=9)
        col = Machine.linux(seed=9)
        vas = _base_vas(batched)[:64]
        rb = _on(batched, "batched").core.probe_sweep(
            vas, rounds=5, warm=False, reduce=None)
        rc = _on(col, "columnar").core.probe_sweep(
            vas, rounds=5, warm=False, reduce=None)
        assert rb.shape == (64, 5)
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)

    def test_mixed_page_sizes_one_sweep(self):
        """2 MiB kernel slots and 4 KiB module slots in a single sweep."""
        batched = Machine.linux(seed=5)
        col = Machine.linux(seed=5)
        vas = _base_vas(batched)[:128] + _module_vas(batched)[:512]
        rb = _on(batched, "batched").core.probe_sweep(vas, rounds=4)
        rc = _on(col, "columnar").core.probe_sweep(vas, rounds=4)
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)

    def test_back_to_back_sweeps_second_is_warm(self):
        """A repeated sweep sees its own fills: every row of the second
        sweep is a TLB hit row, runs columnar, and still matches the
        batched engine exactly."""
        batched = Machine.linux(seed=11)
        col = Machine.linux(seed=11)
        base = batched.process.mmap(64)
        assert col.process.mmap(64) == base
        vas = [base + i * 4096 for i in range(64)]
        for machine, engine in ((batched, "batched"), (col, "columnar")):
            _on(machine, engine).core.probe_sweep(vas, rounds=2)
        rb = _on(batched, "batched").core.probe_sweep(vas, rounds=2)
        rc = _on(col, "columnar").core.probe_sweep(vas, rounds=2)
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)
        assert col.core.last_sweep.engine == "columnar"
        assert col.core.last_sweep.columnar_rows == len(vas)
        assert col.core.last_sweep.fallback_rows == 0
        assert col.core.last_sweep.reason is None

    @staticmethod
    def _three_way(prepare, **kwargs):
        """``prepare`` a machine and return the VAs to sweep; run that
        sweep on per-op, batched and columnar twins and compare them."""
        machines = {}
        for engine in ("per-op", "batched", "columnar"):
            machine = Machine.linux(cpu="i7-1065G7", seed=17)
            vas = prepare(machine)
            result = _on(machine, engine).core.probe_sweep(vas, **kwargs)
            machines[engine] = (machine, result)
        (perop, __), (batched, rb), (col, rc) = (
            machines["per-op"], machines["batched"], machines["columnar"])
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)
        assert _machine_state(perop) == _machine_state(col)
        assert col.core.last_sweep.fallback_rows == 0
        return col

    def test_hit_rows_take_the_cached_flags(self):
        """Pages dirtied behind the TLB's back: a store that hits the
        stale clean entry still takes the dirty-bit assist."""
        def prepare(machine):
            base = machine.process.mmap(40)
            vas = [base + i * 4096 for i in range(40)]
            _on(machine, "per-op").core.probe_sweep(vas, rounds=1,
                                                    warm=False)
            for va in vas[:8]:
                machine.core.address_space.page_table.set_flag(
                    va, PageFlags.DIRTY)
            return vas
        col = self._three_way(prepare, rounds=1, warm=False, op="store")
        assert col.core.perf.read("ASSISTS.ANY") == 40

    def test_stlb_hit_rows_on_2m_pages(self):
        """2 MiB kernel entries evicted from L1 only (as an interrupt
        storm does) hit the sTLB, are promoted, then hit L1."""
        def prepare(machine):
            base = machine.kernel.base
            vas = [base + i * (2 << 20) for i in range(-8, 32)]
            _on(machine, "per-op").core.probe_sweep(vas, rounds=1)
            machine.core.tlb.l1[2 << 20].flush()
            return vas
        col = self._three_way(prepare, rounds=1, warm=True)
        assert col.core.perf.read("DTLB_LOAD_MISSES.STLB_HIT") >= 20

    def test_duplicate_pages_fall_back_bit_exact(self):
        batched = Machine.linux(seed=13)
        col = Machine.linux(seed=13)
        vas = _module_vas(batched)[:128] * 2
        rb = _on(batched, "batched").core.probe_sweep(vas, rounds=2)
        rc = _on(col, "columnar").core.probe_sweep(vas, rounds=2)
        assert np.array_equal(rb, rc)
        assert _machine_state(batched) == _machine_state(col)

    def test_non_canonical_raises_like_batched(self):
        bad = 0x0000_8000_0000_0000  # first non-canonical address
        vas = [layout.MODULE_START + i * 4096 for i in range(40)] + [bad]
        batched = Machine.linux(seed=3)
        col = Machine.linux(seed=3)
        with pytest.raises(AddressError):
            _on(batched, "batched").core.probe_sweep(vas, rounds=2)
        with pytest.raises(AddressError):
            _on(col, "columnar").core.probe_sweep(vas, rounds=2)


class TestOutcomeEqualityVsPerOp:
    """The per-op simulator stays the oracle for every engine."""

    @pytest.mark.parametrize("cpu", CPUS)
    def test_double_probe_counters_equal(self, cpu):
        perop = Machine.linux(cpu=cpu, seed=21)
        col = Machine.linux(cpu=cpu, seed=21)
        vas = _base_vas(perop)[:96]
        for va in vas:
            double_probe_load(perop.core, va, rounds=4)
        _on(col, "columnar").core.probe_sweep(vas, rounds=4)
        assert perop.core.clock.cycles == col.core.clock.cycles
        assert perop.core.perf.snapshot() == col.core.perf.snapshot()
        assert (perop.core.walker.completed_walks
                == col.core.walker.completed_walks)

    @pytest.mark.parametrize("cpu", CPUS)
    def test_store_scan_outcomes_agree(self, cpu):
        """Mapped/unmapped classification agrees with the per-op arm.

        The store pass separates cleanly on every vendor (a store fault
        assist vs none), so each arm's mode midpoint classifies its own
        timings; the resulting mapped-page verdicts must be identical
        even though the two arms draw different noise values.
        """
        perop = Machine.linux(cpu=cpu, seed=21)
        col = Machine.linux(cpu=cpu, seed=21)
        vas = _user_vas(perop)
        assert _user_vas(col) == vas
        reference = [
            min(perop.core.timed_masked_store(va) for _ in range(2))
            for va in vas
        ]
        timings = _on(col, "columnar").core.probe_sweep(
            vas, rounds=2, op="store", warm=False, reduce="min")
        assert perop.core.clock.cycles == col.core.clock.cycles
        assert perop.core.perf.snapshot() == col.core.perf.snapshot()
        cut_ref = (min(reference) + max(reference)) / 2
        cut_col = (min(timings) + max(timings)) / 2
        verdicts_ref = [t <= cut_ref for t in reference]
        verdicts_col = [t <= cut_col for t in timings]
        assert verdicts_ref == verdicts_col
        # the two populations separate cleanly (the faster side varies
        # by CPU model: walk depth vs assist cost dominates)
        assert len(set(verdicts_ref[:256])) == 1
        assert len(set(verdicts_ref[256:])) == 1
        assert verdicts_ref[0] != verdicts_ref[256]

    @pytest.mark.parametrize("cpu", CPUS)
    def test_chaos_schedule_mode_agnostic(self, cpu):
        perop = Machine.linux(cpu=cpu, seed=23, chaos="default")
        col = Machine.linux(cpu=cpu, seed=23, chaos="default")
        vas = _module_vas(perop)[:512]
        for va in vas:
            perop.core.chaos_poll()
            min(perop.core.timed_masked_load(va) for _ in range(2))
        _on(col, "columnar").core.probe_sweep(vas, rounds=2, warm=False,
                                              reduce="min")
        assert (perop.core.chaos.schedule_digest()
                == col.core.chaos.schedule_digest())
        assert perop.core.clock.cycles == col.core.clock.cycles


class TestTLBOccupancyProperty:
    """Columnar TLB set/way state == per-op TLB state, randomized."""

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_occupancy_matches_per_op(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        perop = Machine.linux(seed=seed)
        col = Machine.linux(seed=seed)
        pool = (
            [layout.MODULE_START + i * 4096 for i in range(512)]
            + _base_vas(perop)[:128]
        )
        base = perop.process.mmap(128)
        assert col.process.mmap(128) == base
        pool += [base + i * 4096 for i in range(128)]
        picks = data.draw(st.lists(
            st.integers(0, len(pool) - 1),
            min_size=32, max_size=200, unique=True,
        ))
        vas = [pool[i] for i in picks]
        # rounds=1, warm=False: engines execute exactly one op per VA,
        # so TLB counters AND buckets must equal the per-op loop's
        for va in vas:
            perop.core.timed_masked_load(va)
        _on(col, "columnar").core.probe_sweep(vas, rounds=1, warm=False,
                                              reduce="min")
        assert perop.core.tlb.stats() == col.core.tlb.stats()
        assert _tlb_image(perop.core.tlb) == _tlb_image(col.core.tlb)
        assert perop.core.tlb.occupancy() == col.core.tlb.occupancy()
        assert perop.core.clock.cycles == col.core.clock.cycles
        assert perop.core.perf.snapshot() == col.core.perf.snapshot()


#: the four SGX parts and one AMD part (no TLB fills for supervisor pages)
FUZZ_CPUS = ["i7-1065G7", "i9-9900", "i7-6600U", "i7-1185G7",
             "ryzen5-5600X"]


def _walker_image(walker):
    """PSC and paging-line LRU order plus the walk count.

    Node ids are global, so twin machines hold different ids for the same
    structures; ids are renamed in order of first appearance.
    """
    names = {}

    def name(node_id):
        return names.setdefault(node_id, len(names))

    psc = [
        (level, [(key, name(node)) for key, node in cache._entries.items()])
        for level, cache in sorted(walker.psc._caches.items())
    ]
    lines = [(name(node), line) for node, line in walker.line_cache._lines
             ._entries]
    return walker.completed_walks, psc, lines


def _tlb_buckets(tlb):
    """``_tlb_image`` without the hit/miss counters."""
    return [buckets for __, __, __, buckets in _tlb_image(tlb)]


def _fuzz_pools(machine):
    """The address populations a sweep draws from.  ``huge`` spans two
    empty 2 MiB frames above the mmap region, where page-table steps
    may map 2 MiB pages."""
    base = machine.process.mmap(96)
    huge = page_align_up(base + 2 * PAGE_SIZE_2M, PAGE_SIZE_2M)
    slots = _base_vas(machine)
    kernel = slots.index(machine.kernel.base)
    return {
        "modules": [layout.MODULE_START + i * 4096 for i in range(1024)],
        "mapped": [base + i * 4096 for i in range(96)],
        "unmapped": [base + (96 + 32 + i) * 4096 for i in range(64)],
        "huge": [huge + i * 16 * 4096 for i in range(64)],
        "slots": slots[max(0, kernel - 16):kernel + 48],
    }


def _swept_user(pools, swept):
    """The user pages of the last sweep, or every user pool before the
    first."""
    user = pools["mapped"] + pools["unmapped"] + pools["huge"]
    return sorted(set(swept).intersection(user)) or user


def _fuzz_writes(pools, swept):
    """Page-table steps over the user pages of the last sweep: the model
    test's generator, at these VAs."""
    vas = _swept_user(pools, swept)
    return page_table_steps(
        st.sampled_from(vas),
        st.sampled_from([pools["huge"][0], pools["huge"][0] + PAGE_SIZE_2M]),
        st.sampled_from(vas),
    )


def _fuzz_syscall(pools, swept, process):
    """A ``Process`` call ``(name, *args)``: ``mmap`` 1-20 pages
    (populated, the default) at a user page of the last sweep, or
    ``munmap`` a whole region over the user pools."""
    low, high = pools["mapped"][0], pools["huge"][-1]
    regions = [("munmap", region.start, region.pages)
               for region in process.regions if low <= region.start <= high]
    mmap = st.tuples(st.just("mmap"), st.integers(1, 20),
                     st.sampled_from(["rw-", "r--"]),
                     st.sampled_from(_swept_user(pools, swept)))
    return st.one_of(mmap, st.sampled_from(regions)) if regions else mmap


def _error_of(call, *args):
    """The type of the mapping error ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except (MappingError, AddressError) as error:
        return type(error)
    return None


@st.composite
def _fuzz_vas(draw, pools):
    """One sweep's address set: a mixed pick, or a module run that
    straddles the ``WINDOW_ROWS`` boundary; some vectors sit at page
    offsets above 4064 (they span two pages)."""
    if draw(st.integers(0, 6)) == 0:
        start = layout.MODULE_START + draw(st.integers(0, 512)) * 4096
        count = columnar.WINDOW_ROWS + draw(st.integers(1, 48))
        vas = [start + i * 4096 for i in range(count)]
    else:
        kinds = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1,
                              max_size=4, unique=True))
        pool = [va for kind in kinds for va in pools[kind]]
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=32,
                              max_size=240, unique=draw(st.booleans())))
        vas = [pool[i] for i in picks]
        if draw(st.booleans()):
            vas.sort()
    if draw(st.integers(0, 3)) == 0:
        for index in draw(st.lists(st.integers(0, len(vas) - 1),
                                   max_size=3)):
            vas[index] += draw(st.sampled_from([64, 2048, 4065, 4088]))
    return vas


class TestDifferentialFuzz:
    """Random machines driven through *sequences* of sweeps.

    Each example boots three twin machines (random CPU, KPTI, chaos
    profile; ``hostile`` flushes L1 alone, which leaves sTLB hits) and
    runs the same steps on each with the per-op, batched
    and columnar engines: fresh sweeps, a sweep repeated back to back, a
    load pass followed by a store pass over the same pages (the SGX
    break's two passes), kernel-mode TLB fills under KPTI's PCID tag,
    pages dirtied behind the TLB's back, and page-table writes (maps
    and runs at 4 KiB and 2 MiB, unmaps, re-protections) over the swept
    user pages, drawn from the model test's generator, with or without
    an INVLPG of the written VA; each raises the same error, or none,
    on every twin, and the last sweep runs again after it.  After every
    step batched and columnar agree bit for bit (matrix, clock, PMU,
    TLB image, walker, RNG, chaos schedule); per-op agrees on clock, PMU, TLB
    buckets, walker and chaos schedule, and on the TLB hit/miss counters
    while no sweep has replayed more than two ops per address.  With
    ``traced`` drawn, a tracer on the batched and columnar twins must
    also record equal metrics and spans (but for the sweep report)
    after every step.
    """

    @settings(max_examples=16, deadline=None)
    @given(st.data())
    def test_sweep_sequences_agree(self, data):
        cpu = data.draw(st.sampled_from(FUZZ_CPUS), label="cpu")
        kpti = data.draw(st.booleans(), label="kpti")
        chaos = data.draw(st.sampled_from(
            [None, "default", "hostile", "rerandomizing"]), label="chaos")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        machines = {engine: Machine.linux(cpu=cpu, seed=seed, kpti=kpti,
                                          chaos=chaos)
                    for engine in ("per-op", "batched", "columnar")}
        tracers = {}
        if data.draw(st.booleans(), label="traced"):
            tracers = {engine: Tracer().attach(machines[engine])
                       for engine in ("batched", "columnar")}
        pools = {engine: _fuzz_pools(machine)
                 for engine, machine in machines.items()}
        assert pools["per-op"] == pools["batched"] == pools["columnar"]
        pools = pools["batched"]
        counters_comparable = True
        sweep = None
        for __ in range(data.draw(st.integers(2, 5), label="steps")):
            step = data.draw(st.sampled_from(
                ["sweep", "sweep", "again", "other-op", "kernel-touch",
                 "dirty", "page-table", "page-table", "syscall"]),
                label="step")
            if step == "kernel-touch":
                vas = data.draw(st.lists(
                    st.sampled_from(pools["modules"] + pools["slots"]),
                    min_size=1, max_size=24))
                for machine in machines.values():
                    machine.core.kernel_touch(vas)
                continue
            if step == "page-table":
                write = data.draw(_fuzz_writes(
                    pools, (sweep or {}).get("vas", ())), label="write")
                invlpg = data.draw(st.booleans(), label="invlpg")
                raised = set()
                for machine in machines.values():
                    raised.add(_error_of(
                        writers(machine.core.address_space)[write[0]],
                        *write[1:]))
                    if invlpg:
                        machine.core.invlpg(write[1])
                assert len(raised) == 1, write
                # no continue: the last sweep, whose pages the write
                # targeted, runs again below
            if step == "syscall":
                call = data.draw(_fuzz_syscall(
                    pools, (sweep or {}).get("vas", ()),
                    machines["batched"].process), label="syscall")
                raised = {_error_of(getattr(machine.process, call[0]),
                                    *call[1:])
                          for machine in machines.values()}
                assert len(raised) == 1, call
                # the last sweep runs again below, as after a write
            if step == "dirty":
                table = machines["batched"].core.address_space.page_table
                live = [va for va in pools["mapped"] if table.is_mapped(va)]
                if not live:  # a syscall step unmapped the whole pool
                    continue
                swept = [va for va in (sweep or {}).get("vas", ())
                         if va in live]
                vas = data.draw(st.lists(
                    st.sampled_from(swept or live),
                    min_size=1, max_size=8))
                for machine in machines.values():
                    page_table = machine.core.address_space.page_table
                    for va in vas:
                        page_table.set_flag(va, PageFlags.DIRTY)
                continue
            if sweep is None or step == "sweep":
                vas = data.draw(_fuzz_vas(pools), label="vas")
                straddles = len(vas) > columnar.WINDOW_ROWS
                sweep = dict(
                    vas=vas,
                    op=data.draw(st.sampled_from(["load", "store"])),
                    warm=data.draw(st.booleans()),
                    rounds=1 if straddles else data.draw(st.integers(1, 3)),
                    reduce=data.draw(st.sampled_from(["mean", "min", None])),
                )
            elif step == "other-op":
                sweep = dict(sweep, op="store" if sweep["op"] == "load"
                             else "load")
            ops_per_va = sweep["rounds"] * (2 if sweep["warm"] else 1)
            counters_comparable &= ops_per_va <= 2
            results = {
                engine: _on(machine, engine).core.probe_sweep(**sweep)
                for engine, machine in machines.items()
            }
            batched = machines["batched"].core
            col = machines["columnar"].core
            perop = machines["per-op"].core
            assert np.array_equal(results["batched"], results["columnar"])
            assert _machine_state(machines["batched"]) \
                == _machine_state(machines["columnar"])
            assert _walker_image(batched.walker) == _walker_image(col.walker)
            assert (batched.rng.bit_generator.state
                    == col.rng.bit_generator.state)
            assert perop.clock.cycles == col.clock.cycles
            assert perop.perf.snapshot() == col.perf.snapshot()
            assert _tlb_buckets(perop.tlb) == _tlb_buckets(col.tlb)
            assert _walker_image(perop.walker) == _walker_image(col.walker)
            if counters_comparable:
                assert perop.tlb.stats() == col.tlb.stats()
            if chaos is not None:
                assert (perop.chaos.schedule_digest()
                        == batched.chaos.schedule_digest()
                        == col.chaos.schedule_digest())
            if tracers:
                assert (tracers["batched"].metrics.as_dict()
                        == tracers["columnar"].metrics.as_dict())
                assert (_trace_records(tracers["batched"]._records)
                        == _trace_records(tracers["columnar"]._records))


class TestRejectionReason:
    """``SweepReport.reason`` names the first window the proof rejected."""

    @staticmethod
    def _pages(machine, count):
        base = machine.process.mmap(count)
        return [base + i * 4096 for i in range(count)]

    def _twins(self, prepare):
        reports = {}
        for engine in ("batched", "columnar"):
            machine = Machine.linux(cpu="i7-1065G7", seed=29)
            vas = prepare(machine)
            result = _on(machine, engine).core.probe_sweep(vas, rounds=2)
            reports[engine] = (result, _machine_state(machine),
                               machine.core.last_sweep)
        assert np.array_equal(reports["batched"][0], reports["columnar"][0])
        assert reports["batched"][1] == reports["columnar"][1]
        return reports["columnar"][2]

    def test_dense_reprobe_window_reports_set_overflow(self):
        """Re-probing the tail of a scan that filled the sTLB: its hit
        rows sit in full sets that the new pages' fills would evict."""
        def prepare(machine):
            pages = self._pages(machine, 1800)
            machine.core.probe_sweep(pages[:1600], rounds=2)
            return pages[1500:1700]
        report = self._twins(prepare)
        assert report.engine == "columnar"
        assert report.fallback_rows == 200
        assert report.reason == "tlb-set-overflow"

    @pytest.mark.parametrize("reason", ["duplicate-key", "page-span"])
    def test_other_rejections_report_their_reason(self, reason):
        def prepare(machine):
            pages = self._pages(machine, 64)
            if reason == "page-span":
                pages[10] += 4070
            return pages + pages if reason == "duplicate-key" else pages
        report = self._twins(prepare)
        assert report.reason == reason
        assert report.columnar_rows == 0

    def test_fully_columnar_sweep_reports_none(self):
        report = self._twins(lambda machine: self._pages(machine, 64))
        assert report.engine == "columnar"
        assert report.fallback_rows == 0
        assert report.reason is None


class TestSgxStorePassCoverage:
    """The SGX break's masked-store pass over the pages its load pass
    just cached (Section IV-F) runs columnar, bit-identical to batched."""

    @pytest.mark.parametrize("cpu", ["i7-1065G7", "i9-9900", "i7-6600U",
                                     "i7-1185G7"])
    def test_store_sweep_is_columnar(self, cpu):
        outcomes = {}
        for engine in ("batched", None):
            machine = _on(Machine.linux(cpu=cpu, seed=7), engine)
            machine.create_enclave()
            find_user_code_base(machine)
            scan = scan_rw_pages(machine)
            report = machine.core.last_sweep
            outcomes[engine] = (scan.mapped_runs, scan.per_probe_cycles,
                                _machine_state(machine),
                                machine.core.rng.bit_generator.state)
        assert outcomes["batched"] == outcomes[None]
        rows = report.columnar_rows + report.fallback_rows
        assert report.engine == "columnar"
        assert report.columnar_rows >= 0.9 * rows
        assert scan.mapped_runs


class TestSelectionAndDelegation:
    """The auto selection and the whole-sweep delegation guards."""

    def test_auto_picks_columnar_for_full_range(self):
        machine = Machine.linux(seed=1)
        machine.core.probe_sweep(_module_vas(machine)[:64], rounds=2)
        assert machine.core.last_sweep.engine == "columnar"

    def test_auto_picks_batched_below_min(self):
        machine = Machine.linux(seed=1)
        machine.core.probe_sweep(
            _module_vas(machine)[:columnar.COLUMNAR_MIN_VAS - 1], rounds=2
        )
        assert machine.core.last_sweep.engine == "batched"
        assert machine.core.last_sweep.reason == "short-sweep"

    def test_empty_sweep_reports_the_selected_engine(self):
        machine = Machine.linux(seed=1)
        machine.core.probe_sweep([], rounds=2)
        assert machine.core.last_sweep.engine == "batched"
        assert machine.core.last_sweep.reason == "short-sweep"
        _on(machine, "columnar").core.probe_sweep([], rounds=2)
        assert machine.core.last_sweep.engine == "columnar"

    def test_unknown_engine_rejected(self):
        machine = Machine.linux(seed=1)
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            _on(machine, "simd").core.probe_sweep([layout.MODULE_START])

    def test_zero_mask_nop_delegates(self):
        machine = Machine.linux(seed=1)
        machine.core.avx.zero_mask_nop = True
        twin = Machine.linux(seed=1)
        twin.core.avx.zero_mask_nop = True
        vas = _module_vas(machine)[:64]
        rb = _on(twin, "batched").core.probe_sweep(vas, rounds=2)
        rc = _on(machine, "columnar").core.probe_sweep(vas, rounds=2)
        assert machine.core.last_sweep.engine == "batched"
        assert machine.core.last_sweep.reason == "zero-mask-nop"
        assert np.array_equal(rb, rc)

    @pytest.mark.parametrize("chaos", [None, "default"])
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_traced_sweep_runs_columnar(self, target, chaos):
        """A traced sweep stays on the columnar engine, and its windows
        report the metrics and spans the row loop reports."""
        make_vas, kwargs = TARGETS[target]
        runs = {}
        for engine in ("batched", "columnar"):
            machine = Machine.linux(cpu="i7-1065G7", seed=42, chaos=chaos)
            tracer = Tracer().attach(machine)
            result = _on(machine, engine).core.probe_sweep(
                make_vas(machine), **kwargs)
            records = tracer.finish()
            runs[engine] = (result, _machine_state(machine),
                            tracer.metrics.as_dict(),
                            _trace_records(records))
        spans = [r for r in records if r["type"] == "span"]
        batched, col = runs["batched"], runs["columnar"]
        assert np.array_equal(batched[0], col[0])
        assert batched[1:] == col[1:]
        metrics = col[2]
        assert metrics["counters"]["walker.walks"] > 0
        assert any(name.startswith("engine.probe_cycles.")
                   for name in metrics["histograms"])
        assert [span["name"] for span in spans] == ["probe-sweep"]
        assert spans[0]["attrs"]["engine"] == "columnar"
        assert spans[0]["attrs"]["fallback_rows"] == 0
        assert machine.core.last_sweep.engine == "columnar"
        assert machine.core.last_sweep.fallback_rows == 0


class TestAttackLevelEquivalence:
    """Whole attacks agree across all three execution paths."""

    @pytest.mark.parametrize("cpu", CPUS)
    def test_kaslr_three_way(self, cpu):
        results = {}
        for arm in ("per-op", "batched", "columnar"):
            machine = _on(Machine.linux(cpu=cpu, seed=77), arm)
            results[arm] = (break_kaslr(machine).base,
                            machine.core.clock.cycles)
        assert (results["per-op"][0] == results["batched"][0]
                == results["columnar"][0])
        # batched and columnar are bit-exact, per-op matches on time too
        assert results["batched"] == results["columnar"]
        assert results["per-op"][1] == results["columnar"][1]

    def test_modules_three_way(self):
        recovered = {}
        for arm in ("per-op", "batched", "columnar"):
            machine = _on(Machine.linux(seed=31), arm)
            result = detect_modules(machine, max_slots=2048)
            recovered[arm] = ([(r.start, r.pages) for r in result.regions],
                              machine.core.clock.cycles)
        assert (recovered["per-op"] == recovered["batched"]
                == recovered["columnar"])

    def test_userspace_three_way(self):
        found = {}
        for arm in ("per-op", "batched", "columnar"):
            machine = _on(Machine.linux(seed=19), arm)
            result = find_user_code_base(machine)
            found[arm] = (result.base, machine.core.clock.cycles)
        assert found["per-op"] == found["batched"] == found["columnar"]

    def test_supervised_reanchoring_columnar_vs_batched(self, monkeypatch):
        """The supervisor's chunked, re-anchored scan is engine-agnostic:
        forcing every chunk onto the batched row loop (by raising the
        columnar floor) changes nothing about the verdict or the clock."""
        def run(min_vas):
            monkeypatch.setattr(columnar, "COLUMNAR_MIN_VAS", min_vas)
            machine = Machine.linux(seed=101, chaos="default")
            verdict = supervise(machine, "kaslr")
            return (verdict.status, verdict.value, verdict.confidence,
                    machine.core.clock.cycles,
                    machine.core.chaos.schedule_digest())
        columnar_run = run(32)
        batched_run = run(10**9)
        assert columnar_run == batched_run
