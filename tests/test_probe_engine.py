"""The batched probe engine, cross-validated against the per-op path.

Two layers of guarantees:

* **exactness** -- simulated clock, performance counters, and the
  walker's walk count after a batched sweep equal the per-op loop's
  (the accounting is closed-form, not approximate);
* **equivalence** -- over multiple CPU models and seeds, the batched
  attacks recover the same KASLR base / module list / Windows region as
  the per-op reference (noise values differ -- the vectorized RNG
  consumes the stream differently -- but classification outcomes agree).
"""

import numpy as np
import pytest

from repro.attacks.kaslr_break import break_kaslr
from repro.attacks.module_detect import detect_modules
from repro.attacks.primitives import double_probe_load
from repro.attacks.windows_break import find_kernel_region
from repro.cpu.noise import NoiseModel, sample_noise_array
from repro.machine import Machine
from repro.os.linux import layout


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


def _slot_vas(count):
    return [layout.kernel_base_of_slot(slot) for slot in range(count)]


class TestSweepAccounting:
    """The engine's closed-form replay is exact, not approximate."""

    def _pair(self, cpu="i5-12400F", seed=42):
        return (
            Machine.linux(cpu=cpu, seed=seed),
            Machine.linux(cpu=cpu, seed=seed),
        )

    def test_double_probe_clock_perf_and_walks_equal(self):
        reference, batched = self._pair()
        vas = _slot_vas(48)
        for va in vas:
            double_probe_load(reference.core, va, rounds=4)
        batched.core.probe_sweep(vas, rounds=4, op="load")
        assert reference.core.clock.cycles == batched.core.clock.cycles
        assert reference.core.perf.snapshot() == batched.core.perf.snapshot()
        assert (
            reference.core.walker.completed_walks
            == batched.core.walker.completed_walks
        )

    def test_single_probe_clock_and_perf_equal(self):
        reference, batched = self._pair(seed=7)
        vas = _slot_vas(32)
        for va in vas:
            min(reference.core.timed_masked_load(va) for _ in range(3))
        batched.core.probe_sweep(vas, rounds=3, op="load", warm=False,
                                 reduce="min")
        assert reference.core.clock.cycles == batched.core.clock.cycles
        assert reference.core.perf.snapshot() == batched.core.perf.snapshot()

    def test_single_round_single_probe_equal(self):
        reference, batched = self._pair(seed=3)
        vas = _slot_vas(8)
        for va in vas:
            reference.core.timed_masked_load(va)
        batched.core.probe_sweep(vas, rounds=1, op="load", warm=False,
                                 reduce="min")
        assert reference.core.clock.cycles == batched.core.clock.cycles
        assert reference.core.perf.snapshot() == batched.core.perf.snapshot()

    def test_store_sweep_clock_and_perf_equal(self):
        reference, batched = self._pair(seed=11)
        page = reference.playground.user_rw
        for _ in range(600):
            reference.core.timed_masked_store(page)
        batched.core.probe_sweep(
            [batched.playground.user_rw], rounds=600, op="store",
            warm=False, reduce=None,
        )
        assert reference.core.clock.cycles == batched.core.clock.cycles
        assert reference.core.perf.snapshot() == batched.core.perf.snapshot()

    def test_raw_reduce_shape_and_mean_reduce_agree(self):
        machine = Machine.linux(seed=4)
        vas = _slot_vas(6)
        raw = machine.core.probe_sweep(vas, rounds=5, op="load", reduce=None)
        assert raw.shape == (6, 5)
        other = Machine.linux(seed=4)
        means = other.core.probe_sweep(vas, rounds=5, op="load")
        assert np.allclose(raw.mean(axis=1), means)

    def test_timer_coarsening_applies(self):
        machine = Machine.linux(seed=9)
        machine.core.timer_resolution = 64
        timings = machine.core.probe_sweep(
            _slot_vas(8), rounds=2, op="load", reduce=None
        )
        assert (timings % 64 == 0).all()

    def test_input_validation(self):
        machine = Machine.linux(seed=1)
        with pytest.raises(ValueError):
            machine.core.probe_sweep([0x1000], rounds=1, op="prefetch")
        with pytest.raises(ValueError):
            machine.core.probe_sweep([0x1000], rounds=0)
        with pytest.raises(ValueError):
            machine.core.probe_sweep([0x1000], rounds=1, reduce="median")
        empty = machine.core.probe_sweep([], rounds=2)
        assert empty.size == 0


class TestBatchedEquivalence:
    """Batched attacks reach the per-op path's conclusions, seed for seed."""

    @pytest.mark.parametrize("cpu", ["i5-12400F", "i7-1065G7",
                                     "ryzen5-5600X"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kaslr_base_recovery_matches(self, cpu, seed):
        reference = break_kaslr(_on(Machine.linux(cpu=cpu, seed=seed),
                                    "per-op"))
        batched = break_kaslr(Machine.linux(cpu=cpu, seed=seed))
        assert batched.method == reference.method
        assert batched.base == reference.base
        assert batched.slot == reference.slot
        assert batched.base is not None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kpti_base_recovery_matches(self, seed):
        reference = break_kaslr(_on(Machine.linux(seed=seed, kpti=True),
                                    "per-op"))
        batched = break_kaslr(Machine.linux(seed=seed, kpti=True))
        assert reference.method == "kpti-trampoline"
        assert batched.base == reference.base

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_module_detection_matches(self, seed):
        reference = detect_modules(_on(Machine.linux(seed=seed), "per-op"),
                                   max_slots=3072)
        batched = detect_modules(Machine.linux(seed=seed), max_slots=3072)
        assert batched.identified == reference.identified
        assert (
            [(r.start, r.pages) for r in batched.regions]
            == [(r.start, r.pages) for r in reference.regions]
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_windows_region_matches(self, seed):
        reference = find_kernel_region(_on(Machine.windows(seed=seed),
                                           "per-op"))
        batched = find_kernel_region(Machine.windows(seed=seed))
        assert batched.base == reference.base
        assert batched.region_slots == reference.region_slots
        assert batched.base is not None

    def test_batched_run_is_deterministic(self):
        first = break_kaslr(Machine.linux(seed=6))
        second = break_kaslr(Machine.linux(seed=6))
        assert first.base == second.base
        assert first.timings == second.timings
        assert first.threshold == second.threshold


class TestNoiseKernel:
    """One canonical vectorized noise kernel, distribution-pinned."""

    def test_sample_array_matches_scalar_distribution(self):
        model = NoiseModel(np.random.default_rng(0), sigma=2.0,
                           spike_prob=0.002, spike_cycles=400)
        n = 200_000
        scalar = np.array([model.sample() for _ in range(n)])
        vector = NoiseModel(
            None, sigma=2.0, spike_prob=0.002, spike_cycles=400
        ).sample_array(np.random.default_rng(1), n)
        # the rare 400-600 cycle spikes dominate the sampling error of
        # the mean (~0.09 between independent streams at this n)
        assert abs(scalar.mean() - vector.mean()) < 0.3
        assert abs(scalar.std() - vector.std()) < 2.0
        # the Gaussian component: compare means of the spike-free bulk
        assert abs(
            scalar[scalar < 100].mean() - vector[vector < 100].mean()
        ) < 0.02
        # spike frequency: values far above the Gaussian tail
        assert abs(
            (scalar > 100).mean() - (vector > 100).mean()
        ) < 0.0005
        assert vector.min() >= 0
        assert np.all(vector == np.rint(vector))

    def test_zero_spike_prob_is_pure_truncated_gaussian(self):
        values = sample_noise_array(
            np.random.default_rng(2), 50_000, 2.0, 0.0, 400
        )
        assert values.max() < 12
        assert values.min() >= 0

    @pytest.mark.parametrize("spike_prob", [0.0, 0.001, 0.3])
    @pytest.mark.parametrize("rounds", [1, 2, 4, 16])
    def test_rows_draw_equals_one_kernel_call_per_row(self, rounds,
                                                      spike_prob):
        """The chaos-path block draw is the per-row kernel stream: same
        values, same generator state after it, across a sigma change
        between two blocks (a migration) and an empty block."""
        model = NoiseModel(None, sigma=2.0, spike_prob=spike_prob,
                           spike_cycles=400)
        block_rng = np.random.default_rng(11)
        row_rng = np.random.default_rng(11)
        blocks, rows_drawn = [], []
        for sigma, rows in ((2.0, 300), (2.0, 0), (5.5, 200)):
            model.sigma = sigma
            blocks.append(model.sample_rows(block_rng, rows, rounds))
            rows_drawn.extend(
                sample_noise_array(row_rng, (rounds,), sigma, spike_prob,
                                   400)
                for __ in range(rows))
        block = np.concatenate(blocks)
        assert block.dtype == np.int64
        np.testing.assert_array_equal(block, np.array(rows_drawn))
        assert block_rng.bit_generator.state == row_rng.bit_generator.state

