"""Clock, noise model, performance counters, CPU catalog."""

import numpy as np
import pytest

from repro.cpu.clock import SimClock
from repro.cpu.models import CPU_CATALOG, get_cpu_model
from repro.cpu.noise import NoiseModel
from repro.cpu.perfcounters import PerfCounters
from repro.errors import ConfigError


class TestSimClock:
    def test_advance(self):
        clock = SimClock(4.0)
        clock.advance(100)
        clock.advance(50)
        assert clock.cycles == 150

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock(4.0).advance(-1)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            SimClock(0)

    def test_time_conversion(self):
        clock = SimClock(2.0)  # 2 GHz
        assert clock.cycles_to_seconds(2_000_000_000) == pytest.approx(1.0)
        assert clock.cycles_to_ms(2_000_000) == pytest.approx(1.0)
        assert clock.cycles_to_us(2_000) == pytest.approx(1.0)

    def test_elapsed_since(self):
        clock = SimClock(1.0)
        clock.advance(10)
        mark = clock.cycles
        clock.advance(32)
        assert clock.elapsed_since(mark) == 32


class TestNoiseModel:
    def test_nonnegative(self):
        noise = NoiseModel(np.random.default_rng(0), sigma=3.0)
        assert all(noise.sample() >= 0 for _ in range(500))

    def test_deterministic_given_seed(self):
        a = NoiseModel(np.random.default_rng(7), sigma=2.0)
        b = NoiseModel(np.random.default_rng(7), sigma=2.0)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_zero_sigma_zero_spikes_is_silent(self):
        noise = NoiseModel(np.random.default_rng(0), sigma=0.0, spike_prob=0.0)
        assert all(noise.sample() == 0 for _ in range(100))

    def test_spikes_occur_at_configured_rate(self):
        noise = NoiseModel(
            np.random.default_rng(0), sigma=0.0, spike_prob=0.1,
            spike_cycles=1000,
        )
        samples = [noise.sample() for _ in range(2000)]
        spikes = sum(1 for s in samples if s > 400)
        assert 120 < spikes < 280  # ~10%

    def test_sample_rows_matches_support(self):
        noise = NoiseModel(np.random.default_rng(3), sigma=2.0)
        batch = noise.sample_rows(noise.rng, 250, 4)
        assert batch.min() >= 0
        assert batch.shape == (250, 4)

    def test_scaled(self):
        noise = NoiseModel(np.random.default_rng(0), sigma=2.0)
        assert noise.scaled(1.5).sigma == pytest.approx(3.0)


class TestPerfCounters:
    def test_increment_and_read(self):
        perf = PerfCounters()
        perf.increment("ASSISTS.ANY")
        perf.increment("ASSISTS.ANY", 2)
        assert perf.read("ASSISTS.ANY") == 3

    def test_unknown_event_rejected(self):
        with pytest.raises(KeyError):
            PerfCounters().increment("BOGUS.EVENT")

    def test_snapshot_delta(self):
        perf = PerfCounters()
        perf.increment("PAGE_FAULTS")
        snap = perf.snapshot()
        perf.increment("PAGE_FAULTS")
        perf.increment("ASSISTS.ANY")
        delta = perf.delta_since(snap)
        assert delta["PAGE_FAULTS"] == 1
        assert delta["ASSISTS.ANY"] == 1

    def test_reset(self):
        perf = PerfCounters()
        perf.increment("ASSISTS.ANY")
        perf.reset()
        assert perf.read("ASSISTS.ANY") == 0


class TestCPUCatalog:
    def test_all_paper_parts_present(self):
        for key in ("i7-1065G7", "i9-9900", "i5-12400F", "i7-6600U",
                    "ryzen5-5600X", "xeon-e5-2676", "xeon-cascade-lake",
                    "xeon-8171m"):
            assert key in CPU_CATALOG

    def test_lookup_by_key_and_name(self):
        assert get_cpu_model("i9-9900") is CPU_CATALOG["i9-9900"]
        assert get_cpu_model("AMD Ryzen 5 5600X") is CPU_CATALOG["ryzen5-5600X"]

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigError):
            get_cpu_model("i486DX2")

    def test_vendor_split(self):
        assert get_cpu_model("i5-12400F").is_intel
        assert get_cpu_model("ryzen5-5600X").is_amd

    def test_amd_does_not_fill_supervisor_tlb(self):
        assert not get_cpu_model("ryzen5-5600X").fills_tlb_for_supervisor_user_probe
        assert get_cpu_model("i5-12400F").fills_tlb_for_supervisor_user_probe

    def test_paper_calibration_identities(self):
        """The calibrated analytic means the paper reports."""
        ice = get_cpu_model("i7-1065G7")
        assert ice.expected_user_mapped_load() == 13
        assert ice.expected_kernel_mapped_load_tlb_hit() == 92
        assert ice.store_base + ice.tlb_hit_l1 + ice.assist_store == 76
        adl = get_cpu_model("i5-12400F")
        assert adl.expected_kernel_mapped_load_tlb_hit() == 93
        cfl = get_cpu_model("i9-9900")
        assert cfl.expected_kernel_mapped_load_tlb_hit() == 147

    def test_store_threshold_identity(self):
        """Store on clean USER-M == load on KERNEL-M (Section IV-B)."""
        for key in ("i7-1065G7", "i9-9900", "i5-12400F", "i7-6600U"):
            cpu = get_cpu_model(key)
            store = cpu.store_base + cpu.tlb_hit_l1 + cpu.assist_dirty
            assert store == cpu.expected_kernel_mapped_load_tlb_hit()

    def test_store_fault_default(self):
        cpu = get_cpu_model("i9-9900")
        assert cpu.assist_store_fault == cpu.assist_dirty - 6

    def test_meltdown_flags(self):
        assert get_cpu_model("xeon-e5-2676").meltdown_vulnerable
        assert not get_cpu_model("i5-12400F").meltdown_vulnerable
