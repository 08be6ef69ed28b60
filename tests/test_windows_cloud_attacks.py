"""Windows region/KVAS scans and the cloud audit suite."""

import pytest

from repro.attacks.cloud_break import audit_cloud
from repro.attacks.windows_break import (
    find_entry_point,
    find_kernel_region,
    find_kvas_region,
)
from repro.machine import Machine


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


class TestWindowsRegionScan:
    @pytest.fixture(scope="class")
    def scan(self):
        machine = Machine.windows(seed=60)
        return machine, find_kernel_region(machine)

    def test_base_found(self, scan):
        machine, result = scan
        assert result.base == machine.kernel.base

    def test_region_is_five_slots(self, scan):
        __, result = scan
        assert len(result.region_slots) >= 5
        diffs = [b - a for a, b in zip(result.region_slots,
                                       result.region_slots[1:])]
        assert all(d == 1 for d in diffs)

    def test_derandomizes_18_bits(self, scan):
        __, result = scan
        assert result.derandomized_bits == 18

    def test_runtime_extrapolation(self, scan):
        """Paper: ~60 ms on the i5-12400F."""
        __, result = scan
        assert 0.01 < result.probing_seconds < 0.3
        assert result.full_probe_count == 262144
        assert result.simulated_probes < result.full_probe_count

    def test_entry_point_entropy_remains(self, scan):
        """The scan recovers the region, not the 4 KiB entry point."""
        machine, result = scan
        assert machine.kernel.entry_point >= result.base


class TestEntryPointAttack:
    """The paper's "remaining 9 bits" via the TLB attack (P4)."""

    def test_entry_point_recovered(self):
        machine = Machine.windows(seed=68)
        region = find_kernel_region(machine)
        entry = find_entry_point(machine, region.base)
        assert entry == machine.kernel.entry_point

    def test_full_27_bit_break_across_seeds(self):
        for seed in (69, 70):
            machine = Machine.windows(seed=seed)
            region = find_kernel_region(machine)
            assert region.base == machine.kernel.base
            entry = find_entry_point(machine, region.base)
            assert entry == machine.kernel.entry_point


class TestKvasScan:
    @pytest.fixture(scope="class")
    def scan(self):
        machine = Machine.windows(cpu="i7-6600U", version="1709", seed=61)
        return machine, find_kvas_region(machine)

    def test_kvas_machine_required(self):
        machine = Machine.windows(seed=62)  # Alder Lake: no KVAS
        with pytest.raises(ValueError):
            find_kvas_region(machine)

    def test_base_recovered_from_kvas_offset(self, scan):
        machine, result = scan
        assert result.base == machine.kernel.base

    def test_three_page_run(self, scan):
        __, result = scan
        assert len(result.region_slots) == 3

    def test_runtime_seconds_scale(self, scan):
        """Paper: ~8 s; the extrapolated scan is the same order."""
        __, result = scan
        assert 2 < result.probing_seconds < 40


class TestCloudAudit:
    def test_ec2_uses_trampoline(self):
        result = audit_cloud("ec2", seed=63)
        assert result.method == "kpti-trampoline"
        assert result.base_correct
        assert result.modules_ms is not None

    def test_gce_plain_p2(self):
        # written against the per-op engine's noise draws; pinned to it
        result = audit_cloud(
            machine=_on(Machine.cloud("gce", seed=64), "per-op"))
        assert result.method == "intel-p2"
        assert result.base_correct
        assert result.modules_identified == 19

    def test_azure_region_scan(self):
        # written against the per-op engine's noise draws; pinned to it
        result = audit_cloud(
            machine=_on(Machine.cloud("azure", seed=65), "per-op"))
        assert result.method == "region-scan"
        assert result.base_correct
        assert result.derandomized_bits == 18

    def test_ec2_faster_than_gce(self):
        """The paper's ordering: EC2 base 0.03 ms < GCE 0.08 ms."""
        ec2 = audit_cloud("ec2", seed=66, detect_kernel_modules=False)
        gce = audit_cloud("gce", seed=66, detect_kernel_modules=False)
        assert ec2.base_ms < gce.base_ms

    def test_runtimes_milliseconds_scale(self):
        ec2 = audit_cloud("ec2", seed=67, detect_kernel_modules=False)
        assert ec2.base_ms < 1.0  # paper: 0.03 ms
