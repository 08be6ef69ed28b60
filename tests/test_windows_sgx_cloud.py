"""Windows kernel, SGX enclaves, cloud instance catalog."""

import pytest

from repro.errors import ConfigError
from repro.machine import Machine
from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags, describe
from repro.os.cloud.instances import CLOUD_CATALOG
from repro.os.linux.kernel import LinuxKernel
from repro.os.linux.process import Process
from repro.os.sgx.enclave import Enclave
from repro.os.windows.kernel import WindowsKernel, layout


class TestWindowsKernel:
    def test_window_has_18_bits_of_entropy(self):
        assert layout.KERNEL_SLOTS == 262144  # 2^18

    def test_base_alignment_and_range(self):
        for seed in range(20):
            kernel = WindowsKernel(seed=seed)
            assert kernel.base % PAGE_SIZE_2M == 0
            assert layout.KERNEL_START <= kernel.base < layout.KERNEL_END

    def test_image_is_five_2m_slots(self):
        kernel = WindowsKernel(seed=1)
        entry_slot = (kernel.entry_point - kernel.base) // PAGE_SIZE_2M
        for i in range(5):
            translation = kernel.kernel_space.translate(
                kernel.base + i * PAGE_SIZE_2M
            )
            assert translation is not None
            if i == entry_slot:
                # the slot holding the entry stub is carved to 4 KiB
                assert translation.page_size == PAGE_SIZE
            else:
                assert translation.page_size == PAGE_SIZE_2M
        assert kernel.kernel_space.translate(
            kernel.base + 5 * PAGE_SIZE_2M
        ) is None

    def test_entry_slot_fully_backed_by_4k_pages(self):
        kernel = WindowsKernel(seed=1)
        entry_slot = (kernel.entry_point - kernel.base) // PAGE_SIZE_2M
        slot_base = kernel.base + entry_slot * PAGE_SIZE_2M
        for offset in (0, PAGE_SIZE, PAGE_SIZE_2M - PAGE_SIZE):
            translation = kernel.kernel_space.translate(slot_base + offset)
            assert translation is not None
            assert translation.page_size == PAGE_SIZE

    def test_entry_point_4k_randomized_inside_region(self):
        kernel = WindowsKernel(seed=2)
        assert kernel.base <= kernel.entry_point
        assert kernel.entry_point < kernel.base + 5 * PAGE_SIZE_2M
        assert kernel.entry_point % PAGE_SIZE == 0

    def test_entropy_used(self):
        slots = {WindowsKernel(seed=s).slot for s in range(16)}
        assert len(slots) == 16

    def test_region_slots(self):
        kernel = WindowsKernel(seed=3)
        slots = kernel.region_slots()
        assert len(slots) == 5
        assert slots[0] == kernel.slot

    def test_no_kvas_shares_table(self):
        kernel = WindowsKernel(seed=4, kvas=False)
        assert kernel.user_space is kernel.kernel_space


class TestKVAS:
    def test_kernel_hidden_from_user_table(self):
        kernel = WindowsKernel(seed=5, kvas=True)
        assert kernel.user_space.translate(kernel.base) is None

    def test_kvas_pages_visible(self):
        kernel = WindowsKernel(seed=5, kvas=True)
        assert kernel.kvas_base == kernel.base + 0x29_8000
        for i in range(layout.KVAS_PAGES):
            translation = kernel.user_space.translate(
                kernel.kvas_base + i * PAGE_SIZE
            )
            assert translation is not None
            assert translation.page_size == PAGE_SIZE
        assert kernel.user_space.translate(
            kernel.kvas_base + layout.KVAS_PAGES * PAGE_SIZE
        ) is None


class TestEnclave:
    @pytest.fixture
    def process(self):
        return Process(LinuxKernel(seed=6))

    def test_code_inside_elrange(self, process):
        enclave = Enclave(process, seed=1)
        assert enclave.elrange_base <= enclave.code_base
        end = enclave.elrange_base + enclave.elrange_pages * PAGE_SIZE
        assert enclave.code_base + enclave.code_pages * PAGE_SIZE <= end

    def test_code_pages_mapped_rx(self, process):
        enclave = Enclave(process, seed=1)
        flags = process.space.translate(enclave.code_base).flags
        assert describe(flags) == "r-x"

    def test_data_follows_code(self, process):
        enclave = Enclave(process, seed=1)
        assert enclave.data_base == enclave.code_base + \
            enclave.code_pages * PAGE_SIZE
        flags = process.space.translate(enclave.data_base).flags
        assert describe(flags) == "rw-"

    def test_in_enclave_aslr_entropy(self):
        offsets = set()
        for seed in range(10):
            process = Process(LinuxKernel(seed=100 + seed))
            enclave = Enclave(process, seed=seed)
            offsets.add(enclave.code_base - enclave.elrange_base)
        assert len(offsets) > 5

    def test_sgx1_has_no_timer(self, process):
        enclave = Enclave(process, sgx2=False, seed=1)
        with pytest.raises(ConfigError):
            enclave.require_timer()

    def test_sgx2_timer_ok(self, process):
        Enclave(process, sgx2=True, seed=1).require_timer()


class TestCloudCatalog:
    def test_three_providers(self):
        assert set(CLOUD_CATALOG) == {"ec2", "gce", "azure"}

    def test_ec2_runs_kpti(self):
        assert CLOUD_CATALOG["ec2"].kpti
        assert CLOUD_CATALOG["ec2"].kernel_version == "5.11.0-1020-aws"

    def test_gce_no_kpti(self):
        assert not CLOUD_CATALOG["gce"].kpti

    def test_azure_is_windows(self):
        assert CLOUD_CATALOG["azure"].os_family == "windows"

    def test_noise_factors_above_bare_metal(self):
        for instance in CLOUD_CATALOG.values():
            assert instance.noise_factor > 1.0


class TestMachineFactories:
    def test_linux_defaults(self):
        machine = Machine.linux(seed=1)
        assert machine.os_family == "linux"
        assert machine.process is not None
        assert machine.kernel.kpti is False  # Alder Lake: Meltdown-resistant

    def test_kpti_follows_meltdown_vulnerability(self):
        machine = Machine.linux(cpu="i7-6600U", seed=1)
        assert machine.kernel.kpti is True

    def test_same_seed_same_layout(self):
        a = Machine.linux(seed=9)
        b = Machine.linux(seed=9)
        assert a.kernel.base == b.kernel.base
        assert a.process.text_base == b.process.text_base

    def test_different_seed_different_layout(self):
        bases = {Machine.linux(seed=s).kernel.base for s in range(8)}
        assert len(bases) > 4

    def test_playground_pages(self):
        machine = Machine.linux(seed=2)
        pg = machine.playground
        space = machine.kernel.user_space
        assert describe(space.translate(pg.user_rw).flags) == "rw-"
        assert describe(space.translate(pg.user_ro).flags) == "r--"
        assert describe(space.translate(pg.user_rx).flags) == "r-x"
        assert space.translate(pg.user_none) is None
        assert space.translate(pg.unmapped) is None

    def test_calibration_page_starts_clean(self):
        machine = Machine.linux(seed=2)
        flags = machine.kernel.user_space.translate(
            machine.playground.user_rw
        ).flags
        assert not flags & PageFlags.DIRTY

    def test_windows_factory(self):
        machine = Machine.windows(seed=3)
        assert machine.os_family == "windows"
        assert machine.kernel.kvas is False  # Alder Lake default
        machine_kvas = Machine.windows(cpu="i7-6600U", seed=3)
        assert machine_kvas.kernel.kvas is True

    def test_cloud_factory(self):
        machine = Machine.cloud("gce", seed=4)
        assert machine.instance.provider == "Google GCE"
        assert machine.cpu.name.startswith("Intel Xeon")
        with pytest.raises(ConfigError):
            Machine.cloud("ibm")

    def test_cloud_noise_scaled(self):
        bare = Machine.linux(cpu="xeon-cascade-lake", seed=5)
        cloud = Machine.cloud("gce", seed=5)
        assert cloud.core.noise.sigma > bare.core.noise.sigma

    def test_enclave_requires_sgx_cpu(self):
        machine = Machine.linux(cpu="i5-12400F", seed=6)  # no SGX
        with pytest.raises(ConfigError):
            machine.create_enclave()

    def test_enclave_creation(self):
        machine = Machine.linux(cpu="i7-1065G7", seed=6)
        enclave = machine.create_enclave()
        assert machine.enclave is enclave

    def test_core_bound_to_user_visible_table(self):
        machine = Machine.linux(seed=7, kpti=True)
        assert machine.core.address_space is machine.kernel.user_space
        assert machine.kernel.user_space is not machine.kernel.kernel_space
