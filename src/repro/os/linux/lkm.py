"""The custom experiment kernel module ("LKM") the paper's Section III uses.

The paper's micro-experiments need privileged operations an unprivileged
attacker does not have: INVLPG before each P3 sample, reading PTEs to
verify recovered permissions ("we investigated page tables using a
custom kernel module"), and flushing on demand.  This class models that
driver as an ioctl-style interface bound to one machine.

It exists for *experiments and verification only*; no attack code may
call it (attacks run unprivileged), which :attr:`call_log` lets tests
assert.
"""

from repro.errors import ConfigError
from repro.mmu.address import is_canonical
from repro.mmu.flags import describe


class ExperimentLKM:
    """Privileged experiment driver loaded into a simulated kernel."""

    def __init__(self, machine):
        if machine.os_family != "linux":
            raise ConfigError("the experiment LKM builds on Linux only")
        self.machine = machine
        self.call_log = []

    # -- ioctls ----------------------------------------------------------------

    def read_pte(self, va):
        """PTE inspection: (present, perms, page_size, pfn) of ``va``."""
        self._log("read_pte", va)
        if not is_canonical(va):
            raise ConfigError("non-canonical address {:#x}".format(va))
        translation = self.machine.kernel.kernel_space.translate(va)
        if translation is None:
            translation = self.machine.kernel.user_space.translate(va)
        if translation is None:
            return (False, "---", None, None)
        return (
            True,
            describe(translation.flags),
            translation.page_size,
            translation.pfn,
        )

    def invlpg(self, va):
        """Flush one translation (the P3 experiment's per-sample step)."""
        self._log("invlpg", va)
        self.machine.core.invlpg(va)

    def flush_all(self):
        """Full TLB + PSC flush (write to CR4.PGE, effectively)."""
        self._log("flush_all", None)
        self.machine.core.tlb.flush(keep_global=False)
        self.machine.core.walker.flush()

    def verify_permission_map(self, permission_map):
        """Check a recovered {va: 'r'|'rw'|'---'} map against the tables.

        Returns the list of mismatching addresses -- the paper's
        "confirmed that all the detected permissions are correct" step.
        """
        self._log("verify_permission_map", len(permission_map))
        collapse = {"r--": "r", "r-x": "r", "rw-": "rw", "rwx": "rw",
                    "---": "---"}
        mismatches = []
        for va, claimed in permission_map.items():
            present, perms, __, __ = self.read_pte(va)
            truth = collapse[perms] if present else "---"
            if truth != claimed:
                mismatches.append(va)
        return mismatches

    def count_mappings(self, start, end, stride):
        """Ground-truth mapped-page count over a range (verification)."""
        self._log("count_mappings", (start, end, stride))
        count = 0
        va = start
        while va < end:
            if self.machine.kernel.kernel_space.translate(va) is not None:
                count += 1
            va += stride
        return count

    # -- internals ----------------------------------------------------------------

    def _log(self, op, arg):
        self.call_log.append((op, arg))
