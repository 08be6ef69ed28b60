"""End-to-end KASLR breaks on cloud instances (paper Section IV-H).

* **Amazon EC2** (Xeon E5-2676, Meltdown-vulnerable): the kernel runs
  KPTI, so the attack locates the trampoline (offset 0xe00000 on the AWS
  kernel) and derives the base; modules are detected as usual.
* **Google GCE** (Cascade Lake, hardware-fixed): plain P2 double-probe
  break plus module detection.
* **Microsoft Azure** (Xeon 8171M, Windows 10 21H2): the 18-bit region
  scan.
"""

from repro.attacks.kaslr_break import break_kaslr_intel
from repro.attacks.kpti_break import break_kaslr_kpti
from repro.attacks.module_detect import detect_modules
from repro.attacks.windows_break import find_kernel_region
from repro.machine import Machine
from repro.os.linux import layout


class CloudBreakResult:
    """Per-provider outcome."""

    __slots__ = (
        "provider",
        "base",
        "base_correct",
        "base_ms",
        "modules_ms",
        "modules_identified",
        "derandomized_bits",
        "method",
        "simulated_probes",
    )

    def __init__(self, provider, base, base_correct, base_ms, modules_ms,
                 modules_identified, derandomized_bits, method,
                 simulated_probes):
        self.provider = provider
        self.base = base
        self.base_correct = base_correct
        self.base_ms = base_ms
        self.modules_ms = modules_ms
        self.modules_identified = modules_identified
        self.derandomized_bits = derandomized_bits
        self.method = method
        self.simulated_probes = simulated_probes

    def __repr__(self):
        return "CloudBreakResult({!r}, base={}, {:.2f} ms)".format(
            self.provider, hex(self.base) if self.base else None,
            self.base_ms,
        )


def audit_cloud(provider=None, seed=0, machine=None,
                detect_kernel_modules=True):
    """Run the paper's attack suite against one cloud instance.

    Boots ``provider``'s instance from ``seed``, or audits ``machine``
    (a :meth:`Machine.cloud` instance) when one is given.
    """
    if machine is None:
        machine = Machine.cloud(provider, seed=seed)
    instance = machine.instance
    rounds = machine.cpu.rounds_default

    if instance.os_family == "windows":
        result = find_kernel_region(machine)
        return CloudBreakResult(
            provider=instance.provider,
            base=result.base,
            base_correct=result.base == machine.kernel.base,
            base_ms=result.probing_seconds * 1e3,
            modules_ms=None,
            modules_identified=None,
            derandomized_bits=result.derandomized_bits,
            method=result.method,
            simulated_probes=result.simulated_probes * rounds,
        )

    if instance.kpti:
        base_result = break_kaslr_kpti(machine)
    else:
        base_result = break_kaslr_intel(machine)
    probes = len(base_result.timings) * rounds

    modules_ms = None
    identified = None
    if detect_kernel_modules:
        module_result = detect_modules(machine)
        modules_ms = module_result.probing_ms
        identified = len(module_result.identified)
        probes += layout.MODULE_SLOTS * rounds

    return CloudBreakResult(
        provider=instance.provider,
        base=base_result.base,
        base_correct=base_result.base == machine.kernel.base,
        base_ms=base_result.probing_ms,
        modules_ms=modules_ms,
        modules_identified=identified,
        derandomized_bits=9,
        method=base_result.method,
        simulated_probes=probes,
    )
