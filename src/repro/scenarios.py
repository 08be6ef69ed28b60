"""JSON-driven experiment scenarios.

A scenario file describes one victim machine, one attack, and the
expectations against ground truth -- so experiments are shareable data
rather than code.  The repository ships one scenario per paper
experiment under ``scenarios/``; run them with::

    python -m repro scenario scenarios/table1_alderlake.json
    python -m repro suite scenarios/

Schema::

    {
      "name": "...",
      "description": "...",
      "machine": {"os": "linux" | "windows" | "cloud", ...factory args},
      "attack": {"kind": "<attack>", ...attack args},
      "expect": {"correct": true, "max_total_ms": 1.0, ...}
    }
"""

import json
import os
import pathlib
import signal
import time

from repro.cpu.core import SWEEP_ENGINES
from repro.errors import ConfigError
from repro.machine import Machine

#: attack kinds -> runner(machine, params) -> dict of observations, or
#: ``(observations, verdict)`` for the supervised kind
_ATTACKS = {}


def _attack(name):
    def register(fn):
        _ATTACKS[name] = fn
        return fn
    return register


@_attack("kaslr")
def _run_kaslr(machine, params):
    from repro.attacks.kaslr_break import break_kaslr

    result = break_kaslr(machine, rounds=params.get("rounds"))
    return {
        "correct": result.base == machine.kernel.base,
        "base": result.base,
        "method": result.method,
        "probing_ms": result.probing_ms,
        "total_ms": result.total_ms,
    }


@_attack("modules")
def _run_modules(machine, params):
    from repro.attacks.module_detect import detect_modules, region_accuracy

    result = detect_modules(machine, rounds=params.get("rounds"))
    return {
        "correct": region_accuracy(result, machine.kernel) >= params.get(
            "min_accuracy", 0.98
        ),
        "identified": len(result.identified),
        "regions": len(result.regions),
        "probing_ms": result.probing_ms,
        "total_ms": result.total_ms,
    }


@_attack("kpti")
def _run_kpti(machine, params):
    from repro.attacks.kpti_break import break_kaslr_kpti

    result = break_kaslr_kpti(
        machine, trampoline_offset=params.get("trampoline_offset"))
    return {
        "correct": result.base == machine.kernel.base,
        "base": result.base,
        "probing_ms": result.probing_ms,
        "total_ms": result.total_ms,
    }


@_attack("windows-region")
def _run_windows_region(machine, params):
    from repro.attacks.windows_break import find_kernel_region

    result = find_kernel_region(machine)
    return {
        "correct": result.base == machine.kernel.base,
        "base": result.base,
        "bits": result.derandomized_bits,
        "probing_seconds": result.probing_seconds,
    }


@_attack("windows-kvas")
def _run_windows_kvas(machine, params):
    from repro.attacks.windows_break import find_kvas_region

    result = find_kvas_region(machine)
    return {
        "correct": result.base == machine.kernel.base,
        "base": result.base,
        "probing_seconds": result.probing_seconds,
    }


@_attack("user-scan")
def _run_user_scan(machine, params):
    from repro.attacks.userspace import find_user_code_base

    result = find_user_code_base(machine)
    return {
        "correct": result.base == machine.process.text_base,
        "base": result.base,
        "probing_seconds": result.probing_seconds,
    }


@_attack("sgx")
def _run_sgx(machine, params):
    from repro.attacks.sgx_break import break_aslr_from_enclave

    machine.create_enclave()
    result = break_aslr_from_enclave(
        machine, identify=params.get("identify", False))
    return {
        "correct": result.code_base == machine.process.text_base,
        "load_seconds": result.load_seconds,
        "store_seconds": result.store_seconds,
    }


@_attack("cloud")
def _run_cloud(machine, params):
    from repro.attacks.cloud_break import audit_cloud

    if getattr(machine, "instance", None) is None:
        raise ConfigError('the "cloud" attack needs an "os": "cloud" '
                          "machine")
    result = audit_cloud(machine=machine)
    return {
        "correct": result.base_correct,
        "provider": result.provider,
        "method": result.method,
        "base": result.base,
        "base_ms": result.base_ms,
        "modules_ms": result.modules_ms,
        "identified": result.modules_identified,
    }


@_attack("supervised")
def _run_supervised(machine, params):
    """Any attack through the supervisor (for chaos scenarios)."""
    from repro.attacks.supervisor import (
        supervise,
        supervised_truth,
        verdict_correct,
    )

    attack = params.pop("attack", "kaslr")
    verdict = supervise(
        machine, attack,
        max_retries=params.pop("max_retries", 3),
        probe_budget=params.pop("probe_budget", None),
        **params,
    )
    observations = {
        "status": verdict.status,
        "confidence": verdict.confidence,
        "retries": verdict.retries,
        "disturbances": len(verdict.disturbances),
        "probes": verdict.probes_spent,
        "correct": verdict_correct(
            verdict, supervised_truth(machine, attack, **params)
        ),
    }
    if attack == "modules":
        observations["identified"] = len(verdict.value or {})
    return observations, verdict


@_attack("hang")
def _run_hang(machine, params):
    """Fault-injection fixture: a scenario that never finishes.

    Exists so the watchdog path (``--timeout-per-scenario``, campaign
    watchdogs) can be exercised deterministically; a real deployment
    hits the same code through a livelocked attack.
    """
    time.sleep(params.get("seconds", 3600.0))
    return {"hung": False}


@_attack("kill-self")
def _run_kill_self(machine, params):
    """Fault-injection fixture: SIGKILL the worker running this scenario.

    The deterministic stand-in for an OOM-killed worker.  With a
    ``sentinel`` file path the process dies only while the sentinel
    does not yet exist (it is created just before dying), so the first
    attempt is lost and a retried attempt succeeds; without a sentinel
    every attempt dies.
    """
    sentinel = params.get("sentinel")
    if sentinel is None or not os.path.exists(sentinel):
        if sentinel is not None:
            pathlib.Path(sentinel).touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"correct": True, "survived_retry": True}


@_attack("noop")
def _run_noop(machine, params):
    """Infrastructure fixture: a deterministic microsecond-scale unit.

    Exists so 100k-unit campaign smokes and sustained-load soaks can
    exercise the fabric -- journals, scheduling, admission, resume --
    at real unit *counts* without paying a real attack's boot and
    probe cost per unit.  ``spin`` rounds of integer mixing keep the
    unit CPU-bound-but-tiny; the checksum is a pure function of
    ``(machine seed, spin)`` so resumed and re-run stores stay
    byte-identical.  Pair it with ``"machine": {"os": "none"}`` to
    skip the machine boot as well.
    """
    spin = int(params.get("spin", 64))
    acc = (machine.seed or 0) & 0xFFFFFFFF
    for i in range(spin):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
    return {"correct": True, "checksum": acc}


@_attack("fingerprint")
def _run_fingerprint(machine, params):
    from repro.attacks.fingerprint import ApplicationFingerprinter
    from repro.workloads.apps import APP_CATALOG, ApplicationWorkload

    app = params.get("app", "video-call")
    spy = ApplicationFingerprinter(machine)
    workload = ApplicationWorkload(app, seed=params.get("victim_seed", 1))
    guess, __, __ = spy.identify(
        workload, list(APP_CATALOG.values()),
        intervals=params.get("intervals", 20),
    )
    return {"correct": guess == app, "guess": guess, "truth": app}


def _jsonable(value):
    """Coerce observation values to plain JSON types (numpy scalars in
    particular), so a result serializes identically before and after a
    journal round trip."""
    if isinstance(value, bool) or value is None \
            or isinstance(value, (str, int, float)):
        if isinstance(value, float) and not isinstance(value, bool):
            return float(value)
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonable(item())
    return repr(value)


class ScenarioResult:
    """Outcome of one scenario run."""

    __slots__ = ("name", "passed", "observations", "violations",
                 "machine_seed", "chaos_digest", "degraded", "verdict")

    def __init__(self, name, passed, observations, violations,
                 machine_seed=None, chaos_digest=None, degraded=None,
                 verdict=None):
        self.name = name
        self.passed = passed
        self.observations = observations
        self.violations = violations
        #: boot seed of the victim machine (campaign journaling)
        self.machine_seed = machine_seed
        #: digest of the chaos schedule that fired during the run, or
        #: None on chaos-free machines (campaign resume verification)
        self.chaos_digest = chaos_digest
        #: degradation reason (e.g. "deadline") or None
        self.degraded = degraded
        #: the supervised kind's Verdict (in-process only: not in as_dict)
        self.verdict = verdict

    def degrade(self, reason):
        """Downgrade this result instead of dropping it (deadline rule).

        Mirrors the supervisor's verdict degradation: the confidence is
        halved and a ``found`` status that falls below the reporting
        bar becomes ``abstain``; the value and pass/fail stand.
        """
        from repro.attacks.supervisor import apply_degradation

        self.degraded = reason
        confidence = self.observations.get("confidence")
        if isinstance(confidence, (int, float)) \
                and not isinstance(confidence, bool):
            status, confidence = apply_degradation(
                self.observations.get("status"), confidence
            )
            self.observations["confidence"] = confidence
            if self.observations.get("status") is not None:
                self.observations["status"] = status
        return self

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "observations": _jsonable(self.observations),
            "violations": [str(v) for v in self.violations],
            "machine_seed": self.machine_seed,
            "chaos_digest": self.chaos_digest,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["name"], data["passed"], data["observations"],
            data["violations"], machine_seed=data.get("machine_seed"),
            chaos_digest=data.get("chaos_digest"),
            degraded=data.get("degraded"),
        )

    def __repr__(self):
        return "ScenarioResult({!r}, {})".format(
            self.name, "PASS" if self.passed else "FAIL"
        )


class _StubMachine:
    """A bootless machine for infrastructure fixtures (``"os": "none"``).

    Booting even the smallest Linux model costs tens of milliseconds;
    a 100k-unit fabric smoke cannot afford that per unit.  The stub
    carries exactly the attributes the scenario plumbing reads --
    ``seed`` and ``chaos`` -- and nothing an actual attack could use,
    so only infrastructure fixtures (``noop``, ``hang``,
    ``kill-self``) run on it.
    """

    __slots__ = ("seed", "chaos")

    def __init__(self, seed=0):
        self.seed = seed
        self.chaos = None


def _build_machine(spec):
    spec = dict(spec)
    os_family = spec.pop("os", "linux")
    if os_family == "linux":
        return Machine.linux(**spec)
    if os_family == "windows":
        return Machine.windows(**spec)
    if os_family == "cloud":
        return Machine.cloud(spec.pop("provider"), **spec)
    if os_family == "none":
        return _StubMachine(seed=spec.pop("seed", 0))
    raise ConfigError("unknown machine os {!r}".format(os_family))


def _check_expectations(expect, observations):
    violations = []
    for key, wanted in expect.items():
        if key.startswith("max_"):
            field = key[4:]
            actual = observations.get(field)
            if actual is None or actual > wanted:
                violations.append(
                    "{} = {} exceeds {}".format(field, actual, wanted)
                )
        elif key.startswith("min_"):
            field = key[4:]
            actual = observations.get(field)
            if actual is None or actual < wanted:
                violations.append(
                    "{} = {} below {}".format(field, actual, wanted)
                )
        else:
            actual = observations.get(key)
            if actual != wanted:
                violations.append(
                    "{} = {!r}, expected {!r}".format(key, actual, wanted)
                )
    return violations


def _check_engine_param(params):
    """Reject a bad sweep-engine attack param before the machine boots."""
    if "batched" in params:
        raise ConfigError(
            'attack param "batched" is gone: sweeps pick their engine '
            'with "engine" (drop it for the automatic choice, or use '
            '"engine": "per-op" for the per-op reference path)'
        )
    engine = params.get("engine")
    if engine is not None and engine not in SWEEP_ENGINES:
        raise ConfigError(
            "unknown sweep engine {!r}; known: {}".format(
                engine, ", ".join(SWEEP_ENGINES)
            )
        )


def load_scenario(scenario):
    """Read a scenario (dict or file path) and check it before any boot.

    Rejects a missing field, an unknown attack kind and a bad sweep
    engine, so a broken spec never pays for a machine.
    """
    if isinstance(scenario, (str, pathlib.Path)):
        path = pathlib.Path(scenario)
        try:
            scenario = json.loads(path.read_text())
        except OSError as error:
            raise ConfigError(
                "cannot read scenario {}: {}".format(path, error)
            ) from error
        except json.JSONDecodeError as error:
            raise ConfigError(
                "scenario {} is not valid JSON: {}".format(path, error)
            ) from error
    for field in ("name", "machine", "attack"):
        if field not in scenario:
            raise ConfigError(
                "scenario is missing the {!r} field".format(field)
            )
    kind = scenario["attack"].get("kind")
    if kind not in _ATTACKS:
        raise ConfigError(
            "unknown attack kind {!r}; known: {}".format(
                kind, ", ".join(sorted(_ATTACKS))
            )
        )
    _check_engine_param(scenario["attack"])
    return scenario


def run_on(machine, scenario):
    """Run a loaded scenario's attack on ``machine`` and judge it.

    The attack's ``"engine"`` param, when given, becomes the core's
    ``sweep_engine``: every sweep of the attack runs on that executor.
    The bootless stub has no core, and its fixtures run no sweeps.
    """
    params = dict(scenario["attack"])
    engine = params.pop("engine", None)
    if engine is not None and not isinstance(machine, _StubMachine):
        machine.core.sweep_engine = engine
    outcome = _ATTACKS[params.pop("kind")](machine, params)
    observations, verdict = (outcome if isinstance(outcome, tuple)
                             else (outcome, None))
    violations = _check_expectations(
        scenario.get("expect", {}), observations
    )
    return ScenarioResult(
        scenario["name"], not violations, observations, violations,
        machine_seed=machine.seed,
        chaos_digest=(machine.chaos.schedule_digest()
                      if machine.chaos is not None else None),
        verdict=verdict,
    )


def run_scenario(scenario):
    """Run one scenario (dict or file path) on a freshly booted machine."""
    scenario = load_scenario(scenario)
    return run_on(_build_machine(scenario["machine"]), scenario)


def _run_scenario_guarded(path):
    """Pool-safe wrapper: a crashing scenario becomes a FAIL result.

    Module-level (so it pickles into worker processes) and
    exception-free (so one broken scenario file cannot take down the
    whole suite with a raw traceback from the parent).
    """
    try:
        return run_scenario(path)
    except Exception as error:
        name = pathlib.Path(path).stem
        return ScenarioResult(
            name, False, {"error": repr(error)},
            ["scenario crashed: {!r}".format(error)],
        )


def run_suite(directory, jobs=None, timeout_per_scenario=None):
    """Run every ``*.json`` scenario in a directory, sorted by name.

    ``jobs`` > 1 fans the scenarios out over the supervised pool (each
    scenario boots its own machine, so they are fully independent);
    results come back in the same sorted-by-name order as the serial
    path.  A scenario that *raises* becomes a failed ScenarioResult
    (``_run_scenario_guarded``); a worker that is hard-killed mid-
    scenario (OOM killer, operator SIGKILL) no longer aborts the suite
    with ``BrokenProcessPool`` -- the pool is respawned, the lost
    scenario is surfaced as a FAIL result, and the remaining scenarios
    keep running.  ``timeout_per_scenario`` (seconds) arms a wall-clock
    watchdog: a hung scenario is killed, reported FAIL, and never
    stalls the rest of the suite.  Workers are capped at the machine's
    core count -- oversubscribing a smaller box is pure scheduling
    overhead.
    """
    directory = pathlib.Path(directory)
    paths = sorted(directory.glob("*.json"))
    parallel = jobs is not None and jobs > 1 and len(paths) > 1
    if not parallel and timeout_per_scenario is None:
        return [_run_scenario_guarded(path) for path in paths]

    # the watchdog needs process isolation even at --jobs 1, and a
    # --jobs N request keeps isolation on a small box too: only the
    # worker count is capped at the core count, never the pool itself
    from repro.campaign.pool import OK, SupervisedPool

    workers = max(1, min(jobs or 1, len(paths), os.cpu_count() or 1))
    pool = SupervisedPool(
        jobs=workers, watchdog_s=timeout_per_scenario, max_retries=0
    )
    outcomes = pool.run(
        [(path.stem, str(path)) for path in paths], _run_scenario_guarded
    )
    results = []
    for path in paths:
        outcome = outcomes[path.stem]
        if outcome.status == OK:
            results.append(outcome.value)
        else:
            results.append(ScenarioResult(
                path.stem, False, {"error": outcome.detail},
                ["scenario runner lost: {}".format(outcome.detail)],
            ))
    return results
