"""Run one benchmark workload in this process and print its record.

``bench/run.py`` starts this module as a child process, once per
workload (``python -m bench.harness --workload NAME ...``), so that the
workload's import time and peak RSS are its own; ``--role setup`` runs
a short cold-start probe instead.  The last line of standard output is
one JSON record: end-to-end metric values, per-layer values when
traced, the exact correctness figures and the outcome digest.

Run length follows ``--seconds``: each workload repeats a pass of
inputs fixed by ``--seed`` until the time is used (at least twice), so
two commits process identical passes and a faster commit simply runs
more of them.  Every repetition of a pass must reproduce the first
pass's outcome digest.

Host times are reported at a reference host speed measured by
``bench/hostspeed.py`` (for ``serve-open``, the execution part of each
request's latency; its wait for the dispatcher's fixed idle poll does
not scale with the host); every record keeps the slowness factors and
the uncorrected figures in a ``host`` block.
"""

import argparse
import collections
import contextlib
import hashlib
import itertools
import json
import os
import pathlib
import resource
import selectors
import shutil
import statistics
import sys
import time

from bench import hostspeed, workloads
from bench.trace import Tracer

#: reference point for ``setup_s``: before anything from ``repro`` loads
STARTED = time.perf_counter()

#: the fabric shape the benchmark is sized for (a 2-core host)
JOBS = 2
SHARDS = 2
#: serve-open: two tenants, one connection each
TENANTS = ("t0", "t1")
#: steady arrival rate (req/s; full, smoke).  The full rate stays far
#: below what the pool serves even when the shared host slows down
#: (the ladder's highest passing step fell from 60 req/s to 40, or
#: below its first step of 30, in slow spells, and at 25 req/s such a
#: spell drove p50 from 75 to 340 ms).  The smoke rate serves its
#: 20-unit pass within a 2-s phase
STEADY_RATE = (10.0, 25.0)
#: requests per host speed segment
SERVE_SEGMENT = 20
LADDER_RATES = (30, 40, 50, 60, 70, 80, 90)
LADDER_STEP_S = (2.5, 0.5)
LADDER_P90_MS = 250.0
#: cold starts measured per serve run (the in-process workloads probe
#: theirs in separate processes, see bench/run.py)
SERVE_SETUPS = (9, 2)
#: the simulated attacks are probabilistic by design (paper Table I:
#: 99.29-99.84 % accuracy; the modelled Azure part misses ~20 %), so a
#: boot-bound pass expects ~1.6 % wrong units.  A broken attack path
#: (every KPTI, Windows or cloud unit wrong) crosses this ceiling
WRONG_CEILING = 0.10

WORK_ROOT = pathlib.Path("bench") / ".work"


# -- small helpers ---------------------------------------------------------------


def percentile(values, pct):
    """Inclusive-method percentile (``pct`` in 1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def segment_percentiles(segments):
    """p50 and p90 of each segment of unit times, median over segments.

    Segments have a fixed composition (one generator cycle, one plan
    run), so their percentiles are comparable; the median over them
    ignores host contention that lasts less than half the run, which
    a percentile over all units pools in.
    """
    segments = [s for s in segments if s]
    return (statistics.median(statistics.median(s) for s in segments),
            statistics.median(percentile(s, 90) for s in segments))


def unit_metrics(segments):
    """Throughput and latency of segments of unit times (ms).

    ``units_per_s`` is taken over every unit, so that collector pauses,
    which land on a few units of a few passes, are averaged in.
    """
    p50, p90 = segment_percentiles(segments)
    return {"units_per_s": 1000.0 * sum(map(len, segments))
            / sum(map(sum, segments)),
            "unit_p50_ms": p50, "unit_p90_ms": p90}


def chunks(values, size):
    """Consecutive ``size``-long runs of ``values`` (a short tail is
    dropped unless it is all there is)."""
    parts = [values[i:i + size] for i in range(0, len(values), size)]
    return [p for p in parts if len(p) == size] or parts


def _strip_wall(value):
    """Drop host-time fields, which differ on every run by nature."""
    if isinstance(value, dict):
        return {key: _strip_wall(item) for key, item in value.items()
                if "wall" not in key and key not in ("generated_at",
                                                     "directory")}
    if isinstance(value, list):
        return [_strip_wall(item) for item in value]
    return value


def outcome_digest(result):
    """sha256 of one unit's observations, host-time fields removed."""
    text = json.dumps(_strip_wall(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combined_digest(digests):
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def peak_rss_mb(children=False):
    """Peak resident set (MB): this process, plus reaped children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def failed(result):
    """Did this unit fail to execute (no result, or a crash recorded)?"""
    return result is None or "error" in result.get("observations", {})


def aborted(spec, error):
    """The result of a unit whose simulated attack gave up.

    An ``AttackError`` is the attack's own verdict on its victim, as
    deterministic as a wrong guess: the fingerprinter, for one, aborts
    when the module scan it builds on cannot tell a sentinel module
    apart by size (about 2 % of boots).  The unit completed and missed
    ground truth, so it counts as wrong, not as failed to execute.
    """
    return {"name": spec["name"], "passed": False,
            "observations": {"aborted": repr(error)},
            "violations": ["attack aborted: {!r}".format(error)]}


class Outcomes:
    """Correctness tally over the canonical outcome of each input.

    ``add`` takes one spec and its scenario-result dict (None when the
    unit never produced one).  Completed units that miss ground truth
    or the spec's ``expect`` count as ``wrong``; Table I units feed
    ``paper_err_pct``.  Both figures are pure functions of the seed.
    """

    def __init__(self):
        self.units = 0
        self.wrong = 0
        self.paper_err = []

    def add(self, spec, result):
        self.units += 1
        if failed(result):
            return
        if not result["passed"]:
            self.wrong += 1
        paper = workloads.paper_total_ms(spec)
        total = result["observations"].get("total_ms")
        if paper is not None and total is not None:
            self.paper_err.append(abs(total - paper) / paper * 100.0)

    def exact(self):
        return {
            "wrong_ratio": self.wrong / max(1, self.units),
            "paper_err_pct": statistics.mean(self.paper_err)
            if self.paper_err else 0.0,
        }


def _phases(seconds, traced):
    """(name, budget_s, minimum repetitions) for the timed phases.

    Untraced runs measure for the whole budget; traced runs spend a
    third untraced (the overhead baseline) and the rest traced.
    """
    if not traced:
        return [("untraced", seconds, 2)]
    return [("untraced", seconds / 3.0, 1),
            ("traced", seconds * 2.0 / 3.0, 1)]


def _repeat(budget_s, minimum, body):
    """Call ``body()`` until ``budget_s`` would be overrun (>= minimum)."""
    start = time.perf_counter()
    last = 0.0
    count = 0
    while count < minimum \
            or time.perf_counter() - start + last <= budget_s:
        began = time.perf_counter()
        body()
        last = time.perf_counter() - began
        count += 1


# -- instrumentation -------------------------------------------------------------


def instrument_attacks(tracer):
    """Wrap the simulator's compute layers (the two in-process workloads)."""
    from repro.attacks import (calibrate, kaslr_break, kpti_break,
                               module_detect, sgx_break, supervisor,
                               userspace, windows_break)
    from repro.attacks.fingerprint import ApplicationFingerprinter
    from repro.cpu import engine
    from repro.cpu.core import Core
    from repro.machine import Machine
    from repro.mmu.pagetable import AddressSpace, PageTable
    from repro.os.linux.kernel import LinuxKernel

    def count_rows(args, kwargs, result, start, end):
        vas = args[1] if len(args) > 1 else kwargs["vas"]
        tracer.count("cpu.sweep_rows", len(vas))

    def count_fallback(args, kwargs, result, start, end):
        tracer.count("cpu.fallback_rows", args[7] - args[6])

    def count_verdict(args, kwargs, verdict, start, end):
        tracer.count("attacks.supervisor_retries", verdict.retries)
        tracer.count("chaos.disturbances", len(verdict.disturbances))

    for attr in ("linux", "windows", "cloud"):
        tracer.wrap(Machine, attr, "machine.boot")
    tracer.wrap(LinuxKernel, "__init__", "os.linux.kernel")
    tracer.wrap(PageTable, "map", "mmu.map", timer=True)
    tracer.wrap(AddressSpace, "map_range", "mmu.map_range", timer=True)
    tracer.wrap(Core, "probe_sweep", "cpu.sweep", observe=count_rows)
    tracer.wrap(engine, "sweep_rows", "cpu.fallback", timer=True,
                observe=count_fallback)
    for attr in ("timed_masked_load", "timed_masked_store"):
        tracer.wrap(Core, attr, "cpu.per_op_probe", timer=True)
    for owner, attr in ((calibrate, "calibrate_store_threshold"),
                        (calibrate, "calibrate_user_load"),
                        (supervisor.AttackSupervisor,
                         "checked_calibration")):
        tracer.wrap(owner, attr, "attacks.calibrate")
    for owner, attr in ((kaslr_break, "break_kaslr"),
                        (kpti_break, "break_kaslr_kpti"),
                        (module_detect, "detect_modules"),
                        (windows_break, "find_kernel_region"),
                        (windows_break, "find_kvas_region"),
                        (userspace, "find_user_code_base"),
                        (sgx_break, "break_aslr_from_enclave"),
                        (ApplicationFingerprinter, "identify")):
        tracer.wrap(owner, attr, "attacks.driver")
    tracer.wrap(supervisor, "supervise", "attacks.supervisor",
                observe=count_verdict)
    tracer.track_gc()


def attack_layers(tracer, units):
    """Per-unit compute-layer metrics from a traced in-process phase."""
    units = max(1, units)
    layers = tracer.layers()
    timers = tracer.timers
    counts = tracer.counts

    def inclusive_ms(name):
        return layers.get(name, (0, 0.0, 0.0))[1] * 1000.0 / units

    def self_ms(name):
        return layers.get(name, (0, 0.0, 0.0))[2] * 1000.0 / units

    rows = counts["cpu.sweep_rows"]
    fallback = counts["cpu.fallback_rows"]
    sweep_s = layers.get("cpu.sweep", (0, 0.0, 0.0))[1]
    return {
        "machine.boot_ms": inclusive_ms("machine.boot"),
        "os.linux.kernel_ms": inclusive_ms("os.linux.kernel"),
        "mmu.map_calls": timers["mmu.map"][0] / units,
        "mmu.map_ms": timers["mmu.map"][1] * 1000.0 / units,
        "mmu.map_range_calls": timers["mmu.map_range"][0] / units,
        "cpu.sweep_ms": inclusive_ms("cpu.sweep"),
        "cpu.sweep_rows": rows / units,
        "cpu.columnar_rows": (rows - fallback) / units,
        "cpu.fallback_rows": fallback / units,
        "cpu.columnar_share": (rows - fallback) / rows if rows else 0.0,
        "cpu.rows_per_s": rows / sweep_s if sweep_s else 0.0,
        "cpu.per_op_probes": timers["cpu.per_op_probe"][0] / units,
        "attacks.calibrate_ms": self_ms("attacks.calibrate"),
        "attacks.driver_ms": self_ms("attacks.driver"),
        "attacks.supervisor_ms": self_ms("attacks.supervisor"),
        "attacks.supervisor_retries":
            counts["attacks.supervisor_retries"] / units,
        "chaos.disturbances": counts["chaos.disturbances"] / units,
        "python.gc_ms": timers["python.gc"][1] * 1000.0 / units,
    }


# -- in-process workloads (boot-bound, sweep-bound) --------------------------------


#: generator, pass size (full, smoke) and percentile segment per
#: in-process workload.  A segment is whole generator cycles: one for
#: boot-bound (its p90 falls among the three AMD units), two for
#: sweep-bound (its p90 falls between the two SGX units, not between
#: an SGX and a chaos unit)
INPROCESS = {
    "boot-bound": (workloads.boot_bound, workloads.BOOT_BOUND_UNITS, 20),
    "sweep-bound": (workloads.sweep_bound, workloads.SWEEP_BOUND_UNITS, 24),
}


def _specs(args):
    generate, size, __ = INPROCESS[args.workload]
    return generate(args.seed, size[1] if args.smoke else size[0])


def setup_inprocess(args):
    """Cold start: import the simulator and run the pass's first unit."""
    specs = _specs(args)
    from repro.scenarios import run_scenario

    imported = time.perf_counter()
    run_scenario(specs[0])
    first_unit = time.perf_counter() - imported
    host = hostspeed.burst()
    # the probe tracks the unit's kind of work; imports (file reads,
    # module bodies) respond far less to the host's contention, so
    # they stay as measured
    return {"setup_s": imported - STARTED + first_unit / host,
            "import_s": imported - STARTED, "first_unit_s": first_unit,
            "host_factor": host}


def host_corrected(times, probes, size):
    """``times`` in ``size``-long segments, each divided by the host
    slowness factor of the probes run alongside it."""
    return [[value / hostspeed.factor(segment_probes) for value in segment]
            for segment, segment_probes in zip(chunks(times, size),
                                               chunks(probes, size))]


def measure_inprocess(args, trace_out):
    """Closed loop, one caller: repeat the seeded pass for ``--seconds``.

    A host speed probe runs before every unit, outside its timing.
    """
    specs = _specs(args)
    from repro.errors import AttackError
    from repro.scenarios import run_scenario

    run_scenario(specs[0])  # warm-up, discarded
    tracer = Tracer()
    timings = {"untraced": [], "traced": []}
    probes = {"untraced": [], "traced": []}
    first_pass_rss = []
    digests = []
    outcomes = Outcomes()
    executions = {"attempted": 0, "failed": 0}

    def one_pass(phase):
        results = []
        for index, spec in enumerate(specs):
            probes[phase].append(hostspeed.probe())
            tracer.unit = index
            scope = tracer.span("unit") if phase == "traced" \
                else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    result = run_scenario(spec).as_dict()
            except AttackError as error:
                result = aborted(spec, error)
            except Exception as error:  # noqa: BLE001 -- a crashing unit
                # is a failed operation to report, not a benchmark crash
                result = None
                print("unit {} raised {!r}".format(spec["name"], error),
                      file=sys.stderr)
            timings[phase].append((time.perf_counter() - start) * 1000.0)
            results.append(result)
        executions["attempted"] += len(specs)
        executions["failed"] += sum(1 for r in results if failed(r))
        if not digests:
            for spec, result in zip(specs, results):
                outcomes.add(spec, result)
            # the simulator's columnar node cache keeps growing with
            # every unit run, so the peak is taken over the fixed first
            # pass: a faster commit runs more passes, not more memory
            first_pass_rss.append(peak_rss_mb())
        digests.append(combined_digest(
            outcome_digest(r) if r is not None else "-" for r in results))

    for phase, budget, minimum in _phases(args.seconds, args.trace):
        if phase == "traced":
            instrument_attacks(tracer)
        try:
            _repeat(budget, minimum, lambda: one_pass(phase))
        finally:
            tracer.restore()

    size = INPROCESS[args.workload][2]
    metrics = unit_metrics(host_corrected(timings["untraced"],
                                          probes["untraced"], size))
    metrics["peak_rss_mb"] = first_pass_rss[0]
    if args.trace:
        traced_units = len(timings["traced"])
        metrics.update(attack_layers(tracer, traced_units))
        metrics["bench.trace_overhead"] = unit_metrics(host_corrected(
            timings["traced"], probes["traced"], size))["unit_p50_ms"] \
            / metrics["unit_p50_ms"]
        _write_trace(trace_out, tracer, traced_units)
    record = _record(outcomes, executions, digests, metrics, shape={
        "passes": len(digests), "units_per_pass": len(specs)})
    record["host"] = {
        "factors": [hostspeed.factor(p)
                    for p in chunks(probes["untraced"], size)],
        "raw": unit_metrics(chunks(timings["untraced"], size)),
    }
    return record


# -- campaign --------------------------------------------------------------------


def instrument_campaign(tracer, appends):
    """Wrap the parent-side fabric layers (pool workers are forked
    children, so the layers they execute cannot be traced from here)."""
    from repro.campaign import coordinator, journal, runner

    def note_append(args, kwargs, result, start, end):
        appends.append((start, end, args[1], kwargs.get("unit"),
                        kwargs.get("shard")))

    tracer.wrap(coordinator.ShardedCampaignRunner, "run", "campaign.run")
    tracer.wrap(runner, "plan_units", "campaign.plan")
    tracer.wrap(journal, "fold_records", "campaign.fold")
    tracer.wrap(runner, "build_store", "campaign.store")
    tracer.wrap(journal.CampaignJournal, "append", "campaign.journal_append",
                timer=True, observe=note_append)


def campaign_layers(tracer, appends, runs):
    """Fabric metrics from the traced campaign runs.

    ``runs`` is a list of ``(units, wall_s)``; ``appends`` holds one
    ``(start, end, kind, unit, shard)`` per journal append.
    """
    units = max(1, sum(size for size, __ in runs))
    layers = tracer.layers()
    calls, append_s = tracer.timers["campaign.journal_append"]
    run_spans = sorted((s[1], s[2]) for s in tracer.spans
                       if s[0] == "campaign.run")
    first_unit, service, gaps = [], [], []
    for begin, end in run_spans:
        inside = sorted(a for a in appends if begin <= a[0] <= end)
        unit_starts = [a[0] for a in inside if a[2] == "unit-start"]
        if unit_starts:
            first_unit.append(unit_starts[0] - begin)
        starts = {}
        last_finish = {}
        for start, finish, kind, unit, shard in inside:
            if kind == "unit-start":
                starts.setdefault(unit, start)
                if shard in last_finish:
                    gaps.append((start - last_finish.pop(shard)) * 1000.0)
            elif kind == "unit-finish" and unit in starts:
                service.append((start - starts[unit]) * 1000.0)
                last_finish[shard] = finish
    busy_s = sum(service) / 1000.0
    wall_s = sum(wall for __, wall in runs)

    def per_run_ms(name):
        return layers.get(name, (0, 0.0, 0.0))[1] * 1000.0 / max(1, len(runs))

    return {
        "campaign.journal_appends": calls / units,
        "campaign.journal_append_ms": append_s * 1000.0 / units,
        "campaign.plan_ms": per_run_ms("campaign.plan"),
        "campaign.fold_ms": per_run_ms("campaign.fold"),
        "campaign.store_ms": per_run_ms("campaign.store"),
        "campaign.first_unit_s": statistics.median(first_unit)
        if first_unit else 0.0,
        "campaign.unit_service_ms": statistics.median(service)
        if service else 0.0,
        "campaign.dispatch_gap_ms": statistics.median(gaps) if gaps else 0.0,
        "campaign.worker_busy": busy_s / (wall_s * JOBS) if wall_s else 0.0,
    }


def fit_rounds(rounds, small, large, host=1.0):
    """Fixed and marginal cost of campaign rounds, and unit latency.

    Walls and samples are divided by the host factor ``host``; the line
    through a round's two walls gives the fixed cost (intercept) and
    the cost per unit (slope).
    """
    fits, samples = [], []
    for small_wall, large_wall, unit_ms in rounds:
        slope = (large_wall - small_wall) / host / (large - small)
        fits.append((small_wall / host - small * slope, slope))
        samples.append([sample / host for sample in unit_ms])
    p50, p90 = segment_percentiles(samples)
    return {"setup_s": statistics.median(fit[0] for fit in fits),
            "units_per_s": statistics.median(1.0 / fit[1] for fit in fits),
            "unit_p50_ms": p50, "unit_p90_ms": p90}


def measure_campaign(args, trace_out):
    """Sharded campaigns at two plan sizes: fit fixed and per-unit cost.

    Each repetition runs the small and the large plan once; the line
    through the two walls gives the fixed cost (intercept, ``setup_s``)
    and the marginal cost (slope, ``1 / units_per_s``).  Unit latency
    samples are finish-to-finish intervals on each shard of the large
    plan, its start-up interval excluded.  Both are host corrected by
    the median of probe bursts taken while no worker runs, before and
    after each repetition: a probe run next to the workers would also
    measure their contention, which the program's own changes move.
    One factor for the run, because a burst reads the host over 15 ms
    and a repetition lasts seconds: per-repetition factors added as
    much spread as they removed.
    """
    from repro.campaign import ShardedCampaignRunner

    small, large = workloads.CAMPAIGN_SIZES[1 if args.smoke else 0]
    specs = workloads.boot_bound(args.seed, large)
    work = _work_dir()
    plans = {}
    for size in (small, large):
        plans[size] = work / "plan-{}".format(size)
        plans[size].mkdir()
        for index, spec in enumerate(specs[:size]):
            (plans[size] / "u{:04d}.json".format(index)).write_text(
                json.dumps(spec))
    numbers = itertools.count(1)

    def one_run(size):
        journal = work / "c{:03d}.jsonl".format(next(numbers))
        finishes = collections.defaultdict(list)

        def sink(kind, fields):
            if kind == "unit-finish":
                finishes[fields.get("shard")].append(time.perf_counter())

        runner = ShardedCampaignRunner(
            journal, directory=str(plans[size]), shards=SHARDS, jobs=JOBS,
            seed=args.seed, event_sink=sink,
        )
        start = time.perf_counter()
        report = runner.run()
        wall = time.perf_counter() - start
        unit_ms = []
        for times in finishes.values():
            times.sort()
            unit_ms.extend((later - earlier) * 1000.0
                           for earlier, later in zip(times, times[1:]))
        for path in work.glob(journal.stem + "*"):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink()
        return wall, unit_ms, report.store

    one_run(small)  # warm-up (cold caches, first fork), discarded
    tracer = Tracer()
    appends = []
    #: per phase: (small wall, large wall, large samples) per round
    rounds = {"untraced": [], "traced": []}
    #: per phase: host factors of the idle bursts around its rounds
    bursts = {"untraced": [], "traced": []}
    traced_runs = []
    stores = {small: [], large: []}
    executions = {"attempted": 0, "failed": 0}

    def one_round(phase):
        bursts[phase].append(hostspeed.idle_burst())
        raw = [one_run(size) for size in (small, large)]
        bursts[phase].append(hostspeed.idle_burst())
        rounds[phase].append((raw[0][0], raw[1][0], raw[1][1]))
        for size, (wall, __, store) in zip((small, large), raw):
            stores[size].append(store)
            executions["attempted"] += size
            executions["failed"] += sum(
                1 for unit in store["units"]
                if unit["status"] not in ("PASS", "FAIL")
                or "error" in unit.get("observations", {}))
            if phase == "traced":
                traced_runs.append((size, wall))

    for phase, budget, minimum in _phases(args.seconds, args.trace):
        if phase == "traced":
            instrument_campaign(tracer, appends)
        try:
            _repeat(budget, minimum, lambda: one_round(phase))
        finally:
            tracer.restore()

    outcomes = Outcomes()
    canonical = stores[large][0]["units"]
    for spec, unit in zip(specs, canonical):
        result = None
        if unit["status"] in ("PASS", "FAIL"):
            result = {"passed": unit["status"] == "PASS",
                      "observations": unit["observations"]}
        outcomes.add(spec, result)
    store_digests = {size: [outcome_digest(store) for store in stores[size]]
                     for size in stores}
    # the small plan is a prefix of the large one: same units, same results
    prefix_ok = [_strip_wall(u) for u in stores[small][0]["units"]] \
        == [_strip_wall(u) for u in canonical[:small]]
    digests = [combined_digest(pair) for pair in
               zip(store_digests[small], store_digests[large])]
    metrics = fit_rounds(rounds["untraced"], small, large,
                         statistics.median(bursts["untraced"]))
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    if args.trace:
        metrics.update(campaign_layers(tracer, appends, traced_runs))
        metrics["bench.trace_overhead"] = fit_rounds(
            rounds["traced"], small, large,
            statistics.median(bursts["traced"]))["unit_p50_ms"] \
            / metrics["unit_p50_ms"]
        _write_trace(trace_out, tracer,
                     sum(size for size, __ in traced_runs))
    record = _record(outcomes, executions, digests, metrics, shape={
        "rounds": len(digests), "plan_sizes": [small, large]})
    record["host"] = {"factors": bursts["untraced"],
                      "raw": fit_rounds(rounds["untraced"], small, large)}
    if not prefix_ok:
        record["correct"] = False
        record["notes"].append("small-plan results differ from the "
                               "large plan's prefix")
    return record


# -- serve-open ------------------------------------------------------------------


class Request:
    __slots__ = ("tag", "index", "spec", "due", "sent", "accepted",
                 "started", "finished", "done", "status", "reason",
                 "result", "probe")

    def __init__(self, tag, index, spec, due):
        self.tag = tag
        self.index = index
        self.spec = spec
        self.due = due
        self.sent = self.accepted = self.started = None
        self.finished = self.done = None
        self.status = self.reason = self.result = None
        self.probe = None

    @property
    def rid(self):
        return "{}-{:05d}".format(self.tag, self.index)

    def latency_ms(self, host=1.0):
        """Due-to-verdict time, its execution part (unit-start to
        unit-finish event) divided by the host slowness factor ``host``;
        refused or unfinished requests never meet a latency limit."""
        if self.status != "done" or self.done is None:
            return float("inf")
        latency = self.done - self.due
        if self.started is not None and self.finished is not None:
            execution = self.finished - self.started
            latency -= execution - execution / host
        return latency * 1000.0


def host_latencies(requests):
    """Latency (ms) of each served request in ``requests`` (in send
    order), host corrected by the probes of its segment of
    :data:`SERVE_SEGMENT` requests; also the segments' factors."""
    latencies, factors = [], []
    for start in range(0, len(requests), SERVE_SEGMENT):
        segment = requests[start:start + SERVE_SEGMENT]
        factors.append(hostspeed.factor([r.probe for r in segment]))
        latencies.extend(r.latency_ms(factors[-1]) for r in segment
                         if r.status == "done")
    return latencies, factors


class OpenLoop:
    """Open-loop load from one thread: one connection per tenant.

    Requests go out when they are due whatever is outstanding, and each
    is timed from when it was *due*, so a stall is charged to every
    request it delays.  Replies are read as they arrive (pipelined
    submits, demultiplexed by request id).
    """

    def __init__(self, address):
        from repro.serve import ServeClient

        self.clients = [ServeClient(address, timeout_s=30.0,
                                    retries=0).connect(tenant)
                        for tenant in TENANTS]
        self.selector = selectors.DefaultSelector()
        for index, client in enumerate(self.clients):
            self.selector.register(client.sock, selectors.EVENT_READ, index)
        self.buffers = [b""] * len(self.clients)
        self.inflight = {}

    def close(self):
        self.selector.close()
        for client in self.clients:
            client.close()

    def drive(self, requests, settle_s, probe=False):
        """Send ``requests`` on schedule; wait ``settle_s`` for stragglers.

        ``due`` holds offsets (s) on entry and absolute times on return.
        With ``probe``, a host speed probe runs after each send.
        """
        origin = time.perf_counter()
        for request in requests:
            request.due += origin
        at = 0
        settle_until = None
        while True:
            now = time.perf_counter()
            while at < len(requests) and requests[at].due <= now:
                self._send(requests[at])
                if probe:
                    requests[at].probe = hostspeed.probe()
                at += 1
                now = time.perf_counter()
            if at < len(requests):
                wait = requests[at].due - now
            else:
                if not self.inflight:
                    return
                if settle_until is None:
                    settle_until = now + settle_s
                wait = settle_until - now
                if wait <= 0:
                    return
            for key, __ in self.selector.select(min(wait, 0.25)):
                self._read(key.data)

    def _send(self, request):
        client = self.clients[request.index % len(self.clients)]
        request.sent = time.perf_counter()
        self.inflight[request.rid] = request
        client.send({"type": "submit", "id": request.rid,
                     "scenario": request.spec})

    def _read(self, index):
        chunk = self.clients[index].sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed a load connection")
        now = time.perf_counter()
        buffer = self.buffers[index] + chunk
        *lines, self.buffers[index] = buffer.split(b"\n")
        for line in lines:
            message = json.loads(line)
            request = self.inflight.get(message.get("id"))
            if request is None:
                continue
            kind = message.get("type")
            if kind == "accepted":
                request.accepted = now
            elif kind == "event" and message.get("kind") == "unit-start":
                request.started = now
            elif kind == "event" and message.get("kind") == "unit-finish":
                request.finished = now
            elif kind in ("verdict", "rejected"):
                request.done = now
                request.status = message.get("status", "rejected")
                request.result = message.get("result")
                request.reason = message.get("reason") or (
                    "quota" if message.get("quota") else None)
                del self.inflight[request.rid]


def _start_server(work, tag):
    from repro.serve import QuotaLedger, ServeBackend, ServeServer, \
        TenantQuota

    home = work / tag
    home.mkdir()
    backend = ServeBackend(home / "state", shards=SHARDS, jobs=JOBS)
    # generous tenant quotas: the open loop probes the executor and the
    # overload governor, not the per-tenant admission caps
    ledger = QuotaLedger(TenantQuota(max_requests=64, max_units=256))
    server = ServeServer(backend, ledger,
                         socket_path=str(home / "s.sock"))
    server.start()
    return server


def _schedule(seed, tag, rate, duration_s, specs):
    return [Request(tag, index, specs[index % len(specs)], offset)
            for index, offset in enumerate(
                workloads.arrivals(seed, tag, rate, duration_s))]


def measure_serve(args, trace_out):
    """Open loop over a Unix socket: steady rate, then a rate ladder."""
    from repro.serve import ServeClient

    pass_size = workloads.SERVE_PASS_UNITS[1 if args.smoke else 0]
    specs = workloads.boot_bound(args.seed, pass_size)
    work = _work_dir()
    setups = []
    for number in range(SERVE_SETUPS[1 if args.smoke else 0]):
        start = time.perf_counter()
        server = _start_server(work, "setup{}".format(number))
        try:
            with ServeClient(server.address, timeout_s=30.0,
                             retries=0).connect(TENANTS[0]) as client:
                verdict = client.submit("warm", scenario=specs[0])
            setups.append(time.perf_counter() - start)
        finally:
            server.drain(timeout=60.0)
        if verdict.get("status") != "done":
            raise RuntimeError("first round trip failed: {!r}".format(
                verdict))

    server = _start_server(work, "main")
    tracer = Tracer()
    waits = []
    phases = {}
    ladder = []
    max_rate = 0
    loop = OpenLoop(server.address)
    try:
        for phase, budget, __ in _phases(args.seconds, args.trace):
            requests = _schedule(args.seed, phase,
                                 STEADY_RATE[1 if args.smoke else 0],
                                 budget, specs)
            scheduler = server.backend.scheduler
            chained = scheduler.on_wait
            if phase == "traced":
                def on_wait(tenant, wait_s, chained=chained):
                    waits.append(wait_s)
                    if chained is not None:
                        chained(tenant, wait_s)
                scheduler.on_wait = on_wait
            try:
                loop.drive(requests, settle_s=30.0, probe=True)
            finally:
                scheduler.on_wait = chained
            phases[phase] = requests
        if args.trace:
            step_s = LADDER_STEP_S[1 if args.smoke else 0]
            for rate in LADDER_RATES:
                requests = _schedule(args.seed, "ladder{}".format(rate),
                                     rate, step_s, specs)
                loop.drive(requests, settle_s=step_s)
                ladder.extend(requests)
                # a step passes when nothing was refused, the backlog
                # drained within one step, and p90 met the limit
                if not all(r.status == "done" for r in requests) \
                        or percentile([r.latency_ms() for r in requests],
                                      90) > LADDER_P90_MS:
                    break
                max_rate = rate
    finally:
        loop.close()
        server.drain(timeout=120.0)

    steady = phases["untraced"]
    served = [r for r in steady if r.status == "done"]
    latencies, factors = host_latencies(steady)
    raw = [r.latency_ms() for r in served]
    span_s = max(r.done for r in served) - min(r.due for r in steady)
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": len(served) / span_s,
        "unit_p50_ms": statistics.median(latencies),
        "unit_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    everything = [r for requests in phases.values() for r in requests]
    executions = {
        "attempted": len(everything) + len(ladder),
        # ladder refusals and stragglers define serve_max_rate; they
        # are not failures
        "failed": sum(1 for r in everything if r.status != "done")
        + sum(1 for r in ladder
              if r.status not in (None, "done", "rejected")),
    }
    # each spec of the pass is served many times: all repeats must agree
    outcomes = Outcomes()
    canonical = {}
    consistent = True
    for request in everything:
        if request.status != "done":
            continue
        digest = outcome_digest(request.result)
        first = canonical.setdefault(request.index % len(specs),
                                     (digest, request.result))
        consistent &= first[0] == digest
    for index, spec in enumerate(specs):
        outcomes.add(spec, canonical.get(index, (None, None))[1])
    digest = combined_digest(canonical[i][0] if i in canonical else "-"
                             for i in range(len(specs)))
    if args.trace:
        metrics.update(serve_layers(tracer, phases["traced"], waits, ladder))
        metrics["serve.max_rate"] = float(max_rate)
        metrics["bench.trace_overhead"] = statistics.median(
            host_latencies(phases["traced"])[0]) / metrics["unit_p50_ms"]
        _write_trace(trace_out, tracer, len(phases["traced"]))
    record = _record(outcomes, executions, [digest], metrics, shape={
        "requests": len(everything), "pass_units": len(specs),
        "ladder_requests": len(ladder)})
    record["host"] = {"factors": factors, "raw": {
        "unit_p50_ms": statistics.median(raw),
        "unit_p90_ms": percentile(raw, 90)}}
    if not consistent or len(canonical) < len(specs):
        record["correct"] = False
        record["notes"].append("repeated requests disagree or some pass "
                               "units were never served")
    return record


def serve_layers(tracer, requests, waits, ladder):
    """Client-observed request spans plus admission/queue/exec metrics."""
    admit, execute, late = [], [], []
    for request in requests:
        late.append((request.sent - request.due) * 1000.0)
        root = tracer.add_span("serve.request", request.due,
                               request.done, unit=request.rid)
        if request.accepted is not None:
            admit.append((request.accepted - request.sent) * 1000.0)
            tracer.add_span("serve.admit", request.sent, request.accepted,
                            parent=root, unit=request.rid)
            if request.started is not None:
                # the unit-start event can overtake the accepted reply
                tracer.add_span("serve.queue",
                                min(request.accepted, request.started),
                                request.started, parent=root,
                                unit=request.rid)
        if request.started is not None and request.finished is not None:
            execute.append((request.finished - request.started) * 1000.0)
            tracer.add_span("serve.exec", request.started, request.finished,
                            parent=root, unit=request.rid)
    waits_ms = [w * 1000.0 for w in waits] or [0.0]
    refused = collections.Counter(r.reason or "other" for r in ladder
                                  if r.status == "rejected")
    metrics = {
        "serve.admit_ms": statistics.median(admit) if admit else 0.0,
        "serve.queue_wait_p50_ms": statistics.median(waits_ms),
        "serve.queue_wait_p90_ms": percentile(waits_ms, 90),
        "serve.exec_ms": statistics.median(execute) if execute else 0.0,
        "bench.gen_late_ms": percentile(late, 90) if late else 0.0,
    }
    for reason, count in refused.items():
        metrics["serve.refused.{}".format(reason)] = float(count)
    return metrics


# -- plumbing --------------------------------------------------------------------


def _work_dir():
    """Scratch space inside the checkout, removed by bench/run.py when
    this process ends.  Relative, because Unix socket paths must stay
    short wherever the checkout lives."""
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True)
    return work


def _write_trace(path, tracer, units):
    if path:
        pathlib.Path(path).write_text(json.dumps(tracer.dump(units)))


def _record(outcomes, executions, digests, metrics, shape):
    exact = outcomes.exact()
    exact["fail_ratio"] = executions["failed"] / executions["attempted"]
    metrics.update(("check." + key, value) for key, value in exact.items())
    notes = []
    correct = True
    if len(set(digests)) != 1:
        correct = False
        notes.append("repetitions of the same inputs produced different "
                     "outcomes")
    if executions["failed"]:
        correct = False
        notes.append("{} units failed to execute".format(
            executions["failed"]))
    if exact["wrong_ratio"] > WRONG_CEILING:
        correct = False
        notes.append("wrong_ratio {:.4f} exceeds {}".format(
            exact["wrong_ratio"], WRONG_CEILING))
    return {
        "correct": correct,
        "attempted": executions["attempted"],
        "failed": executions["failed"],
        "metrics": metrics,
        "exact": exact,
        "outcome_digest": digests[0],
        "shape": shape,
        "notes": notes,
    }


MEASURE = {
    "boot-bound": measure_inprocess,
    "sweep-bound": measure_inprocess,
    "campaign": measure_campaign,
    "serve-open": measure_serve,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MEASURE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--role", choices=("measure", "setup"),
                        default="measure")
    args = parser.parse_args(argv)
    if args.role == "setup":
        record = setup_inprocess(args)
    else:
        record = MEASURE[args.workload](args, args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
