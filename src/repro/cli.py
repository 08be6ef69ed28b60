"""Command-line interface: ``python -m repro <command>``.

Each attack command translates its flags into a scenario spec (see
:mod:`repro.scenarios`), boots the simulated machine it names, runs the
attack and prints the same report as ``repro scenario``.  Useful for
exploring the system without writing code:

    python -m repro cpus
    python -m repro kaslr --cpu i7-1065G7 --seed 7
    python -m repro kaslr --cpu ryzen5-5600X
    python -m repro modules
    python -m repro kpti
    python -m repro spy --app video-call
    python -m repro windows --kvas
    python -m repro cloud ec2
    python -m repro sgx
    python -m repro poc
    python -m repro chaos kaslr --profile hostile
    python -m repro kaslr --chaos-profile default
"""

import argparse
import json
import os
import sys
import time

from repro.cpu.models import CPU_CATALOG, get_cpu_model
from repro.errors import ReproError
from repro.machine import Machine

#: exit code for a run stopped by a graceful drain: the journal is
#: sealed and ``repro campaign resume`` continues it (EX_TEMPFAIL --
#: "try again" -- by the sysexits convention supervisors understand)
EXIT_INTERRUPTED = 75


def _add_common(parser, default_cpu="i5-12400F"):
    parser.add_argument("--cpu", default=default_cpu,
                        help="CPU catalog key (see `cpus`)")
    parser.add_argument("--seed", type=int, default=0,
                        help="boot seed (layout + noise)")


def _add_trace(parser):
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a repro-trace/v1 JSONL trace of the "
                             "run to PATH (inspect with `repro trace`)")


def _add_per_op(parser):
    parser.add_argument("--per-op", dest="engine", action="store_const",
                        const="per-op", default=None,
                        help="run every probe sweep on the per-op "
                             "reference engine instead of the automatic "
                             "engine selection")


def _add_chaos(parser):
    parser.add_argument("--chaos-profile", default=None,
                        help="run under a disturbance profile via the "
                             "attack supervisor (see `chaos --list`)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="supervisor retry budget (with --chaos-profile)")


def _print_result(result, victim=None, truth=None):
    """Shared report for scenario results: attack verbs and `scenario`;
    a supervised run adds its verdict's value, ``truth`` and attempts."""
    print("scenario : {}".format(result.name))
    if victim is not None:
        print("victim   : {}".format(victim))
    for key, value in result.observations.items():
        if key == "base":
            value = hex(value) if value else None
        elif key == "correct":
            value = "CORRECT" if value else "WRONG"
        elif isinstance(value, float):
            value = "{:.3f}".format(value)
        print("  {:<16} {}".format(key, value))
    verdict = result.verdict
    if verdict is not None:
        value = verdict.value
        print("value    : {}".format(
            hex(value) if isinstance(value, int) else value))
        if truth is not None and not isinstance(truth, dict):
            print("truth    : {}".format(
                hex(truth) if isinstance(truth, int) else truth))
        print("elapsed  : {:.3f} ms".format(verdict.elapsed_ms))
        kinds = {}
        for event in verdict.disturbances:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        print("chaos    : {}".format(", ".join(
            "{} x{}".format(k, n) for k, n in sorted(kinds.items()))
            or "none"))
        for attempt in verdict.attempts:
            print("  attempt {}: {}{}".format(
                attempt.index, attempt.outcome,
                " ({})".format(attempt.detail) if attempt.detail else ""))
    print("verdict  : {}".format("PASS" if result.passed else "FAIL"))
    for violation in result.violations:
        print("  violated: {}".format(violation))


def cmd_cpus(args):
    print("{:<18} {:<28} {:<12} {:>8} {}".format(
        "key", "name", "uarch", "GHz", "notes"))
    for key, cpu in sorted(CPU_CATALOG.items()):
        notes = []
        if not cpu.fills_tlb_for_supervisor_user_probe:
            notes.append("no-sup-TLB-fill")
        if cpu.meltdown_vulnerable:
            notes.append("meltdown")
        if cpu.supports_sgx:
            notes.append("sgx")
        print("{:<18} {:<28} {:<12} {:>8.1f} {}".format(
            key, cpu.name, cpu.microarchitecture, cpu.freq_ghz,
            ",".join(notes)))
    return 0


def _attack_spec(args):
    """Translate an attack verb's flags into a scenario spec."""
    verb = args.command
    if verb == "chaos":
        # one supervised attack on its own victim; passes when `found`
        verb, cpu = args.attack, args.cpu
        if cpu is None:
            cpu = "i7-1065G7" if verb in ("sgx", "fingerprint") \
                else "i5-12400F"
        if verb == "cloud":
            machine = {"os": "cloud", "provider": args.provider}
        elif verb == "windows":
            machine = {"os": "windows", "cpu": cpu}
        else:
            machine = {"os": "linux", "cpu": cpu, "kpti": verb == "kpti"}
        machine.update(seed=args.seed, chaos=args.profile)
        return {"name": "supervised-" + verb, "machine": machine,
                "attack": {"kind": "supervised", "attack": verb,
                           "max_retries": args.max_retries,
                           "probe_budget": args.probe_budget,
                           "engine": args.engine},
                "expect": {"status": "found"}}
    machine = {"os": "linux", "cpu": getattr(args, "cpu", None),
               "seed": args.seed}
    name = verb
    if verb == "kaslr":
        attack = {"kind": "kaslr", "rounds": args.rounds}
    elif verb == "modules":
        attack = {"kind": "modules"}
    elif verb == "kpti":
        machine["kpti"] = True
        name, attack = "kpti-trampoline", {"kind": "kpti"}
    elif verb == "spy":
        name, attack = "fingerprint", {
            "kind": "fingerprint", "app": args.app,
            "victim_seed": args.seed + 1, "intervals": args.intervals,
        }
    elif verb == "windows" and args.kvas:
        machine = {"os": "windows", "cpu": "i7-6600U", "version": "1709",
                   "seed": args.seed}
        name, attack = "kvas-scan", {"kind": "windows-kvas"}
    elif verb == "windows":
        machine["os"] = "windows"
        name, attack = "region-scan", {"kind": "windows-region"}
    elif verb == "cloud":
        machine = {"os": "cloud", "provider": args.provider,
                   "seed": args.seed}
        attack = {"kind": "cloud"}
    else:
        attack = {"kind": "sgx", "identify": True}
    attack["engine"] = args.engine
    if getattr(args, "chaos_profile", None):
        machine["chaos"] = args.chaos_profile
        name = "supervised-" + verb
        attack = dict(attack, kind="supervised", attack=verb,
                      max_retries=args.max_retries)
    return {"name": name, "machine": machine, "attack": attack,
            "expect": {"correct": True}}


def cmd_attack(args):
    """Every attack verb: its flags become a scenario spec, run on a
    machine booted from that spec, reported like `repro scenario`."""
    from repro.attacks.supervisor import supervised_truth
    from repro.scenarios import _build_machine, run_on

    if getattr(args, "list", False):
        from repro.chaos import CHAOS_PROFILES

        for name, profile in sorted(CHAOS_PROFILES.items()):
            print("{:<14} {:<44} [{}]".format(
                name, profile.description,
                ", ".join(profile.active_kinds) or "no events"))
        return 0
    spec = _attack_spec(args)
    machine = _build_machine(spec["machine"])
    tracer = None
    if getattr(args, "trace", None):
        from repro.obs import Tracer

        command = args.command
        if command == "chaos":
            command += " " + args.attack
        tracer = Tracer(path=args.trace, meta={"command": command})
        tracer.attach(machine)
        started = time.perf_counter()
    result = run_on(machine, spec)
    if tracer is not None:
        tracer.finish(wall_ms=(time.perf_counter() - started) * 1000.0)
        print("trace      : {}".format(tracer.path))
    verdict = result.verdict
    if getattr(args, "out", None):
        from repro.ioutil import write_json_atomic

        write_json_atomic(args.out, verdict.as_dict())
    if getattr(args, "json", False):
        print(json.dumps(verdict.as_dict()))
    else:
        victim = (machine.instance.provider if machine.instance
                  else machine.cpu.name)
        if machine.chaos is not None:
            victim += " under chaos profile {!r}".format(
                machine.chaos.profile.name)
        _print_result(result, victim=victim, truth=(
            supervised_truth(machine, verdict.attack) if verdict else None))
    return 0 if result.passed else 1


def cmd_scenario(args):
    from repro.scenarios import run_scenario

    result = run_scenario(args.path)
    _print_result(result)
    return 0 if result.passed else 1


def cmd_suite(args):
    from repro.scenarios import run_suite

    results = run_suite(args.directory, jobs=args.jobs,
                        timeout_per_scenario=args.timeout_per_scenario)
    if not results:
        print("no scenarios found in {}".format(args.directory))
        return 2
    failures = 0
    for result in results:
        print("{:<6} {}".format(
            "PASS" if result.passed else "FAIL", result.name))
        for violation in result.violations:
            failures += 1
            print("       {}".format(violation))
    print("{} / {} scenarios passed".format(
        sum(r.passed for r in results), len(results)))
    if args.out:
        from repro.ioutil import write_json_atomic

        write_json_atomic(args.out, [r.as_dict() for r in results])
    return 0 if all(r.passed for r in results) else 1


def _print_campaign_report(report):
    for unit in report.store["units"]:
        line = "{:<7} {}".format(unit["status"], unit["id"])
        if unit.get("degraded"):
            line += "  [degraded: {}]".format(unit["degraded"])
        if unit.get("reason"):
            line += "  ({})".format(unit["reason"])
        print(line)
        for violation in unit.get("violations") or []:
            print("        {}".format(violation))
    summary = report.summary
    print("{passed} passed, {failed} failed, {skipped} skipped "
          "({degraded} degraded)".format(**summary))
    print("results: {}".format(report.store_path))
    if report.interrupted:
        print("interrupted: journal sealed; `repro campaign resume` "
              "continues where this stopped")
        return EXIT_INTERRUPTED
    return 0 if report.ok else 1


def _run_campaign_draining(runner, resume=False):
    """Run a campaign with SIGTERM/SIGINT mapped to a graceful drain.

    The first signal stops the feed; in-flight units finish and are
    journaled, queued units stay pending, and the process exits
    :data:`EXIT_INTERRUPTED` so a supervisor knows to resume rather
    than report failure.
    """
    import signal as _signal

    previous = {}

    def _on_signal(signum, frame):
        runner.request_drain()

    for signum in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous[signum] = _signal.signal(signum, _on_signal)
        except ValueError:
            pass  # not the main thread (tests); drain via the runner
    try:
        report = runner.run(resume=resume)
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)
    return _print_campaign_report(report)


def cmd_campaign(args):
    from repro.campaign import ShardedCampaignRunner
    from repro.campaign.coordinator import campaign_status, journal_shards
    from repro.errors import CampaignError

    if args.verb == "status":
        meta, folded = campaign_status(args.journal)
        config = meta["config"]
        shards = journal_shards(config)
        print("campaign : {} ({} units{}{})".format(
            config["directory"], len(config["units"]),
            ", {} shards".format(shards) if shards > 1 else "",
            ", finished" if meta["finished"] else ""))
        for unit in config["units"]:
            entry = folded.get(unit["id"]) or {"status": "pending",
                                               "attempts": 0}
            detail = ""
            if entry.get("reason"):
                detail = "  ({})".format(entry["reason"])
            print("{:<9} {:<32} attempts={}{}".format(
                entry["status"], unit["id"], entry.get("attempts", 0),
                detail))
        return 0

    if args.verb == "fsck":
        return _cmd_campaign_fsck(args)

    if args.verb == "resume":
        import os as _os

        if not _os.path.exists(args.journal):
            raise CampaignError(
                "no journal at {}; start one with `repro campaign run`"
                .format(args.journal)
            )
        runner = ShardedCampaignRunner(args.journal, jobs=args.jobs,
                                       store_path=args.out)
        return _run_campaign_draining(runner, resume=True)

    runner = ShardedCampaignRunner(
        args.journal, directory=args.directory, shards=args.shards,
        jobs=args.jobs, watchdog_s=args.watchdog,
        deadline_s=args.deadline, max_retries=args.max_retries,
        store_path=args.out, trace_path=args.trace, seed=args.seed,
        fault_profile=args.fault_profile,
    )
    return _run_campaign_draining(runner, resume=args.resume)


def _cmd_campaign_fsck(args):
    """Check a campaign journal (and any shard siblings); quarantine
    mid-file corruption and write salvage reports."""
    import pathlib as _pathlib

    from repro.campaign import fsck_journal
    from repro.errors import CampaignError

    base = _pathlib.Path(args.journal)
    if not base.exists():
        raise CampaignError("no journal at {}".format(base))
    # a sharded campaign's shard journals sit next to the coordinator's;
    # glob rather than trust the (possibly corrupt) campaign-start record
    targets = [base] + sorted(
        base.parent.glob("{}.shard-*{}".format(base.stem, base.suffix))
    )
    worst = 0
    for path in targets:
        report = fsck_journal(path, rebuild=args.rebuild)
        line = "{:<12} {}  ({} records".format(
            report["status"], path, report["records"])
        if report.get("units"):
            line += ", {done} done / {skipped} skipped / "\
                "{incomplete} incomplete".format(**report["units"])
        line += ")"
        print(line)
        for entry in report["damage"]:
            print("  line {line}: {reason}".format(**entry))
        if report["status"] == "quarantined":
            print("  quarantined to {}".format(report["quarantined_to"]))
            print("  salvage report: {}.salvage.json".format(path))
            if report.get("rebuilt"):
                print("  rebuilt {} from {} intact records".format(
                    report["rebuilt"], report["records"]))
            worst = 1
        elif report["status"] == "conflict":
            print("  {}".format(report["conflict"]))
            worst = 1
    return worst


def _serve_address(args):
    """The submit/drain target: a Unix socket path or ``(host, port)``."""
    if args.socket:
        return args.socket
    return (args.host, args.port)


def cmd_serve(args):
    """Run the multi-tenant attack-simulation service until drained."""
    import pathlib as _pathlib

    from repro.errors import ServeError
    from repro.serve import (
        FairShareScheduler,
        QuotaLedger,
        ServeBackend,
        ServeServer,
        load_tenant_quotas,
    )
    from repro.serve import scheduler as _scheduler

    if args.socket is None and args.port is None:
        raise ServeError("serve needs --socket PATH or --port N")
    ledger = QuotaLedger()
    if args.tenants:
        try:
            spec = json.loads(_pathlib.Path(args.tenants).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ServeError(
                "cannot load tenant quotas from {}: {}".format(
                    args.tenants, error)
            ) from error
        default, tenants = load_tenant_quotas(spec)
        ledger = QuotaLedger(default, tenants)
    backend = ServeBackend(
        args.state, shards=args.shards, jobs=args.jobs,
        watchdog_s=args.watchdog, max_retries=args.max_retries,
        seed=args.seed,
        scheduler=FairShareScheduler(
            mode=_scheduler.FIFO if args.fifo else _scheduler.FAIR,
            quantum=args.quantum, aging_s=args.aging,
        ),
        prune_age_s=args.prune_age, prune_keep=args.prune_keep,
    )
    obs = None
    if args.trace:
        from repro.obs import Tracer

        obs = Tracer(path=args.trace, meta={"command": "serve"})
    server = ServeServer(
        backend, ledger, socket_path=args.socket,
        host=args.host, port=args.port or 0, max_queue=args.max_queue,
        write_timeout_s=args.write_timeout, ready_file=args.ready_file,
        obs=obs,
    )
    started = time.perf_counter()
    address = server.start()
    print("serving on {}".format(address), flush=True)
    code = server.serve_forever()
    if obs is not None:
        obs.finish(wall_ms=(time.perf_counter() - started) * 1000.0)
        print("trace      : {}".format(obs.path))
    print("drained", flush=True)
    return code


def cmd_submit(args):
    """Submit one scenario or campaign plan to a running server."""
    import pathlib as _pathlib

    from repro.errors import ServeError
    from repro.serve import ServeClient

    scenario = None
    plan = None
    if (args.scenario is None) == (args.plan is None):
        raise ServeError("submit needs exactly one of --scenario or --plan")
    if args.scenario is not None:
        try:
            scenario = json.loads(_pathlib.Path(args.scenario).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ServeError(
                "cannot load scenario {}: {}".format(args.scenario, error)
            ) from error
    else:
        plan = {"directory": args.plan}
        if args.shards is not None:
            plan["shards"] = args.shards
        if args.seed is not None:
            plan["seed"] = args.seed
        if args.jobs is not None:
            plan["jobs"] = args.jobs

    def on_event(message):
        if not args.json:
            fields = {k: v for k, v in sorted(message.items())
                      if k not in ("type", "id", "kind")}
            print("event  : {} {}".format(
                message.get("kind"),
                " ".join("{}={}".format(k, v) for k, v in fields.items()),
            ))

    with ServeClient(_serve_address(args), timeout_s=args.timeout,
                     retries=args.retries,
                     seed=args.seed or 0).connect(args.tenant) as client:
        reply = client.submit(
            args.id, scenario=scenario, plan=plan,
            deadline_s=args.deadline, priority=args.priority,
            on_event=on_event, wait=not args.no_wait,
        )
    if args.json:
        print(json.dumps(reply, sort_keys=True))
    else:
        kind = reply.get("type")
        if kind == "rejected":
            print("rejected: {} ({})".format(
                reply.get("message"), reply.get("error")))
        elif kind == "accepted":
            print("accepted: queue depth {}".format(
                reply.get("queue_depth")))
        else:
            print("verdict : {}".format(reply.get("status")))
            if reply.get("summary"):
                print("summary : {passed} passed, {failed} failed, "
                      "{skipped} skipped ({degraded} degraded)".format(
                          **reply["summary"]))
            if reply.get("store"):
                print("store   : {}".format(reply["store"]))
    kind = reply.get("type")
    if kind == "rejected":
        return 3
    if kind == "accepted":
        return 0
    status = reply.get("status")
    if status == "interrupted":
        return EXIT_INTERRUPTED
    if status == "done":
        return 0 if reply.get("ok", True) is not False else 1
    return 1


def cmd_drain(args):
    """Ask a running server to drain gracefully."""
    from repro.serve import ServeClient

    with ServeClient(_serve_address(args),
                     timeout_s=args.timeout).connect() as client:
        reply = client.drain(wait=not args.no_wait)
    print("server {}".format(reply.get("type")))
    return 0


def cmd_serve_status(args):
    """Deep introspection of a running server: scheduler + overload."""
    from repro.serve import ServeClient

    with ServeClient(_serve_address(args),
                     timeout_s=args.timeout).connect() as client:
        reply = client.status()
    if args.json:
        print(json.dumps(reply, sort_keys=True))
        return 0
    overload = reply.get("overload") or {}
    sheds = overload.get("sheds") or {}
    print("state      : {} (for {:.1f}s, {} transitions, "
          "{} sheds)".format(
              overload.get("state", "?"), overload.get("since_s", 0.0),
              overload.get("transitions", 0), sum(sheds.values())))
    for reason, count in sorted(sheds.items()):
        if count:
            print("shed       : {} x{}".format(reason, count))
    for name, mark in sorted((overload.get("watermarks") or {}).items()):
        print("watermark  : {} value={value} degraded_at="
              "{degraded_at} shedding_at={shedding_at} "
              "({direction})".format(name, **mark))
    shards = sorted(((reply.get("breakers") or {}).get("shards") or {})
                    .items(), key=lambda item: int(item[0]))
    print("shards     : degraded={} streaks={}".format(
        ",".join(i for i, s in shards if s["state"] == "open") or "none",
        " ".join("{}:{}".format(i, s["failures"]) for i, s in shards)))
    queue = reply.get("queue") or {}
    print("queue      : {} admitted / {} max, {} on executor "
          "({} in flight)".format(
              queue.get("units_admitted"), queue.get("max"),
              queue.get("executor"), queue.get("inflight")))
    sched = reply.get("scheduler") or {}
    print("scheduler  : mode={} depth={} aged_dispatches={} "
          "oldest_wait={:.2f}s".format(
              sched.get("mode"), sched.get("depth"),
              sched.get("aged_dispatches"),
              sched.get("oldest_wait_s") or 0.0))
    for name, info in sorted((sched.get("tenants") or {}).items()):
        print("tenant     : {} weight={} queued={} dispatched={} "
              "p50={:.1f}ms p99={:.1f}ms".format(
                  name, info.get("weight"), info.get("queued"),
                  info.get("dispatched"), info.get("p50_wait_ms", 0.0),
                  info.get("p99_wait_ms", 0.0)))
    if reply.get("draining"):
        print("draining   : yes")
    return 0


def cmd_soak(args):
    """Run the sustained-load soak harness against a scratch server."""
    import tempfile

    from repro.ioutil import write_json_atomic
    from repro.serve.soak import SoakError, run_soak

    root = args.dir or tempfile.mkdtemp(prefix="repro-soak-")
    try:
        report = run_soak(
            root, duration_s=args.duration, shards=args.shards,
            jobs=args.jobs, seed=args.seed, plan_units=args.plan_units,
            campaign_units=args.units, spin=args.spin,
            fault_profile=args.fault_profile,
        )
    except SoakError as error:
        print("SOAK FAILED: {}".format(error))
        if error.report and args.out:
            write_json_atomic(args.out, error.report)
            print("partial report written to {}".format(args.out))
        return 1
    if args.out:
        write_json_atomic(args.out, report)
        print("report written to {}".format(args.out))
    fairness = report.get("fairness") or {}
    print("soak OK: fairness ratio {} (bound {}), typed quota refusals {}, "
          "determinism {}".format(
              fairness.get("ratio"), fairness.get("bound"),
              sum(q["typed"] for q in report["quota"].values()),
              "ok" if (report.get("determinism") or {}).get("equal")
              else "FAILED"))
    return 0


def cmd_trace(args):
    """The `repro trace` verbs: summarize / report / validate."""
    from repro import obs

    if args.verb == "validate":
        stats = obs.validate_trace_file(args.path)
        print("OK: {spans} spans, {events} events, {counters} counters, "
              "{histograms} histograms".format(**stats))
        return 0
    summary = obs.summarize_file(args.path)
    if args.verb == "summarize":
        print(obs.render_summary(summary))
        return 0
    report = obs.render_report(summary)
    if args.out:
        from repro.ioutil import write_atomic

        write_atomic(args.out, report)
        print("report written to {}".format(args.out))
    else:
        print(report)
    return 0


def cmd_poc(args):
    from repro.isa.programs import run_double_probe_poc, run_kaslr_scan_poc
    from repro.os.linux import layout

    machine = Machine.linux(cpu=args.cpu, seed=args.seed)
    mapped = run_double_probe_poc(machine, machine.kernel.base)
    unmapped = run_double_probe_poc(
        machine, machine.kernel.base - 0x200000
    )
    print("assembly double-probe: mapped {} / unmapped {} cycles".format(
        mapped, unmapped))
    slot, __ = run_kaslr_scan_poc(
        machine, layout.KERNEL_TEXT_START, layout.KERNEL_TEXT_SLOTS
    )
    base = layout.kernel_base_of_slot(slot)
    ok = base == machine.kernel.base
    print("assembly scan loop   : base {:#x} ({})".format(
        base, "CORRECT" if ok else "WRONG"))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AVX timing side-channel attacks against ASLR "
                    "(DAC 2023), on a simulated x86-64 substrate",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("cpus", help="list CPU models").set_defaults(
        func=cmd_cpus)

    for verb, text in (("kaslr", "break the kernel base"),
                       ("modules", "detect kernel modules"),
                       ("kpti", "break KASLR despite KPTI")):
        p = subparsers.add_parser(verb, help=text)
        _add_common(p)
        _add_per_op(p)
        _add_chaos(p)
        _add_trace(p)
        if verb == "kaslr":
            p.add_argument("--rounds", type=int, default=None)
        p.set_defaults(func=cmd_attack)

    p = subparsers.add_parser("spy", help="fingerprint an application")
    _add_common(p, default_cpu="i7-1065G7")
    _add_per_op(p)
    p.add_argument("--app", default="video-call",
                   help="victim application (see repro.workloads.apps)")
    p.add_argument("--intervals", type=int, default=24)
    p.set_defaults(func=cmd_attack)

    p = subparsers.add_parser("windows", help="Windows region/KVAS scan")
    _add_common(p)
    _add_per_op(p)
    p.add_argument("--kvas", action="store_true",
                   help="attack a KVA-Shadow kernel instead")
    p.set_defaults(func=cmd_attack)

    p = subparsers.add_parser("cloud", help="audit a cloud provider")
    p.add_argument("provider", choices=("ec2", "gce", "azure"))
    p.add_argument("--seed", type=int, default=0)
    _add_per_op(p)
    p.set_defaults(func=cmd_attack)

    p = subparsers.add_parser("sgx", help="in-enclave user ASLR break")
    _add_common(p, default_cpu="i7-1065G7")
    _add_per_op(p)
    p.set_defaults(func=cmd_attack)

    p = subparsers.add_parser("poc", help="run the assembly PoC")
    _add_common(p)
    p.set_defaults(func=cmd_poc)

    p = subparsers.add_parser(
        "chaos", help="run a supervised attack under disturbances")
    p.add_argument("attack", nargs="?", default="kaslr",
                   choices=("kaslr", "kpti", "modules", "windows",
                            "userspace", "cloud", "sgx", "fingerprint"),
                   help="which supervised attack to run")
    p.add_argument("--profile", default="default",
                   help="disturbance profile (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the available profiles and exit")
    p.add_argument("--cpu", default=None,
                   help="CPU catalog key (defaults per attack)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--provider", default="ec2",
                   choices=("ec2", "gce", "azure"),
                   help="cloud provider (attack=cloud only)")
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--probe-budget", type=int, default=None,
                   help="abort once this many probes are spent")
    p.add_argument("--json", action="store_true",
                   help="print the verdict as one JSON line")
    p.add_argument("--out", default=None,
                   help="also write the verdict JSON to this path "
                        "(atomic replace-on-write)")
    _add_per_op(p)
    _add_trace(p)
    p.set_defaults(func=cmd_attack)

    p = subparsers.add_parser("scenario", help="run one JSON scenario")
    p.add_argument("path")
    p.set_defaults(func=cmd_scenario)

    p = subparsers.add_parser("suite", help="run a scenario directory")
    p.add_argument("directory")
    p.add_argument("--jobs", type=int, default=None,
                   help="run scenarios in N parallel processes")
    p.add_argument("--timeout-per-scenario", type=float, default=None,
                   metavar="SECONDS",
                   help="kill and FAIL any scenario running longer than "
                        "this (runs scenarios in watchdogged worker "
                        "processes)")
    p.add_argument("--out", default=None,
                   help="write the results as JSON to this path "
                        "(atomic replace-on-write)")
    p.set_defaults(func=cmd_suite)

    p = subparsers.add_parser(
        "campaign",
        help="durable, journaled, resumable scenario campaigns")
    verbs = p.add_subparsers(dest="verb", required=True)

    v = verbs.add_parser(
        "run", help="start a campaign over a scenario directory")
    v.add_argument("directory")
    v.add_argument("--journal", default="campaign.jsonl",
                   help="write-ahead journal path (default: "
                        "./campaign.jsonl)")
    v.add_argument("--out", default=None,
                   help="result store path (default: journal path with "
                        "a .results.json suffix)")
    v.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    v.add_argument("--watchdog", type=float, default=300.0,
                   metavar="SECONDS",
                   help="per-unit wall-clock watchdog timeout")
    v.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="campaign wall-clock budget; remaining units "
                        "are SKIPPED(deadline) once it expires")
    v.add_argument("--max-retries", type=int, default=2,
                   help="retry budget per unit for killed/hung workers")
    v.add_argument("--resume", action="store_true",
                   help="resume the journal if it already exists")
    v.add_argument("--shards", type=int, default=1,
                   help="shard the campaign into N fault domains, each "
                        "with its own journal and worker pool "
                        "(work-stealing, quarantine on shard death)")
    v.add_argument("--seed", type=int, default=0,
                   help="campaign seed: reproducible retry jitter and "
                        "fault-injection draws")
    v.add_argument("--fault-profile", default=None, metavar="PROFILE",
                   help="inject infrastructure faults into the shard "
                        "journals and pools: a registry name (none, "
                        "default, disk-full, flaky-disk, liar-disk, "
                        "skewed-clock, hostile-infra) or a JSON profile "
                        "path")
    _add_trace(v)
    v.set_defaults(func=cmd_campaign, verb="run")

    v = verbs.add_parser(
        "resume", help="resume a killed or interrupted campaign")
    v.add_argument("journal")
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default=None,
                   help="result store path override")
    v.set_defaults(func=cmd_campaign, verb="resume")

    v = verbs.add_parser(
        "status", help="inspect a campaign journal without running it")
    v.add_argument("journal")
    v.set_defaults(func=cmd_campaign, verb="status")

    v = verbs.add_parser(
        "fsck",
        help="check journal integrity; quarantine mid-file corruption "
             "(renames to *.corrupt, writes a salvage report)")
    v.add_argument("journal")
    v.add_argument("--rebuild", action="store_true",
                   help="after quarantining, reseal the salvaged "
                        "records into a fresh journal so the campaign "
                        "can resume minus the damaged lines")
    v.set_defaults(func=cmd_campaign, verb="fsck")

    p = subparsers.add_parser(
        "serve",
        help="run the multi-tenant attack-simulation service")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="listen on a Unix socket at PATH")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (with --port)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP bind port (0 = ephemeral; the bound "
                        "address is printed on startup)")
    p.add_argument("--state", default="serve-state", metavar="DIR",
                   help="state directory: scenario specs, persisted "
                        "results, plan journals and stores")
    p.add_argument("--shards", type=int, default=2,
                   help="fault domains in the campaign fabric")
    p.add_argument("--jobs", type=int, default=None,
                   help="total worker processes (default: one per shard)")
    p.add_argument("--watchdog", type=float, default=300.0,
                   metavar="SECONDS",
                   help="per-unit wall-clock watchdog timeout")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retry budget per unit for killed/hung workers")
    p.add_argument("--seed", type=int, default=0,
                   help="fabric seed (retry jitter, fault draws)")
    p.add_argument("--max-queue", type=int, default=256,
                   help="global bound on admitted in-flight units")
    p.add_argument("--tenants", default=None, metavar="QUOTAS.JSON",
                   help="per-tenant quota config (a mapping of tenant "
                        "name to max_requests / max_units / "
                        "max_deadline_s; the 'default' entry replaces "
                        "the built-in default quota)")
    p.add_argument("--write-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="slow-client policy: a client that cannot drain "
                        "its socket within this loses its stream (the "
                        "computation continues; results persist under "
                        "--state)")
    p.add_argument("--ready-file", default=None, metavar="PATH",
                   help="touch PATH when ready, remove it when draining")
    p.add_argument("--fifo", action="store_true",
                   help="disable fair-share scheduling (global FIFO; "
                        "the control arm for fairness benchmarks)")
    p.add_argument("--quantum", type=float, default=4.0,
                   help="fair-share deficit quantum: unit-cost credit "
                        "per tenant per rotation, scaled by weight")
    p.add_argument("--aging", type=float, default=30.0,
                   metavar="SECONDS",
                   help="starvation bound: a unit queued this long "
                        "dispatches out of turn")
    p.add_argument("--prune-age", type=float, default=3600.0,
                   metavar="SECONDS",
                   help="housekeeping: crash debris older than this "
                        "is rotated out of the state directory")
    p.add_argument("--prune-keep", type=int, default=4,
                   help="housekeeping: most-recent debris files "
                        "spared per pattern")
    _add_trace(p)
    p.set_defaults(func=cmd_serve)

    sverbs = p.add_subparsers(dest="serve_verb", required=False,
                              metavar="{status}")
    sv = sverbs.add_parser(
        "status",
        help="deep introspection of a running server: scheduler "
             "fairness evidence, overload watermarks, breakers")
    sv.add_argument("--socket", default=None, metavar="PATH")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=None)
    sv.add_argument("--timeout", type=float, default=30.0)
    sv.add_argument("--json", action="store_true",
                    help="print the raw status document as one JSON line")
    sv.set_defaults(func=cmd_serve_status)

    p = subparsers.add_parser(
        "submit", help="submit work to a running serve instance")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="connect to a Unix socket at PATH")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--tenant", default="default",
                   help="tenant name (quota namespace)")
    p.add_argument("--id", required=True,
                   help="request id (also the result/journal file stem, "
                        "namespaced by tenant; resubmitting a plan id "
                        "after a drain resumes its journal)")
    p.add_argument("--scenario", default=None, metavar="SPEC.JSON",
                   help="submit this scenario spec file inline")
    p.add_argument("--plan", default=None, metavar="DIRECTORY",
                   help="submit a sharded campaign over this scenario "
                        "directory")
    p.add_argument("--shards", type=int, default=None,
                   help="shard override for --plan")
    p.add_argument("--seed", type=int, default=None,
                   help="seed override for --plan")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker override for --plan")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-request time budget (late results degrade, "
                        "queued-past-deadline units skip)")
    p.add_argument("--priority", type=int, default=None,
                   help="admission priority in [-10, 10] (default 1); "
                        "a degraded server sheds work below priority 1 "
                        "first, and higher priorities launch first "
                        "within a feed batch")
    p.add_argument("--retries", type=int, default=3,
                   help="how many shed refusals to wait out "
                        "(honoring the server's retry_after_s hint) "
                        "before surfacing the rejection; 0 surfaces "
                        "immediately")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="client-side socket timeout")
    p.add_argument("--no-wait", action="store_true",
                   help="return after the admission verdict instead of "
                        "waiting for completion")
    p.add_argument("--json", action="store_true",
                   help="print the terminal reply as one JSON line")
    p.set_defaults(func=cmd_submit)

    p = subparsers.add_parser(
        "drain", help="gracefully drain a running serve instance")
    p.add_argument("--socket", default=None, metavar="PATH")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--no-wait", action="store_true",
                   help="return on the drain acknowledgement instead of "
                        "waiting for the drain to finish")
    p.set_defaults(func=cmd_drain)

    p = subparsers.add_parser(
        "soak",
        help="the service smoke harness: multi-tenant floods, a "
             "quota-capped tenant, client churn, a mid-soak SIGTERM "
             "drain, fairness / typed-quota / determinism / zero-orphan "
             "assertions")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="scratch directory (default: a tempdir)")
    p.add_argument("--duration", type=float, default=24.0,
                   help="total load-window seconds across both phases")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--jobs", type=int, default=4)
    p.add_argument("--seed", type=int, default=9)
    p.add_argument("--plan-units", type=int, default=48,
                   help="units in the drain/resume determinism plan")
    p.add_argument("--units", type=int, default=2000,
                   help="sharded-campaign scale smoke size (0 skips; "
                        "the full soak uses 100000)")
    p.add_argument("--spin", type=int, default=2000,
                   help="noop unit cost knob")
    p.add_argument("--fault-profile", default="default",
                   help="fault profile injected into the soak's "
                        "second plan")
    p.add_argument("--out", default=None, metavar="REPORT.JSON",
                   help="write the full report here (atomic)")
    p.set_defaults(func=cmd_soak)

    p = subparsers.add_parser(
        "trace", help="inspect repro-trace/v1 JSONL traces")
    verbs = p.add_subparsers(dest="verb", required=True)

    v = verbs.add_parser(
        "summarize", help="one-screen digest of a trace")
    v.add_argument("path")
    v.set_defaults(func=cmd_trace, verb="summarize")

    v = verbs.add_parser(
        "report", help="full markdown forensics report")
    v.add_argument("path")
    v.add_argument("--out", default=None,
                   help="write the markdown here instead of stdout "
                        "(atomic replace-on-write)")
    v.set_defaults(func=cmd_trace, verb="report")

    v = verbs.add_parser(
        "validate", help="check a trace against the schema")
    v.add_argument("path")
    v.set_defaults(func=cmd_trace, verb="validate")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer went away (status | head, | grep -q): not an
        # error, but Python would print a traceback at teardown unless
        # the dangling descriptor is replaced first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as error:
        # structured failure record: one JSON line on stderr, no traceback
        record = {
            "error": type(error).__name__,
            "message": str(error),
        }
        if getattr(error, "hint", None):
            record["hint"] = error.hint
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
