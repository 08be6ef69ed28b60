"""The repo benchmark: four workloads, end-to-end metrics, correctness checks.

Run from the repository root::

    python3 bench/run.py --workload boot-bound --seed 7 --seconds 20 --trace 0
    PYTHONPATH=src python -m bench.run --seed 7            # all four workloads
    PYTHONPATH=src python -m bench.run --seed 7 --trace    # per-layer pass

Each workload runs in its own child process (``bench/harness.py``), so
its import time and peak RSS are measured alone; the in-process
workloads additionally time a few cold starts in separate processes for
``setup_s``.  The table lists every metric by name and unit; the last
line of standard output is one JSON object: with ``--trace 0`` it holds
the end-to-end metrics declared in ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  Every run record (all metrics, the
exact correctness figures, the outcome digest) is also written under
``bench/results/runs/`` for ``bench/compare.py``; a traced run writes
its spans next to it.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not run at all (no result line is printed).
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results" / "runs"
WORK = ROOT / "bench" / ".work"
WORKLOADS = ("boot-bound", "sweep-bound", "campaign", "serve-open")
#: workloads whose setup_s is a cold start probed in fresh processes
#: (campaign fits its fixed cost, serve-open restarts its server)
PROBED = ("boot-bound", "sweep-bound")
#: cold-start probes per run (full, smoke)
SETUP_PROBES = (5, 2)
#: wall-clock budget of one workload, child processes included
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(arguments, deadline):
    """Run ``bench.harness`` with ``arguments``; return its JSON record.

    The child leads its own process group so that nothing it forks
    (campaign and serve pool workers) outlives it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.harness"] + arguments,
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, __ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("harness {} ran out of time".format(
            " ".join(arguments))) from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        # the child's scratch directory (bench/harness.py _work_dir)
        shutil.rmtree(WORK / str(process.pid), ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if process.returncode != 0:
        raise BenchError("harness {} exited with status {}".format(
            " ".join(arguments), process.returncode))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("harness {} printed no record".format(
            " ".join(arguments)))
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, smoke, declared):
    """Measure one workload; returns its run record (also written out)
    and the declared metrics it reports."""
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", name, "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    setups = []
    if name in PROBED:
        for __ in range(SETUP_PROBES[1 if smoke else 0]):
            setups.append(_child(base + ["--role", "setup"],
                                 deadline)["setup_s"])
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = "{}-seed{}-trace{}-{}".format(name, seed, trace,
                                         time.strftime("%Y%m%dT%H%M%S"))
    stem += "-{}".format(os.getpid())
    measure = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        measure += ["--trace-out", str(RESULTS / (stem + ".trace.json"))]
    record = _child(measure, deadline)
    if setups:
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["setup_probes_s"] = setups
    record = dict({"schema": "repro-bench-run/v1", "workload": name,
                   "seed": seed, "seconds": seconds, "trace": trace,
                   "smoke": smoke}, **record)
    metrics = reported(record, declared, trace)
    (RESULTS / (stem + ".json")).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record, metrics


def reported(record, declared, trace):
    """The declared metrics this run reports, as ``{name: {value, unit}}``.

    End-to-end metrics must be measured and positive (none of them can
    legitimately be zero); a per-layer metric a workload does not
    exercise reads 0.
    """
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for entry in declared[section]:
        value = record["metrics"].get(entry["name"])
        if section == "end_to_end" and (
                value is None or not math.isfinite(value) or value <= 0):
            record["correct"] = False
            record["notes"].append("{} was not measured".format(
                entry["name"]))
        metrics[entry["name"]] = {"value": value or 0.0,
                                  "unit": entry["unit"]}
    return metrics


def print_table(name, record, declared, trace):
    sections = ["end_to_end"] + (["per_layer"] if trace else [])
    for section in sections:
        for entry in declared[section]:
            value = record["metrics"].get(entry["name"], 0.0)
            print("{:<12} {:<28} {:>14.6g} {}".format(
                name, entry["name"], value, entry["unit"]))
    for key, value in sorted(record["exact"].items()):
        print("{:<12} {:<28} {:>14.6g} (exact)".format(name, key, value))
    print("{:<12} {:<28} {} ({} attempted, {} failed)".format(
        name, "outcome_digest", record["outcome_digest"][:16],
        record["attempted"], record["failed"]))
    for note in record["notes"]:
        print("{:<12} CHECK FAILED: {}".format(name, note))


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced pass reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny passes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError("no program to measure: {} is missing".format(
                ROOT / "src" / "repro"))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or declared["run_seconds"]
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, seconds,
                                         args.trace, args.smoke, declared)
            print_table(name, results[name][0], declared, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    correct = all(record["correct"] for record, __ in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r, __ in results.values()),
        "failed": sum(r["failed"] for r, __ in results.values()),
    }
    if args.workload:
        summary["metrics"] = results[args.workload][1]
    else:
        summary["workloads"] = {name: {"metrics": metrics}
                                for name, (__, metrics) in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
