"""Compare two sets of benchmark run records.

    python -m bench.compare OLD NEW
    python -m bench.compare bench/results/baseline.json#a \\
        bench/results/baseline.json#b
    python -m bench.compare --bundle OUT.json a=DIR b=DIR

``OLD`` and ``NEW`` each name a directory of run records (what
``bench/run.py`` writes to ``bench/results/runs/``), one record file, or
a bundle such as ``bench/results/baseline.json``; ``FILE#NAME`` picks
one set of a bundle, a bare bundle path pools all of its sets.

For every (workload, end-to-end metric) of ``BENCHMARK.json`` it prints
both sides' median and quartiles over their untraced runs, the change,
the larger of the two spreads (inter-quartile range over median) and a
verdict against the metric's bound:

* ``better`` -- every NEW run beats every OLD run;
* ``ok`` -- NEW's median is no worse than OLD's by more than the bound;
* ``REGRESSION`` -- NEW's median is worse by more than the bound;
* ``unresolved`` -- a spread exceeds the bound, so the runs cannot tell.

Correctness is compared exactly, per (workload, seed) present on both
sides: the ``outcome_digest`` must be identical (a pure speed change
leaves every simulated outcome as it was), and so must ``wrong_ratio``
and ``paper_err_pct``; ``fail_ratio`` may not grow.  Per-layer medians
of traced runs are listed for reference, without verdicts.

Exit status 1 when anything is flagged, 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = "repro-bench-run/v1"


def load(spec):
    """Run records from a directory, a record file or a bundle[#set]."""
    path, __, name = spec.partition("#")
    path = pathlib.Path(path)
    if path.is_dir():
        records = [json.loads(p.read_text())
                   for p in sorted(path.glob("*.json"))
                   if not p.name.endswith(".trace.json")]
    else:
        data = json.loads(path.read_text())
        if "sets" in data:
            if name:
                records = data["sets"][name]
            else:
                records = [r for runs in data["sets"].values() for r in runs]
        else:
            records = [data]
    return [r for r in records
            if r.get("schema") == SCHEMA and not r.get("smoke")]


def summary(values):
    """(median, q1, q3, spread) with the quartiles statistics.quantiles
    gives; spread is (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def _values(records, workload, metric, traced):
    return [r["metrics"][metric] for r in records
            if r["workload"] == workload and bool(r["trace"]) == traced
            and metric in r["metrics"]]


def compare_metric(old, new, better, bound):
    """Verdict for one (workload, metric) pair."""
    o_med, o_q1, o_q3, o_spread = summary(old)
    n_med, n_q1, n_q3, n_spread = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n_med - o_med) / o_med if o_med else 0.0
    spread = max(o_spread, n_spread)
    if (max(new) < min(old)) if better == "lower" else (min(new) > max(old)):
        verdict = "better"          # every NEW run beats every OLD run
    elif spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return {
        "old": (o_med, o_q1, o_q3), "new": (n_med, n_q1, n_q3),
        "change": (n_med - o_med) / o_med if o_med else 0.0,
        "spread": spread, "verdict": verdict,
    }


def exact_findings(old, new):
    """Digest and exact-metric differences per (workload, seed)."""
    def by_key(records):
        table = {}
        for record in records:
            key = (record["workload"], record["seed"])
            table.setdefault(key, []).append(record)
        return table

    findings = []
    old_by, new_by = by_key(old), by_key(new)
    for key in sorted(set(old_by) | set(new_by)):
        runs = old_by.get(key, []) + new_by.get(key, [])
        digests = {r["outcome_digest"] for r in runs}
        label = "{} seed {}".format(*key)
        if len(digests) > 1:
            findings.append("{}: outcome_digest differs ({})".format(
                label, ", ".join(sorted(d[:12] for d in digests))))
        for metric in ("wrong_ratio", "paper_err_pct"):
            values = {r["exact"][metric] for r in runs}
            if len(values) > 1:
                findings.append("{}: {} differs ({})".format(
                    label, metric, sorted(values)))
        if key in old_by and key in new_by:
            before = max(r["exact"]["fail_ratio"] for r in old_by[key])
            after = max(r["exact"]["fail_ratio"] for r in new_by[key])
            if after > before:
                findings.append("{}: fail_ratio grew {} -> {}".format(
                    label, before, after))
    return findings


def report(old, new, declared, out=sys.stdout):
    """Print the comparison; returns the number of flagged findings."""
    flagged = 0
    workloads = sorted({r["workload"] for r in old}
                       & {r["workload"] for r in new})
    print("{:<12} {:<12} {:>26} {:>26} {:>8} {:>7} {:>6}  {}".format(
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]",
        "change", "spread", "bound", "verdict"), file=out)
    for workload in workloads:
        for entry in declared["end_to_end"]:
            metric = entry["name"]
            old_v = _values(old, workload, metric, False)
            new_v = _values(new, workload, metric, False)
            if not old_v or not new_v:
                continue
            row = compare_metric(old_v, new_v, entry["better"],
                                 entry["bound"])
            flagged += row["verdict"] in ("REGRESSION", "unresolved")
            print("{:<12} {:<12} {:>26} {:>26} {:>+7.1%} {:>7.1%} {:>6.0%}"
                  "  {}".format(
                      workload, metric, _fmt(row["old"]), _fmt(row["new"]),
                      row["change"], row["spread"], entry["bound"],
                      row["verdict"]), file=out)
    findings = exact_findings(old, new)
    for finding in findings:
        print("EXACT MISMATCH: " + finding, file=out)
    flagged += len(findings)
    for workload in workloads:
        for entry in declared["per_layer"]:
            old_v = _values(old, workload, entry["name"], True)
            new_v = _values(new, workload, entry["name"], True)
            if old_v and new_v and (any(old_v) or any(new_v)):
                print("{:<12} {:<28} {:>12.5g} -> {:<12.5g} {} (per layer, "
                      "traced)".format(workload, entry["name"],
                                       statistics.median(old_v),
                                       statistics.median(new_v),
                                       entry["unit"]), file=out)
    print("{} flagged (old: {} runs, new: {} runs)".format(
        flagged, len(old), len(new)), file=out)
    return flagged


def _fmt(triple):
    median, q1, q3 = triple
    return "{:.4g} [{:.4g}, {:.4g}]".format(median, q1, q3)


def bundle(out_path, named_sets):
    """Write a bundle of named record sets (the committed baseline)."""
    sets = {}
    for item in named_sets:
        name, __, source = item.partition("=")
        sets[name] = load(source)
    pathlib.Path(out_path).write_text(json.dumps(
        {"schema": "repro-bench-bundle/v1", "sets": sets},
        indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark run records.")
    parser.add_argument("sources", nargs="*",
                        help="OLD NEW, or NAME=SOURCE pairs with --bundle")
    parser.add_argument("--bundle", metavar="OUT",
                        help="write the named sets into one bundle file")
    args = parser.parse_args(argv)
    if args.bundle:
        bundle(args.bundle, args.sources)
        return 0
    if len(args.sources) != 2:
        parser.error("give exactly two sources: OLD NEW")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = (load(source) for source in args.sources)
    if not old or not new:
        parser.error("no benchmark run records in one of the sources")
    return 1 if report(old, new, declared) else 0


if __name__ == "__main__":
    sys.exit(main())
