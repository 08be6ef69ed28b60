"""Durability cost of the crash-safe campaign runner.

Three questions, all measured host-side:

* how fast is the write-ahead journal -- fsync'd appends per second and
  full-replay throughput over a realistically sized record stream,
* what does campaign supervision (journal + watchdog pool + atomic
  store, on one shard) cost over the bare ``run_suite`` path for the
  same scenario directory, with the per-unit verdicts cross-checked
  between the two,
* what do four shard fault domains cost over one shard at the same
  total worker budget.

The numbers land in ``BENCH_campaign.json`` at the repo root so the
overhead trajectory is tracked from this change onward.
"""

import json
import pathlib
import tempfile
import time

from _bench_utils import once, write_result

from repro.analysis.report import format_table
from repro.campaign import (
    CampaignJournal,
    ShardedCampaignRunner,
    replay,
)
from repro.campaign import journal as wal
from repro.ioutil import write_json_atomic
from repro.scenarios import run_suite

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_campaign.json"
SCENARIO_DIR = REPO_ROOT / "scenarios"

#: journaled unit-finish records for the append/replay measurement
JOURNAL_RECORDS = 512


def _bench_journal():
    """Append throughput (fsync'd) and replay throughput."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "bench.jsonl"
        journal = CampaignJournal(path)
        journal.open()
        payload = {
            "unit": "bench-unit", "attempt": 0,
            "result": {"name": "bench-unit", "passed": True,
                       "observations": {"confidence": 0.9},
                       "violations": []},
        }
        start = time.perf_counter()
        for _ in range(JOURNAL_RECORDS):
            journal.append(wal.UNIT_FINISH, **payload)
        append_s = time.perf_counter() - start
        journal.close()

        start = time.perf_counter()
        records, __ = replay(path)
        replay_s = time.perf_counter() - start
        assert len(records) == JOURNAL_RECORDS
    return {
        "records": JOURNAL_RECORDS,
        "append_total_s": round(append_s, 4),
        "appends_per_s": round(JOURNAL_RECORDS / append_s, 1),
        "replay_total_s": round(replay_s, 4),
        "replays_per_s": round(JOURNAL_RECORDS / replay_s, 1),
    }


def _bench_overhead():
    """One-shard campaign supervision vs bare run_suite on the shipped
    scenarios."""
    start = time.perf_counter()
    suite_results = run_suite(SCENARIO_DIR)
    suite_s = time.perf_counter() - start
    suite_verdicts = {r.name: r.passed for r in suite_results}

    with tempfile.TemporaryDirectory() as tmp:
        runner = ShardedCampaignRunner(
            pathlib.Path(tmp) / "campaign.jsonl",
            directory=SCENARIO_DIR, shards=1, jobs=1,
        )
        start = time.perf_counter()
        report = runner.run()
        campaign_s = time.perf_counter() - start

    campaign_verdicts = {
        unit["name"]: unit["status"] == "PASS"
        for unit in report.store["units"]
    }
    assert campaign_verdicts == suite_verdicts
    return {
        "scenarios": len(suite_results),
        "suite_s": round(suite_s, 4),
        "campaign_s": round(campaign_s, 4),
        "overhead_x": round(campaign_s / suite_s, 2),
    }


def _bench_sharded():
    """Four shards vs one shard at jobs=4."""
    def _verdicts(store):
        return {unit["name"]: (unit["status"], unit.get("result"))
                for unit in store["units"]}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        single = ShardedCampaignRunner(
            tmp / "single.jsonl", directory=SCENARIO_DIR,
            shards=1, jobs=4,
        )
        start = time.perf_counter()
        single_report = single.run()
        single_s = time.perf_counter() - start

        sharded = ShardedCampaignRunner(
            tmp / "sharded.jsonl", directory=SCENARIO_DIR,
            shards=4, jobs=4,
        )
        start = time.perf_counter()
        sharded_report = sharded.run()
        sharded_s = time.perf_counter() - start

    assert _verdicts(sharded_report.store) == _verdicts(single_report.store)
    return {
        "scenarios": len(single_report.store["units"]),
        "shards": 4,
        "one_shard_s": round(single_s, 4),
        "sharded_s": round(sharded_s, 4),
        "sharded_overhead_x": round(sharded_s / single_s, 2),
        "budget_x": 1.10,
    }


def run_campaign_bench():
    journal = _bench_journal()
    overhead = _bench_overhead()
    sharded = _bench_sharded()

    # durability must stay cheap: the journal is not the bottleneck
    assert journal["appends_per_s"] >= 50.0, journal
    # the fault-domain fabric must stay cheap too
    assert sharded["sharded_overhead_x"] <= sharded["budget_x"], sharded

    write_json_atomic(BENCH_JSON, {
        "journal": journal, "overhead": overhead, "sharded": sharded,
    }, indent=2)

    rows = [
        ["journal append (fsync'd)", journal["records"],
         journal["append_total_s"],
         "{}/s".format(journal["appends_per_s"])],
        ["journal replay", journal["records"],
         journal["replay_total_s"],
         "{}/s".format(journal["replays_per_s"])],
        ["campaign vs suite ({} scenarios)".format(
            overhead["scenarios"]),
         overhead["scenarios"], overhead["campaign_s"],
         "{}x suite ({}s)".format(overhead["overhead_x"],
                                  overhead["suite_s"])],
        ["4 shards vs 1 shard",
         sharded["scenarios"], sharded["sharded_s"],
         "{}x one shard ({}s)".format(sharded["sharded_overhead_x"],
                                      sharded["one_shard_s"])],
    ]
    return format_table(
        ["workload", "n", "seconds", "rate"], rows,
    )


def test_perf_campaign(benchmark, record_result):
    record_result("perf_campaign", once(benchmark, run_campaign_bench))
