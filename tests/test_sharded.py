"""The sharded campaign fabric: partition, steal, quarantine, merge.

The contract under test is the one-shard campaign's -- kill -9
anything, resume, get byte-identical results -- with the failure
surface of N fault domains: a shard dying on a dead disk must be
quarantined and its units stolen; duplicate finishes from steal races
must dedup (identical) or raise (conflicting); a corrupt shard journal
must route through `repro campaign fsck` and come back resumable.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import journal as wal
from repro.campaign import (
    ShardedCampaignRunner,
    SupervisedPool,
    fold_records,
    fsck_journal,
    replay,
)
from repro.campaign.coordinator import campaign_status, merged_records
from repro.campaign.shard import shard_journal_path, shard_of
from repro.cli import main
from repro.errors import CampaignError, JournalCorrupt
from repro.obs.schema import load_trace

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _write_scenario(directory, name, seed):
    spec = {
        "name": name,
        "machine": {"os": "linux", "seed": seed, "chaos": "default"},
        "attack": {"kind": "kaslr", "params": {"trials": 1}},
        "expect": {},
    }
    (directory / (name + ".json")).write_text(json.dumps(spec))


@pytest.fixture
def scenario_dir(tmp_path):
    directory = tmp_path / "scenarios"
    directory.mkdir()
    for index in range(8):
        _write_scenario(directory, "unit-{:02d}".format(index),
                        seed=50 + index)
    return directory


def _strip(store):
    store = dict(store)
    store.pop("generated_at")
    store.pop("wall_elapsed_s")
    return store


# -- partitioning --------------------------------------------------------------


class TestPartition:
    def test_shard_of_is_stable_and_covers(self):
        ids = ["unit-{:03d}".format(i) for i in range(200)]
        first = [shard_of(uid, 4) for uid in ids]
        assert first == [shard_of(uid, 4) for uid in ids]
        assert set(first) == {0, 1, 2, 3}
        assert all(shard_of(uid, 1) == 0 for uid in ids)

    def test_shard_journal_path(self):
        base = pathlib.Path("/x/c.jsonl")
        assert shard_journal_path(base, 0) == \
            pathlib.Path("/x/c.shard-0.jsonl")
        assert shard_journal_path(base, 11) == \
            pathlib.Path("/x/c.shard-11.jsonl")


# -- sharded vs one-shard determinism ------------------------------------------


class TestShardedDeterminism:
    def test_sharded_store_matches_single_pool(self, scenario_dir,
                                               tmp_path):
        sharded = ShardedCampaignRunner(
            tmp_path / "sharded.jsonl", directory=scenario_dir,
            shards=3, jobs=3, seed=7,
        ).run()
        single = ShardedCampaignRunner(
            tmp_path / "single.jsonl", directory=scenario_dir,
            shards=1, jobs=3, seed=7,
        ).run()
        assert sharded.store["units"] == single.store["units"]
        assert sharded.store["summary"] == single.store["summary"]
        assert sharded.ok and single.ok

    def test_rerun_same_seed_is_byte_identical(self, scenario_dir,
                                               tmp_path):
        first = ShardedCampaignRunner(
            tmp_path / "a.jsonl", directory=scenario_dir, shards=2,
            jobs=2, seed=5,
        ).run()
        second = ShardedCampaignRunner(
            tmp_path / "b.jsonl", directory=scenario_dir, shards=2,
            jobs=2, seed=5,
        ).run()
        assert _strip(first.store) == _strip(second.store)

    def test_refuses_overwrite_without_resume(self, scenario_dir,
                                              tmp_path):
        runner = ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
        )
        runner.run()
        with pytest.raises(CampaignError):
            ShardedCampaignRunner(
                tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            ).run()

    def test_resume_finished_campaign_is_noop_and_identical(
            self, scenario_dir, tmp_path):
        first = ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            seed=3,
        ).run()
        again = ShardedCampaignRunner(
            tmp_path / "c.jsonl", shards=2,
        ).run(resume=True)
        assert _strip(first.store) == _strip(again.store)


# -- quarantine + work stealing ------------------------------------------------


class TestQuarantineAndStealing:
    def test_dead_disk_shard_is_quarantined_and_stolen_from(
            self, scenario_dir, tmp_path):
        profile = {"name": "dead-0", "description": "shard 0's disk "
                   "is full from the first byte",
                   "rates": {"enospc": 1.0}, "shards": [0]}
        runner = ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            jobs=2, seed=3, fault_profile=profile,
            trace_path=tmp_path / "trace.jsonl",
        )
        report = runner.run()
        # every unit still completes: the survivors stole the work
        assert report.ok
        assert report.summary["passed"] == 8
        assert report.shard_states[0] == "dead"
        assert report.shard_states[1] == "done"
        assert "JournalWriteError" in report.shard_failures[0]
        assert report.steals > 0
        # steals are journaled in the coordinator journal...
        records, __ = replay(tmp_path / "c.jsonl")
        steals = [r for r in records if r["type"] == wal.STEAL]
        assert len(steals) == report.steals
        assert all(r["to_shard"] == 1 for r in steals)
        # ...and observable as typed trace events
        trace = load_trace(str(tmp_path / "trace.jsonl"))
        kinds = [r.get("kind") for r in trace if r.get("type") == "event"]
        assert kinds.count("steal") == report.steals
        assert "shard-quarantined" in kinds
        assert "fault" in kinds
        counters = [r for r in trace if r.get("type") == "metrics"][0]
        assert counters["counters"]["campaign.steals"] == report.steals
        assert counters["counters"]["campaign.faults.enospc"] >= 1

    def test_all_shards_dead_degrades_cleanly(self, scenario_dir,
                                              tmp_path):
        profile = {"name": "all-dead", "description": "x",
                   "rates": {"enospc": 1.0}}
        report = ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            jobs=2, fault_profile=profile,
        ).run()
        # nothing could run; the store ships INCOMPLETE units and the
        # report carries each shard's typed failure -- no exception,
        # no partial corruption
        assert not report.ok
        assert all(u["status"] == "INCOMPLETE"
                   for u in report.store["units"])
        assert set(report.shard_failures) == {0, 1}
        meta, __ = campaign_status(tmp_path / "c.jsonl")
        assert not meta["finished"]

    def test_resume_after_total_fault_death_completes(self, scenario_dir,
                                                      tmp_path):
        profile = {"name": "all-dead", "description": "x",
                   "rates": {"enospc": 1.0}}
        ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            fault_profile=profile,
        ).run()
        # the resume draws a fresh (salted) fault sequence, but with
        # rate-1.0 ENOSPC the shards die again -- so resume with the
        # profile overridden via a fresh runner config is not possible;
        # instead verify the journaled profile is honored and the
        # campaign stays INCOMPLETE rather than corrupt
        report = ShardedCampaignRunner(
            tmp_path / "c.jsonl", shards=2,
        ).run(resume=True)
        assert not report.ok
        records = merged_records(tmp_path / "c.jsonl", 2)
        __, units = fold_records(records)  # merged fold stays clean
        assert all(u["status"] == "pending" for u in units.values())


# -- seeded retry jitter -------------------------------------------------------


class TestSeededBackoff:
    def test_same_seed_same_schedule(self):
        a = SupervisedPool(backoff_base_s=0.05, seed=9)
        b = SupervisedPool(backoff_base_s=0.05, seed=9)
        schedule_a = [a._backoff_s("unit-{}".format(i), n)
                      for i in range(8) for n in (1, 2, 3)]
        schedule_b = [b._backoff_s("unit-{}".format(i), n)
                      for i in range(8) for n in (1, 2, 3)]
        assert schedule_a == schedule_b

    def test_different_seed_different_schedule(self):
        a = SupervisedPool(backoff_base_s=0.05, seed=9)
        b = SupervisedPool(backoff_base_s=0.05, seed=10)
        assert [a._backoff_s("u", n) for n in (1, 2, 3)] != \
            [b._backoff_s("u", n) for n in (1, 2, 3)]

    def test_jitter_bounded_and_exponential(self):
        pool = SupervisedPool(backoff_base_s=0.05, seed=1)
        for attempts in (1, 2, 3):
            base = 0.05 * (2 ** (attempts - 1))
            delay = pool._backoff_s("unit", attempts)
            assert base <= delay < 2 * base

    def test_no_seed_keeps_plain_exponential(self):
        pool = SupervisedPool(backoff_base_s=0.05)
        assert pool._backoff_s("unit", 3) == 0.05 * 4


# -- fsck of a sharded campaign ------------------------------------------------


class TestShardedFsck:
    def _corrupt_mid_file(self, path):
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        lines[1] = b'{"not": "sealed"}\n'
        path.write_bytes(b"".join(lines))

    def _unfinish(self, journal):
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(
            line for line in lines if b"campaign-finish" not in line
        ))

    def test_resume_over_corruption_suggests_fsck(self, scenario_dir,
                                                  tmp_path, capsys):
        ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            seed=3,
        ).run()
        self._unfinish(tmp_path / "c.jsonl")
        shard1 = shard_journal_path(tmp_path / "c.jsonl", 1)
        self._corrupt_mid_file(shard1)
        with pytest.raises(JournalCorrupt) as excinfo:
            ShardedCampaignRunner(
                tmp_path / "c.jsonl", shards=2,
            ).run(resume=True)
        assert "fsck" in excinfo.value.hint
        # and through the CLI, the structured JSON error carries it
        code = main(["campaign", "resume", str(tmp_path / "c.jsonl")])
        assert code == 2
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "JournalCorrupt"
        assert "repro campaign fsck" in error["hint"]

    def test_fsck_quarantines_and_rebuild_resumes_identically(
            self, scenario_dir, tmp_path, capsys):
        clean = ShardedCampaignRunner(
            tmp_path / "clean.jsonl", directory=scenario_dir, shards=2,
            seed=3,
        ).run()
        ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
            seed=3,
        ).run()
        self._unfinish(tmp_path / "c.jsonl")
        shard1 = shard_journal_path(tmp_path / "c.jsonl", 1)
        self._corrupt_mid_file(shard1)

        code = main(["campaign", "fsck", str(tmp_path / "c.jsonl"),
                     "--rebuild"])
        capsys.readouterr()
        assert code == 1  # something was quarantined
        corrupt = pathlib.Path(str(shard1) + ".corrupt")
        salvage_path = pathlib.Path(str(shard1) + ".salvage.json")
        assert corrupt.exists() and salvage_path.exists()
        salvage = json.loads(salvage_path.read_text())
        assert salvage["schema"] == "repro-campaign-salvage/v1"
        assert salvage["status"] == "quarantined"
        assert salvage["damage"][0]["line"] == 2
        assert salvage["units"]["done"] >= 1

        # the rebuilt journal replays clean and the resume converges to
        # the same store as the uninterrupted campaign
        report = ShardedCampaignRunner(
            tmp_path / "c.jsonl", shards=2,
        ).run(resume=True)
        assert _strip(report.store) == _strip(clean.store)

    def test_fsck_torn_tail_is_left_alone(self, scenario_dir, tmp_path):
        ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
        ).run()
        shard0 = shard_journal_path(tmp_path / "c.jsonl", 0)
        with open(shard0, "ab") as handle:
            handle.write(b'{"torn": ')
        report = fsck_journal(shard0)
        assert report["status"] == "torn-tail"
        assert shard0.exists()
        assert not pathlib.Path(str(shard0) + ".corrupt").exists()

    def test_fsck_clean_journal_reports_ok(self, scenario_dir, tmp_path):
        ShardedCampaignRunner(
            tmp_path / "c.jsonl", directory=scenario_dir, shards=2,
        ).run()
        report = fsck_journal(tmp_path / "c.jsonl")
        assert report["status"] == "ok"
        assert report["finished"]


# -- kill -9 the coordinator ---------------------------------------------------


class TestShardedCli:
    def _cmd(self, scenario_dir, journal, verb="run"):
        cmd = [sys.executable, "-m", "repro", "campaign"]
        if verb == "run":
            cmd += ["run", str(scenario_dir), "--journal", str(journal),
                    "--shards", "2", "--seed", "5"]
        else:
            cmd += ["resume", str(journal)]
        return cmd + ["--jobs", "2"]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        return env

    def test_sigkill_coordinator_then_resume_is_deterministic(
            self, scenario_dir, tmp_path):
        clean = tmp_path / "clean.jsonl"
        subprocess.run(
            self._cmd(scenario_dir, clean), env=self._env(),
            check=True, capture_output=True, timeout=300,
        )

        killed = tmp_path / "killed.jsonl"
        process = subprocess.Popen(
            self._cmd(scenario_dir, killed), env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break  # finished before we could kill it; still valid
                if any(b"unit-finish" in p.read_bytes()
                       for p in tmp_path.glob("killed.shard-*.jsonl")):
                    process.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.02)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        subprocess.run(
            self._cmd(scenario_dir, killed, verb="resume"),
            env=self._env(), check=True, capture_output=True, timeout=300,
        )
        clean_store = json.loads(
            (tmp_path / "clean.results.json").read_text())
        killed_store = json.loads(
            (tmp_path / "killed.results.json").read_text())
        assert _strip(clean_store) == _strip(killed_store)
