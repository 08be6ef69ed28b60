"""The crash-safe campaign runner: journal, pool, runner, CLI.

The heart of this file is crash behavior: torn journal tails, corrupted
records, SIGKILLed workers, SIGSTOPped (frozen) workers, hung
scenarios, and a parent killed mid-campaign that must resume to a
byte-identical result store.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.attacks.supervisor import ABSTAIN, FOUND, apply_degradation
from repro.campaign import journal as wal
from repro.campaign import (
    CampaignJournal,
    ShardedCampaignRunner,
    SupervisedPool,
    fold_records,
    plan_units,
    replay,
)
from repro.campaign.coordinator import campaign_status, merged_records
from repro.campaign.pool import FAILED, OK, SKIPPED
from repro.campaign.shard import shard_journal_path
from repro.cli import main
from repro.errors import CampaignError, JournalConflict, JournalCorrupt
from repro.scenarios import ScenarioResult, run_suite

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")


# -- module-level pool workers (must be picklable) -----------------------------


def _flaky_worker(payload):
    """Dispatch on the payload so one worker covers every failure mode."""
    kind = payload["kind"]
    if kind == "square":
        return payload["n"] * payload["n"]
    if kind == "hang":
        time.sleep(600.0)
    if kind == "freeze":
        os.kill(os.getpid(), signal.SIGSTOP)
    if kind == "die-once":
        sentinel = payload["sentinel"]
        if not os.path.exists(sentinel):
            with open(sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return "survived"
    if kind == "die-always":
        os.kill(os.getpid(), signal.SIGKILL)
    raise ValueError(kind)


#: a parent holding a jobs=2 pool: one unit sleeps, one returns at once
_ORPHAN_CHILD = r"""
import os, sys, time
from repro.campaign.pool import SupervisedPool

def work(payload):
    out = payload["dir"]
    open(os.path.join(out, "{}.pid".format(os.getpid())), "w").close()
    if payload["sleep"]:
        time.sleep(600.0)
    open(os.path.join(out, "idle.done"), "w").close()

SupervisedPool(jobs=2).run(
    [("busy", {"dir": sys.argv[1], "sleep": True}),
     ("idle", {"dir": sys.argv[1], "sleep": False})], work)
"""


def _pid_alive(pid):
    """True while ``pid`` runs; an unreaped zombie counts as gone."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# -- scenario fixtures ---------------------------------------------------------


def _write_scenario(directory, name, seed, attack=None):
    attack = attack or {"kind": "kaslr", "trials": 4}
    spec = {
        "name": name,
        "machine": {"os": "linux", "seed": seed, "chaos": "default"},
        "attack": attack,
        "expect": {},
    }
    path = directory / (name + ".json")
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def scenario_dir(tmp_path):
    directory = tmp_path / "scenarios"
    directory.mkdir()
    for index, name in enumerate(("alpha", "bravo", "charlie")):
        _write_scenario(directory, name, seed=20 + index)
    return directory


# -- the write-ahead journal ---------------------------------------------------


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.open()
            journal.append(wal.UNIT_START, unit="u", attempt=0)
            journal.append(wal.UNIT_FINISH, unit="u", attempt=0,
                           result={"passed": True})
        records, good_bytes = replay(path)
        assert [r["type"] for r in records] == [
            wal.UNIT_START, wal.UNIT_FINISH,
        ]
        assert good_bytes == path.stat().st_size
        assert all(r["crc"] == wal.record_crc(r) for r in records)

    def test_torn_tail_is_truncated_and_append_continues(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.open()
            journal.append(wal.UNIT_START, unit="u", attempt=0)
            journal.append(wal.UNIT_FINISH, unit="u", attempt=0,
                           result={"passed": True})
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"type":"unit-start","unit":"torn"')

        with CampaignJournal(path) as journal:
            records = journal.open()
            assert len(records) == 2
            assert path.stat().st_size == intact_size
            journal.append(wal.UNIT_SKIP, unit="v", reason="deadline")
        records, __ = replay(path)
        assert [r["type"] for r in records] == [
            wal.UNIT_START, wal.UNIT_FINISH, wal.UNIT_SKIP,
        ]

    def test_corrupted_checksum_mid_file_refuses_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.open()
            journal.append(wal.UNIT_START, unit="aaaa", attempt=0)
            journal.append(wal.UNIT_FINISH, unit="aaaa", attempt=0,
                           result={"passed": True})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0].replace(b"aaaa", b"aaab")  # bit rot, crc stale
        path.write_bytes(b"".join(lines))

        with pytest.raises(JournalCorrupt) as excinfo:
            replay(path)
        assert excinfo.value.line_number == 1
        with pytest.raises(JournalCorrupt):
            CampaignJournal(path).open()

    def test_duplicate_identical_finish_deduped(self):
        records = [
            {"type": wal.UNIT_START, "unit": "u", "attempt": 0},
            {"type": wal.UNIT_FINISH, "unit": "u", "attempt": 0,
             "result": {"passed": True}},
            {"type": wal.UNIT_FINISH, "unit": "u", "attempt": 1,
             "result": {"passed": True}},
            {"type": wal.UNIT_SKIP, "unit": "u", "reason": "deadline"},
        ]
        __, units = fold_records(records)
        assert units["u"]["status"] == "done"
        assert units["u"]["result"] == {"passed": True}

    def test_conflicting_duplicate_finish_raises(self):
        records = [
            {"type": wal.UNIT_START, "unit": "u", "attempt": 0},
            {"type": wal.UNIT_FINISH, "unit": "u", "attempt": 0,
             "result": {"passed": True}},
            {"type": wal.UNIT_FINISH, "unit": "u", "attempt": 1,
             "result": {"passed": False}},
        ]
        with pytest.raises(JournalConflict) as excinfo:
            fold_records(records)
        assert excinfo.value.unit == "u"

    def test_append_requires_open(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        with pytest.raises(CampaignError):
            journal.append(wal.UNIT_START, unit="u")


# -- the supervised pool -------------------------------------------------------


class TestSupervisedPool:
    def test_plain_run(self):
        pool = SupervisedPool(jobs=2)
        units = [("u{}".format(n), {"kind": "square", "n": n})
                 for n in range(5)]
        outcomes = pool.run(units, _flaky_worker)
        assert {uid: o.value for uid, o in outcomes.items()} == {
            "u{}".format(n): n * n for n in range(5)
        }
        assert all(o.status == OK and o.attempts == 1
                   for o in outcomes.values())

    def test_watchdog_kills_hung_worker_within_bound(self):
        pool = SupervisedPool(jobs=2, watchdog_s=1.0, heartbeat_s=0.05,
                              max_retries=0)
        start = time.monotonic()
        outcomes = pool.run(
            [("hung", {"kind": "hang"}),
             ("fine", {"kind": "square", "n": 3})],
            _flaky_worker,
        )
        assert time.monotonic() - start < 30.0  # never the 600s sleep
        assert outcomes["hung"].status == FAILED
        assert outcomes["hung"].detail == "watchdog timeout after 1s"
        assert outcomes["fine"].status == OK

    def test_stale_heartbeat_detected(self):
        pool = SupervisedPool(jobs=1, heartbeat_s=0.05, stale_after_s=0.6,
                              max_retries=0)
        outcomes = pool.run(
            [("frozen", {"kind": "freeze"})], _flaky_worker,
        )
        assert outcomes["frozen"].status == FAILED
        assert outcomes["frozen"].detail == "heartbeat went stale"

    def test_killed_worker_charged_innocents_ride_free(self, tmp_path):
        sentinel = str(tmp_path / "sentinel")
        pool = SupervisedPool(jobs=2, max_retries=2, backoff_base_s=0.01)
        outcomes = pool.run(
            [("calm1", {"kind": "square", "n": 2}),
             ("killer", {"kind": "die-once", "sentinel": sentinel}),
             ("calm2", {"kind": "square", "n": 4})],
            _flaky_worker,
        )
        assert outcomes["killer"].status == OK
        assert outcomes["killer"].value == "survived"
        assert outcomes["killer"].attempts == 2  # charged exactly once
        for unit in ("calm1", "calm2"):
            assert outcomes[unit].status == OK
            assert outcomes[unit].attempts == 1  # never charged

    def test_retry_budget_exhaustion_is_terminal_and_deterministic(self):
        pool = SupervisedPool(jobs=1, max_retries=1, backoff_base_s=0.01)
        outcomes = pool.run(
            [("doomed", {"kind": "die-always"})], _flaky_worker,
        )
        doomed = outcomes["doomed"]
        assert doomed.status == FAILED
        assert doomed.attempts == 2  # initial try + one retry
        assert doomed.detail == \
            "worker process died before returning a result"

    def test_deadline_skips_queued_units(self):
        pool = SupervisedPool(jobs=1)
        outcomes = pool.run(
            [("skipped", {"kind": "square", "n": 1})],
            _flaky_worker, deadline=time.monotonic() - 1.0,
        )
        assert outcomes["skipped"].status == SKIPPED
        assert outcomes["skipped"].detail == "deadline"

    def test_workers_exit_when_parent_is_sigkilled(self, tmp_path):
        # one worker sleeps inside a unit, the other finished its unit
        # and idles on the call queue; neither may outlive the parent
        child = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_CHILD, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        pids = []
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2 or not (tmp_path / "idle.done").exists():
                assert child.poll() is None, "pool child exited early"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.05)
                pids = [int(p.stem) for p in tmp_path.glob("*.pid")]
            child.kill()
            child.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(_pid_alive(pid) for pid in pids) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _pid_alive(pid)]
            assert not survivors, "workers outlived their parent"
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


# -- run_suite resilience (timeout + lost workers) -----------------------------


class TestSuiteResilience:
    def test_timeout_per_scenario_kills_hung_scenario(self, scenario_dir):
        _write_scenario(scenario_dir, "stuck", seed=1,
                        attack={"kind": "hang", "seconds": 600})
        start = time.monotonic()
        results = run_suite(scenario_dir, jobs=2, timeout_per_scenario=2.0)
        assert time.monotonic() - start < 60.0
        by_name = {r.name: r for r in results}
        assert not by_name["stuck"].passed
        assert "watchdog timeout" in by_name["stuck"].violations[0]
        for name in ("alpha", "bravo", "charlie"):
            assert by_name[name].passed, by_name[name].violations

    def test_suite_survives_sigkilled_worker(self, scenario_dir):
        _write_scenario(
            scenario_dir, "zkilled", seed=1,
            attack={"kind": "kill-self"},  # no sentinel: dies every try
        )
        results = run_suite(scenario_dir, jobs=2)
        by_name = {r.name: r for r in results}
        assert not by_name["zkilled"].passed
        assert "scenario runner lost" in by_name["zkilled"].violations[0]
        for name in ("alpha", "bravo", "charlie"):
            assert by_name[name].passed, by_name[name].violations


# -- degradation rules ---------------------------------------------------------


class TestDegradation:
    def test_found_below_bar_becomes_abstain(self):
        status, confidence = apply_degradation(FOUND, 0.8)
        assert (status, confidence) == (ABSTAIN, 0.4)

    def test_found_above_bar_stays_found(self):
        status, confidence = apply_degradation(FOUND, 1.0)
        assert (status, confidence) == (FOUND, 0.5)

    def test_scenario_result_degrade_roundtrips(self):
        result = ScenarioResult(
            "late", True,
            {"status": FOUND, "confidence": 0.9, "correct": True}, [],
        )
        data = result.degrade("deadline").as_dict()
        assert data["degraded"] == "deadline"
        assert data["observations"]["confidence"] == pytest.approx(0.45)
        assert data["observations"]["status"] == ABSTAIN
        assert ScenarioResult.from_dict(data).as_dict() == data


# -- the campaign runner (one shard: the single-pool case) ---------------------


def _one_shard(journal, **kwargs):
    return ShardedCampaignRunner(journal, shards=1, **kwargs)


class TestCampaignRunner:
    def test_plan_units_records_digests_and_seeds(self, scenario_dir):
        units = plan_units(scenario_dir)
        assert [u["id"] for u in units] == ["alpha", "bravo", "charlie"]
        assert [u["seed"] for u in units] == [20, 21, 22]
        assert all(len(u["sha256"]) == 16 for u in units)
        assert all(u["chaos"] == "default" for u in units)

    def test_plan_units_empty_dir_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            plan_units(tmp_path)

    def test_run_writes_store_and_journal(self, scenario_dir, tmp_path):
        journal = tmp_path / "c.jsonl"
        runner = _one_shard(journal, directory=scenario_dir)
        report = runner.run()
        assert report.ok
        assert report.summary == {
            "passed": 3, "failed": 0, "skipped": 0, "degraded": 0,
        }
        store = json.loads(report.store_path.read_text())
        assert store["schema"] == "repro-campaign-result/v1"
        assert [u["id"] for u in store["units"]] == [
            "alpha", "bravo", "charlie",
        ]
        assert all(u["status"] == "PASS" and u["chaos_digest"]
                   for u in store["units"])
        meta, folded = _one_shard(journal).status()
        assert meta["finished"]
        assert all(folded[u]["status"] == "done" for u in folded)

    def test_existing_journal_requires_resume(self, scenario_dir, tmp_path):
        journal = tmp_path / "c.jsonl"
        _one_shard(journal, directory=scenario_dir).run()
        with pytest.raises(CampaignError):
            _one_shard(journal, directory=scenario_dir).run()

    def test_resume_reexecutes_nothing_when_finished(self, scenario_dir,
                                                     tmp_path):
        journal = tmp_path / "c.jsonl"
        first = _one_shard(journal, directory=scenario_dir).run()
        shard0 = shard_journal_path(journal, 0)
        sizes = (journal.stat().st_size, shard0.stat().st_size)
        second = _one_shard(journal).run(resume=True)
        # nothing re-journaled
        assert (journal.stat().st_size, shard0.stat().st_size) == sizes
        strip = ("generated_at", "wall_elapsed_s")
        assert {k: v for k, v in first.store.items() if k not in strip} \
            == {k: v for k, v in second.store.items() if k not in strip}

    def test_resume_refuses_changed_scenario(self, scenario_dir, tmp_path):
        journal = tmp_path / "c.jsonl"
        _one_shard(journal, directory=scenario_dir).run()
        _write_scenario(scenario_dir, "alpha", seed=99)
        with pytest.raises(CampaignError, match="digest mismatch"):
            _one_shard(journal).run(resume=True)

    def test_deadline_zero_skips_everything(self, scenario_dir, tmp_path):
        journal = tmp_path / "c.jsonl"
        runner = _one_shard(journal, directory=scenario_dir,
                            deadline_s=0.0)
        report = runner.run()
        assert not report.ok
        assert report.summary["skipped"] == 3
        assert all(u["status"] == "SKIPPED" and u["reason"] == "deadline"
                   for u in report.store["units"])

    def test_worker_killed_mid_campaign_recovers(self, scenario_dir,
                                                 tmp_path):
        sentinel = tmp_path / "sentinel"
        _write_scenario(
            scenario_dir, "dies", seed=7,
            attack={"kind": "kill-self", "sentinel": str(sentinel)},
        )
        journal = tmp_path / "c.jsonl"
        report = _one_shard(journal, directory=scenario_dir,
                            jobs=2).run()
        assert report.ok, report.store["units"]
        records = merged_records(journal, 1)
        retries = [r for r in records if r["type"] == wal.UNIT_RETRY]
        assert [r["unit"] for r in retries] == ["dies"]
        assert retries[0]["reason"] == \
            "worker process died before returning a result"

    def test_legacy_single_pool_journal_resumes_as_one_shard(
            self, scenario_dir, tmp_path):
        # the retired single-pool runner journaled its unit records in
        # the coordinator journal and pinned no shard count
        clean = _one_shard(tmp_path / "clean.jsonl",
                           directory=scenario_dir).run()
        start, finish = replay(tmp_path / "clean.jsonl")[0]
        units, __ = replay(shard_journal_path(tmp_path / "clean.jsonl", 0))
        legacy = tmp_path / "legacy.jsonl"
        with CampaignJournal(legacy) as journal:
            journal.open()
            for record in [start] + units[1:-1] + [finish]:
                fields = {k: v for k, v in record.items()
                          if k not in ("type", "v", "crc", "shard",
                                       "fault_profile", "shards")}
                journal.append(record["type"], **fields)
        # cut the tail: one unit done, one started, one never started
        lines = legacy.read_bytes().splitlines(keepends=True)
        assert len(lines) == 8
        legacy.write_bytes(b"".join(lines[:-4]))
        meta, folded = campaign_status(legacy)
        assert "shards" not in meta["config"] and not meta["finished"]
        assert {u: folded[u]["status"] for u in folded} == {
            "alpha": "done", "bravo": "running",
        }

        # the constructor's shard count must not override the journal
        resumed = ShardedCampaignRunner(legacy, shards=2).run(resume=True)
        assert not shard_journal_path(legacy, 1).exists()
        assert resumed.store["units"] == clean.store["units"]
        assert resumed.store["summary"] == clean.store["summary"]
        campaign = dict(clean.store["campaign"])
        assert campaign.pop("shards") == 1
        assert resumed.store["campaign"] == campaign
        meta, folded = campaign_status(legacy)
        assert meta["finished"]
        assert all(folded[unit["id"]]["status"] == "done"
                   for unit in meta["config"]["units"])


# -- CLI + kill-resume determinism ---------------------------------------------


class TestCampaignCli:
    def test_run_and_status_verbs(self, scenario_dir, tmp_path, capsys):
        journal = tmp_path / "c.jsonl"
        assert main(["campaign", "run", str(scenario_dir),
                     "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "3 passed, 0 failed, 0 skipped" in out
        assert main(["campaign", "status", str(journal)]) == 0

    def test_resume_verb_needs_a_journal(self, tmp_path, capsys):
        code = main(["campaign", "resume", str(tmp_path / "nope.jsonl")])
        assert code != 0

    def _campaign_cmd(self, scenario_dir, journal, verb="run"):
        cmd = [sys.executable, "-m", "repro", "campaign"]
        if verb == "run":
            cmd += ["run", str(scenario_dir), "--journal", str(journal)]
        else:
            cmd += ["resume", str(journal)]
        return cmd + ["--jobs", "1"]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        return env

    def _strip(self, store_path):
        store = json.loads(pathlib.Path(store_path).read_text())
        store.pop("generated_at")
        store.pop("wall_elapsed_s")
        return store

    def test_sigkill_parent_then_resume_is_deterministic(
            self, scenario_dir, tmp_path):
        clean = tmp_path / "clean.jsonl"
        subprocess.run(
            self._campaign_cmd(scenario_dir, clean), env=self._env(),
            check=True, capture_output=True, timeout=300,
        )

        killed = tmp_path / "killed.jsonl"
        # unit records land in the (only) shard's journal
        shard0 = shard_journal_path(killed, 0)
        process = subprocess.Popen(
            self._campaign_cmd(scenario_dir, killed), env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if shard0.exists() \
                        and b"unit-finish" in shard0.read_bytes():
                    process.kill()
                    break
                time.sleep(0.02)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        # the kill must actually land mid-campaign, or this test proves
        # nothing about resume
        assert process.returncode == -signal.SIGKILL

        subprocess.run(
            self._campaign_cmd(scenario_dir, killed, verb="resume"),
            env=self._env(), check=True, capture_output=True, timeout=300,
        )
        clean_store = self._strip(tmp_path / "clean.results.json")
        killed_store = self._strip(tmp_path / "killed.results.json")
        assert clean_store == killed_store
