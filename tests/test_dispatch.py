"""Event-driven pool dispatch: work launches when it arrives.

The supervised pool never polls.  It blocks until a unit completes or
the owner of its feed rings the :class:`WakeSignal`, so these tests
count ``feed`` calls and wait on events with timeout guards instead of
bounding latency: a pool that missed a ring fails by its guard, not
by a slow host.
"""

import json
import threading
import time

from repro.campaign import ShardedCampaignRunner, SupervisedPool
from repro.campaign import shard as shard_module
from repro.campaign.pool import OK, WakeSignal
from repro.campaign.runner import _run_unit
from repro.serve.backend import DONE, ServeBackend, Submission
from repro.serve.scheduler import FairShareScheduler

#: generous guard on every join: only a lost ring ever reaches it
GUARD_S = 60.0


def _square(payload):
    return payload * payload


def _slow_unit(path):
    """Campaign worker: the ``slow`` scenario holds its shard a while."""
    if "slow" in path:
        time.sleep(1.5)
    return _run_unit(path)


def _noop(name, seed=0):
    return {
        "name": name,
        "machine": {"os": "none", "seed": seed},
        "attack": {"kind": "noop", "spin": 64},
        "expect": {"correct": True},
    }


class _Feed:
    """A feed whose owner pushes work from another thread and rings."""

    def __init__(self, wake):
        self.wake = wake
        self.calls = 0
        self.pending = []
        self.closed = False
        self.lock = threading.Lock()
        self.called = threading.Event()

    def __call__(self, room):
        with self.lock:
            self.calls += 1
            self.called.set()
            if self.pending:
                batch, self.pending = self.pending[:room], \
                    self.pending[room:]
                return batch
            return None if self.closed else []

    def push(self, unit):
        with self.lock:
            self.pending.append(unit)
        self.wake.ring()

    def close(self):
        with self.lock:
            self.closed = True
        self.wake.ring()


def _run_in_thread(pool, feed, wake, **callbacks):
    box = {}

    def target():
        box["outcomes"] = pool.run([], _square, feed=feed, wake=wake,
                                   **callbacks)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


class TestWakeSignal:
    def test_ring_completes_the_armed_sentinel_and_rearms(self):
        wake = WakeSignal()
        armed = wake.armed()
        assert armed is wake.armed()
        assert not armed.done()
        wake.ring()
        assert armed.done()
        assert not wake.armed().done()


class TestPoolDispatch:
    def test_idle_pool_does_not_poll_its_feed(self):
        wake = WakeSignal()
        feed = _Feed(wake)
        thread, __ = _run_in_thread(SupervisedPool(jobs=1), feed, wake)
        try:
            assert feed.called.wait(GUARD_S)
            time.sleep(0.5)
            with feed.lock:
                calls = feed.calls
            # one call at start; a 0.1 s poll made about five
            assert calls <= 2
        finally:
            feed.close()
            thread.join(GUARD_S)
        assert not thread.is_alive()

    def test_ring_from_another_thread_launches_the_next_unit(self):
        wake = WakeSignal()
        feed = _Feed(wake)
        finished = threading.Event()
        thread, box = _run_in_thread(
            SupervisedPool(jobs=1), feed, wake,
            on_finish=lambda uid, outcome: finished.set(),
        )
        try:
            assert feed.called.wait(GUARD_S)
            feed.push(("u", 7))
            assert finished.wait(GUARD_S), "the ring launched nothing"
        finally:
            feed.close()
            thread.join(GUARD_S)
        assert not thread.is_alive()
        assert box["outcomes"]["u"].status == OK
        assert box["outcomes"]["u"].value == 49

    def test_ring_during_feed_is_not_lost(self):
        # the sentinel is armed before feed runs, so work that lands
        # (and rings) while feed is still returning [] is picked up
        wake = WakeSignal()
        finished = threading.Event()
        state = {"calls": 0}

        def feed(room):
            state["calls"] += 1
            if state["calls"] == 1:
                wake.ring()  # arrives "during" this call
                return []
            if state["calls"] == 2:
                return [("late", 3)]
            return None if finished.is_set() else []

        outcomes = {}
        thread = threading.Thread(target=lambda: outcomes.update(
            SupervisedPool(jobs=1).run(
                [], _square, feed=feed, wake=wake,
                on_finish=lambda uid, outcome: (finished.set(),
                                                wake.ring()),
            )), daemon=True)
        thread.start()
        thread.join(GUARD_S)
        assert not thread.is_alive(), "a ring during feed was lost"
        assert outcomes["late"].value == 9

    def test_skipped_batch_feeds_again_without_a_ring(self):
        # past the deadline every fed unit is skipped at launch; the
        # pool must ask its feed again rather than block unrung
        batches = [[("a", 1), ("b", 2)], [("c", 3)]]
        skipped = []
        outcomes = {}
        thread = threading.Thread(target=lambda: outcomes.update(
            SupervisedPool(jobs=1).run(
                [], _square, deadline=time.monotonic() - 1.0,
                feed=lambda room: batches.pop(0) if batches else None,
                on_skip=lambda uid, reason: skipped.append(uid),
            )), daemon=True)
        thread.start()
        thread.join(GUARD_S)
        assert not thread.is_alive(), "the pool blocked after a skip"
        assert skipped == ["a", "b", "c"]


class TestCampaignDispatch:
    def test_uneven_shards_end_without_idle_polling(self, tmp_path,
                                                    monkeypatch):
        directory = tmp_path / "plan"
        directory.mkdir()
        names = ["slow", "fast0", "fast1", "fast2"]
        for index, name in enumerate(names):
            (directory / "{}.json".format(name)).write_text(
                json.dumps(_noop(name, index))
            )
        monkeypatch.setattr(shard_module, "_run_unit", _slow_unit)
        runner = ShardedCampaignRunner(tmp_path / "c.jsonl",
                                       directory=directory, shards=2,
                                       jobs=2, watchdog_s=60.0)
        feed = runner.feed
        empty = []

        def counting_feed(index, room):
            batch = feed(index, room)
            if batch == []:
                empty.append(index)
            return batch

        monkeypatch.setattr(runner, "feed", counting_feed)
        report = runner.run()
        assert report.ok and report.summary["passed"] == len(names)
        # an empty feed waits for a ring: one per resolved unit or
        # exiting shard (plus a heartbeat pass per shard while units run
        # long); a 0.1 s poll made ~15 calls while the slow unit ran
        assert len(empty) <= len(names) + 2 * 2 + 4, empty


class TestServeDispatch:
    @staticmethod
    def _backend(tmp_path, scheduler=None):
        return ServeBackend(tmp_path / "state", shards=1, jobs=1,
                            watchdog_s=60.0, scheduler=scheduler)

    @staticmethod
    def _submit(backend, rid, tenant="a"):
        sub = Submission("{}.{}".format(tenant, rid), tenant, rid,
                         "scenario", 1)
        backend.submit_scenario(sub, _noop(rid))
        return sub

    def test_idle_backend_sleeps(self, tmp_path, monkeypatch):
        backend = self._backend(tmp_path)
        feed = backend._feed
        calls = []
        fed = threading.Event()

        def counting_feed(room):
            calls.append(room)
            batch = feed(room)
            fed.set()
            return batch

        monkeypatch.setattr(backend, "_feed", counting_feed)
        backend.start()
        try:
            assert fed.wait(GUARD_S)
            time.sleep(0.1)
            cpu = time.process_time()
            before = len(calls)
            time.sleep(1.0)
            cpu = time.process_time() - cpu
            assert len(calls) == before == 1
            assert cpu < 0.02
            # and a submission still launches at once on its ring
            sub = self._submit(backend, "r1")
            assert sub.done.wait(GUARD_S)
            assert sub.verdict["status"] == DONE
        finally:
            backend.drain(timeout=GUARD_S)

    def test_unit_start_fires_once_per_launch_from_the_pool(self,
                                                            tmp_path):
        backend = self._backend(tmp_path)
        backend.start()
        events = []
        try:
            sub = Submission("a.r1", "a", "r1", "scenario", 1,
                             on_event=lambda kind, fields:
                             events.append((kind, fields)))
            backend.submit_scenario(sub, _noop("r1"))
            assert sub.done.wait(GUARD_S)
        finally:
            backend.drain(timeout=GUARD_S)
        starts = [fields for kind, fields in events if kind == "unit-start"]
        assert starts == [{"unit": "a.r1", "attempt": 0}]
        assert [kind for kind, __ in events] == ["unit-start",
                                                 "unit-finish"]

    def test_tiny_weight_tenant_is_not_stalled(self, tmp_path):
        scheduler = FairShareScheduler(weight_of=lambda tenant: 1e-6)
        backend = self._backend(tmp_path, scheduler=scheduler)
        backend.start()
        try:
            subs = [self._submit(backend, "r{}".format(n), tenant="tiny")
                    for n in range(3)]
            for sub in subs:
                assert sub.done.wait(GUARD_S), "tiny tenant stalled"
                assert sub.verdict["status"] == DONE
        finally:
            backend.drain(timeout=GUARD_S)

    def test_scheduler_holding_work_back_is_fed_again(self, tmp_path):
        class Reluctant(FairShareScheduler):
            """Returns nothing on its first takes despite queued work."""

            held = 0

            def take(self, room):
                if self.depth() and self.held < 3:
                    self.held += 1
                    return []
                return super().take(room)

        scheduler = Reluctant()
        backend = self._backend(tmp_path, scheduler=scheduler)
        backend.start()
        try:
            sub = self._submit(backend, "r1")
            # no second submission rings: only the backend's own
            # re-ring on depth() > 0 can get this unit out
            assert sub.done.wait(GUARD_S), "queued work stalled"
            assert sub.verdict["status"] == DONE
            assert scheduler.held == 3
        finally:
            backend.drain(timeout=GUARD_S)
