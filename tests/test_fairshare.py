"""Fair-share scheduling, overload degradation, and the soak pieces.

Pure-logic tests drive the scheduler and the governor with injectable
clocks and probes; the integration tests put a real server on a real
socket and prove the two headline properties end to end: a trickle
tenant's queue wait stays bounded while a flood tenant pipelines a
wall of work, and the overload ladder sheds with *typed* refusals
(``retry_after_s`` included) through every transition of
healthy -> degraded -> shedding -> healthy.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import Overloaded
from repro.serve.backend import ServeBackend
from repro.serve.client import ServeClient
from repro.serve.overload import (
    DEGRADED,
    HEALTHY,
    SHEDDING,
    OverloadGovernor,
    Watermark,
)
from repro.serve.quota import QuotaLedger, TenantQuota
from repro.serve.scheduler import FAIR, FIFO, FairShareScheduler
from repro.serve.server import ServeServer
from repro.serve.soak import (
    FLOOD,
    TRICKLE,
    SoakError,
    SoakHarness,
    _TenantLoad,
    store_digest,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _drain_all(scheduler, room=1):
    """Dispatch everything, one take() at a time; returns tenant order."""
    order = []
    while scheduler.depth():
        taken = scheduler.take(room)
        if not taken:
            break
        order.extend(tenant for tenant, __, __ in taken)
    return order


# -- scheduler ----------------------------------------------------------------


class TestFairShareScheduler:
    def test_weighted_share_tracks_weights(self):
        weights = {"gold": 3.0, "bronze": 1.0}
        sched = FairShareScheduler(weight_of=weights.get)
        for index in range(40):
            sched.push("gold", "g{}".format(index), None)
            sched.push("bronze", "b{}".format(index), None)
        first = [tenant for tenant, __, __ in sched.take(32)]
        assert first.count("gold") == 24
        assert first.count("bronze") == 8

    def test_no_recredit_mid_burst(self):
        # the saturated front tenant must not be re-credited on every
        # take(): with equal weights the split stays exactly even no
        # matter how dispatches are batched
        sched = FairShareScheduler(quantum=4.0)
        for index in range(16):
            sched.push("a", "a{}".format(index), None)
            sched.push("b", "b{}".format(index), None)
        order = _drain_all(sched, room=1)
        assert order.count("a") == order.count("b") == 16
        # and in the first half, neither tenant got more than its
        # quantum ahead of the other
        half = order[:16]
        assert abs(half.count("a") - half.count("b")) <= 4

    def test_edf_within_tenant_only(self):
        clock = FakeClock()
        sched = FairShareScheduler(clock=clock)
        sched.push("t", "none", None)
        sched.push("t", "late", None, deadline=clock.now + 60.0)
        sched.push("t", "soon", None, deadline=clock.now + 5.0)
        keys = [key for __, key, __ in sched.take(3)]
        assert keys == ["soon", "late", "none"]

    def test_aging_dispatches_starved_tenant(self):
        clock = FakeClock()
        weights = {"heavy": 100.0, "starved": 0.001}
        sched = FairShareScheduler(weight_of=weights.get,
                                   aging_s=30.0, clock=clock)
        sched.push("starved", "old", None)
        for index in range(64):
            sched.push("heavy", "h{}".format(index), None)
        first = [key for __, key, __ in sched.take(8)]
        assert "old" not in first
        clock.advance(31.0)
        aged = [key for __, key, __ in sched.take(1)]
        assert aged == ["old"]
        assert sched.snapshot()["aged_dispatches"] == 1

    def test_fifo_mode_is_arrival_order(self):
        sched = FairShareScheduler(mode=FIFO)
        sched.push("a", "a0", None)
        sched.push("b", "b0", None)
        sched.push("a", "a1", None)
        assert [k for __, k, __ in sched.take(3)] == ["a0", "b0", "a1"]

    def test_zero_weight_still_progresses(self):
        sched = FairShareScheduler(weight_of=lambda t: 0.0)
        sched.push("t", "k", None)
        assert [k for __, k, __ in sched.take(1)] == ["k"]

    def test_discard_and_queued(self):
        sched = FairShareScheduler()
        sched.push("t", "k1", None)
        sched.push("t", "k2", None)
        assert sched.queued("k1")
        assert sched.discard("k1")
        assert not sched.queued("k1")
        assert not sched.discard("k1")
        assert sched.depth() == 1

    def test_snapshot_carries_fairness_evidence(self):
        clock = FakeClock()
        sched = FairShareScheduler(clock=clock)
        waits = []
        sched.on_wait = lambda tenant, wait_s: waits.append(
            (tenant, wait_s))
        sched.push("t", "k", None)
        clock.advance(0.5)
        sched.take(1)
        snap = sched.snapshot()
        assert snap["mode"] == FAIR
        assert snap["tenants"]["t"]["dispatched"] == 1
        assert snap["tenants"]["t"]["p99_wait_ms"] == pytest.approx(
            500.0, abs=1.0)
        assert waits == [("t", pytest.approx(0.5))]

    def test_mode_is_validated(self):
        with pytest.raises(ValueError):
            FairShareScheduler(mode="lifo")


# -- governor -----------------------------------------------------------------


def _governor(value_box, clock, hold_s=2.0, **kwargs):
    return OverloadGovernor(
        [Watermark("load", lambda: value_box["value"],
                   degraded_at=0.75, shedding_at=0.95)],
        hold_s=hold_s, clock=clock, **kwargs)


class TestOverloadGovernor:
    def test_escalates_immediately_relaxes_after_hold(self):
        clock = FakeClock()
        box = {"value": 0.0}
        gov = _governor(box, clock)
        assert gov.evaluate() == HEALTHY
        box["value"] = 0.80
        assert gov.evaluate() == DEGRADED
        box["value"] = 0.99
        assert gov.evaluate() == SHEDDING
        # relief is held back for hold_s
        box["value"] = 0.0
        assert gov.evaluate() == SHEDDING
        clock.advance(1.0)
        assert gov.evaluate() == SHEDDING
        clock.advance(1.1)
        assert gov.evaluate() == HEALTHY
        assert gov.snapshot()["transitions"] == 3

    def test_flap_resets_the_hold_window(self):
        clock = FakeClock()
        box = {"value": 0.99}
        gov = _governor(box, clock)
        assert gov.evaluate() == SHEDDING
        box["value"] = 0.0
        gov.evaluate()
        clock.advance(1.5)
        box["value"] = 0.99  # pressure returns inside the window
        assert gov.evaluate() == SHEDDING
        box["value"] = 0.0
        gov.evaluate()
        clock.advance(1.5)
        assert gov.evaluate() == SHEDDING  # window restarted

    def test_below_direction_for_headroom_signals(self):
        box = {"value": 1000.0}
        gov = OverloadGovernor(
            [Watermark("disk", lambda: box["value"],
                       degraded_at=256.0, shedding_at=64.0,
                       direction="below")],
            clock=FakeClock())
        assert gov.evaluate() == HEALTHY
        box["value"] = 100.0
        assert gov.evaluate() == DEGRADED
        box["value"] = 10.0
        assert gov.evaluate() == SHEDDING

    def test_broken_probe_reads_healthy(self):
        def boom():
            raise OSError("disk probe offline")

        gov = OverloadGovernor(
            [Watermark("disk", boom, degraded_at=256.0, shedding_at=64.0,
                       direction="below")],
            clock=FakeClock())
        assert gov.evaluate() == HEALTHY
        assert gov.snapshot()["watermarks"]["disk"]["value"] is None

    def test_snapshot_and_shed_counters(self):
        clock = FakeClock()
        box = {"value": 0.8}
        gov = _governor(box, clock)
        gov.evaluate()
        gov.note_shed(DEGRADED)
        snap = gov.snapshot()
        assert snap["state"] == DEGRADED
        assert snap["sheds"][DEGRADED] == 1
        assert snap["watermarks"]["load"]["value"] == 0.8
        assert gov.retry_after_s(SHEDDING) == 5.0

    def test_watermark_direction_is_validated(self):
        with pytest.raises(ValueError):
            Watermark("w", lambda: 0, 1, 2, direction="sideways")


# -- live service -------------------------------------------------------------


def _noop(name, seed=0, spin=64):
    return {
        "name": name,
        "machine": {"os": "none", "seed": seed},
        "attack": {"kind": "noop", "spin": spin},
        "expect": {"correct": True},
    }


def _start_server(tmp_path, ledger, max_queue=256, governor=None,
                  jobs=2, **kwargs):
    backend = ServeBackend(tmp_path / "state", shards=2, jobs=jobs,
                           watchdog_s=60.0)
    server = ServeServer(backend, ledger,
                         socket_path=str(tmp_path / "serve.sock"),
                         max_queue=max_queue, governor=governor,
                         **kwargs)
    server.start()
    return server


def _wide_quota(name, weight):
    return TenantQuota(name=name, max_requests=128, max_units=256,
                       weight=weight)


class TestFloodVersusTrickle:
    def test_trickle_wait_stays_bounded_behind_a_flood(self, tmp_path):
        ledger = QuotaLedger(TenantQuota(), {
            "flood": _wide_quota("flood", 1.0),
            "trickle": _wide_quota("trickle", 1.0),
        })
        # a permissive governor: this test is about scheduling, and
        # the default inflight watermark would (correctly) shed a
        # 48-deep pipeline
        server = _start_server(tmp_path, ledger, jobs=2,
                               governor=OverloadGovernor([]))
        flood_n = 48
        try:
            flood = ServeClient(server.address).connect("flood")
            # pipeline a wall of units on one connection; a reader
            # thread drains the replies so the flood keeps pressure on
            # the scheduler, not on the server's write timeout
            for index in range(flood_n):
                flood.send({"type": "submit", "id": "f{}".format(index),
                            "scenario": _noop("f{}".format(index), index)})
            seen = set()

            def _drain_flood():
                while len(seen) < flood_n:
                    reply = flood.recv()
                    if reply.get("type") == "verdict":
                        seen.add(reply["id"])

            reader = threading.Thread(target=_drain_flood, daemon=True)
            reader.start()
            trickle_done = 0
            with ServeClient(server.address).connect("trickle") as tr:
                for index in range(5):
                    verdict = tr.submit("t{}".format(index),
                                        scenario=_noop("t", index))
                    assert verdict["status"] == "done"
                    trickle_done += 1
            status = ServeClient(server.address).connect().status()
            tenants = status["scheduler"]["tenants"]
            assert trickle_done == 5
            # the headline bound: the trickle tenant never sat behind
            # the whole flood wall (FIFO would put its p99 at the
            # flood drain time)
            assert tenants["trickle"]["p99_wait_ms"] < 2000.0
            reader.join(timeout=60)
            assert len(seen) == flood_n
            flood.close()
            assert tenants["flood"]["dispatched"] >= 1
        finally:
            server.drain()

    def test_fifo_scheduler_is_the_control_arm(self, tmp_path):
        backend = ServeBackend(tmp_path / "state", shards=2, jobs=2,
                               watchdog_s=60.0,
                               scheduler=FairShareScheduler(mode=FIFO))
        server = ServeServer(
            backend, QuotaLedger(TenantQuota()),
            socket_path=str(tmp_path / "serve.sock"), max_queue=64)
        server.start()
        try:
            with ServeClient(server.address).connect("a") as client:
                verdict = client.submit("r1", scenario=_noop("r1"))
                assert verdict["status"] == "done"
            status = ServeClient(server.address).connect().status()
            assert status["scheduler"]["mode"] == FIFO
        finally:
            server.drain()


class TestOverloadLadderLive:
    def _server(self, tmp_path, box, hold_s=0.0):
        governor = OverloadGovernor(
            [Watermark("load", lambda: box["value"],
                       degraded_at=0.75, shedding_at=0.95)],
            hold_s=hold_s,
            retry_after_s={DEGRADED: 0.05, SHEDDING: 0.05})
        ledger = QuotaLedger(TenantQuota(max_requests=64, max_units=128))
        return _start_server(tmp_path, ledger, governor=governor)

    def test_ladder_sheds_typed_through_every_state(self, tmp_path):
        box = {"value": 0.0}
        server = self._server(tmp_path, box)
        try:
            with ServeClient(server.address, retries=0).connect("a") as c:
                # healthy: everything admitted
                assert c.submit("h1", scenario=_noop("h1"),
                                priority=0)["status"] == "done"

                # degraded: low priority shed, normal priority marked
                box["value"] = 0.80
                shed = c.submit("d-low", scenario=_noop("d"), priority=0)
                assert shed["type"] == "rejected"
                assert shed["reason"] == "degraded"
                assert shed["retry_after_s"] == pytest.approx(0.05)
                kept = c.submit("d-high", scenario=_noop("d"), priority=1)
                assert kept["status"] == "done"
                assert "overload" in (kept.get("degrade") or [])

                # shedding: everything refused, typed
                box["value"] = 0.99
                shed = c.submit("s1", scenario=_noop("s"), priority=5)
                assert shed["type"] == "rejected"
                assert shed["reason"] == "shedding"
                assert shed["retry_after_s"] == pytest.approx(0.05)

                # relief: back to healthy after the (zero) hold window
                # (in production serve_forever ticks evaluate(); the
                # test drives the tick itself)
                box["value"] = 0.0
                deadline = time.time() + 10.0
                while server.governor.evaluate() != HEALTHY:
                    assert time.time() < deadline
                    time.sleep(0.05)
                done = c.submit("h2", scenario=_noop("h2"), priority=0)
                assert done["status"] == "done"
                assert "overload" not in (done.get("degrade") or [])
            snap = server.governor.snapshot()
            assert snap["sheds"][DEGRADED] >= 1
            assert snap["sheds"][SHEDDING] >= 1
            health = ServeClient(server.address).connect().health()
            assert health["status"] == "ok"
        finally:
            server.drain()

    def test_health_and_status_surface_the_ladder(self, tmp_path):
        box = {"value": 0.99}
        server = self._server(tmp_path, box, hold_s=60.0)
        try:
            client = ServeClient(server.address).connect()
            server.governor.evaluate()
            health = client.health()
            assert health["status"] == "shedding"
            status = client.status()
            assert status["overload"]["state"] == "shedding"
            assert status["overload"]["watermarks"]["load"]["value"] \
                == pytest.approx(0.99)
            # one governor snapshot per document: top-level, not under
            # the breaker board
            assert health["overload"]["state"] == "shedding"
            assert "overload" not in status["breakers"]
            assert "overload" not in health["breakers"]
            assert "queue" in status and "scheduler" in status
            client.close()
        finally:
            box["value"] = 0.0
            server.drain()

    def test_client_backs_off_and_recovers(self, tmp_path):
        box = {"value": 0.99}
        server = self._server(tmp_path, box)
        try:
            server.governor.evaluate()
            relief = threading.Timer(0.3, box.update, ({"value": 0.0},))
            relief.start()
            with ServeClient(server.address, retries=8,
                             seed=7).connect("a") as client:
                verdict = client.submit("r1", scenario=_noop("r1"))
            relief.cancel()
            assert verdict["status"] == "done"
            # the verdict only arrived because refused attempts backed
            # off and retried: the governor counted the sheds
            assert server.governor.snapshot()["sheds"][SHEDDING] >= 1
        finally:
            box["value"] = 0.0
            server.drain()

    def test_admit_direct_refusals_are_typed(self, tmp_path):
        box = {"value": 0.80}
        server = self._server(tmp_path, box)
        try:
            with pytest.raises(Overloaded) as excinfo:
                server.admit("a", 1, priority=0)
            assert excinfo.value.reason == "degraded"
            assert excinfo.value.retry_after_s == pytest.approx(0.05)
            box["value"] = 0.99
            with pytest.raises(Overloaded) as excinfo:
                server.admit("a", 1, priority=10)
            assert excinfo.value.reason == "shedding"
        finally:
            box["value"] = 0.0
            server.drain()


# -- housekeeping guard -------------------------------------------------------


class TestLivePlanPruneGuard:
    def test_housekeep_spares_live_plan_artifacts(self, tmp_path):
        backend = ServeBackend(tmp_path / "state", prune_age_s=0.0,
                               prune_keep=0)
        for directory in (backend.state_dir, backend.plan_dir,
                          backend.result_dir):
            directory.mkdir(parents=True, exist_ok=True)
        live = backend.plan_dir / "a.plan-1.jsonl.123.tmp"
        live_beats = backend.plan_dir / "a.plan-1.beats-0"
        dead = backend.plan_dir / "b.plan-9.jsonl.456.tmp"
        live.write_text("x")
        live_beats.mkdir()
        dead.write_text("x")
        backend._plan_runners["a.plan-1"] = object()
        removed = backend.housekeep()
        assert live.exists() and live_beats.exists()
        assert not dead.exists()
        assert str(dead) in [str(p) for p in removed]

    def test_prune_thresholds_ride_the_constructor(self, tmp_path):
        backend = ServeBackend(tmp_path / "state", prune_age_s=3600.0,
                               prune_keep=1)
        backend.plan_dir.mkdir(parents=True, exist_ok=True)
        fresh = backend.plan_dir / "fresh.tmp"
        fresh.write_text("x")
        backend.housekeep()
        # young debris survives a 1-hour threshold
        assert fresh.exists()


# -- soak verifiers (fabricated reports, no server) ---------------------------


def _stream(tenant, mode=FLOOD, submitted=0, done=0, rejected=None,
            errors=()):
    """Stand-in for one finished _TenantLoad thread."""
    return SimpleNamespace(tenant=tenant, mode=mode, submitted=submitted,
                           done=done, rejected=dict(rejected or {}),
                           errors=list(errors))


def _entry(done=0, rejected=None):
    return {"mode": FLOOD, "submitted": done, "done": done,
            "rejected": dict(rejected or {}), "errors": []}


def _report(flood_a=200, flood_b=100, capped_rejected=None):
    """Two folded load phases; each phase carries half the verdicts."""
    phase = {
        "flood-a": _entry(flood_a // 2),
        "flood-b": _entry(flood_b // 2),
        "capped": _entry(0, capped_rejected),
    }
    return {"phase_a": phase, "phase_b": phase}


class TestSoakVerifiers:
    def test_fold_load_sums_streams_per_tenant(self):
        folded = SoakHarness._fold_load([
            _stream("flood-a", submitted=10, done=8,
                    rejected={"shedding": 1}),
            _stream("flood-a", submitted=5, done=5,
                    rejected={"shedding": 2, "draining": 1},
                    errors=["boom"]),
            _stream("trickle", mode=TRICKLE, submitted=3, done=3),
        ])
        assert folded == {
            "flood-a": {"mode": FLOOD, "submitted": 15, "done": 13,
                        "rejected": {"shedding": 3, "draining": 1},
                        "errors": ["boom"]},
            "trickle": {"mode": TRICKLE, "submitted": 3, "done": 3,
                        "rejected": {}, "errors": []},
        }

    def test_fairness_ratio_excludes_the_capped_tenant(self, tmp_path):
        harness = SoakHarness(tmp_path)
        report = _report(flood_a=200, flood_b=100)
        # the capped tenant completed nothing, yet is not "starved"
        harness._verify_fairness(report, {})
        assert report["fairness"]["weights"] == {"flood-a": 2.0,
                                                 "flood-b": 1.0}
        assert report["fairness"]["ratio"] == 1.0

    def test_starved_flood_tenant_raises(self, tmp_path):
        with pytest.raises(SoakError, match="starved outright"):
            SoakHarness(tmp_path)._verify_fairness(
                _report(flood_a=200, flood_b=0), {})

    def test_fairness_ratio_over_the_bound_raises(self, tmp_path):
        report = _report(flood_a=2000, flood_b=100)
        with pytest.raises(SoakError, match="ratio 10.00 exceeds 3.00"):
            SoakHarness(tmp_path)._verify_fairness(report, {})
        assert report["fairness"]["ratio"] == 10.0

    def test_typed_quota_refusals_pass(self, tmp_path):
        report = _report(capped_rejected={"quota": 3, "draining": 1})
        SoakHarness(tmp_path)._verify_quota(report)
        assert report["quota"] == {"capped": {
            "max_requests": 2, "window": 6, "typed": 6, "untyped": 0}}

    def test_zero_typed_quota_refusals_raise(self, tmp_path):
        report = _report(capped_rejected={"draining": 2})
        with pytest.raises(SoakError, match="never refused by its quota"):
            SoakHarness(tmp_path)._verify_quota(report)
        assert report["quota"]["capped"]["typed"] == 0

    def test_one_untyped_refusal_raises(self, tmp_path):
        report = _report()
        report["phase_a"] = dict(report["phase_a"])
        report["phase_a"]["capped"] = _entry(0, {"quota": 4})
        report["phase_b"] = dict(report["phase_b"])
        report["phase_b"]["capped"] = _entry(0, {"quota": 4, "unknown": 1})
        with pytest.raises(SoakError, match="1 untyped refusal"):
            SoakHarness(tmp_path)._verify_quota(report)

    def test_rejections_count_as_quota_only_when_typed(self, tmp_path):
        load = _TenantLoad(SoakHarness(tmp_path), "capped", FLOOD, 0)
        typed = {"type": "rejected", "error": "QuotaExceeded",
                 "quota": "requests-in-flight"}
        assert load._count_rejection(typed) == "quota"
        assert load._count_rejection(
            {"type": "rejected", "error": "QuotaExceeded"}) == "unknown"
        assert load._count_rejection(
            {"type": "rejected", "error": "Overloaded",
             "reason": "shedding"}) == "shedding"
        assert load.rejected == {"quota": 1, "unknown": 1, "shedding": 1}
        assert len(load.errors) == 1  # the untyped one, outside a drain

    def test_store_digest_ignores_only_the_wall_clock_stamps(self):
        store = {"generated_at": "2020-01-01T00:00:00Z",
                 "wall_elapsed_s": 1.5,
                 "campaign": {"seed": 9, "shards": 4},
                 "summary": {"done": 2, "failed": 0},
                 "units": {"u0": {"passed": True}}}
        digest = store_digest(store)
        restamped = dict(store, generated_at="2030-06-06T12:00:00Z",
                         wall_elapsed_s=99.0)
        assert store_digest(restamped) == digest
        unstamped = {k: v for k, v in store.items()
                     if k not in ("generated_at", "wall_elapsed_s")}
        assert store_digest(unstamped) == digest
        for key in ("campaign", "summary", "units"):
            assert store_digest(dict(store, **{key: {}})) != digest
        assert store_digest(dict(store, extra=None)) != digest
        assert "generated_at" in store  # the caller's store is untouched
