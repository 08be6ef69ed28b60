"""Sustained-load soak harness for ``repro serve`` (``repro soak``).

The unit tests prove single behaviors against in-process servers.
The soak is the one service-level smoke harness: it proves, against a
real server subprocess, the *service* properties that only show up
under sustained multi-tenant load:

* **fairness** -- flood tenants with different configured weights
  receive executor throughput proportional to those weights, and a
  trickle tenant (low, steady demand) is never starved behind the
  floods;
* **overload discipline** -- every refusal during the soak is a typed
  ``rejected`` with a reason (and ``retry_after_s`` where promised);
  no client ever sees a timeout or a crash;
* **quota enforcement** -- a capped tenant pipelines more submissions
  than its ``max_requests`` allows and must be refused with a typed
  ``QuotaExceeded`` naming the exhausted quota, never an untyped one;
* **drain correctness** -- a SIGTERM lands mid-soak, with floods in
  full swing and a campaign plan streaming: the server must exit 0
  with zero orphan processes, and a restarted server must *resume*
  the plan to a store byte-identical (modulo wall-clock stamps) to an
  uninterrupted offline run;
* **slow-reader isolation** -- clients that submit and never read
  lose their streams, never their computations: every abandoned
  submission has a persisted result;
* **scale** -- a sharded campaign of ``campaign_units`` noop units
  (100k in the full configuration) completes through the same fabric
  at microsecond unit cost, proving the journals and the coordinator,
  not the attack math, set the ceiling.

Everything here drives real processes over real sockets: the server
runs as a ``python -m repro serve`` subprocess in its own process
group (that is what makes the zero-orphan assertion honest), clients
are plain :class:`~repro.serve.ServeClient` instances with churn
(connections are torn down and reopened throughout), and the fault
profile rides a plan submission through the public protocol.

:func:`run_soak` is the importable driver -- ``repro soak`` is a thin
wrapper over it -- and returns a JSON-able report with every
measurement the assertions were made from.
"""

import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time

from repro.campaign.coordinator import ShardedCampaignRunner
from repro.errors import ReproError, ServeError
from repro.serve.client import ServeClient

#: load modes a soak tenant can run
FLOOD = "flood"
TRICKLE = "trickle"
SLOW_READER = "slow-reader"

#: seconds a soak client waits on one socket read or write
IO_TIMEOUT_S = 120.0

#: pass bounds: weight-normalized flood throughput max/min, and each
#: trickle tenant's p99 scheduler wait
FAIRNESS_RATIO_MAX = 3.0
TRICKLE_P99_MS = 5000.0

#: default tenant mix: two floods at 2:1 weights, one trickle, one
#: slow reader, and one flood capped below its pipelined window (its
#: ``max_requests`` sets its quota, and keeps it out of the fairness
#: ratio).  ``streams`` is concurrent connections per tenant.
DEFAULT_TENANTS = (
    {"name": "flood-a", "mode": FLOOD, "weight": 2.0, "streams": 2,
     "window": 6},
    {"name": "flood-b", "mode": FLOOD, "weight": 1.0, "streams": 2,
     "window": 6},
    {"name": "trickle", "mode": TRICKLE, "weight": 1.0, "streams": 1,
     "pause_s": 0.5},
    {"name": "sloth", "mode": SLOW_READER, "weight": 1.0, "streams": 1,
     "pause_s": 1.0},
    {"name": "capped", "mode": FLOOD, "weight": 1.0, "streams": 1,
     "window": 6, "max_requests": 2},
)


class SoakError(ReproError):
    """A soak assertion failed (the report travels in ``report``)."""

    def __init__(self, message, report=None):
        super(SoakError, self).__init__(message)
        self.report = report


def noop_scenario(name, seed, spin=2000):
    """A microsecond-scale unit: the soak measures the fabric, not AVX."""
    return {
        "name": name,
        "machine": {"os": "none", "seed": seed},
        "attack": {"kind": "noop", "spin": spin},
        "expect": {"correct": True},
    }


def write_noop_plan(directory, units, seed_base=0, spin=2000):
    """Materialize ``units`` noop scenario files under ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(5, len(str(max(1, units - 1))))
    for index in range(units):
        name = "unit-{:0{w}d}".format(index, w=width)
        (directory / (name + ".json")).write_text(
            json.dumps(noop_scenario(name, seed_base + index, spin=spin))
        )
    return directory


def store_digest(store):
    """sha256 of a campaign store, modulo the wall-clock stamps."""
    store = dict(store)
    store.pop("generated_at", None)
    store.pop("wall_elapsed_s", None)
    blob = json.dumps(store, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class _TenantLoad(threading.Thread):
    """One stream of one tenant's load: submit, churn, record.

    Three personalities: **flood** keeps ``window`` submissions
    pipelined on one connection (without that pressure the scheduler
    queue never builds and fairness is unobservable -- a serial client
    is RTT-bound, not executor-bound), churning the connection every
    ``churn_every`` verdicts; **trickle** submits serially through
    :meth:`ServeClient.submit` (which also exercises the retry/backoff
    path on shed refusals) with a pause between units; **slow-reader**
    submits and abandons the stream without reading.
    """

    def __init__(self, soak, tenant, mode, stream, priority=1,
                 pause_s=0.0, window=6, churn_every=25):
        super(_TenantLoad, self).__init__(
            name="soak-{}-{}".format(tenant, stream), daemon=True)
        self.soak = soak
        self.tenant = tenant
        self.mode = mode
        self.stream = stream
        self.priority = priority
        self.pause_s = pause_s
        self.window = max(1, window)
        self.churn_every = max(1, churn_every)
        self.submitted = 0
        self.done = 0
        self.rejected = {}
        self.errors = []
        self._index = 0

    def _client(self):
        return ServeClient(
            self.soak.socket, timeout_s=IO_TIMEOUT_S,
            retries=2, seed=self.soak.seed,
        ).connect(self.tenant)

    def _connect_or_wait(self):
        """One connection attempt; None while nobody is listening."""
        try:
            return self._client()
        except (ServeError, OSError):
            # between drain and restart there is nobody to talk
            # to; that is the soak's design, not a bug
            self.soak.stop_load.wait(0.2)
            return None

    def _drop(self, client):
        try:
            client.sock.close()
        except (OSError, AttributeError):
            pass

    def _stream_died(self, rid):
        soak = self.soak
        if not soak.draining.is_set() and not soak.stop_load.is_set():
            self.errors.append(
                "stream died outside a drain window "
                "(around request {})".format(rid))

    def _next_rid(self):
        rid = "{}-s{}-{}".format(self.soak.phase, self.stream,
                                 self._index)
        self._index += 1
        return rid

    def _count_rejection(self, reply):
        if reply.get("error") == "QuotaExceeded" and reply.get("quota"):
            reason = "quota"
        else:
            reason = reply.get("reason") or "unknown"
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        if reason == "unknown" and not self.soak.draining.is_set():
            self.errors.append("untyped rejection: {!r}".format(reply))
        return reason

    def run(self):
        if self.mode == FLOOD:
            self._run_flood()
        else:
            self._run_serial()

    def _run_flood(self):
        soak = self.soak
        client = None
        outstanding = set()
        since_churn = 0
        while not soak.stop_load.is_set():
            if client is None:
                outstanding.clear()
                client = self._connect_or_wait()
                continue
            try:
                # keep the pipeline full -- unless a churn is due, in
                # which case let it drain so no verdicts are abandoned
                while len(outstanding) < self.window \
                        and since_churn < self.churn_every \
                        and not soak.stop_load.is_set():
                    rid = self._next_rid()
                    client.send({
                        "type": "submit", "id": rid,
                        "scenario": noop_scenario(
                            rid, self._index, spin=soak.spin),
                        "priority": self.priority,
                    })
                    outstanding.add(rid)
                    self.submitted += 1
                if not outstanding:
                    # pipeline drained for a churn: fresh connection
                    client.close()
                    client = None
                    since_churn = 0
                    continue
                reply = client.recv()
            except (ServeError, OSError):
                self._stream_died(sorted(outstanding)[:1])
                self._drop(client)
                client = None
                continue
            kind = reply.get("type")
            rid = reply.get("id")
            if rid not in outstanding:
                continue  # draining broadcasts, stream noise
            if kind == "verdict":
                outstanding.discard(rid)
                self.done += 1
                since_churn += 1
            elif kind == "rejected":
                outstanding.discard(rid)
                reason = self._count_rejection(reply)
                if reason != "draining":
                    # a refused window must not busy-spin the server
                    soak.stop_load.wait(0.05)
        if client is not None:
            client.close()

    def _run_serial(self):
        soak = self.soak
        client = None
        while not soak.stop_load.is_set():
            if client is None:
                client = self._connect_or_wait()
                continue
            rid = self._next_rid()
            try:
                if self.mode == SLOW_READER:
                    # submit, read nothing, walk away mid-stream
                    client.send({
                        "type": "submit", "id": rid,
                        "scenario": noop_scenario(
                            rid, self._index, spin=soak.spin),
                    })
                    self.submitted += 1
                    soak.stop_load.wait(self.pause_s)
                    self._drop(client)
                    client = None
                    continue
                self.submitted += 1
                reply = client.submit(
                    rid,
                    scenario=noop_scenario(rid, self._index,
                                           spin=soak.spin),
                    priority=self.priority,
                )
                kind = reply.get("type")
                if kind == "verdict":
                    self.done += 1
                elif kind == "rejected":
                    self._count_rejection(reply)
                else:
                    self.errors.append(
                        "unexpected terminal {!r}".format(reply))
            except (ServeError, OSError):
                self._stream_died(rid)
                self._drop(client)
                client = None
                continue
            soak.stop_load.wait(self.pause_s)
        if client is not None:
            client.close()


class SoakHarness:
    """One full soak: two load phases around a SIGTERM drain.

    ``root`` is scratch space (recreated); ``duration_s`` covers the
    *load* windows (roughly half before the mid-soak SIGTERM, half
    after the restart).  ``campaign_units`` sizes the sharded-campaign
    scale smoke (0 skips it).
    """

    def __init__(self, root, duration_s=30.0, shards=4, jobs=4, seed=9,
                 spin=2000, plan_units=48, campaign_units=2000,
                 fault_profile="default"):
        self.root = pathlib.Path(root)
        self.duration_s = duration_s
        self.shards = shards
        self.jobs = jobs
        self.seed = seed
        self.spin = spin
        self.plan_units = plan_units
        self.campaign_units = campaign_units
        self.fault_profile = fault_profile
        self.socket = str(self.root / "serve.sock")
        self.state = self.root / "state"
        self.stop_load = threading.Event()
        self.draining = threading.Event()
        self.phase = "a"
        self._log = []

    # -- plumbing --------------------------------------------------------------

    def log(self, message):
        self._log.append(message)
        print("soak: " + message, flush=True)

    def _tenants_json(self):
        # the plan tenant needs headroom for whole campaigns at once
        spec = {"plans": {"max_requests": 4,
                          "max_units": max(4096, 2 * self.plan_units),
                          "weight": 1.0}}
        for tenant in DEFAULT_TENANTS:
            spec[tenant["name"]] = {
                "max_requests": tenant.get(
                    "max_requests", 8 * int(tenant.get("streams", 1))),
                "max_units": 4096,
                "weight": tenant.get("weight", 1.0),
            }
        path = self.root / "tenants.json"
        path.write_text(json.dumps(spec, indent=2, sort_keys=True))
        return path

    def _start_server(self, ready_name):
        ready = self.root / ready_name
        src_dir = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket, "--state", str(self.state),
             "--shards", str(self.shards), "--jobs", str(self.jobs),
             "--seed", str(self.seed), "--max-queue", "1024",
             "--watchdog", "120",
             "--tenants", str(self._tenants_json()),
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = time.time() + 60
        while not ready.exists():
            if proc.poll() is not None:
                raise SoakError("server died on startup:\n"
                                + proc.stdout.read().decode())
            if time.time() > deadline:
                proc.kill()
                raise SoakError("server never became ready")
            time.sleep(0.05)
        return proc

    def _wait_clean_exit(self, proc, what):
        """Exit 0 + empty process group, or the soak fails."""
        try:
            code = proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise SoakError("{}: server never exited".format(what))
        output = proc.stdout.read().decode()
        if code != 0:
            raise SoakError("{}: server exited {} (want 0):\n{}".format(
                what, code, output))
        deadline = time.time() + 20
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                self.log("{}: clean exit 0, zero orphans".format(what))
                return
            time.sleep(0.2)
        os.killpg(proc.pid, signal.SIGKILL)
        raise SoakError(
            "{}: orphan processes survived the drain".format(what))

    def _spawn_load(self):
        threads = []
        for tenant in DEFAULT_TENANTS:
            for stream in range(int(tenant.get("streams", 1))):
                threads.append(_TenantLoad(
                    self, tenant["name"], tenant.get("mode", FLOOD),
                    stream, priority=int(tenant.get("priority", 1)),
                    pause_s=float(tenant.get("pause_s", 0.0)),
                    window=int(tenant.get("window", 6)),
                    churn_every=int(tenant.get("churn_every", 25)),
                ))
        for thread in threads:
            thread.start()
        return threads

    def _join_load(self, threads):
        self.stop_load.set()
        for thread in threads:
            thread.join(timeout=IO_TIMEOUT_S + 30)
        self.stop_load.clear()
        return self._fold_load(threads)

    @staticmethod
    def _fold_load(threads):
        folded = {}
        for thread in threads:
            entry = folded.setdefault(thread.tenant, {
                "mode": thread.mode, "submitted": 0, "done": 0,
                "rejected": {}, "errors": [],
            })
            entry["submitted"] += thread.submitted
            entry["done"] += thread.done
            for reason, count in thread.rejected.items():
                entry["rejected"][reason] = \
                    entry["rejected"].get(reason, 0) + count
            entry["errors"].extend(thread.errors)
        return folded

    def _status(self):
        client = ServeClient(self.socket, timeout_s=IO_TIMEOUT_S)
        client.connect()
        try:
            return client.status()
        finally:
            client.close()

    # -- phases ----------------------------------------------------------------

    def run(self):
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        plan_dir = write_noop_plan(
            self.root / "plan", self.plan_units, seed_base=1000,
            spin=self.spin)
        fault_dir = write_noop_plan(
            self.root / "fault-plan", self.plan_units, seed_base=5000,
            spin=self.spin)
        report = {
            "config": {
                "duration_s": self.duration_s, "shards": self.shards,
                "jobs": self.jobs, "seed": self.seed,
                "plan_units": self.plan_units,
                "campaign_units": self.campaign_units,
                "fault_profile": self.fault_profile,
                "tenants": DEFAULT_TENANTS,
            },
        }
        half = max(2.0, self.duration_s / 2.0)

        # ---- phase A: load, plan, SIGTERM mid-soak -----------------------
        self.phase = "a"
        proc = self._start_server("ready-a")
        threads = self._spawn_load()
        planner = ServeClient(self.socket,
                              timeout_s=IO_TIMEOUT_S).connect("plans")
        reply = planner.submit(
            "det-plan",
            plan={"directory": str(plan_dir), "shards": self.shards,
                  "seed": self.seed},
            wait=False,
        )
        if reply.get("type") != "accepted":
            raise SoakError("plan not accepted: {!r}".format(reply),
                            report)
        # let the floods contend for at least half the budget, and be
        # sure the plan is journaling units before the SIGTERM lands
        time.sleep(half)
        deadline = time.time() + 120
        while True:
            journals = sorted(
                (self.state / "plans").glob("plans.det-plan*.jsonl"))
            if any(b"unit-finish" in j.read_bytes() for j in journals):
                break
            if time.time() > deadline:
                raise SoakError("plan never started finishing units",
                                report)
            time.sleep(0.05)
        status_a = self._status()
        self.draining.set()
        os.kill(proc.pid, signal.SIGTERM)
        self._wait_clean_exit(proc, "phase-a")
        report["phase_a"] = self._join_load(threads)
        report["status_a"] = {
            "scheduler": status_a.get("scheduler"),
            "overload": status_a.get("overload"),
        }
        try:
            planner.sock.close()
        except OSError:
            pass
        self.draining.clear()

        # ---- phase B: restart, resume, keep loading, drain ---------------
        self.phase = "b"
        proc = self._start_server("ready-b")
        threads = self._spawn_load()
        resumer = ServeClient(self.socket, timeout_s=300.0)
        resumer.connect("plans")
        verdict = resumer.submit(
            "det-plan",
            plan={"directory": str(plan_dir), "shards": self.shards,
                  "seed": self.seed},
        )
        if verdict.get("status") != "done" or not verdict.get("ok"):
            raise SoakError(
                "resumed plan did not finish clean: {!r}".format(verdict),
                report)
        store_path = pathlib.Path(verdict["store"])
        fault_verdict = resumer.submit(
            "fault-plan",
            plan={"directory": str(fault_dir), "shards": self.shards,
                  "seed": self.seed,
                  "fault_profile": self.fault_profile},
        )
        if fault_verdict.get("type") != "verdict":
            raise SoakError(
                "fault-profile plan had no typed verdict: {!r}"
                .format(fault_verdict), report)
        report["fault_plan"] = {
            "status": fault_verdict.get("status"),
            "ok": fault_verdict.get("ok"),
            "summary": fault_verdict.get("summary"),
        }
        resumer.close()
        time.sleep(half)
        status_b = self._status()
        report["status_b"] = {
            "scheduler": status_b.get("scheduler"),
            "overload": status_b.get("overload"),
        }
        self.draining.set()
        drainer = ServeClient(self.socket, timeout_s=IO_TIMEOUT_S)
        drainer.connect()
        drainer.drain(wait=False)
        drainer.close()
        self._wait_clean_exit(proc, "phase-b")
        report["phase_b"] = self._join_load(threads)
        self.draining.clear()

        # ---- verification ------------------------------------------------
        self._verify_load(report)
        self._verify_fairness(report, status_b)
        self._verify_quota(report)
        self._verify_trickle(report, status_b)
        self._verify_slow_reader(report)
        self._verify_determinism(report, plan_dir, store_path)
        if self.campaign_units:
            report["campaign_smoke"] = self._campaign_smoke()
        report["log"] = list(self._log)
        report["ok"] = True
        return report

    # -- assertions ------------------------------------------------------------

    def _verify_load(self, report):
        errors = []
        for phase in ("phase_a", "phase_b"):
            for tenant, entry in sorted(report[phase].items()):
                errors.extend(
                    "{}/{}: {}".format(phase, tenant, e)
                    for e in entry["errors"])
        if errors:
            raise SoakError(
                "load errors (timeouts/crashes where typed refusals "
                "were promised): " + "; ".join(errors[:8]), report)
        total_done = sum(
            entry["done"]
            for phase in ("phase_a", "phase_b")
            for entry in report[phase].values())
        if total_done == 0:
            raise SoakError("no load completed at all", report)
        self.log("load clean: {} verdicts, no untyped failures"
                 .format(total_done))

    def _flood_weights(self):
        return {
            t["name"]: float(t.get("weight", 1.0))
            for t in DEFAULT_TENANTS
            if t.get("mode", FLOOD) == FLOOD and "max_requests" not in t
        }

    def _verify_fairness(self, report, status):
        """Flood tenants' weight-normalized throughput must stay close."""
        weights = self._flood_weights()
        counts = {}
        for phase in ("phase_a", "phase_b"):
            for tenant, entry in report[phase].items():
                if tenant in weights:
                    counts[tenant] = counts.get(tenant, 0) + entry["done"]
        dispatched = {
            name: info.get("dispatched", 0)
            for name, info in
            (status.get("scheduler", {}).get("tenants") or {}).items()
        }
        normalized = {
            tenant: counts.get(tenant, 0) / weights[tenant]
            for tenant in weights
        }
        floor = min(normalized.values())
        if floor <= 0:
            raise SoakError(
                "a flood tenant was starved outright: {!r}"
                .format(counts), report)
        ratio = max(normalized.values()) / floor
        report["fairness"] = {
            "counts": counts,
            "weights": weights,
            "normalized": {k: round(v, 2) for k, v in normalized.items()},
            "dispatched_b": dispatched,
            "ratio": round(ratio, 3),
            "bound": FAIRNESS_RATIO_MAX,
        }
        if ratio > FAIRNESS_RATIO_MAX:
            raise SoakError(
                "weight-normalized flood throughput ratio {:.2f} exceeds "
                "{:.2f}: {!r}".format(
                    ratio, FAIRNESS_RATIO_MAX, normalized), report)
        self.log("fairness: normalized ratio {:.2f} <= {:.2f} ({})".format(
            ratio, FAIRNESS_RATIO_MAX,
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted(counts.items()))))

    def _verify_quota(self, report):
        """Capped tenants must meet typed quota refusals, never untyped."""
        quota = report["quota"] = {}
        for tenant in DEFAULT_TENANTS:
            if "max_requests" not in tenant:
                continue
            name = tenant["name"]
            rejected = [report[p].get(name, {}).get("rejected", {})
                        for p in ("phase_a", "phase_b")]
            entry = quota[name] = {
                "max_requests": tenant["max_requests"],
                "window": tenant["window"],
                "typed": sum(r.get("quota", 0) for r in rejected),
                "untyped": sum(r.get("unknown", 0) for r in rejected),
            }
            if entry["untyped"]:
                raise SoakError(
                    "capped tenant {} got {} untyped refusal(s)".format(
                        name, entry["untyped"]), report)
            if not entry["typed"]:
                raise SoakError(
                    "capped tenant {} was never refused by its quota of "
                    "{} requests".format(name, entry["max_requests"]),
                    report)
        self.log("quota: " + json.dumps(quota, sort_keys=True))

    def _verify_trickle(self, report, status):
        tricklers = [t["name"] for t in DEFAULT_TENANTS
                     if t.get("mode") == TRICKLE]
        if not tricklers:
            return
        sched = status.get("scheduler", {}).get("tenants") or {}
        trickle = {}
        for name in tricklers:
            done = sum(report[p].get(name, {}).get("done", 0)
                       for p in ("phase_a", "phase_b"))
            submitted = sum(report[p].get(name, {}).get("submitted", 0)
                            for p in ("phase_a", "phase_b"))
            p99 = (sched.get(name) or {}).get("p99_wait_ms", 0.0)
            trickle[name] = {"submitted": submitted, "done": done,
                             "p99_wait_ms": p99}
            if done == 0:
                raise SoakError(
                    "trickle tenant {} completed nothing".format(name),
                    report)
            if p99 > TRICKLE_P99_MS:
                raise SoakError(
                    "trickle tenant {} p99 queue wait {:.0f}ms exceeds "
                    "{:.0f}ms -- starved behind the floods".format(
                        name, p99, TRICKLE_P99_MS), report)
        report["trickle"] = trickle
        self.log("trickle: " + json.dumps(trickle, sort_keys=True))

    def _verify_slow_reader(self, report):
        sloths = [t["name"] for t in DEFAULT_TENANTS
                  if t.get("mode") == SLOW_READER]
        if not sloths:
            return
        outcome = {}
        for name in sloths:
            submitted = sum(report[p].get(name, {}).get("submitted", 0)
                            for p in ("phase_a", "phase_b"))
            persisted = len(list(
                (self.state / "results").glob(name + ".*.json")))
            outcome[name] = {"submitted": submitted,
                             "persisted": persisted}
            # submissions racing the two drains may have been refused
            # before admission; everything admitted must be on disk
            if submitted and persisted == 0:
                raise SoakError(
                    "slow reader {} got nothing persisted ({} submits)"
                    .format(name, submitted), report)
        report["slow_reader"] = outcome
        self.log("slow reader: " + json.dumps(outcome, sort_keys=True))

    def _verify_determinism(self, report, plan_dir, store_path):
        offline = ShardedCampaignRunner(
            self.root / "offline.jsonl", directory=str(plan_dir),
            shards=self.shards, jobs=self.jobs, seed=self.seed,
            watchdog_s=120.0,
        ).run()
        if not offline.ok:
            raise SoakError(
                "offline reference run failed: " + offline.summary, report)
        served = json.loads(store_path.read_text())
        served_sha = store_digest(served)
        offline_sha = store_digest(offline.store)
        report["determinism"] = {
            "served_sha256": served_sha,
            "offline_sha256": offline_sha,
            "equal": served_sha == offline_sha,
        }
        if served_sha != offline_sha:
            raise SoakError(
                "served store {} != offline store {} after drain+resume"
                .format(served_sha, offline_sha), report)
        self.log("determinism: served == offline ({})".format(served_sha))

    def _campaign_smoke(self):
        """The scale leg: a sharded campaign at real unit counts."""
        directory = write_noop_plan(
            self.root / "campaign", self.campaign_units,
            seed_base=100000, spin=64)
        started = time.monotonic()
        result = ShardedCampaignRunner(
            self.root / "campaign.jsonl", directory=str(directory),
            shards=self.shards, jobs=self.jobs, seed=self.seed,
            watchdog_s=300.0,
        ).run()
        elapsed = time.monotonic() - started
        if not result.ok:
            raise SoakError(
                "campaign smoke failed: " + result.summary)
        smoke = {
            "units": self.campaign_units,
            "elapsed_s": round(elapsed, 2),
            "units_per_s": round(self.campaign_units / elapsed, 1),
            "summary": result.summary,
        }
        self.log("campaign smoke: {} units in {:.1f}s ({}/s)".format(
            self.campaign_units, elapsed, smoke["units_per_s"]))
        return smoke


def run_soak(root, **kwargs):
    """Run one soak; returns the report dict (raises SoakError on fail)."""
    return SoakHarness(root, **kwargs).run()
