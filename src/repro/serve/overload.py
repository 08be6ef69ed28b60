"""Watermark-based overload degradation for the serve admission ladder.

Quotas bound each tenant, but they do not notice the service simply
filling up -- a queue near its bound, a state directory running out of
disk, an executor drowning in in-flight units -- or its backend
failing over and over.  The :class:`OverloadGovernor` watches those
four **watermarks** and moves the service through a three-state
ladder, the one place admission sheds load:

* **healthy** -- all watermarks below their degraded level; admit
  everything;
* **degraded** -- some watermark crossed its degraded level: shed the
  lowest-priority work (typed ``Overloaded``, ``reason="degraded"``,
  with a ``retry_after_s``) and mark the verdicts of what is still
  admitted with an ``overload`` degrade flag, so clients know their
  results were produced by a service under pressure;
* **shedding** -- some watermark crossed its shedding level: refuse
  every new submit (``reason="shedding"``) until pressure recedes.
  Admitted work is never cancelled -- load shedding is an admission
  policy, not an execution one.

Transitions *up* the ladder are immediate (pressure is load-bearing
the moment it exists); transitions *down* are held back by a
``hold_s`` hysteresis window -- the raw classification must stay below
the current state for the whole window before the governor relaxes.
That keeps one burst from flapping healthy/degraded refusal behavior
at the clients.

Watermarks are :class:`Watermark` objects wrapping an injectable probe
callable, so tests drive transitions with plain numbers and the server
wires real probes (admitted-queue fraction, ``shutil.disk_usage`` on
the state directory, executor backlog depth, and the backend failure
streak kept by the :class:`BreakerBoard`).  The governor itself
is clock-injectable and lock-free to *read* -- ``evaluate()`` is
called on every admission, so it must stay cheap.
"""

import shutil
import threading
import time

#: overload states, in increasing severity
HEALTHY = "healthy"
DEGRADED = "degraded"
SHEDDING = "shedding"

_SEVERITY = {HEALTHY: 0, DEGRADED: 1, SHEDDING: 2}

#: default hysteresis hold before relaxing to a lower state
DEFAULT_HOLD_S = 2.0

#: default retry hints handed to shed clients, per state
DEFAULT_RETRY_AFTER_S = {DEGRADED: 1.0, SHEDDING: 5.0}

#: submissions below this priority are shed while degraded
DEGRADED_PRIORITY_FLOOR = 1


class Watermark:
    """One watched signal with degraded/shedding thresholds.

    ``probe`` returns the current value; ``direction`` says which side
    of the threshold is trouble: ``"above"`` for load signals (queue
    fraction, in-flight units), ``"below"`` for headroom signals (disk
    free).  A probe that raises is read as "signal unavailable" and
    classifies healthy -- a broken disk probe must not wedge admission.
    """

    __slots__ = ("name", "probe", "degraded_at", "shedding_at",
                 "direction", "last")

    def __init__(self, name, probe, degraded_at, shedding_at,
                 direction="above"):
        if direction not in ("above", "below"):
            raise ValueError(
                "watermark direction must be 'above' or 'below', "
                "not {!r}".format(direction)
            )
        self.name = name
        self.probe = probe
        self.degraded_at = float(degraded_at)
        self.shedding_at = float(shedding_at)
        self.direction = direction
        #: most recent probed value (None until first evaluate)
        self.last = None

    def classify(self):
        """Probe and classify: healthy / degraded / shedding."""
        try:
            value = float(self.probe())
        except Exception:  # noqa: BLE001 -- an unavailable signal is
            self.last = None  # not an overload
            return HEALTHY
        self.last = value
        if self.direction == "above":
            if value >= self.shedding_at:
                return SHEDDING
            if value >= self.degraded_at:
                return DEGRADED
        else:
            if value <= self.shedding_at:
                return SHEDDING
            if value <= self.degraded_at:
                return DEGRADED
        return HEALTHY

    def as_dict(self):
        return {
            "value": None if self.last is None else round(self.last, 4),
            "degraded_at": self.degraded_at,
            "shedding_at": self.shedding_at,
            "direction": self.direction,
        }


def disk_free_mb_probe(directory):
    """A ``Watermark`` probe: free megabytes on ``directory``'s volume."""
    def probe():
        return shutil.disk_usage(str(directory)).free / (1024.0 * 1024.0)
    return probe


class BreakerBoard:
    """The backend's failure memory: one backend streak + shard streaks.

    ``backend_failures`` counts consecutive wholesale backend failures
    (every shard of a plan died, a plan thread raised, the executor
    pool broke); any success resets it.  :meth:`backend_pressure` is
    the ``backend`` watermark's probe: the streak while the last
    failure is younger than ``cooldown_s``, 0 after.  The streak itself
    outlives the cooldown, so once the governor relaxes, the next
    failure sheds again at once -- and requests admitted before the
    first result may still meet a dead backend, bounded by the
    ``queue`` and ``inflight`` watermarks.

    ``streaks`` maps each shard index to its consecutive failures since
    the shard last finished ``done``.  A shard never sheds -- the
    fabric's survivors still absorb its units -- so a shard whose
    streak reached ``failure_threshold`` only marks admissions
    degraded, however long ago it tripped.  ``clock`` is injectable
    for tests (defaults to ``time.monotonic``).
    """

    def __init__(self, shards, failure_threshold=3, cooldown_s=30.0,
                 clock=None):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self.backend_failures = 0
        self.last_failure_at = None
        self.streaks = {index: 0 for index in range(max(1, shards))}

    def record_failure(self):
        with self._lock:
            self.backend_failures += 1
            self.last_failure_at = self._clock()

    def record_success(self):
        with self._lock:
            self.backend_failures = 0

    def backend_pressure(self):
        """The backend streak while its last failure is fresh, else 0."""
        with self._lock:
            if self.last_failure_at is None or \
                    self._clock() - self.last_failure_at >= self.cooldown_s:
                return 0
            return self.backend_failures

    def record_report(self, report):
        """Fold one CampaignReport into the shard and backend streaks."""
        failures = report.shard_failures
        states = report.shard_states
        with self._lock:
            for index in self.streaks:
                if index in failures:
                    self.streaks[index] += 1
                elif states.get(index) == "done":
                    self.streaks[index] = 0
        if failures and len(failures) == len(states):
            # every shard died: that is a backend failure, not a degrade
            self.record_failure()
        else:
            self.record_success()

    def degraded_shards(self):
        """Shard indexes whose failure streak reached the threshold."""
        with self._lock:
            return sorted(index for index, streak in self.streaks.items()
                          if streak >= self.failure_threshold)

    def as_dict(self):
        with self._lock:
            shards = {
                str(index): {
                    "state": "open" if streak >= self.failure_threshold
                    else "closed",
                    "failures": streak,
                }
                for index, streak in sorted(self.streaks.items())
            }
        return {"shards": shards}


class OverloadGovernor:
    """Fold watermark classifications into one hysteresis-damped state.

    ``watermarks`` is a list of :class:`Watermark`; the governor's
    state is the *worst* classification among them, with downward
    transitions delayed by ``hold_s``.  ``retry_after_s`` maps the two
    refusal states to the hint handed to shed clients.
    """

    def __init__(self, watermarks, hold_s=DEFAULT_HOLD_S,
                 retry_after_s=None, clock=None):
        self.watermarks = list(watermarks)
        self.hold_s = float(hold_s)
        self.retry_hints = dict(DEFAULT_RETRY_AFTER_S)
        self.retry_hints.update(retry_after_s or {})
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._state = HEALTHY
        self._since = self._clock()
        #: first instant the raw classification dropped below _state
        #: (None while raw >= state); downgrades wait out hold_s here
        self._low_since = None
        self._transitions = 0
        #: lifetime shed counters by reason, for status/health
        self.sheds = {DEGRADED: 0, SHEDDING: 0}

    # -- evaluation ------------------------------------------------------------

    def evaluate(self):
        """Probe every watermark and return the (possibly new) state."""
        worst = HEALTHY
        with self._lock:
            for mark in self.watermarks:
                state = mark.classify()
                if _SEVERITY[state] > _SEVERITY[worst]:
                    worst = state
            now = self._clock()
            if _SEVERITY[worst] >= _SEVERITY[self._state]:
                # pressure: escalate (or hold) immediately
                if worst != self._state:
                    self._state = worst
                    self._since = now
                    self._transitions += 1
                self._low_since = None
            else:
                # relief: relax only after hold_s of sustained calm
                if self._low_since is None:
                    self._low_since = now
                elif now - self._low_since >= self.hold_s:
                    self._state = worst
                    self._since = now
                    self._transitions += 1
                    self._low_since = None
            return self._state

    @property
    def state(self):
        with self._lock:
            return self._state

    def note_shed(self, state):
        """Count one refusal issued because of ``state``."""
        with self._lock:
            if state in self.sheds:
                self.sheds[state] += 1

    def retry_after_s(self, state):
        return self.retry_hints.get(state, 1.0)

    # -- introspection ---------------------------------------------------------

    def snapshot(self):
        """The overload document for ``serve status`` and health."""
        with self._lock:
            return {
                "state": self._state,
                "since_s": round(max(0.0, self._clock() - self._since), 3),
                "transitions": self._transitions,
                "hold_s": self.hold_s,
                "sheds": dict(self.sheds),
                "watermarks": {
                    mark.name: mark.as_dict() for mark in self.watermarks
                },
            }


def default_governor(server):
    """The server's standard watermark set.

    * ``queue`` -- admitted units (every kind, plan units included) as
      a fraction of the *configured* global bound ``max_queue``;
    * ``inflight`` -- executor backlog: scenario units queued or
      running, as a fraction of eight times the pool width.  The pool
      itself never holds more than twice its width launched (its feed
      room), so everything past that is scheduler backlog; degraded at
      6x and shedding at 7.6x the pool width means the executor is
      overcommitted by several full refills.  Unlike ``queue`` this
      scales with the deployment's ``--jobs``, not the admission
      config -- a small executor behind a generous ``max_queue``
      degrades here long before the global bound notices;
    * ``disk_free_mb`` -- free space on the state directory's volume;
    * ``backend`` -- the backend failure streak while its last failure
      is inside the board's cooldown: ``failure_threshold`` consecutive
      failures shed everything.
    """
    backend = server.backend
    board = backend.breakers
    backlog_cap = 8.0 * max(1, backend.jobs)
    return OverloadGovernor([
        Watermark("queue",
                  lambda: server.units_admitted() / float(server.max_queue),
                  degraded_at=0.75, shedding_at=0.95),
        Watermark("inflight",
                  lambda: backend.queue_depth() / backlog_cap,
                  degraded_at=0.75, shedding_at=0.95),
        Watermark("disk_free_mb",
                  disk_free_mb_probe(backend.state_dir),
                  degraded_at=256.0, shedding_at=64.0,
                  direction="below"),
        Watermark("backend", board.backend_pressure,
                  degraded_at=board.failure_threshold,
                  shedding_at=board.failure_threshold),
    ])
