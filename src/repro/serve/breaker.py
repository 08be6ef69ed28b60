"""Circuit breakers: shed load from a sick backend instead of cascading.

The sharded fabric already contains a *single run's* shard death by
quarantine and work stealing -- but a long-running service replays
that containment for every new request, paying the doomed shard's
failure again and again while requests pile up behind it.  The breaker
is the service-level memory of those failures:

* **closed** -- healthy; requests flow;
* **open** -- ``failure_threshold`` consecutive failures tripped it;
  requests are shed with a typed :class:`~repro.errors.Overloaded`
  (``reason="circuit-open"``) until ``cooldown_s`` elapses.  Shedding
  is the point: a rejected request costs microseconds, a request that
  queues behind a dead backend costs its whole deadline;
* **half-open** -- the cooldown expired; exactly one probe request is
  admitted.  Success closes the breaker, failure re-opens it for a
  fresh cooldown.

The server keeps one global breaker (wholesale backend failures) plus
one per shard index (quarantines).  A per-shard breaker never rejects
-- the fabric's survivors still absorb that shard's units -- it marks
admissions *degraded* so clients learn their request runs on a
diminished fabric.
"""

import threading
import time

#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One breaker: consecutive-failure trip, cooldown, half-open probe.

    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    All methods are thread-safe and non-blocking.
    """

    def __init__(self, failure_threshold=3, cooldown_s=30.0, clock=None):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._failures = 0
        self._state = CLOSED
        self._opened_at = None
        self._probing = False

    @property
    def state(self):
        with self._lock:
            return self._observe()

    def _observe(self):
        """Advance open -> half-open on cooldown expiry; return state."""
        if self._state == OPEN \
                and self._clock() - self._opened_at >= self.cooldown_s:
            self._state = HALF_OPEN
            self._probing = False
        return self._state

    def allow(self):
        """May one more request pass?  Half-open admits a single probe."""
        with self._lock:
            state = self._observe()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self):
        with self._lock:
            self._failures = 0
            self._state = CLOSED
            self._opened_at = None
            self._probing = False

    def record_failure(self):
        with self._lock:
            self._observe()
            self._failures += 1
            if self._state == HALF_OPEN \
                    or self._failures >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = self._clock()
                self._probing = False

    def retry_after_s(self):
        """Seconds until the next half-open probe (0 when not open)."""
        with self._lock:
            if self._observe() != OPEN:
                return 0.0
            return max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )

    def as_dict(self):
        with self._lock:
            return {"state": self._observe(), "failures": self._failures}


class BreakerBoard:
    """The server's breaker set: one global + one per shard index."""

    def __init__(self, shards, failure_threshold=3, cooldown_s=30.0,
                 clock=None):
        self.backend = CircuitBreaker(failure_threshold, cooldown_s, clock)
        self.shards = {
            index: CircuitBreaker(failure_threshold, cooldown_s, clock)
            for index in range(max(1, shards))
        }
        #: the server attaches its OverloadGovernor here so one board
        #: document carries every shed signal the service can emit --
        #: breaker trips *and* watermark pressure
        self.overload = None

    def record_report(self, report):
        """Fold one CampaignReport into the per-shard breakers."""
        failures = report.shard_failures
        states = report.shard_states
        for index, breaker in self.shards.items():
            if index in failures:
                breaker.record_failure()
            elif states.get(index) == "done":
                breaker.record_success()
        if failures and len(failures) == len(states):
            # every shard died: that is a backend failure, not a degrade
            self.backend.record_failure()
        else:
            self.backend.record_success()

    def degraded_shards(self):
        """Shard indexes whose breaker is not closed (degrade signal)."""
        return sorted(
            index for index, breaker in self.shards.items()
            if breaker.state != CLOSED
        )

    def as_dict(self):
        board = {
            "backend": self.backend.as_dict(),
            "shards": {
                str(index): breaker.as_dict()
                for index, breaker in sorted(self.shards.items())
            },
        }
        if self.overload is not None:
            board["overload"] = self.overload.snapshot()
        return board
