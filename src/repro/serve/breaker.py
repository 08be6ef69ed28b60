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

The server keeps one such breaker for wholesale backend failures.  A
shard needs no breaker of its own: it never sheds -- the fabric's
survivors still absorb its units -- so the board only counts each
shard's consecutive failures since its last clean run and marks
admissions *degraded* once that streak reaches the threshold, so
clients learn their request runs on a diminished fabric.
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
    """The server's breaker set: one global breaker + shard failure streaks.

    ``streaks`` maps each shard index to its consecutive failures since
    the shard last finished ``done``; a shard is degraded while its
    streak is at least ``failure_threshold``, however long ago it
    tripped.
    """

    def __init__(self, shards, failure_threshold=3, cooldown_s=30.0,
                 clock=None):
        self.backend = CircuitBreaker(failure_threshold, cooldown_s, clock)
        self._lock = threading.Lock()
        self.streaks = {index: 0 for index in range(max(1, shards))}

    def record_report(self, report):
        """Fold one CampaignReport into the shard streaks and the backend."""
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
            self.backend.record_failure()
        else:
            self.backend.record_success()

    def degraded_shards(self):
        """Shard indexes whose failure streak reached the threshold."""
        threshold = self.backend.failure_threshold
        with self._lock:
            return sorted(index for index, streak in self.streaks.items()
                          if streak >= threshold)

    def as_dict(self):
        threshold = self.backend.failure_threshold
        with self._lock:
            shards = {
                str(index): {
                    "state": OPEN if streak >= threshold else CLOSED,
                    "failures": streak,
                }
                for index, streak in sorted(self.streaks.items())
            }
        return {"backend": self.backend.as_dict(), "shards": shards}
