"""Per-tenant weighted fair-share scheduling for the serve backend.

Admission quotas bound what a tenant may *hold*; they say nothing about
the order admitted work reaches the executor pool.  With a plain FIFO
feed one admitted flood tenant parks a wall of units in front of
everyone else's, and a trickle tenant -- well inside its quota -- waits
behind the whole wall.  :class:`FairShareScheduler` replaces the FIFO
with three guarantees:

* **weighted fair share across tenants** -- deficit round-robin: each
  visit of the rotation grants a tenant ``quantum * weight`` credit,
  and the tenant dispatches queued units while its deficit covers their
  cost.  Over any saturated window, tenants receive service
  proportional to their configured weights, independent of how many
  units each has queued;
* **deadline-aware ordering within a tenant** -- a tenant's own queue
  dispatches its deadline-carrying units earliest-deadline-first, ahead
  of its no-deadline units (which stay FIFO among themselves).  One
  tenant's deadlines never reorder another tenant's units;
* **aging** -- the globally oldest queued unit is dispatched out of
  turn once it has waited ``aging_s``, so even a weight-starved tenant
  makes progress: starvation is bounded by the aging horizon, whatever
  the weights say.

``mode="fifo"`` disables all three (one global arrival-order queue) and
exists as the control arm for the scheduling-cost benchmark and as an
escape hatch (``repro serve --fifo``).

The scheduler also keeps the evidence that fairness actually happened:
per-tenant dispatch counts and a bounded ring of recent queue-wait
samples, surfaced through :meth:`snapshot` into ``repro serve status``,
the soak harness's starvation assertions, and ``BENCH_serve.json``.

Thread safety: every public method takes the internal lock; callers
(the backend's feed, the server's status handler) need no external
synchronization.
"""

import bisect
import collections
import threading
import time

#: scheduling modes
FAIR = "fair"
FIFO = "fifo"

#: default credit granted per rotation visit, in unit-cost units
DEFAULT_QUANTUM = 4.0

#: default seconds a queued item may wait before aging overrides DRR
DEFAULT_AGING_S = 30.0

#: fair-share weight of a tenant the weight lookup does not know
DEFAULT_WEIGHT = 1.0

#: recent queue-wait samples retained per tenant for percentiles
WAIT_WINDOW = 256


def percentile(values, fraction):
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class _Item:
    __slots__ = ("tenant", "key", "payload", "deadline", "cost",
                 "enqueued_at", "seq", "removed")

    def __init__(self, tenant, key, payload, deadline, cost,
                 enqueued_at, seq):
        self.tenant = tenant
        self.key = key
        self.payload = payload
        self.deadline = deadline
        self.cost = cost
        self.enqueued_at = enqueued_at
        self.seq = seq
        #: lazy-deletion marker for the arrival deque
        self.removed = False

    def order(self):
        """Within-tenant dispatch order: EDF first, then arrival."""
        if self.deadline is None:
            return (1, 0.0, self.seq)
        return (0, self.deadline, self.seq)


class _TenantQueue:
    __slots__ = ("tenant", "weight", "items", "arrivals", "deficit",
                 "dispatched", "waits")

    def __init__(self, tenant, weight):
        self.tenant = tenant
        self.weight = max(0.0, float(weight))
        #: kept sorted by _Item.order(); insertion is a bisect
        self.items = []
        #: the same items in arrival order (the clock is monotonic, so
        #: push order is age order); dispatch/discard mark ``removed``
        #: and the head is cleaned lazily -- this is what keeps the
        #: global oldest-item lookup a per-tenant head comparison
        #: instead of a full scan on every dispatch
        self.arrivals = collections.deque()
        self.deficit = 0.0
        #: lifetime dispatch count (fairness evidence)
        self.dispatched = 0
        #: ring of recent queue-wait seconds (percentile evidence)
        self.waits = []

    def push(self, item):
        keys = [entry.order() for entry in self.items]
        self.items.insert(bisect.bisect_right(keys, item.order()), item)
        self.arrivals.append(item)

    def remove(self, item):
        self.items.remove(item)
        item.removed = True

    def oldest(self):
        """The tenant's oldest queued item (None when drained)."""
        while self.arrivals and self.arrivals[0].removed:
            self.arrivals.popleft()
        return self.arrivals[0] if self.arrivals else None

    def note_wait(self, wait_s):
        self.waits.append(wait_s)
        if len(self.waits) > WAIT_WINDOW:
            del self.waits[: len(self.waits) - WAIT_WINDOW]


class FairShareScheduler:
    """Deficit round-robin over per-tenant queues, with aging.

    ``weight_of`` maps a tenant name to its fair-share weight (a
    callable, so weights can live in the tenant quota config); tenants
    it does not know default to :data:`DEFAULT_WEIGHT`.  ``quantum`` is
    the credit granted per rotation visit, ``aging_s`` the wait after
    which the oldest queued item is dispatched out of turn, and ``clock``
    is injectable for the starvation tests.
    """

    def __init__(self, weight_of=None, quantum=DEFAULT_QUANTUM,
                 aging_s=DEFAULT_AGING_S, mode=FAIR, clock=None):
        if mode not in (FAIR, FIFO):
            raise ValueError("unknown scheduler mode {!r}".format(mode))
        self.weight_of = weight_of
        self.quantum = float(quantum)
        self.aging_s = float(aging_s)
        self.mode = mode
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._tenants = {}
        #: round-robin rotation of tenant names with queued work
        self._rotation = []
        self._rotation_at = 0
        #: has the queue at _rotation_at received this visit's credit?
        self._granted = False
        self._depth = 0
        self._seq = 0
        self._aged_dispatches = 0
        #: waits observed since start, for the global histogram hook
        self.on_wait = None

    # -- intake ----------------------------------------------------------------

    def _tenant(self, tenant):
        queue = self._tenants.get(tenant)
        if queue is None:
            weight = DEFAULT_WEIGHT
            if self.weight_of is not None:
                try:
                    weight = float(self.weight_of(tenant))
                except (TypeError, ValueError):
                    weight = DEFAULT_WEIGHT
            queue = self._tenants[tenant] = _TenantQueue(tenant, weight)
        return queue

    def push(self, tenant, key, payload, deadline=None, cost=1.0):
        """Queue one unit of work for ``tenant``.

        ``key`` identifies the unit (the backend's request id);
        ``deadline`` is an absolute ``time.monotonic`` value or None;
        ``cost`` is the unit's weight against the tenant's deficit
        (scenario units cost 1).
        """
        with self._lock:
            queue = self._tenant(tenant)
            self._seq += 1
            item = _Item(tenant, key, payload, deadline, float(cost),
                         self._clock(), self._seq)
            queue.push(item)
            if tenant not in self._rotation:
                self._rotation.append(tenant)
            self._depth += 1

    # -- dispatch --------------------------------------------------------------

    def take(self, room):
        """Dispatch up to ``room`` units in fair-share order.

        Returns a list of ``(tenant, key, payload)`` triples.  FIFO
        mode returns strict arrival order; fair mode runs the aging
        check first, then the deficit rotation.
        """
        if room <= 0:
            return []
        taken = []
        with self._lock:
            now = self._clock()
            while len(taken) < room and self._depth > 0:
                item = self._next_item(now)
                if item is None:
                    break
                taken.append((item.tenant, item.key, item.payload))
                self._account(item, now)
        return taken

    def _next_item(self, now):
        if self.mode == FIFO:
            oldest = self._oldest_item()
            return oldest
        aged = self._oldest_item()
        if aged is not None \
                and now - aged.enqueued_at >= self.aging_s:
            self._aged_dispatches += 1
            return aged
        # deficit round-robin over the active rotation: credit is
        # granted exactly once per arrival at a queue (the _granted
        # flag survives across take() calls so a tenant mid-burst is
        # not re-credited), and a tiny weight may need several full
        # passes to accumulate one unit of credit, so visits are
        # bounded rather than single-pass
        visits = 64 * max(1, len(self._rotation))
        for __ in range(visits):
            if not self._rotation:
                break
            if self._rotation_at >= len(self._rotation):
                self._rotation_at = 0
            tenant = self._rotation[self._rotation_at]
            queue = self._tenants[tenant]
            if not queue.items:
                # drained since its last visit: drop from the rotation
                self._rotation.pop(self._rotation_at)
                queue.deficit = 0.0
                self._granted = False
                continue
            if not self._granted:
                queue.deficit += self.quantum * queue.weight
                self._granted = True
            if queue.deficit >= queue.items[0].cost:
                return queue.items[0]
            self._rotation_at += 1
            self._granted = False
        # only zero/degenerate weights remain below cost after the
        # bounded passes: force progress through the oldest item
        return self._oldest_item()

    def _oldest_item(self):
        # compare per-tenant arrival heads: O(tenants) per dispatch,
        # not O(queued items) -- a FIFO burst must not go quadratic
        oldest = None
        for queue in self._tenants.values():
            item = queue.oldest()
            if item is None:
                continue
            if oldest is None \
                    or (item.enqueued_at, item.seq) \
                    < (oldest.enqueued_at, oldest.seq):
                oldest = item
        return oldest

    def _account(self, item, now):
        queue = self._tenants[item.tenant]
        queue.remove(item)
        queue.deficit = max(0.0, queue.deficit - item.cost)
        if not queue.items:
            queue.deficit = 0.0
        queue.dispatched += 1
        wait_s = max(0.0, now - item.enqueued_at)
        queue.note_wait(wait_s)
        self._depth -= 1
        if self.on_wait is not None:
            try:
                self.on_wait(item.tenant, wait_s)
            except Exception:  # noqa: BLE001 -- an observer must never
                pass           # stall dispatch

    # -- removal / inspection --------------------------------------------------

    def discard(self, key):
        """Drop the queued unit with ``key`` (False when not queued)."""
        with self._lock:
            for queue in self._tenants.values():
                for item in queue.items:
                    if item.key == key:
                        queue.remove(item)
                        self._depth -= 1
                        return True
        return False

    def queued(self, key):
        """Is a unit with ``key`` still waiting for dispatch?"""
        with self._lock:
            return any(item.key == key
                       for queue in self._tenants.values()
                       for item in queue.items)

    def depth(self):
        with self._lock:
            return self._depth

    def oldest_wait_s(self):
        """Age of the oldest queued unit (0 when empty)."""
        with self._lock:
            oldest = self._oldest_item()
            if oldest is None:
                return 0.0
            return max(0.0, self._clock() - oldest.enqueued_at)

    def snapshot(self):
        """Deterministically-ordered fairness evidence for ``status``."""
        with self._lock:
            now = self._clock()
            tenants = {}
            for name in sorted(self._tenants):
                queue = self._tenants[name]
                if not queue.items and not queue.dispatched:
                    continue
                entry = {
                    "queued": len(queue.items),
                    "weight": queue.weight,
                    "dispatched": queue.dispatched,
                    "p50_wait_ms": round(
                        percentile(queue.waits, 0.50) * 1000.0, 3),
                    "p99_wait_ms": round(
                        percentile(queue.waits, 0.99) * 1000.0, 3),
                }
                head = queue.oldest()
                if head is not None:
                    entry["oldest_wait_s"] = round(
                        max(0.0, now - head.enqueued_at), 3)
                tenants[name] = entry
            oldest = self._oldest_item()
            return {
                "mode": self.mode,
                "depth": self._depth,
                "quantum": self.quantum,
                "aging_s": self.aging_s,
                "aged_dispatches": self._aged_dispatches,
                "oldest_wait_s": 0.0 if oldest is None else round(
                    max(0.0, now - oldest.enqueued_at), 3),
                "tenants": tenants,
            }
