"""The campaign fabric: N fault domains, one deterministic store.

:class:`ShardedCampaignRunner` is the one way a campaign executes.  It
partitions a campaign's unit plan across N
:class:`~repro.campaign.shard.Shard` threads by stable hash (one shard
is the plain single-pool campaign) and coordinates them through three
thread-safe services:

* **feed** -- each shard pulls work incrementally; when its own backlog
  runs dry it *steals* pending units from the richest other backlog
  (dead shards' requeued units included), and every steal is journaled
  in the coordinator journal and emitted as a typed trace event before
  the unit changes hands;
* **quarantine** -- a shard that dies (broken journal, injected disk
  fault, anything typed) is quarantined: its outstanding units return
  to its backlog, where the survivors steal them.  The campaign only
  fails to complete when *every* shard is dead, and even then it
  degrades cleanly -- the merged store marks the leftovers
  ``INCOMPLETE`` and the report carries each shard's typed failure;
* **merge** -- the final state is folded from the coordinator journal
  plus every shard journal (in shard order) through
  :func:`~repro.campaign.journal.fold_records` /
  :func:`~repro.campaign.runner.build_store`, whatever the shard
  count.  Units are pure functions of their scenario files, so a unit
  that two journals both finished (a steal race, a crash between
  finish and acknowledgement) folds to byte-equal results -- and a
  *disagreement* raises ``JournalConflict`` rather than shipping a
  coin-flip.  Kill -9 any shard, or the coordinator itself, and a
  resume reaches the byte-identical store (modulo the two wall-clock
  stamps) of an uninterrupted run.

The coordinator journal is itself the root fault domain: fault
profiles inject only into shard journals and pools, so there is always
one journal whose campaign-start/steal/finish history survives to
merge against.

A journal without a ``shards`` field in its campaign-start record was
written by the retired single-pool runner, which journaled its unit
records in the coordinator journal itself; it is read, and resumed, as
a one-shard campaign -- the merge folds those records in first.
"""

import collections
import os
import pathlib
import select
import signal
import threading
import time

from repro.campaign import journal as wal
from repro.campaign.journal import CampaignJournal, fold_records, replay
from repro.campaign.pool import WakeSignal
from repro.campaign.runner import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_WATCHDOG_S,
    JOURNAL_SCHEMA,
    CampaignReport,
    build_store,
    plan_units,
    verify_unit_digests,
)
from repro.campaign.shard import DEAD, Shard, shard_journal_path, shard_of
from repro.errors import CampaignError
from repro.faults.injector import FaultInjector
from repro.faults.profiles import get_fault_profile
from repro.ioutil import prune_stale_artifacts, write_json_atomic
from repro.obs.metrics import FSYNC_US_BUCKETS
from repro.obs.trace import NULL_TRACER, Tracer


def merged_records(journal_path, shards):
    """Replay the coordinator journal plus every shard journal.

    Shard journals are merged in shard-index order, so the record list
    -- and everything folded from it -- is independent of thread
    timing.  Missing shard journals (a shard that never started) are
    simply empty.  Corruption in any journal propagates the usual
    :class:`~repro.errors.JournalCorrupt` with its fsck hint.
    """
    records, __ = replay(journal_path)
    for index in range(shards):
        path = shard_journal_path(journal_path, index)
        if path.exists():
            shard_records, __ = replay(path)
            records.extend(shard_records)
    return records


def journal_shards(config):
    """The shard count a campaign-start record pins.

    Journals from the retired single-pool runner carry no ``shards``
    field; they are one-shard campaigns.
    """
    return config.get("shards") or 1


def campaign_status(journal_path):
    """Read-only view of any campaign journal: ``(meta, folded)``.

    Reads the shard count from the campaign-start record and folds the
    coordinator journal together with every shard journal.
    """
    journal_path = pathlib.Path(journal_path)
    if not journal_path.exists():
        raise CampaignError("no journal at {}".format(journal_path))
    records, __ = replay(journal_path)
    meta, __ = fold_records(records)
    if meta["config"] is None:
        raise CampaignError(
            "journal {} has no campaign-start record".format(journal_path)
        )
    shards = journal_shards(meta["config"])
    return fold_records(merged_records(journal_path, shards))


class ShardedCampaignRunner:
    """Drive one campaign journal to completion across N shards.

    ``journal_path`` names the coordinator's write-ahead journal
    (created fresh, or replayed when resuming); ``directory`` is the
    scenario directory a *new* campaign plans its units from (a resumed
    campaign takes the unit set from its campaign-start record
    instead).  ``shards`` is the number of fault domains -- one shard is
    the plain single-pool campaign; ``jobs`` is the *total* worker
    budget, split evenly (floored at one worker per shard).  ``seed``
    threads into every shard pool's retry jitter; an optional
    ``fault_profile`` (name, dict, profile instance or JSON path) is
    injected into the shard journals and pools -- never the
    coordinator's own journal.  ``watchdog_s`` / ``deadline_s`` /
    ``max_retries`` parameterize the supervised pools; on resume the
    journaled values win, except ``deadline_s`` which a caller may
    tighten per invocation.  ``store_path`` defaults to the journal
    path with a ``.results.json`` suffix; ``trace_path`` (optional)
    records a campaign trace whose fsync histograms carry ``wall`` in
    their names, so determinism comparisons strip them.
    """

    def __init__(self, journal_path, directory=None, shards=2, jobs=1,
                 watchdog_s=DEFAULT_WATCHDOG_S, deadline_s=None,
                 max_retries=DEFAULT_MAX_RETRIES, store_path=None,
                 trace_path=None, seed=0, fault_profile=None,
                 event_sink=None):
        self.journal = CampaignJournal(journal_path)
        self.directory = directory
        #: optional live observer: every fabric event (unit transitions,
        #: steals, quarantines, faults) is mirrored to
        #: ``event_sink(kind, fields)`` -- the serve layer streams these
        #: to clients; a broken sink never breaks the fabric
        self.event_sink = event_sink
        self._draining = threading.Event()
        #: rung whenever a shard's empty feed may have gone stale: a
        #: unit resolved, a shard exited (its units requeued), a drain
        self._wake = WakeSignal()
        self.shards = max(1, shards)
        self.jobs = max(1, jobs)
        self.watchdog_s = watchdog_s
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.seed = seed
        self.fault_profile = get_fault_profile(fault_profile)
        if store_path is None:
            store_path = pathlib.Path(journal_path).with_suffix(
                ".results.json"
            )
        self.store_path = pathlib.Path(store_path)
        self.obs = NULL_TRACER if trace_path is None else Tracer(
            path=trace_path, meta={"command": "campaign"},
        )
        # shared mutable fabric state; every access goes through _lock
        self._lock = threading.Lock()
        self._backlogs = {}
        self._handed = {}
        self._steals = 0
        #: a shard was told ``[]`` since the last ring: only then does a
        #: resolved unit need to wake anyone
        self._starved = False
        self._shard_objs = []
        # the tracer/metrics objects are not thread-safe; shard threads
        # funnel through _obs_lock
        self._obs_lock = threading.Lock()

    # -- entry points ----------------------------------------------------------

    def run(self, resume=False):
        """Run (or resume) the campaign.

        Returns a :class:`~repro.campaign.runner.CampaignReport`.  A
        fresh journal starts a new campaign over ``directory``.  An
        existing coordinator journal needs ``resume=True``; its
        campaign-start record pins the unit plan, shard count, seed and
        fault profile, and only units without a journaled finish/skip
        anywhere in the fabric re-run.
        """
        exists = self.journal.path.exists() \
            and self.journal.path.stat().st_size > 0
        if exists and not resume:
            raise CampaignError(
                "journal {} already exists; resume it (or choose a new "
                "journal path)".format(self.journal.path)
            )
        prune_stale_artifacts(
            self.journal.path.parent,
            patterns=(self.journal.path.stem + "*.tmp",
                      self.journal.path.stem + ".beats-*"),
        )
        records = self.journal.open()
        try:
            return self._execute(records)
        finally:
            self.journal.close()

    def request_drain(self):
        """Stop the fabric gracefully (signal-handler / serve-drain safe).

        The feed stops handing out (and stealing) units, every shard
        pool finishes its in-flight units, journals them, seals its
        journal, and the run returns with ``interrupted=True`` unless
        everything happened to finish anyway.  ``resume`` continues
        from exactly this state.
        """
        self._draining.set()
        self._wake.ring()

    def status(self):
        """Read-only fabric-wide view: ``(meta, folded)``."""
        return campaign_status(self.journal.path)

    # -- orchestration ---------------------------------------------------------

    def _execute(self, records):
        config = self._adopt_config(records)
        shard_histories = self._replay_shards()
        meta, folded = fold_records(records + sum(shard_histories, []))
        pending = [
            unit for unit in config["units"]
            if folded.get(unit["id"], {}).get("status")
            not in ("done", "skipped")
        ]
        with self._lock:
            self._backlogs = {
                k: collections.deque() for k in range(self.shards)
            }
            self._handed = {k: {} for k in range(self.shards)}
            for unit in pending:
                self._backlogs[shard_of(unit["id"], self.shards)] \
                    .append(unit)
        if self.obs.enabled:
            self.obs.meta.setdefault("directory", config["directory"])
        start = time.monotonic()
        deadline = None
        if self.deadline_s is not None:
            deadline = start + self.deadline_s
        with self.obs.span("campaign", units=len(config["units"]),
                           pending=len(pending), jobs=self.jobs,
                           shards=self.shards):
            if pending:
                self._run_shards(shard_histories, deadline)
            records = merged_records(self.journal.path, self.shards)
            meta, folded = fold_records(records)
            done = all(
                folded.get(unit["id"], {}).get("status")
                in ("done", "skipped")
                for unit in config["units"]
            )
            if done and not meta["finished"]:
                with self._lock:
                    self.journal.append(wal.CAMPAIGN_FINISH)
                meta["finished"] = True
        wall_elapsed = time.monotonic() - start

        store = build_store(config, folded, wall_elapsed)
        write_json_atomic(self.store_path, store)
        if self.obs.enabled:
            self.obs.finish(wall_ms=wall_elapsed * 1000.0)
        states = {s.index: s.state for s in self._shard_objs}
        failures = {
            s.index: "{}: {}".format(type(s.failure).__name__, s.failure)
            for s in self._shard_objs if s.failure is not None
        }
        return CampaignReport(
            store, self.store_path,
            interrupted=not done and self._draining.is_set(),
            shard_states=states, shard_failures=failures,
            steals=self._steals,
        )

    def _adopt_config(self, records):
        """Pin (new campaign) or re-adopt (resume) the fabric config."""
        meta, __ = fold_records(records)
        if records and meta["config"] is None:
            raise CampaignError(
                "journal {} has no campaign-start record".format(
                    self.journal.path
                )
            )
        if records:
            config = meta["config"]
            verify_unit_digests(config["units"])
            self.watchdog_s = config.get("watchdog_s", self.watchdog_s)
            self.max_retries = config.get("max_retries", self.max_retries)
            self.seed = config.get("seed", self.seed)
            self.shards = journal_shards(config)
            profile = config.get("fault_profile")
            self.fault_profile = get_fault_profile(profile)
            if self.deadline_s is None:
                self.deadline_s = config.get("deadline_s")
            return config
        if self.directory is None:
            raise CampaignError(
                "a new campaign needs a scenario directory"
            )
        config = {
            "schema": JOURNAL_SCHEMA,
            "directory": str(self.directory),
            "watchdog_s": self.watchdog_s,
            "deadline_s": self.deadline_s,
            "max_retries": self.max_retries,
            "seed": self.seed,
            "shards": self.shards,
            "fault_profile": self.fault_profile.as_dict()
            if self.fault_profile is not None else None,
            "units": plan_units(self.directory),
        }
        with self._lock:
            self.journal.append(wal.CAMPAIGN_START, **config)
        return config

    def _replay_shards(self):
        """Replay every shard journal; returns a per-shard record list."""
        histories = []
        for index in range(self.shards):
            path = shard_journal_path(self.journal.path, index)
            histories.append(replay(path)[0] if path.exists() else [])
        return histories

    def _run_shards(self, shard_histories, deadline):
        per_shard_jobs = max(1, self.jobs // self.shards)
        self._shard_objs = []
        for index in range(self.shards):
            faults = None
            if self.fault_profile is not None \
                    and self.fault_profile.active_kinds \
                    and self.fault_profile.applies_to(index):
                # salt the injector seed with the shard's journal length
                # so a resume draws a fresh fault sequence instead of
                # deterministically re-firing the fault that killed it
                faults = FaultInjector(
                    self.fault_profile,
                    seed="{}:{}:{}".format(
                        self.seed, index, len(shard_histories[index])
                    ),
                    on_fire=self._make_fault_hook(index),
                )
            self._shard_objs.append(Shard(
                index,
                shard_journal_path(self.journal.path, index),
                self,
                jobs=per_shard_jobs,
                watchdog_s=self.watchdog_s,
                max_retries=self.max_retries,
                seed=self.seed,
                deadline=deadline,
                faults=faults,
                drain=self._draining,
                wake=self._wake,
                beat_root=str(self.journal.path.parent),
                beat_prefix=self.journal.path.stem + ".beats-",
            ))
        # A signal that lands on another thread runs its Python handler
        # (the drain) only once the main thread returns to the
        # interpreter.  So the main thread sleeps in select() on a pipe
        # that every shard exit writes to and that is also the signal
        # wakeup fd: either event wakes it at once.
        wake_r, self._exit_fd = os.pipe()
        os.set_blocking(self._exit_fd, False)
        try:
            previous = signal.set_wakeup_fd(self._exit_fd)
        except ValueError:
            previous = None  # not the main thread: no handler runs here
        try:
            for shard in self._shard_objs:
                shard.start()
            if previous is not None:
                # a shard's state leaves RUNNING before its exit byte
                while any(shard.alive for shard in self._shard_objs):
                    select.select([wake_r], [], [])
                    os.read(wake_r, 4096)
            for shard in self._shard_objs:
                shard.join()
        finally:
            if previous is not None:
                signal.set_wakeup_fd(previous)
            os.close(wake_r)
            os.close(self._exit_fd)

    def _make_fault_hook(self, index):
        def on_fire(kind, **detail):
            # the fired kind travels as "fault": "kind" is the trace
            # event's own discriminator field
            self.emit_event("fault", shard=index, fault=kind, **detail)
            if self.obs.enabled:
                with self._obs_lock:
                    self.obs.metrics.inc(
                        "campaign.faults.{}".format(kind)
                    )
        return on_fire

    # -- shard-facing services (all thread-safe) -------------------------------

    def feed(self, index, room):
        """Hand shard ``index`` up to ``room`` more units.

        Own backlog first; an empty backlog steals from the richest
        other backlog (each steal journaled + traced *before* the unit
        changes hands).  Returns ``[]`` -- wait for the wake signal --
        while other shards still hold outstanding units that could yet
        be requeued, and ``None`` -- exhausted, shut down -- once
        nothing anywhere could become this shard's work.
        """
        if self._draining.is_set():
            # graceful drain: nothing new changes hands; undelivered
            # units stay pending in the journals for the resume
            return None
        stolen = []
        with self._lock:
            backlog = self._backlogs[index]
            batch = []
            while backlog and len(batch) < room:
                batch.append(backlog.popleft())
            if not batch:
                victim = max(
                    (k for k in self._backlogs
                     if k != index and self._backlogs[k]),
                    key=lambda k: len(self._backlogs[k]),
                    default=None,
                )
                if victim is not None:
                    donor = self._backlogs[victim]
                    while donor and len(batch) < room:
                        unit = donor.popleft()
                        self.journal.append(
                            wal.STEAL, unit=unit["id"],
                            from_shard=victim, to_shard=index,
                        )
                        self._steals += 1
                        stolen.append((unit["id"], victim))
                        batch.append(unit)
            if batch:
                for unit in batch:
                    self._handed[index][unit["id"]] = unit
            else:
                outstanding = any(
                    (self._backlogs[k] or self._handed[k])
                    for k in self._backlogs if k != index
                )
                if not outstanding:
                    return None
                self._starved = True
                return []
        for unit_id, victim in stolen:
            # emitted outside _lock: emit_event takes _obs_lock and
            # the two locks must never nest lock-then-lock both ways
            self.emit_event("steal", unit=unit_id, from_shard=victim,
                            to_shard=index)
        if self.obs.enabled and stolen:
            with self._obs_lock:
                self.obs.metrics.inc("campaign.steals", len(stolen))
        return [(unit["id"], unit["path"]) for unit in batch]

    def unit_resolved(self, index, unit_id):
        """A handed unit reached a journaled finish/skip on ``index``."""
        with self._lock:
            self._handed[index].pop(unit_id, None)
            starved, self._starved = self._starved, False
        if starved:
            # an idle shard waiting on this unit may now be done
            self._wake.ring()

    def shard_exited(self, shard):
        """A shard thread ended; requeue its outstanding units.

        The requeued units land back in the dead shard's *own* backlog,
        which is exactly where the surviving shards steal from -- the
        quarantine is just a donor that will never reclaim its units.
        """
        with self._lock:
            outstanding = list(self._handed[shard.index].values())
            self._handed[shard.index].clear()
            self._backlogs[shard.index].extend(outstanding)
        # survivors steal the requeued units, or learn they are done
        self._wake.ring()
        try:
            os.write(self._exit_fd, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: the main thread is awake anyway
        if shard.state == DEAD:
            self.emit_event(
                "shard-quarantined", shard=shard.index,
                error=type(shard.failure).__name__,
                detail=str(shard.failure),
                requeued=len(outstanding),
            )
        else:
            self.emit_event("shard-exit", shard=shard.index,
                            state=shard.state)

    def emit_event(self, kind, **fields):
        if self.event_sink is not None:
            try:
                self.event_sink(kind, fields)
            except Exception:  # noqa: BLE001 -- a dead client's sink
                pass           # must never take the fabric down
        if self.obs.enabled:
            with self._obs_lock:
                self.obs.event(kind, **fields)

    def observe_fsync(self, index, wall_us):
        if self.obs.enabled:
            with self._obs_lock:
                self.obs.metrics.observe(
                    "campaign.shard{}.journal_fsync_wall_us".format(index),
                    wall_us, buckets=FSYNC_US_BUCKETS,
                )
                self.obs.metrics.inc("campaign.journal_appends")
