"""The long-running attack-simulation service.

:class:`ServeServer` listens on a Unix (or TCP) socket, speaks
:mod:`repro.serve.protocol`, and turns admitted submissions into work
on a :class:`~repro.serve.backend.ServeBackend`.  One thread accepts,
one thread per connection reads; everything else is event-driven
callbacks out of the backend.  The robustness rules, in admission
order:

1. a **draining** server admits nothing (typed ``Overloaded``,
   ``reason="draining"``);
2. the **overload governor** (:mod:`repro.serve.overload`) reads its
   watermarks -- queue, executor backlog, disk, and the backend
   failure streak: ``shedding`` refuses everything
   (``reason="shedding"``), ``degraded`` refuses sub-floor-priority
   work (``reason="degraded"``) and stamps what it still admits with
   an ``overload`` degrade mark, carried on the accepted/verdict
   messages (never into the persisted result store).  A shard whose
   failure streak tripped never sheds -- it marks the admission
   *degraded*, because the fabric's survivors still absorb a
   quarantined shard's units;
3. the **global queue bound** rejects what would overcommit the
   service (``reason="queue-full"``);
4. the **tenant quota** rejects what would overcommit the tenant
   (typed ``QuotaExceeded`` with the exhausted dimension).

Admitted work is ordered by the backend's per-tenant fair-share
scheduler, whose weights come from the tenant quota config; the
``status`` verb exposes the scheduler's fairness evidence and the
governor's watermark readings.

Every admitted request is released exactly once -- verdict sent,
stream dead, or drain -- so quotas cannot leak.  Slow clients hit the
per-send write timeout: the stream is dropped (socket closed, events
discarded) but the computation keeps its course and its result is
already persisted under the state directory.

SIGTERM/SIGINT (via :meth:`serve_forever`) triggers the graceful
drain: stop admitting, let the backend finish or journal everything
in flight, notify connected clients, seal up, exit cleanly.
"""

import os
import pathlib
import signal
import socket
import threading
import time

from repro.errors import Overloaded, ProtocolError, ReproError, ServeError
from repro.obs.metrics import (
    QUEUE_DEPTH_BUCKETS,
    QUEUE_WAIT_WALL_MS_BUCKETS,
    REQUEST_WALL_MS_BUCKETS,
)
from repro.obs.trace import NULL_TRACER
from repro.serve import overload, protocol
from repro.serve.backend import ServeBackend, Submission
from repro.serve.quota import QuotaLedger

#: how often serve_forever re-evaluates watermarks and prunes, seconds
HOUSEKEEP_S = 60.0


class _Connection:
    """One client session: a reader thread plus a locked writer."""

    def __init__(self, server, sock, peer):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.tenant = None
        self.alive = True
        self._send_lock = threading.Lock()
        self._thread = None

    def start(self):
        self._thread = threading.Thread(
            target=self._read_loop,
            name="repro-serve-conn-{}".format(self.peer), daemon=True,
        )
        self._thread.start()

    # -- writing ---------------------------------------------------------------

    def send(self, message):
        """Write one message; a slow or dead client drops the stream.

        Returns False once the stream is gone.  The write timeout is
        the whole slow-client policy: a client that cannot drain its
        socket within ``write_timeout_s`` loses its event stream (and
        its connection), never the server a buffer.
        """
        if not self.alive:
            return False
        try:
            data = protocol.encode(message)
        except ProtocolError:
            return False
        with self._send_lock:
            if not self.alive:
                return False
            try:
                self.sock.settimeout(self.server.write_timeout_s)
                self.sock.sendall(data)
                return True
            except (socket.timeout, OSError):
                self.server.count("serve.streams_dropped")
                self.close()
                return False

    def close(self):
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._forget(self)

    # -- reading ---------------------------------------------------------------

    def _read_loop(self):
        buffer = b""
        self.sock.settimeout(0.5)
        try:
            while self.alive:
                try:
                    chunk = self.sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                buffer += chunk
                if len(buffer) > protocol.MAX_LINE_BYTES:
                    self.send(protocol.error(
                        "line exceeds the {} byte cap"
                        .format(protocol.MAX_LINE_BYTES)
                    ))
                    break
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if not line.strip():
                        continue
                    if not self._dispatch(line):
                        return
        finally:
            self.close()

    def _dispatch(self, line):
        """Handle one wire line; False ends the session."""
        try:
            message = protocol.validate_client(protocol.parse_line(line))
        except ProtocolError as error:
            self.send(protocol.error(str(error)))
            return True
        kind = message["type"]
        if kind == "bye":
            return False
        if kind == "health":
            self.send(self.server.health())
            return True
        if kind == "status":
            self.send(self.server.status())
            return True
        if kind == "drain":
            self.send({"type": "draining"})
            self.server.drain_async()
            return True
        if kind == "hello":
            self.tenant = message["tenant"]
            self.send(protocol.welcome(self.server.server_meta(self.tenant)))
            return True
        # submit
        if self.tenant is None:
            self.send(protocol.error("submit before hello"))
            return True
        self.server.handle_submit(self, message)
        return True


class ServeServer:
    """The service: listener + admission control over a ServeBackend.

    ``socket_path`` selects a Unix socket; ``host``/``port`` a TCP one
    (``port=0`` binds an ephemeral port -- see :attr:`address`).
    ``max_queue`` bounds globally admitted units across all tenants;
    ``write_timeout_s`` is the slow-client stream policy; ``ready_file``
    (optional) is touched when the server is ready and removed when it
    drains, for supervisors that watch the filesystem.
    """

    def __init__(self, backend=None, ledger=None, socket_path=None,
                 host="127.0.0.1", port=0, max_queue=256,
                 write_timeout_s=5.0, ready_file=None, obs=None,
                 state_dir=None, governor=None):
        if backend is None:
            if state_dir is None:
                raise ServeError("a server needs a backend or a state_dir")
            backend = ServeBackend(state_dir)
        self.backend = backend
        self.ledger = ledger if ledger is not None else QuotaLedger()
        self.breakers = backend.breakers
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_queue = max(1, max_queue)
        self.write_timeout_s = write_timeout_s
        self.ready_file = None if ready_file is None \
            else pathlib.Path(ready_file)
        self.obs = obs if obs is not None else NULL_TRACER
        self._obs_lock = threading.Lock()
        self._listener = None
        self._accept_thread = None
        self._connections = set()
        self._conn_lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._units_admitted = 0
        self._started = threading.Event()
        self._drain_lock = threading.Lock()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._stop = threading.Event()
        self.governor = governor if governor is not None \
            else overload.default_governor(self)
        # the scheduler's fairness knobs come from the quota config:
        # a tenant's weight rides its TenantQuota
        if self.backend.scheduler.weight_of is None:
            self.backend.scheduler.weight_of = \
                lambda tenant: self.ledger.quota_for(tenant).weight
        if self.backend.scheduler.on_wait is None:
            self.backend.scheduler.on_wait = self._note_queue_wait

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self):
        """Where clients connect: the socket path, or ``(host, port)``."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return self._listener.getsockname() if self._listener else None

    def start(self):
        """Bind, listen, start the backend; returns the bound address."""
        if self.socket_path is not None:
            path = pathlib.Path(self.socket_path)
            if path.exists():
                # a stale socket from a crashed incarnation; refuse to
                # steal one something is still listening on
                probe = socket.socket(socket.AF_UNIX)
                try:
                    probe.settimeout(0.5)
                    probe.connect(str(path))
                except OSError:
                    path.unlink()
                else:
                    probe.close()
                    raise ServeError(
                        "socket {} already has a live server".format(path)
                    )
                finally:
                    probe.close()
            listener = socket.socket(socket.AF_UNIX)
            listener.bind(str(path))
        else:
            listener = socket.socket(socket.AF_INET)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.5)
        self._listener = listener
        self.backend.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True,
        )
        self._accept_thread.start()
        self._started.set()
        if self.ready_file is not None:
            self.ready_file.write_text("ready\n")
        return self.address

    def serve_forever(self, install_signals=True):
        """Run until stopped; SIGTERM/SIGINT drain gracefully.  Returns 0."""
        if install_signals:
            def _on_signal(signum, frame):
                self._stop.set()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    signal.signal(signum, _on_signal)
                except ValueError:
                    pass  # not the main thread; supervisor calls drain()
        last_housekeep = time.monotonic()
        while not self._stop.wait(0.2):
            if self._drained.is_set():
                return 0
            # tick the watermarks even without traffic, so hysteresis
            # relaxes an idle-but-degraded server back to healthy
            self.governor.evaluate()
            if time.monotonic() - last_housekeep >= HOUSEKEEP_S:
                self.backend.housekeep()
                last_housekeep = time.monotonic()
        self.drain()
        return 0

    def drain_async(self):
        """Kick a drain without blocking the caller (client ``drain``)."""
        self._stop.set()
        threading.Thread(target=self.drain, name="repro-serve-drain",
                         daemon=True).start()

    def drain(self, timeout=None):
        """Graceful shutdown: stop admitting, finish in-flight, seal, close."""
        with self._drain_lock:
            first = not self._draining.is_set()
            self._draining.set()
        if not first:
            self._drained.wait(timeout)
            return
        self._stop.set()
        if self.ready_file is not None:
            try:
                self.ready_file.unlink()
            except OSError:
                pass
        self._broadcast({"type": "draining"})
        self.backend.drain(timeout=timeout)
        self._broadcast({"type": "drained"})
        self._close_listener()
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        self._drained.set()

    def close(self):
        """Hard stop for tests: no graceful anything."""
        self._draining.set()
        self._drained.set()
        self._stop.set()
        self._close_listener()
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def _close_listener(self):
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                pathlib.Path(self.socket_path).unlink()
            except OSError:
                pass

    # -- connections -----------------------------------------------------------

    def _accept_loop(self):
        peer = 0
        while not self._drained.is_set():
            try:
                sock, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            peer += 1
            connection = _Connection(self, sock, peer)
            with self._conn_lock:
                self._connections.add(connection)
            connection.start()

    def _forget(self, connection):
        with self._conn_lock:
            self._connections.discard(connection)

    def _broadcast(self, message):
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.send(message)

    # -- admission -------------------------------------------------------------

    def admit(self, tenant, units, deadline_s=None, priority=1):
        """Run the full admission ladder; returns the effective deadline.

        Raises :class:`Overloaded` (draining / shedding / degraded /
        queue-full) or :class:`QuotaExceeded` -- always typed, always
        before any state changes the caller would have to undo.  The
        overload governor sits between the drain check and the queue
        bound: **shedding** refuses everything, **degraded**
        refuses only work whose ``priority`` is below the floor
        (:data:`repro.serve.overload.DEGRADED_PRIORITY_FLOOR`).
        """
        if self._draining.is_set():
            raise Overloaded("server is draining", reason="draining")
        state = self.governor.evaluate()
        if state == overload.SHEDDING:
            self.governor.note_shed(state)
            self.count("serve.shed")
            raise Overloaded(
                "service is shedding load (overload watermark crossed)",
                reason="shedding",
                retry_after_s=self.governor.retry_after_s(state),
            )
        if state == overload.DEGRADED \
                and priority < overload.DEGRADED_PRIORITY_FLOOR:
            self.governor.note_shed(state)
            self.count("serve.shed")
            raise Overloaded(
                "service is degraded; priority {} work is shed until "
                "pressure recedes".format(priority),
                reason="degraded",
                retry_after_s=self.governor.retry_after_s(state),
            )
        with self._admit_lock:
            if self._units_admitted + units > self.max_queue:
                raise Overloaded(
                    "admitting {} units would exceed the global bound "
                    "of {} ({} admitted)".format(
                        units, self.max_queue, self._units_admitted),
                    reason="queue-full", retry_after_s=1.0,
                )
            deadline_s = self.ledger.admit(tenant, units, deadline_s)
            self._units_admitted += units
            depth = self._units_admitted
        if self.obs.enabled:
            with self._obs_lock:
                self.obs.metrics.observe("serve.queue_depth", depth,
                                         buckets=QUEUE_DEPTH_BUCKETS)
        return deadline_s

    def release(self, tenant, units):
        with self._admit_lock:
            self._units_admitted = max(0, self._units_admitted - units)
        self.ledger.release(tenant, units)

    def units_admitted(self):
        """Currently admitted units (the queue watermark's probe)."""
        with self._admit_lock:
            return self._units_admitted

    def count(self, name, amount=1):
        if self.obs.enabled:
            with self._obs_lock:
                self.obs.metrics.inc(name, amount)

    def _note_queue_wait(self, tenant, wait_s):
        """Scheduler dispatch hook: record per-dispatch queue wait."""
        if self.obs.enabled:
            with self._obs_lock:
                self.obs.metrics.observe(
                    "serve.queue_wait_wall_ms", wait_s * 1000.0,
                    buckets=QUEUE_WAIT_WALL_MS_BUCKETS,
                )

    # -- request handling ------------------------------------------------------

    def handle_submit(self, connection, message):
        tenant = connection.tenant
        request_id = message["id"]
        scenario = message.get("scenario")
        plan = message.get("plan")
        priority = message.get("priority", 1)
        try:
            units = 1 if scenario is not None else self._plan_units(plan)
            deadline_s = self.admit(tenant, units,
                                    message.get("deadline_s"),
                                    priority=priority)
        except ReproError as error:
            self.count("serve.rejected")
            connection.send(protocol.rejected(request_id, error))
            return
        admitted_at = time.monotonic()
        sub = Submission(
            "{}.{}".format(tenant, request_id), tenant, request_id,
            "scenario" if scenario is not None else "plan", units,
            deadline_s=deadline_s, priority=priority,
            on_event=lambda kind, fields, c=connection, r=request_id:
                c.send(protocol.event(r, kind, **fields)),
            on_done=lambda s, c=connection, t0=admitted_at:
                self._finish_submission(c, s, t0),
        )
        # work admitted while the governor is degraded carries an
        # "overload" degrade mark from admission to verdict -- on the
        # wire only, never in the persisted result store (serve and
        # offline stores must stay byte-comparable)
        if self.governor.state != overload.HEALTHY:
            sub.degrade_marks.append("overload")
        try:
            if scenario is not None:
                self.backend.submit_scenario(sub, scenario)
            else:
                self.backend.submit_plan(sub, plan)
        except ReproError as error:
            self.release(tenant, units)
            self.count("serve.rejected")
            connection.send(protocol.rejected(request_id, error))
            return
        self.count("serve.admitted")
        degrade = ["shard-{}".format(i)
                   for i in self.breakers.degraded_shards()]
        degrade.extend(sub.degrade_marks)
        connection.send(protocol.accepted(
            request_id, self.backend.queue_depth(),
            degrade=degrade or None,
        ))

    def _plan_units(self, plan):
        from repro.campaign.runner import plan_units
        return len(plan_units(plan["directory"]))

    def _finish_submission(self, connection, sub, admitted_at):
        """Terminal hook: quota back first, then the verdict (best effort).

        Releasing before sending keeps the ledger consistent with what
        the client observes: by the time the verdict line arrives, the
        request no longer holds quota.
        """
        self.release(sub.tenant, sub.units)
        self.count("serve.finished")
        if self.obs.enabled:
            with self._obs_lock:
                self.obs.metrics.observe(
                    "serve.request_wall_ms",
                    (time.monotonic() - admitted_at) * 1000.0,
                    buckets=REQUEST_WALL_MS_BUCKETS,
                )
        fields = dict(sub.verdict)
        if sub.degrade_marks:
            marks = list(fields.get("degrade") or [])
            fields["degrade"] = sorted(set(marks + sub.degrade_marks))
        connection.send(protocol.verdict(sub.request_id, **fields))

    # -- introspection ---------------------------------------------------------

    def server_meta(self, tenant):
        return {
            "shards": self.backend.shards,
            "jobs": self.backend.jobs,
            "quota": self.ledger.quota_for(tenant).as_dict(),
            "max_queue": self.max_queue,
        }

    def health(self):
        """The health/readiness document (also the ``health`` reply)."""
        with self._admit_lock:
            admitted = self._units_admitted
        return {
            "type": "health",
            "proto": protocol.PROTO,
            "status": "draining" if self._draining.is_set()
            else ("ok" if self.governor.state == overload.HEALTHY
                  else self.governor.state),
            "ready": self._started.is_set()
            and not self._draining.is_set(),
            "shards": self.backend.shards,
            "queue": {
                "units_admitted": admitted,
                "max": self.max_queue,
                "executor": self.backend.queue_depth(),
            },
            "overload": self.governor.snapshot(),
            "breakers": self.breakers.as_dict(),
            "tenants": self.ledger.snapshot(),
        }

    def status(self):
        """The deep introspection document (the ``status`` reply).

        Everything an operator needs to answer "who is the service
        actually serving, and under what pressure": the scheduler's
        per-tenant fairness evidence, the overload governor's
        watermark readings, and the shard failure streaks.
        """
        with self._admit_lock:
            admitted = self._units_admitted
        return {
            "type": "status",
            "proto": protocol.PROTO,
            "draining": self._draining.is_set(),
            "overload": self.governor.snapshot(),
            "scheduler": self.backend.scheduler.snapshot(),
            "queue": {
                "units_admitted": admitted,
                "max": self.max_queue,
                "executor": self.backend.queue_depth(),
                "inflight": self.backend.inflight(),
            },
            "breakers": self.breakers.as_dict(),
            "tenants": self.ledger.snapshot(),
        }
