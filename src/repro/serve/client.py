"""A blocking client for the ``repro-serve/v1`` protocol.

:class:`ServeClient` is what ``repro submit`` / ``repro drain`` and
the tests speak through: connect, ``hello``, then one call per
request.  It is deliberately synchronous -- one outstanding submit per
connection -- because the concurrency story lives server-side;
a load generator simply opens one connection per in-flight request
(the smoke test and the benchmark both do).

Unsolicited messages (``draining`` broadcasts, events for other ids)
are surfaced through the optional ``on_event`` callback and otherwise
skipped, so a drain mid-stream never desynchronizes the client.
Overload refusals (``shedding`` / ``degraded``, backend failures
included) are waited out with jittered backoff; every other
rejection surfaces at once.
"""

import json
import socket
import time

from repro.campaign.pool import seeded_jitter
from repro.errors import ProtocolError, ServeError
from repro.serve import protocol

#: refusal reasons worth waiting out: overload shedding (backend
#: failures included) is transient by design and carries a
#: ``retry_after_s`` hint.  ``queue-full``, ``draining`` and quota rejections are NOT
#: here -- they reflect the caller's own standing (or the server's
#: end of life) and must surface immediately.
RETRYABLE_REASONS = ("shedding", "degraded")

#: default ceiling on one backoff sleep
DEFAULT_MAX_BACKOFF_S = 30.0


class ServeClient:
    """One connection to a serve socket (Unix path or ``(host, port)``).

    ``retries`` bounds how many shed refusals one
    :meth:`submit` waits out before surfacing the rejection; each wait
    honors the server's ``retry_after_s`` hint, stretched by the
    campaign's seeded jitter (reproducible per ``(seed, request_id,
    attempt)``, so a fleet of clients retrying the same cooldown does
    not thunder back in lockstep) and capped at ``max_backoff_s``.
    ``retries=0`` restores the surface-immediately behavior.
    """

    def __init__(self, address, timeout_s=60.0, retries=3,
                 max_backoff_s=DEFAULT_MAX_BACKOFF_S, seed=0):
        self.address = address
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.max_backoff_s = max_backoff_s
        self.seed = seed
        self.sock = None
        self._buffer = b""
        self.welcome = None

    # -- session ---------------------------------------------------------------

    def connect(self, tenant=None):
        """Open the socket; with ``tenant``, complete the hello handshake."""
        if isinstance(self.address, (list, tuple)):
            sock = socket.create_connection(
                tuple(self.address), timeout=self.timeout_s
            )
        else:
            sock = socket.socket(socket.AF_UNIX)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(str(self.address))
            except OSError as error:
                sock.close()
                raise ServeError(
                    "cannot connect to {}: {}".format(self.address, error)
                ) from error
        self.sock = sock
        if tenant is not None:
            self.send({"type": "hello", "tenant": tenant,
                       "proto": protocol.PROTO})
            reply = self.recv()
            if reply.get("type") == "error":
                raise ProtocolError(reply.get("message", "hello rejected"))
            if reply.get("type") != "welcome":
                raise ProtocolError(
                    "expected welcome, got {!r}".format(reply.get("type"))
                )
            self.welcome = reply
        return self

    def close(self):
        if self.sock is not None:
            try:
                self.sock.sendall(protocol.encode({"type": "bye"}))
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- wire ------------------------------------------------------------------

    def send(self, message):
        self.sock.sendall(protocol.encode(message))

    def recv(self):
        """Read one message (blocking up to the socket timeout)."""
        while b"\n" not in self._buffer:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout as error:
                raise ServeError(
                    "timed out waiting for the server"
                ) from error
            if not chunk:
                raise ServeError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(
                "unparseable server message"
            ) from error

    # -- requests --------------------------------------------------------------

    def submit(self, request_id, scenario=None, plan=None, deadline_s=None,
               priority=None, on_event=None, wait=True):
        """Submit one request; returns the terminal server message.

        The return value is the ``verdict`` for accepted requests, the
        ``rejected`` message for shed ones, and (with ``wait=False``)
        the bare admission verdict -- ``accepted`` / ``rejected`` --
        without waiting for completion.  ``on_event`` sees every
        streamed ``event`` for this id.

        Rejections whose ``reason`` is in :data:`RETRYABLE_REASONS`
        (overload shedding and degradation) are waited out and
        resubmitted up to ``self.retries`` times before being
        returned; every other rejection surfaces immediately.
        """
        message = {"type": "submit", "id": request_id}
        if scenario is not None:
            message["scenario"] = scenario
        if plan is not None:
            message["plan"] = plan
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        if priority is not None:
            message["priority"] = priority
        attempt = 0
        while True:
            reply = self._submit_once(message, request_id, on_event, wait)
            if reply.get("type") != "rejected" \
                    or reply.get("reason") not in RETRYABLE_REASONS \
                    or attempt >= self.retries:
                return reply
            attempt += 1
            hint = reply.get("retry_after_s")
            if not isinstance(hint, (int, float)) or hint <= 0:
                hint = 1.0
            time.sleep(min(
                self.max_backoff_s,
                hint * seeded_jitter(self.seed, request_id, attempt),
            ))

    def _submit_once(self, message, request_id, on_event, wait):
        self.send(message)
        accepted = None
        while True:
            reply = self.recv()
            kind = reply.get("type")
            if kind == "error":
                raise ProtocolError(reply.get("message", "protocol error"))
            if reply.get("id") != request_id:
                continue  # someone else's stream noise
            if kind == "rejected":
                return reply
            if kind == "accepted":
                accepted = reply
                if not wait:
                    return reply
                continue
            if kind == "event":
                if on_event is not None:
                    on_event(reply)
                continue
            if kind == "verdict":
                if accepted is not None:
                    reply.setdefault("degrade", accepted.get("degrade"))
                return reply

    def health(self):
        """Liveness probe (allowed before hello)."""
        self.send({"type": "health"})
        while True:
            reply = self.recv()
            if reply.get("type") == "health":
                return reply

    def status(self):
        """Deep introspection document (allowed before hello)."""
        self.send({"type": "status"})
        while True:
            reply = self.recv()
            if reply.get("type") == "status":
                return reply

    def drain(self, wait=True):
        """Ask the server to drain; with ``wait``, block until it has."""
        self.send({"type": "drain"})
        acked = False
        while True:
            try:
                reply = self.recv()
            except ServeError:
                # the drained server closes connections; that IS the end
                if acked or not wait:
                    return {"type": "drained"}
                raise
            kind = reply.get("type")
            if kind == "draining":
                acked = True
                if not wait:
                    return reply
            elif kind == "drained":
                return reply
