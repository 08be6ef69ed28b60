"""The ``repro-serve/v1`` wire protocol: newline-delimited JSON.

One message per line, UTF-8, ``\\n``-terminated; both directions.  The
protocol is deliberately dumb -- no framing beyond the newline, no
compression, no multiplexing windows -- because every robustness
property the service needs lives *above* it (admission control,
quotas, write timeouts) and a protocol a shell script can speak is a
protocol an operator can debug at 3am with ``nc -U``.

Client -> server message types:

* ``hello``   -- open a session: ``{"type": "hello", "tenant": "a"}``;
* ``submit``  -- request work: an inline ``scenario`` spec *or* a
  ``plan`` block naming a scenario directory to run as a sharded
  campaign, plus an optional ``deadline_s`` time budget and an
  optional integer ``priority`` (default 1; under a *degraded*
  server, work below the priority floor is shed first, and within
  one feed batch higher priorities launch first);
* ``health``  -- liveness/readiness probe (allowed before ``hello``);
* ``status``  -- deep introspection: scheduler fairness evidence,
  overload watermark readings, shard failure streaks (allowed
  before ``hello``);
* ``drain``   -- ask the server to drain gracefully (supervision);
* ``bye``     -- close the session.

Server -> client: ``welcome``, ``accepted`` / ``rejected`` (typed,
with the admission verdict), ``event`` (unit progress), ``verdict``
(terminal, one per accepted submit), ``health``, ``status``,
``draining`` / ``drained``, and ``error`` for protocol misuse.

:func:`parse_line` and :func:`validate_client` raise
:class:`~repro.errors.ProtocolError` -- the server maps that onto an
``error`` message rather than dropping the connection, so a buggy
client learns what it sent wrong.
"""

import json
import re

from repro.errors import ProtocolError

#: protocol identifier, carried in hello/welcome
PROTO = "repro-serve/v1"

#: hard cap on one serialized message line (a poisoned tenant must not
#: be able to balloon server memory with one unbounded line)
MAX_LINE_BYTES = 4 * 1024 * 1024

#: request ids become file names under the service state directory
_REQUEST_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
#: tenant names namespace request ids and quota ledgers
_TENANT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,31}$")

#: message types a client may send
CLIENT_TYPES = ("hello", "submit", "health", "status", "drain", "bye")

#: accepted submit priority range (small on purpose: priority is a
#: shedding class, not a fine-grained ranking)
PRIORITY_MIN = -10
PRIORITY_MAX = 10


def encode(message):
    """Serialize one message to its wire line (bytes, ``\\n`` included)."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            "message of {} bytes exceeds the {} byte line cap".format(
                len(data), MAX_LINE_BYTES
            )
        )
    return data


def parse_line(line):
    """Decode one wire line into a message dict (typed errors)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "line of {} bytes exceeds the {} byte cap".format(
                len(line), MAX_LINE_BYTES
            )
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(
            "unparseable message ({})".format(type(error).__name__)
        ) from error
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("a message must be an object with a 'type'")
    return message


def validate_client(message):
    """Validate a client message's shape; returns the message.

    Shape only -- admission (quota, queue room, overload state) is the
    server's call.  Raises :class:`ProtocolError` on anything a
    conforming client would never send.
    """
    kind = message.get("type")
    if kind not in CLIENT_TYPES:
        raise ProtocolError("unknown message type {!r}".format(kind))
    if kind == "hello":
        tenant = message.get("tenant")
        if not isinstance(tenant, str) or not _TENANT.match(tenant):
            raise ProtocolError(
                "hello needs a tenant matching {}".format(_TENANT.pattern)
            )
        proto = message.get("proto", PROTO)
        if proto != PROTO:
            raise ProtocolError(
                "unsupported protocol {!r} (this server speaks {})".format(
                    proto, PROTO
                )
            )
    elif kind == "submit":
        request_id = message.get("id")
        if not isinstance(request_id, str) \
                or not _REQUEST_ID.match(request_id):
            raise ProtocolError(
                "submit needs an id matching {}".format(_REQUEST_ID.pattern)
            )
        scenario = message.get("scenario")
        plan = message.get("plan")
        if (scenario is None) == (plan is None):
            raise ProtocolError(
                "submit needs exactly one of 'scenario' or 'plan'"
            )
        if scenario is not None and not isinstance(scenario, dict):
            raise ProtocolError("'scenario' must be an inline spec object")
        if plan is not None:
            if not isinstance(plan, dict) \
                    or not isinstance(plan.get("directory"), str):
                raise ProtocolError(
                    "'plan' must be an object naming a 'directory'"
                )
        deadline_s = message.get("deadline_s")
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) \
                    or isinstance(deadline_s, bool) or deadline_s <= 0:
                raise ProtocolError("'deadline_s' must be a positive number")
        priority = message.get("priority")
        if priority is not None:
            if not isinstance(priority, int) or isinstance(priority, bool) \
                    or not PRIORITY_MIN <= priority <= PRIORITY_MAX:
                raise ProtocolError(
                    "'priority' must be an integer in [{}, {}]".format(
                        PRIORITY_MIN, PRIORITY_MAX
                    )
                )
    return message


# -- server-side message builders ----------------------------------------------


def welcome(server_meta):
    reply = {"type": "welcome", "proto": PROTO}
    reply.update(server_meta)
    return reply


def accepted(request_id, queue_depth, degrade=None):
    message = {"type": "accepted", "id": request_id,
               "queue_depth": queue_depth}
    if degrade:
        message["degrade"] = degrade
    return message


def rejected(request_id, error):
    """Map a typed admission error onto the wire (rejection, not crash)."""
    message = {
        "type": "rejected",
        "id": request_id,
        "error": type(error).__name__,
        "message": str(error),
    }
    for field in ("tenant", "quota", "reason", "retry_after_s"):
        value = getattr(error, field, None)
        if value is not None:
            message[field] = value
    return message


def event(request_id, kind, **fields):
    message = {"type": "event", "id": request_id, "kind": kind}
    message.update(fields)
    return message


def verdict(request_id, status, **fields):
    message = {"type": "verdict", "id": request_id, "status": status}
    message.update(fields)
    return message


def error(message_text):
    return {"type": "error", "error": "ProtocolError",
            "message": message_text}
