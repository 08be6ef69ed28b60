"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AddressError(ReproError):
    """A virtual or physical address is malformed (non-canonical, unaligned...)."""


class MappingError(ReproError):
    """A page-table mapping operation is invalid (overlap, missing page...)."""


class PageFault(ReproError):
    """Architectural #PF raised by an unsuppressed faulting access.

    Mirrors the x86 page-fault error code semantics that matter here:

    * ``present``  -- the fault was caused by a protection violation on a
      present page (True) or by a non-present page (False).
    * ``write``    -- the faulting access was a write.
    * ``user``     -- the access originated in user mode (CPL 3).
    """

    def __init__(self, address, present=False, write=False, user=True):
        self.address = address
        self.present = present
        self.write = write
        self.user = user
        super().__init__(
            "#PF at {:#x} (present={}, write={}, user={})".format(
                address, present, write, user
            )
        )


class ConfigError(ReproError):
    """An invalid machine / CPU / OS configuration was requested."""


class AttackError(ReproError):
    """An attack could not run in the requested environment."""


class CalibrationError(AttackError):
    """The self-calibration produced an implausible decision boundary.

    Raised by the supervisor's calibration sanity check when the measured
    store distribution is too wide or sits nowhere near the analytically
    expected assist mode -- the symptom of a disturbance (DVFS step,
    interrupt storm) landing inside the calibration window.
    """


class ProbeBudgetExceeded(AttackError):
    """An adaptive attack ran out of its probe/time budget.

    Carries how much was spent so the supervisor can fold it into the
    final verdict instead of surfacing a traceback.
    """

    def __init__(self, message, probes_spent=0, elapsed_ms=0.0):
        self.probes_spent = probes_spent
        self.elapsed_ms = elapsed_ms
        super().__init__(message)


class DisturbanceAbort(AttackError):
    """An attempt was aborted because a disturbance invalidated its data.

    The canonical case is a mid-scan KASLR re-randomization: every timing
    collected before the event refers to a layout that no longer exists,
    so the attempt is discarded and retried rather than scored.
    """


class CampaignError(ReproError):
    """A campaign cannot start, resume, or record its state."""


class JournalCorrupt(CampaignError):
    """The write-ahead journal is damaged beyond a torn tail.

    A partially-written final record is expected after a crash and is
    silently truncated on replay; a record that fails its checksum (or
    will not parse) *mid-file* means the journal was edited or the disk
    lied, and resuming from it would silently drop completed work.
    ``hint`` (when set) names the recovery verb -- ``repro campaign
    fsck`` quarantines the damaged file and salvages the intact
    records -- and is surfaced in the CLI's structured JSON error.
    """

    def __init__(self, message, line_number=None, hint=None):
        self.line_number = line_number
        self.hint = hint
        super().__init__(message)


class JournalConflict(CampaignError):
    """Two journaled finishes disagree about the same unit.

    Duplicate ``unit-finish`` records are expected (a crash between the
    append and its acknowledgement replays as two identical finishes)
    and replay keeps the first.  Two finishes with *different* result
    digests, however, mean the journal mixes two different
    configurations -- or a corrupted record slipped past its checksum --
    and picking whichever landed first would silently serve wrong
    results.
    """

    def __init__(self, message, unit=None):
        self.unit = unit
        super().__init__(message)


class JournalWriteError(CampaignError):
    """A durable journal append failed (disk full, I/O error, torn write).

    The journal repairs its tail back to the last intact record and
    refuses further appends; the owning fault domain (a campaign shard)
    is quarantined and its pending work re-assigned, rather than risking
    a half-written record being replayed as state.
    """

    def __init__(self, message, errno=None, path=None):
        self.errno = errno
        self.path = str(path) if path is not None else None
        super().__init__(message)


class ServeError(ReproError):
    """The attack-simulation service cannot accept or finish a request."""


class ProtocolError(ServeError):
    """A repro-serve/v1 message is malformed or out of sequence.

    Raised server-side on unparseable lines, unknown message types and
    missing required fields; surfaced to the client as a typed
    ``error`` message rather than a dropped connection, so a buggy
    client learns *what* it sent wrong.
    """


class QuotaExceeded(ServeError):
    """A tenant asked for more than its admission quota allows.

    Typed *rejection*, not failure: the request was never admitted, no
    state changed, and ``retry_after_s`` (when set) hints when capacity
    is likely to return.  ``tenant`` and ``quota`` name which limit was
    hit (``units-in-flight``, ``requests-in-flight``, ``deadline``).
    """

    def __init__(self, message, tenant=None, quota=None,
                 retry_after_s=None):
        self.tenant = tenant
        self.quota = quota
        self.retry_after_s = retry_after_s
        super().__init__(message)


class Overloaded(ServeError):
    """The service shed this request to protect the work it already holds.

    Raised when the bounded admission queue is full, when the overload
    governor sheds (a watermark, backend failures included, crossed its
    level), or when the server is draining.  Like
    :class:`QuotaExceeded` this is a typed rejection: nothing was
    admitted, and the client should back off for
    ``retry_after_s`` (None means "after the drain completes").
    """

    def __init__(self, message, reason=None, retry_after_s=None):
        self.reason = reason
        self.retry_after_s = retry_after_s
        super().__init__(message)


class TraceError(ReproError):
    """A trace is malformed or the tracer was misused.

    Raised by the tracer on structural misuse (closing spans out of
    order, finishing with open spans) and by the schema validator when a
    trace file does not conform to ``repro-trace/v1``.
    """
