"""Campaign primitives: plan, unit worker, outcome mapping, store, report.

A *campaign* is one scenario directory turned into a durable unit of
work.  Each scenario file becomes a unit (:func:`plan_units`); the
journal (:mod:`repro.campaign.journal`) records every unit transition
before it happens, and the supervised pool (:mod:`repro.campaign.pool`)
executes units with watchdogs and crash recovery.  Execution itself
lives in :class:`~repro.campaign.coordinator.ShardedCampaignRunner`;
with one shard it is the plain single-pool campaign.  The contract:

* **kill-resume determinism** -- SIGKILL the campaign process at any
  point, ``resume`` the journal, and the final result store is
  byte-identical (modulo the two wall-clock fields) to an
  uninterrupted run of the same seeds.  Completed units are never
  re-executed; interrupted units re-run from scratch, and because
  every unit is a pure function of its scenario file (seeds included),
  the re-run reproduces the exact result the uninterrupted run would
  have produced -- the journaled chaos schedule digests make that
  checkable record by record;
* **no lost work** -- the result store is rebuilt *from the journal*
  in both the clean and the resumed path (:func:`build_store`), so the
  two serialize through identical code and completed results survive
  any crash;
* **deadline-aware degradation** -- when the wall-clock deadline
  expires, queued units are marked ``SKIPPED(deadline)`` and reported,
  in-flight units may finish (bounded by the watchdog) but their
  confidence-scored observations are downgraded via the supervisor's
  degradation rule rather than dropped (:func:`outcome_result`).
"""

import hashlib
import json
import pathlib
import time

from repro.campaign.pool import OK
from repro.errors import CampaignError
from repro.scenarios import ScenarioResult, _run_scenario_guarded

#: schema tag of the atomically-written result store
RESULT_SCHEMA = "repro-campaign-result/v1"
#: schema tag stamped into the campaign-start journal record
JOURNAL_SCHEMA = "repro-campaign-journal/v1"

#: default per-unit wall-clock watchdog (seconds)
DEFAULT_WATCHDOG_S = 300.0
#: default per-unit retry budget for killed/hung workers
DEFAULT_MAX_RETRIES = 2


def _sha256_file(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:16]


def plan_units(directory):
    """One unit per ``*.json`` scenario: id, path, digest, seed, chaos.

    The config digest pins the exact scenario bytes; the machine seed
    and chaos profile are lifted out of the spec so the journal records
    what a resumed run must rebuild bit-identically.
    """
    directory = pathlib.Path(directory)
    units = []
    for path in sorted(directory.glob("*.json")):
        try:
            spec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CampaignError(
                "cannot plan campaign: {}: {}".format(path, error)
            ) from error
        machine_spec = spec.get("machine") or {}
        units.append({
            "id": path.stem,
            "path": str(path),
            "sha256": _sha256_file(path),
            "seed": machine_spec.get("seed", 0),
            "chaos": machine_spec.get("chaos"),
        })
    if not units:
        raise CampaignError(
            "no *.json scenarios in {}".format(directory)
        )
    return units


def _run_unit(path):
    """Module-level pool worker: run one scenario, return its dict."""
    return _run_scenario_guarded(path).as_dict()


def verify_unit_digests(units):
    """Refuse to resume over scenario files that changed underneath us."""
    for unit in units:
        path = pathlib.Path(unit["path"])
        if not path.exists():
            raise CampaignError(
                "scenario {} vanished since the campaign started"
                .format(path)
            )
        if _sha256_file(path) != unit["sha256"]:
            raise CampaignError(
                "scenario {} changed since the campaign started "
                "(config digest mismatch); resuming would mix "
                "results from two different configurations"
                .format(path)
            )


def outcome_result(unit_id, outcome):
    """Map a pool outcome to the result dict a unit-finish journals.

    Returns ``(result, degraded)``: the scenario-result dict (with the
    deadline degradation applied to late finishes, and a deterministic
    synthetic failure for lost units) and whether degradation happened.
    Every shard journals its finish records through this one mapping,
    so identical outcomes journal byte-identical records whichever
    shard ran the unit.
    """
    if outcome.status == OK:
        result = outcome.value
        if outcome.late:
            result = ScenarioResult.from_dict(result) \
                .degrade("deadline").as_dict()
            return result, True
        return result, False
    result = ScenarioResult(
        unit_id, False, {"error": outcome.detail},
        ["unit lost: {}".format(outcome.detail)],
    ).as_dict()
    return result, False


def build_store(config, folded, wall_elapsed_s):
    """Serialize journal-folded state into the versioned result store.

    Both the clean and the resumed path -- at any shard count -- call
    this on a fresh replay of the journals, so the stores they write
    are byte-comparable apart from the two wall-clock stamps at the
    bottom.  Only *stable* config fields enter
    the campaign block: shard count, seed and fault-profile name are
    part of the campaign's identity, but live shard state never is.
    """
    units_out = []
    counts = {"passed": 0, "failed": 0, "skipped": 0, "degraded": 0}
    for unit in config["units"]:
        entry = folded.get(unit["id"]) or {"status": "pending"}
        out = {
            "id": unit["id"],
            "seed": unit["seed"],
            "chaos": unit["chaos"],
        }
        if entry["status"] == "done":
            result = entry["result"]
            out["status"] = "PASS" if result["passed"] else "FAIL"
            out["name"] = result["name"]
            out["observations"] = result["observations"]
            out["violations"] = result["violations"]
            out["chaos_digest"] = result.get("chaos_digest")
            out["degraded"] = result.get("degraded")
            counts["passed" if result["passed"] else "failed"] += 1
            if result.get("degraded"):
                counts["degraded"] += 1
        elif entry["status"] == "skipped":
            out["status"] = "SKIPPED"
            out["reason"] = entry.get("reason")
            counts["skipped"] += 1
        else:
            out["status"] = "INCOMPLETE"
            counts["failed"] += 1
        units_out.append(out)
    campaign = {
        "directory": config["directory"],
        "watchdog_s": config["watchdog_s"],
        "max_retries": config["max_retries"],
        "units": len(config["units"]),
    }
    for key in ("seed", "shards"):
        if config.get(key) is not None:
            campaign[key] = config[key]
    profile = config.get("fault_profile")
    if profile is not None:
        campaign["fault_profile"] = profile.get("name") \
            if isinstance(profile, dict) else profile
    return {
        "schema": RESULT_SCHEMA,
        "campaign": campaign,
        "units": units_out,
        "summary": counts,
        # the only wall-clock fields; determinism checks strip them
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "wall_elapsed_s": round(wall_elapsed_s, 3),
    }


class CampaignReport:
    """What a finished (or resumed-to-finished) campaign hands back:
    the store plus the fabric's shard-level outcome."""

    __slots__ = ("store", "store_path", "interrupted", "shard_states",
                 "shard_failures", "steals")

    def __init__(self, store, store_path, interrupted=False,
                 shard_states=None, shard_failures=None, steals=0):
        self.store = store
        self.store_path = store_path
        #: True when a graceful drain stopped the campaign before every
        #: unit reached a terminal state -- the journal is sealed and
        #: ``repro campaign resume`` picks up exactly where it stopped
        self.interrupted = interrupted
        #: shard index -> terminal state ("done" / "dead")
        self.shard_states = shard_states or {}
        #: shard index -> str(typed failure), for quarantined shards
        self.shard_failures = shard_failures or {}
        #: number of units that changed hands
        self.steals = steals

    @property
    def summary(self):
        """The store's count block: passed / failed / skipped / degraded."""
        return self.store["summary"]

    @property
    def ok(self):
        """True when every unit passed (nothing failed, nothing skipped)."""
        summary = self.summary
        return summary["failed"] == 0 and summary["skipped"] == 0
