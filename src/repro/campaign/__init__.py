"""Crash-safe campaign execution: journal, supervised pool, fabric.

Turns one-shot suite execution into a durable, resumable campaign:

* :mod:`repro.campaign.journal` -- the checksummed JSONL write-ahead
  journal (atomic fsync'd appends, torn-tail-tolerant replay);
* :mod:`repro.campaign.pool` -- the supervised worker pool (watchdog
  timeouts, heartbeat staleness, broken-pool recovery, retry budgets);
* :mod:`repro.campaign.runner` -- the campaign primitives: plan a
  scenario directory into units, map pool outcomes to journaled
  results (deadline degradation included), and fold the journals into
  the schema-versioned result store;
* :mod:`repro.campaign.shard` / :mod:`repro.campaign.coordinator` --
  the one execution loop: N shard fault domains (own journal, own
  pool, own fault injector) coordinated through work-stealing into one
  deterministic result store, resumable after any crash.  One shard is
  the plain single-pool campaign.
"""

from repro.campaign.coordinator import (  # noqa: F401
    ShardedCampaignRunner,
    campaign_status,
)
from repro.campaign.journal import (  # noqa: F401
    CampaignJournal,
    fold_records,
    fsck_journal,
    replay,
)
from repro.campaign.pool import PoolOutcome, SupervisedPool  # noqa: F401
from repro.campaign.runner import (  # noqa: F401
    CampaignReport,
    plan_units,
)
from repro.campaign.shard import (  # noqa: F401
    Shard,
    shard_journal_path,
    shard_of,
)
