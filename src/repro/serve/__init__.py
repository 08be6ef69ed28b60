"""The multi-tenant attack-simulation service (``repro serve``).

A thin, debuggable layer over the campaign fabric: newline-delimited
JSON over a Unix/TCP socket (:mod:`repro.serve.protocol`), per-tenant
admission quotas (:mod:`repro.serve.quota`), watermark-based overload
degradation -- the one shedding ladder, backend failure streaks
included (:mod:`repro.serve.overload`), per-tenant weighted fair-share
scheduling (:mod:`repro.serve.scheduler`), the execution backend that
reuses the campaign runners verbatim (:mod:`repro.serve.backend`),
the server loop with graceful drain (:mod:`repro.serve.server`), the
blocking client (:mod:`repro.serve.client`) and the sustained-load
soak harness (:mod:`repro.serve.soak`).
"""

from repro.serve.backend import ServeBackend, Submission
from repro.serve.client import ServeClient
from repro.serve.overload import BreakerBoard, OverloadGovernor, Watermark
from repro.serve.protocol import PROTO
from repro.serve.quota import QuotaLedger, TenantQuota, load_tenant_quotas
from repro.serve.scheduler import FairShareScheduler
from repro.serve.server import ServeServer

__all__ = [
    "PROTO",
    "BreakerBoard",
    "FairShareScheduler",
    "OverloadGovernor",
    "QuotaLedger",
    "ServeBackend",
    "ServeClient",
    "ServeServer",
    "Submission",
    "TenantQuota",
    "Watermark",
    "load_tenant_quotas",
]
