"""Golden `--trace` documents: the canonical bytes of four traced runs.

Each cell runs one CLI command in-process with ``--trace`` and pins the
sha256 of :func:`repro.obs.canonical_bytes` of the written trace (the
JSONL document with its wall-clock fields stripped).  The digest covers
every span, event, counter and histogram -- the ``probe-sweep`` spans
with the sweep report they carry (engine, columnar and fallback rows,
windows, reason), the ``engine.probe_cycles.<page class>`` and
``walker.*`` metrics, the chaos events and the TLB deltas -- so a change
to which engine executes a traced sweep cannot move what the trace
reports unnoticed.
"""

import hashlib

import pytest

from repro.cli import main
from repro.obs import canonical_bytes, load_trace

#: argv -> (exit code, sha256 of the canonical trace bytes)
CELLS = {
    "kaslr --seed 3 --chaos-profile default": (
        0, "987a622ac22f6fb3d2a8eb8472dcce75"
           "19a90f471e881efddb085ce3e6177143"),
    "modules --seed 5": (
        0, "9c76830d20ce07e8a818a1f32dd5863a"
           "6b23bb13a20e1af9d39c17fa24f3d905"),
    "chaos sgx --profile hostile --seed 1": (
        0, "3e62ca5da9f882f82454dcf8a0f25957"
           "f7e140926d5a954a8bf82439cb3e3b38"),
    "chaos modules --profile hostile --seed 1": (
        1, "ccb291cf305ea47f83fdc5f36f5ed395"
           "faebcf6366fe1ddba6029fe76d67c9ba"),
}


@pytest.mark.parametrize("command", sorted(CELLS))
def test_trace_golden(command, tmp_path, capsys):
    code, digest = CELLS[command]
    path = tmp_path / "trace.jsonl"
    assert main(command.split() + ["--trace", str(path)]) == code
    capsys.readouterr()
    data = canonical_bytes(load_trace(path))
    assert hashlib.sha256(data).hexdigest() == digest
