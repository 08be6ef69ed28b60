"""Golden `repro chaos <attack> --json` lines: exit code and stdout sha256.

One cell per supervised attack, all at seed 0 under the ``default``
chaos profile.  The digest covers the whole verdict document -- status,
value, confidence, attempts, the disturbance log, probes spent and the
simulated elapsed time -- so a change to how the CLI reaches the
supervisor cannot move any field unnoticed.  ``tests/test_cli_golden.py``
pins the recovered value of the other attack verbs.
"""

import hashlib

import pytest

from repro.cli import main

#: attack -> (exit code, sha256 of the ``--json`` stdout)
CELLS = {
    "kaslr": (0, "79228e9d77ed11671ba789413195a1ac"
                 "3c6f20e66c95f32bf3f5f026e1af86d2"),
    "kpti": (0, "58030b653f981af8150a263050b197ad"
                "3aed63c68110cd933d8308308a6e9c01"),
    "modules": (0, "50694e2c1740bb90ad136e2b08074465"
                   "c60994bd825ee788baa13233135c0645"),
    "windows": (0, "71977cb9fd3a4b89655eeff5ebcd34ee"
                   "86ec5a561f01466e51b10a7ecf812ac1"),
    "userspace": (0, "b9e4bd7b6d4426f7a673395c299d0ba7"
                     "14fcebfbb94dd2c420db3e940a937603"),
    "cloud": (0, "c3382623282c4bdfd3c29f4093388fc2"
                 "21c4070807ab0d638007bee9a0883757"),
    "sgx": (0, "a47e8a5c3e8a6e773cae251eb4e19c6f"
               "2299ba75929ebcfd7137813885ba14fe"),
    "fingerprint": (0, "18d5075b5e171e3dfdaa3e6e55ebbe83"
                       "98410db1e41ac1d7a1f753e131a55d25"),
}


@pytest.mark.parametrize("attack", sorted(CELLS))
def test_chaos_json_golden(attack, capsys):
    code, digest = CELLS[attack]
    argv = ["chaos", attack, "--profile", "default", "--seed", "0",
            "--json"]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
