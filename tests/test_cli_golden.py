"""Golden CLI cells: exit code and recovered value per attack verb.

Each cell runs one ``python -m repro`` command line in-process and pins
its exit code plus the value the attack recovered, read with a pattern
that does not depend on the report layout (``key : value`` lines or
indented ``key   value`` observation lines): the hex base, the guessed
application, or the identified-module count.  Where a report carries
no recovered value, the cell pins the CORRECT/WRONG verdict word.
"""

import re

import pytest

from repro.cli import main

BASE = r"\bbase\s*:?\s+(0x[0-9a-f]+|None)\b"
VALUE = r"\bvalue\s*:\s+(0x[0-9a-f]+)\b"
APP = r"(?:classified as|guess)\s*:?\s+([a-z][\w-]*)"
MODULES = r"\bidentified\s*:?\s+(\d+)\b"
VERDICT = r"\b(CORRECT|WRONG)\b"

#: (argv, exit code, pattern, first group of the pattern's first match)
CELLS = [
    ("kaslr --seed 3", 0, BASE, "0xffffffffa4e00000"),
    ("kaslr --cpu ryzen5-5600X --seed 3", 0, BASE, "0xffffffffa4e00000"),
    ("kaslr --cpu xeon-8171m --seed 0", 1, BASE, "None"),
    ("kaslr --chaos-profile default --seed 3", 0, VERDICT, "CORRECT"),
    ("modules --seed 0", 0, MODULES, "19"),
    ("modules --cpu ryzen5-5600X --seed 0", 1, MODULES, "0"),
    ("modules --chaos-profile default --seed 1", 0, MODULES, "19"),
    ("kpti --seed 4", 0, BASE, "0xffffffff8e800000"),
    ("spy --app file-transfer --seed 5 --intervals 16", 0, APP,
     "file-transfer"),
    ("windows --seed 6", 0, BASE, "0xfffff81757600000"),
    ("windows --kvas --seed 2", 0, BASE, "0xfffff81fc0a00000"),
    ("cloud ec2 --seed 1", 0, BASE, "0xffffffff80e00000"),
    ("cloud gce --seed 7", 0, BASE, "0xffffffff91c00000"),
    ("cloud azure --seed 2", 0, BASE, "0xfffff81fc0a00000"),
    ("sgx --seed 0", 0, VERDICT, "CORRECT"),
    ("chaos kaslr --seed 3", 0, VALUE, "0xffffffffa4e00000"),
]


@pytest.mark.parametrize(
    "argv, code, pattern, value", CELLS, ids=[cell[0] for cell in CELLS]
)
def test_golden_cell(argv, code, pattern, value, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    match = re.search(pattern, out)
    assert match is not None, out
    assert match.group(1) == value
