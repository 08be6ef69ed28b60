"""Golden digests of the Linux slot-scan attacks, plain and supervised.

Each cell runs one attack on a freshly booted machine and hashes
everything observable about it: the verdict record, the final simulated
clock, the chaos schedule digest and the raw result's decoded fields
plus its timings.  The digests were recorded before the drivers were
split into candidates -> scan -> decode, so any drift in what the
plain drivers or the supervisor compute shows up here.
"""

import hashlib
import json

import pytest

from repro.attacks.kaslr_break import break_kaslr_amd, break_kaslr_intel
from repro.attacks.kpti_break import break_kaslr_kpti
from repro.attacks.module_detect import detect_modules
from repro.attacks.supervisor import supervise
from repro.machine import Machine

#: result attributes hashed when present (KASLR and module results)
_RESULT_FIELDS = ("base", "slot", "mapped_slots", "method", "threshold",
                  "probing_ms", "total_ms", "identified")


def _result_record(result):
    record = {}
    for name in _RESULT_FIELDS:
        if hasattr(result, name):
            value = getattr(result, name)
            if isinstance(value, float):
                value = repr(value)
            record[name] = value
    timings = getattr(result, "timings", None)
    if timings is not None:
        record["timings"] = hashlib.sha256(
            ",".join(repr(float(t)) for t in timings).encode()
        ).hexdigest()
    regions = getattr(result, "regions", None)
    if regions is not None:
        record["regions"] = [
            (r.start, r.pages, list(r.candidates)) for r in regions
        ]
    return record


def _digest(machine, result, verdict=None):
    chaos = machine.chaos
    document = {
        "verdict": verdict.as_dict() if verdict is not None else None,
        "cycles": machine.clock.cycles,
        "schedule": chaos.schedule_digest() if chaos is not None else None,
        "result": _result_record(result),
    }
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _supervised(attack, profile, seed, cpu="i5-12400F"):
    if attack == "windows":
        machine = Machine.windows(cpu=cpu, seed=seed, chaos=profile)
    else:
        machine = Machine.linux(cpu=cpu, seed=seed, chaos=profile,
                                kpti=(attack == "kpti"))
    verdict = supervise(machine, attack)
    return _digest(machine, verdict.result, verdict)


_PLAIN_DRIVERS = {
    "intel": (break_kaslr_intel, False),
    "kpti": (break_kaslr_kpti, True),
    "amd": (break_kaslr_amd, False),
    "modules": (detect_modules, False),
}


def _plain(driver, cpu, seed):
    attack, kpti = _PLAIN_DRIVERS[driver]
    machine = Machine.linux(cpu=cpu, seed=seed, kpti=kpti)
    return _digest(machine, attack(machine))


SUPERVISED_GOLDEN = {
    "kaslr/quiet/0/i5-12400F":
        "8ac44dd5673987bd7f964c70ccb742586e7a57dce4fcc3d6631c3d1769ad1ee2",
    "kaslr/quiet/11/i5-12400F":
        "ceddddd1a1ff7cb840d3edbf4e0399be650d6a77dc8b1a8bb5340278c2210a43",
    "kaslr/default/0/i5-12400F":
        "f3176e45532011d9897cc6cd41e5559cd60a12054c71e29e99708fe50ea81403",
    "kaslr/default/11/i5-12400F":
        "bcb7777a17ed9434bc0022aca74204db9d30f7574f8aedab78969b89e5652052",
    "kaslr/hostile/0/i5-12400F":
        "dafa1bd65866b82a19018833146a072f44a0e48a080f7f66bf6834c810f91b63",
    "kaslr/hostile/11/i5-12400F":
        "5d7ed7e1ad6b00d4fbd10a211effccccbaa52f6507bb51dd21ce581335271e00",
    "kaslr/rerandomizing/0/i5-12400F":
        "2c884857a587f3f303819c50415eb0f66a966d4f2763c011a1f52d1c29f4cf17",
    "kaslr/rerandomizing/11/i5-12400F":
        "f4d08eee1fb357a157dfe00bd28ef46c630431343d886b3d79453d82fcf260ce",
    "kpti/quiet/0/i5-12400F":
        "647c9189c259f52b4c04290b2c0a2c4a55238bf665b3fda6da8313bcd8d80e3f",
    "kpti/quiet/11/i5-12400F":
        "2f6f3a2a7d272132bc83596e1a4d7038d8db7457cc6424ec8b982fb15b65f3c2",
    "kpti/default/0/i5-12400F":
        "adc36796052f5a431388582a99b4855cc5a658445a140c90dc8f0c369369a7c0",
    "kpti/default/11/i5-12400F":
        "0f01ce5e3018424011270f5ee0884f8d0b923370162ec8c52287662ec4798287",
    "kpti/hostile/0/i5-12400F":
        "92703280d1319c8b8eea5b5ff448be51d0d046beb292862f9acc25e9032a9b2a",
    "kpti/hostile/11/i5-12400F":
        "7028fae61ef8bf1930e4bc0dd9f2f07c3ae1858f0e89a4d87c167b2bc29397c7",
    "kpti/rerandomizing/0/i5-12400F":
        "6b360a9a33bd228f05e53817973a0ef5148de77a002cf914aa9a869553c8d36f",
    "kpti/rerandomizing/11/i5-12400F":
        "16ae1a861f07ea92dd506d1bb1406d62a9aab4763578117ae0bd8c9a01ea2156",
    "modules/quiet/0/i5-12400F":
        "fc45ec6d8641e001f0db8acf40c80e0abf58699b2b8cc0e26558b1b4a4148135",
    "modules/quiet/11/i5-12400F":
        "df06011fcb3836926b3ea9458671642d17ec275f3504141dc9a9fe23889a57c7",
    "modules/default/0/i5-12400F":
        "823d9b66ed71f1f7521e468caea9582c9ca3d186c416fc2ba6aa14f50561e5b7",
    "modules/default/11/i5-12400F":
        "d4b28e48c7cfa07b93e53e13fac2cd866c81d64fbda1b90e7fe819d612c0562a",
    "modules/hostile/0/i5-12400F":
        "c0e7a488544042c2a42800d867b427faf2120b5bec5a48702f9287a83b77c481",
    "modules/hostile/11/i5-12400F":
        "920c56a197c16e6514c1e9a246d285d11c1303d07a8ce27549af506f45654325",
    "modules/rerandomizing/0/i5-12400F":
        "1e8ad843690172c9728942598056193e75ed62ba947e45407ac70eff408007c9",
    "kaslr/default/0/ryzen5-5600X":
        "00b6f47f4679c373208fbd32128cb38bca8959e85e3c0ad34e1ffb96a1492091",
    "windows/default/0/i5-12400F":
        "c5e50f060e1e38323f6acd1669bddb5cdd7fa66320e5937ea429376c177edf3c",
    "windows/rerandomizing/3/i5-12400F":
        "15c97eace63c726d1d951bf2fd744daa4fd2b875613eb4524cdea607e78b00e1",
}

PLAIN_GOLDEN = {
    "intel/i5-12400F/7":
        "29c87b7a37d447e6d05be94bff35056ed8aa3db4001c003693714c940b6c6444",
    "kpti/i5-12400F/7":
        "477f7892792931c091742a2fad315278822f210971606598f7e9a64f1d7dcbf4",
    "modules/i5-12400F/7":
        "7f40433f0a060ecb0b0e47157ed3e07ee32eee8c658f999087074fb3fb97d43b",
    "intel/i7-6600U/7":
        "5e1cd308082f702290388666d900efb29100d7679c6eb6bbfb67c21b9f9a4477",
    "kpti/i7-6600U/7":
        "873f51d721973d6573ba328566a7a46a32f92dbe452677fc1875e938c0957261",
    "modules/i7-6600U/7":
        "2649e15e9e6d9b8bf51f600325dcb8c3ae80a2775a8ab06c899d8aecbdc83ac9",
    "intel/xeon-e5-2676/7":
        "6073b98e497b884b2a4ecec9580f5f264cbf770030ffb38735fbbd6a633df2dc",
    "kpti/xeon-e5-2676/7":
        "9c8dd684b4ce7437bce6a13f821699c61c204a518f3e28afee5dc2a80d1c7e31",
    "modules/xeon-e5-2676/7":
        "f22154362424ce2ff7ff785f54991c9bbc1e649713a74907a5fe64c9ff46593c",
    "amd/ryzen5-5600X/7":
        "4e6beeb2eb486f449e853e48bf60df4d00ca487075eeb83b10ac51ebdcf945be",
    "amd/ryzen5-2600/7":
        "981bd16dd3142d2b7111dce6bb7f9d9e3bcede4a93838cc89e187acc5ad5c5e5",
    "amd/ryzen7-3700X/7":
        "319d9a6ecebcb60334da53d3f801153beb20fa8d66473e9398a4ae70a833f861",
    "modules/ryzen5-5600X/7":
        "afb12a0b0e2c3c53e92a3cf8e0204947a9170e52ceac1a2474c497a4dae5324c",
}


@pytest.mark.parametrize("cell", sorted(SUPERVISED_GOLDEN))
def test_supervised_cell_matches_golden(cell):
    attack, profile, seed, cpu = cell.split("/")
    assert _supervised(attack, profile, int(seed), cpu) \
        == SUPERVISED_GOLDEN[cell]


@pytest.mark.parametrize("cell", sorted(PLAIN_GOLDEN))
def test_plain_driver_matches_golden(cell):
    driver, cpu, seed = cell.split("/")
    assert _plain(driver, cpu, int(seed)) == PLAIN_GOLDEN[cell]
