"""The JSON scenario runner and the shipped scenario files."""

import json
import pathlib

import pytest

from repro.errors import ConfigError
from repro.scenarios import run_scenario, run_suite

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"


def _scenario(**overrides):
    base = {
        "name": "test",
        "machine": {"os": "linux", "cpu": "i5-12400F", "seed": 42},
        "attack": {"kind": "kaslr"},
        "expect": {"correct": True},
    }
    base.update(overrides)
    return base


def _no_boot(spec):
    raise AssertionError("the machine booted before the spec was checked")


class TestRunScenario:
    def test_dict_input(self):
        result = run_scenario(_scenario())
        assert result.passed
        assert result.observations["method"] == "intel-p2"

    def test_file_input(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_scenario()))
        assert run_scenario(path).passed

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario({"name": "x"})

    def test_unknown_attack_kind(self):
        with pytest.raises(ConfigError):
            run_scenario(_scenario(attack={"kind": "rowhammer"}))

    def test_unknown_os(self):
        with pytest.raises(ConfigError):
            run_scenario(_scenario(machine={"os": "plan9"}))

    def test_leftover_batched_param_rejected_before_boot(self, monkeypatch):
        monkeypatch.setattr("repro.scenarios._build_machine", _no_boot)
        with pytest.raises(ConfigError, match='"engine": "per-op"'):
            run_scenario(_scenario(attack={"kind": "kaslr",
                                           "batched": False}))

    def test_unknown_engine_rejected_before_boot(self, monkeypatch):
        monkeypatch.setattr("repro.scenarios._build_machine", _no_boot)
        with pytest.raises(ConfigError, match="simd"):
            run_scenario(_scenario(attack={"kind": "kaslr",
                                           "engine": "simd"}))

    @pytest.mark.parametrize("machine_spec, attack", [
        ({"os": "linux", "cpu": "i5-12400F", "seed": 42}, {"kind": "kaslr"}),
        ({"os": "linux", "cpu": "i5-12400F", "seed": 42, "kpti": True},
         {"kind": "kpti"}),
        ({"os": "windows", "cpu": "i5-12400F", "seed": 2},
         {"kind": "windows-region"}),
        ({"os": "windows", "cpu": "i7-6600U", "version": "1709", "seed": 0},
         {"kind": "windows-kvas"}),
        ({"os": "linux", "cpu": "i5-12400F", "seed": 42},
         {"kind": "user-scan"}),
        ({"os": "linux", "cpu": "i7-1065G7", "seed": 0}, {"kind": "sgx"}),
        ({"os": "linux", "cpu": "i5-12400F", "seed": 42},
         {"kind": "supervised", "attack": "kaslr"}),
    ], ids=["kaslr", "kpti", "windows-region", "windows-kvas", "user-scan",
            "sgx", "supervised"])
    def test_engine_param_reaches_every_sweep(self, machine_spec, attack):
        """The spec's engine runs every sweep of the attack: per-op
        sweeps open no ``probe-sweep`` span."""
        from repro.obs import Tracer
        from repro.scenarios import _build_machine, run_on

        machine = _build_machine(machine_spec)
        tracer = Tracer().attach(machine)
        result = run_on(machine, _scenario(
            machine=machine_spec, attack=dict(attack, engine="per-op")))
        records = tracer.finish()
        assert result.passed
        assert not [r for r in records if r["type"] == "span"
                    and r["name"] == "probe-sweep"]
        assert machine.core.last_sweep.engine == "per-op"

    def test_engine_param_on_the_bootless_stub_is_ignored(self):
        result = run_scenario(_scenario(
            machine={"os": "none"},
            attack={"kind": "noop", "engine": "per-op"}))
        assert result.passed

    def test_max_expectation_violation(self):
        result = run_scenario(
            _scenario(expect={"correct": True, "max_total_ms": 0.0001})
        )
        assert not result.passed
        assert any("total_ms" in v for v in result.violations)

    def test_min_expectation_violation(self):
        result = run_scenario(
            _scenario(expect={"min_probing_ms": 10_000})
        )
        assert not result.passed

    def test_equality_expectation_violation(self):
        result = run_scenario(_scenario(expect={"method": "amd-p3"}))
        assert not result.passed
        assert "amd-p3" in result.violations[0]

    def test_missing_observation_counts_as_violation(self):
        result = run_scenario(_scenario(expect={"max_nonexistent": 1}))
        assert not result.passed

    def test_windows_machine_spec(self):
        result = run_scenario({
            "name": "win",
            "machine": {"os": "windows", "cpu": "i5-12400F", "seed": 2},
            "attack": {"kind": "windows-region"},
            "expect": {"correct": True, "bits": 18},
        })
        assert result.passed

    def test_cloud_machine_spec(self):
        result = run_scenario({
            "name": "gce",
            "machine": {"os": "cloud", "provider": "gce", "seed": 3},
            "attack": {"kind": "kaslr"},
            "expect": {"correct": True},
        })
        assert result.passed

    @pytest.mark.parametrize("provider", ["ec2", "gce", "azure"])
    def test_cloud_kind_audits_the_instance(self, provider):
        from repro.os.cloud.instances import CLOUD_CATALOG

        result = run_scenario({
            "name": provider,
            "machine": {"os": "cloud", "provider": provider, "seed": 2},
            "attack": {"kind": "cloud"},
            "expect": {"correct": True},
        })
        assert result.passed, result.violations
        observations = result.observations
        assert observations["correct"] is True
        assert observations["provider"] == CLOUD_CATALOG[provider].provider
        # Azure runs Windows: the module scan is Linux-only
        assert (observations["modules_ms"] is None) == (provider == "azure")

    def test_cloud_kind_needs_a_cloud_machine(self):
        with pytest.raises(ConfigError, match='"os": "cloud"'):
            run_scenario(_scenario(attack={"kind": "cloud"}))


class TestShippedScenarios:
    def test_directory_exists_with_scenarios(self):
        assert SCENARIO_DIR.is_dir()
        assert len(list(SCENARIO_DIR.glob("*.json"))) >= 8

    def test_all_shipped_scenarios_well_formed(self):
        for path in SCENARIO_DIR.glob("*.json"):
            scenario = json.loads(path.read_text())
            for field in ("name", "description", "machine", "attack",
                          "expect"):
                assert field in scenario, (path.name, field)

    @pytest.mark.parametrize(
        "stem",
        ["table1_alderlake_base", "sec4d_kpti", "sec4g_windows_region"],
    )
    def test_representative_shipped_scenarios_pass(self, stem):
        result = run_scenario(SCENARIO_DIR / (stem + ".json"))
        assert result.passed, result.violations

    def test_run_suite_over_tmpdir(self, tmp_path):
        for i in range(2):
            (tmp_path / "s{}.json".format(i)).write_text(
                json.dumps(_scenario(name="s{}".format(i)))
            )
        results = run_suite(tmp_path)
        assert [r.name for r in results] == ["s0", "s1"]
        assert all(r.passed for r in results)

    def test_cli_scenario_command(self, capsys):
        from repro.cli import main

        code = main([
            "scenario", str(SCENARIO_DIR / "table1_alderlake_base.json")
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestSupervisedScenarios:
    def test_supervised_kind_reports_verdict_fields(self):
        result = run_scenario(_scenario(
            machine={"os": "linux", "seed": 11, "kpti": False,
                     "chaos": "default"},
            attack={"kind": "supervised", "attack": "kaslr"},
            expect={"correct": True, "status": "found", "max_retries": 3},
        ))
        assert result.passed, result.violations
        assert result.observations["disturbances"] > 0
        # the verdict rides the result, but never its serialized form
        assert result.verdict.status == result.observations["status"]
        assert result.verdict.probes_spent == result.observations["probes"]
        assert "verdict" not in result.as_dict()

    def test_unsupervised_kind_has_no_verdict(self):
        result = run_scenario(_scenario(
            machine={"os": "linux", "seed": 11},
            attack={"kind": "kaslr"}, expect={"correct": True},
        ))
        assert result.passed and result.verdict is None

    @pytest.mark.parametrize("machine, attack, wrong, right", [
        ({"os": "cloud", "provider": "ec2", "seed": 1}, {"attack": "cloud"},
         lambda m: m.kernel.base + 0x200000, lambda m: m.kernel.base),
        ({"os": "linux", "seed": 1},
         {"attack": "fingerprint", "workload": "music-player"},
         lambda m: "video-call", lambda m: "music-player"),
    ], ids=["cloud", "fingerprint"])
    def test_found_but_wrong_value_is_not_correct(self, monkeypatch,
                                                  machine, attack, wrong,
                                                  right):
        from repro.attacks import supervisor

        for make_value, correct in ((wrong, False), (right, True)):
            def found(machine, name, **kwargs):
                return supervisor.Verdict(
                    name, supervisor.FOUND, make_value(machine), None, 0.9,
                    0, [], [], 0, 0.0,
                )

            monkeypatch.setattr(supervisor, "supervise", found)
            result = run_scenario(_scenario(
                machine=machine,
                attack=dict(attack, kind="supervised"),
                expect={"status": "found"},
            ))
            assert result.observations["correct"] is correct

    def test_shipped_chaos_scenarios_pass(self):
        for stem in ("chaos_default_kaslr", "chaos_rerandomizing_kaslr"):
            result = run_scenario(SCENARIO_DIR / (stem + ".json"))
            assert result.passed, (stem, result.violations)


class TestSuiteCrashHandling:
    def _write(self, tmp_path, name, scenario):
        (tmp_path / name).write_text(json.dumps(scenario))

    def test_pool_survives_a_crashing_scenario(self, tmp_path):
        self._write(tmp_path, "a_good.json", _scenario(name="good"))
        self._write(tmp_path, "b_bad.json", _scenario(
            name="bad", machine={"os": "plan9"}
        ))
        results = run_suite(tmp_path, jobs=2)
        assert len(results) == 2
        by_name = {r.name: r for r in results}
        assert by_name["good"].passed
        crashed = by_name["b_bad"]
        assert not crashed.passed
        assert any("crashed" in v for v in crashed.violations)

    def test_cli_suite_reports_crash_with_nonzero_exit(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        self._write(tmp_path, "a_good.json", _scenario(name="good"))
        self._write(tmp_path, "b_bad.json", _scenario(
            name="bad", machine={"os": "plan9"}
        ))
        code = main(["suite", str(tmp_path), "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "crashed" in out
        assert "1 / 2 scenarios passed" in out
