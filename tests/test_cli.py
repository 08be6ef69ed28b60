"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("cpus", "kaslr", "modules", "kpti", "spy",
                        "windows", "cloud", "sgx", "poc"):
            args = parser.parse_args(
                [command, "ec2"] if command == "cloud" else [command]
            )
            assert callable(args.func)

    def test_cloud_provider_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cloud", "ibm"])


class TestCommands:
    def test_cpus(self, capsys):
        assert main(["cpus"]) == 0
        out = capsys.readouterr().out
        assert "i5-12400F" in out and "ryzen5-5600X" in out

    def test_kaslr_correct_exit_code(self, capsys):
        assert main(["kaslr", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "CORRECT" in out

    def test_kaslr_amd_path(self, capsys):
        assert main(["kaslr", "--cpu", "ryzen5-5600X", "--seed", "3"]) == 0
        assert "amd-p3" in capsys.readouterr().out

    def test_kpti(self, capsys):
        assert main(["kpti", "--seed", "4"]) == 0
        assert "trampoline" in capsys.readouterr().out

    def test_spy(self, capsys):
        code = main(["spy", "--app", "file-transfer", "--seed", "5",
                     "--intervals", "16"])
        assert code == 0
        assert "CORRECT" in capsys.readouterr().out

    def test_modules_exits_1_when_detection_fails(self, capsys):
        # module detection is Intel-only: on AMD it finds nothing
        assert main(["modules", "--cpu", "ryzen5-5600X", "--seed", "0"]) == 1
        assert "identified" in capsys.readouterr().out

    def test_windows(self, capsys):
        assert main(["windows", "--seed", "6"]) == 0
        assert "region-scan" in capsys.readouterr().out

    def test_cloud(self, capsys):
        assert main(["cloud", "gce", "--seed", "7"]) == 0
        assert "Google GCE" in capsys.readouterr().out

    def test_poc(self, capsys):
        assert main(["poc", "--seed", "8"]) == 0
        assert "assembly scan loop" in capsys.readouterr().out

    def test_unknown_cpu_clean_error(self, capsys):
        assert main(["kaslr", "--cpu", "z80"]) == 2
        assert "error" in capsys.readouterr().err


class TestStructuredFailures:
    def test_config_error_is_one_json_line_on_stderr(self, capsys):
        import json

        assert main(["kaslr", "--cpu", "z80"]) == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "z80" in record["message"]
        assert "Traceback" not in err

    def test_attack_error_is_structured_too(self, capsys, tmp_path):
        import json

        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({
            "name": "bad",
            "machine": {"os": "linux", "seed": 0},
            "attack": {"kind": "supervised", "attack": "rowhammer"},
        }))
        assert main(["scenario", str(scenario)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "AttackError"
        assert "rowhammer" in record["message"]


class TestChaosCommand:
    def test_list_profiles(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("quiet", "default", "hostile", "rerandomizing"):
            assert name in out

    def test_supervised_kaslr_under_default_profile(self, capsys):
        assert main(["chaos", "kaslr", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "CORRECT" in out
        assert "disturbances" in out

    def test_json_verdict_output(self, capsys):
        import json

        assert main(["chaos", "kaslr", "--seed", "3", "--json"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["status"] == "found"
        assert record["attack"] == "kaslr"

    def test_chaos_profile_flag_on_attack_commands(self, capsys):
        assert main(["kaslr", "--chaos-profile", "default",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "CORRECT" in out and "retries" in out

    def test_unknown_profile_is_a_structured_error(self, capsys):
        import json

        assert main(["chaos", "kaslr", "--profile", "nope"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"


class TestCampaignFsckCLI:
    """`repro campaign fsck --rebuild`: golden salvage report + errors."""

    def _run_small_campaign(self, tmp_path):
        import json

        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        for index in range(2):
            (scenarios / "u{}.json".format(index)).write_text(json.dumps({
                "name": "u{}".format(index),
                "machine": {"os": "linux", "cpu": "i5-12400F",
                            "seed": index},
                "attack": {"kind": "kaslr", "params": {"trials": 2}},
                "expect": {"correct": True},
            }))
        journal = tmp_path / "c.jsonl"
        assert main(["campaign", "run", str(scenarios),
                     "--journal", str(journal), "--jobs", "1"]) == 0
        return journal

    def _corrupt_line(self, journal, predicate):
        """Break the checksum of the first line matching ``predicate``."""
        import json

        lines = journal.read_bytes().splitlines(keepends=True)
        for number, line in enumerate(lines, start=1):
            record = json.loads(line)
            if predicate(record):
                lines[number - 1] = line.replace(b'"type"', b'"tyqe"', 1)
                journal.write_bytes(b"".join(lines))
                return number
        raise AssertionError("no line matched")

    def test_rebuild_emits_golden_salvage_report(self, tmp_path, capsys):
        import json

        journal = self._run_small_campaign(tmp_path)
        # the unit records live in the (only) shard's journal
        shard = tmp_path / "c.shard-0.jsonl"
        capsys.readouterr()
        damaged_line = self._corrupt_line(
            shard,
            lambda r: r.get("type") == "unit-finish"
            and r.get("unit") == "u1",
        )

        assert main(["campaign", "fsck", str(journal), "--rebuild"]) == 1
        out = capsys.readouterr().out
        expected_lines = [
            "ok           {}  (2 records, 0 done / 0 skipped / "
            "0 incomplete)".format(journal),
            "quarantined  {}  (5 records, 1 done / 0 skipped / "
            "1 incomplete)".format(shard),
            "  line {}: checksum mismatch".format(damaged_line),
            "  quarantined to {}.corrupt".format(shard),
            "  salvage report: {}.salvage.json".format(shard),
            "  rebuilt {} from 5 intact records".format(shard),
        ]
        assert out.splitlines() == expected_lines

        salvage = json.loads(
            (tmp_path / "c.shard-0.jsonl.salvage.json").read_text()
        )
        assert salvage == {
            "schema": "repro-campaign-salvage/v1",
            "journal": str(shard),
            "records": 5,
            "damage": [{"line": damaged_line,
                        "reason": "checksum mismatch"}],
            "status": "quarantined",
            "units": {"done": 1, "skipped": 0, "incomplete": 1},
            # campaign-finish is the coordinator's record
            "finished": False,
            "quarantined_to": str(shard) + ".corrupt",
            "rebuilt": str(shard),
        }
        # the rebuilt journal resumes cleanly, minus only the damage
        capsys.readouterr()
        assert main(["campaign", "resume", str(journal),
                     "--jobs", "1"]) == 0

    def test_clean_journal_reports_ok(self, tmp_path, capsys):
        journal = self._run_small_campaign(tmp_path)
        capsys.readouterr()
        assert main(["campaign", "fsck", str(journal)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok")
        assert "6 records" in out and "2 done" in out
        # coordinator journal first, then the shard journal
        coordinator, shard = out.splitlines()
        assert "(2 records, 0 done" in coordinator
        assert shard.startswith("ok") and "(6 records, 2 done" in shard

    def test_unreadable_journal_is_a_structured_error(self, tmp_path,
                                                      capsys):
        import json

        unreadable = tmp_path / "dir-as-journal.jsonl"
        unreadable.mkdir()
        assert main(["campaign", "fsck", str(unreadable)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CampaignError"
        assert "cannot read journal" in record["message"]
