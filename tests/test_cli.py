import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinboson.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSectors:
    def test_collective_spin_dimensions(self, capsys):
        code, out, _ = run_cli(capsys, "sectors", "--preset", "lmg",
                               "--param", "g=1", "--param", "g_prime=1",
                               "--j", "2")
        assert code == 0
        payload = json.loads(out)
        dims = [(s["p"], s["dim"]) for s in payload["sectors"]]
        assert dims == [(0, 3), (1, 2)]
        assert sum(d for _, d in dims) == 5

    def test_two_site_single_sector(self, capsys):
        code, out, _ = run_cli(capsys, "sectors", "--preset", "bose_hubbard",
                               "--param", "g=0.5", "--param", "g_prime=1",
                               "--j", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["sectors"]) == 1
        assert payload["sectors"][0]["dim"] == 2

    def test_single_mode_charge_values(self, capsys):
        # references with sum(n) <= 2 and every mu reach four charge values:
        # (n + 1/2)/2 from mu = -1/2 and (n + 3/2)/2 from mu = +1/2
        code, out, _ = run_cli(capsys, "sectors", "--preset", "tavis_cummings",
                               "--param", "w=1", "--param", "g_prime=1",
                               "--param", "g=0.1", "--j", "1/2",
                               "--max-bosons", "2")
        assert code == 0
        kappas = [s["kappa"] for s in json.loads(out)["sectors"]]
        assert kappas == ["1/4", "3/4", "5/4", "7/4"]


class TestSpectrum:
    def test_single_mode_doublet(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--preset", "tavis_cummings",
                               "--param", "w=1", "--param", "g_prime=1",
                               "--param", "g=0.1", "--j", "1/2",
                               "--mu=-1/2", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        energies = sorted(st["E"] for st in payload["sectors"][0]["states"])
        np.testing.assert_allclose(energies, [0.4, 0.6], atol=1e-12)
        assert all(st["verified"] for st in payload["sectors"][0]["states"])

    def test_rotor_triple(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--preset", "rigid_rotor",
                               "--param", "a=1", "--param", "b=2",
                               "--param", "c=3", "--j", "1")
        assert code == 0
        payload = json.loads(out)
        energies = sorted(st["E"] for sec in payload["sectors"]
                          for st in sec["states"])
        np.testing.assert_allclose(energies, [3.0, 4.0, 5.0], atol=1e-10)

    def test_decoupled_limit(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--preset", "tavis_cummings",
                               "--param", "w=1", "--param", "g_prime=0.5",
                               "--param", "g=0", "--j", "1/2",
                               "--max-bosons", "1")
        assert code == 0
        payload = json.loads(out)
        for sec in payload["sectors"]:
            for st in sec["states"]:
                assert st["residual"] is None or st["residual"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--preset", "bose_hubbard",
                               "--param", "g=0.4", "--param", "g_prime=0.7",
                               "--j", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("j,p,kappa")
        assert len(lines) == 4  # header + three states

    def test_json_roundtrip_byte_identical(self, capsys):
        args = ("spectrum", "--preset", "lmg", "--param", "g=0.7",
                "--param", "g_prime=0.9", "--j", "3/2")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2)
        assert reparsed == out.strip()

    def test_deterministic_output(self, capsys):
        args = ("spectrum", "--preset", "two_mode_tc", "--param", "w1=0.9",
                "--param", "w2=1.3", "--param", "g_prime=0.4",
                "--param", "g=0.6", "--j", "1", "--max-bosons", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestRoots:
    def test_single_state(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--preset", "bose_hubbard",
                               "--param", "g=0.4", "--param", "g_prime=0",
                               "--j", "1/2", "--state", "1")
        assert code == 0
        payload = json.loads(out)
        states = payload["sectors"][0]["states"]
        assert len(states) == 1
        assert states[0]["E"] == pytest.approx(0.4)
        np.testing.assert_allclose(states[0]["roots"], [[-1.0, 0.0]], atol=1e-9)

    def test_state_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--preset", "bose_hubbard",
                               "--param", "g=0.4", "--param", "g_prime=0",
                               "--j", "1/2", "--state", "9")
        assert code == 1
        assert "state" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sectors_without_the_state_are_listed_empty(self, capsys, fmt):
        # sector dims here run 1-3: the dim-1 sectors have no state 1
        common = ("--preset", "two_mode_tc", "--param", "w1=0.9", "--param", "w2=1.3",
                  "--param", "g_prime=0.4", "--param", "g=0.6", "--j", "1",
                  "--max-bosons", "2", "--format", fmt)
        code, out, _ = run_cli(capsys, "spectrum", *common)
        assert code == 0
        code, picked, err = run_cli(capsys, "roots", *common, "--state", "1")
        assert (code, err) == (0, "")
        if fmt == "json":
            spectrum = json.loads(out)["sectors"]
            assert min(len(entry["states"]) for entry in spectrum) == 1
            assert json.loads(picked)["sectors"] == [
                {"labels": entry["labels"], "states": entry["states"][1:2]}
                for entry in spectrum]
        else:
            want = [row.split(",") for row in out.splitlines()[1:]
                    if row.split(",")[5] == "1"]
            got = [row.split(",") for row in picked.splitlines()[1:]]
            assert len(got) == len(want) > 0
            assert [g[:5] + g[6:] for g in got] == [w[:5] + w[6:] for w in want]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_each_state_equals_the_spectrum_entry(self, capsys, fmt):
        common = ("--preset", "lmg", "--param", "g_prime=0.9", "--param", "g=0.7",
                  "--j", "3", "--format", fmt)
        code, out, _ = run_cli(capsys, "spectrum", *common)
        assert code == 0
        if fmt == "json":
            spectrum = json.loads(out)["sectors"]
            assert [len(entry["states"]) for entry in spectrum] == [4, 3]
        else:
            header, *rows = out.splitlines()
            assert len(rows) == 7
        for i in range(3):
            code, out, _ = run_cli(capsys, "roots", *common, "--state", str(i))
            assert code == 0
            if fmt == "json":
                assert json.loads(out)["sectors"] == [
                    {"labels": entry["labels"], "states": [entry["states"][i]]}
                    for entry in spectrum]
            else:
                # the index column restarts at 0 in each sector
                picked = [row.split(",") for row in rows
                          if row.split(",")[5] == str(i)]
                got = [row.split(",") for row in out.splitlines()[1:]]
                assert len(got) == 2
                assert [g[:5] + g[6:] for g in got] == [p[:5] + p[6:] for p in picked]
                assert out.splitlines()[0] == header


class TestConfigFile:
    def test_config_file_model(self, capsys, tmp_path):
        cfg = {
            "model": {"M": 1, "r": 1, "s": 1, "k": [1], "w": [1.0],
                      "g_prime": 1.0, "g": 0.1},
            "j": "1/2",
            "mu": "-1/2",
            "n": [1],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(path))
        assert code == 0
        energies = sorted(st["E"] for st in
                          json.loads(out)["sectors"][0]["states"])
        np.testing.assert_allclose(energies, [0.4, 0.6], atol=1e-12)

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = {"preset": "bose_hubbard",
               "params": {"g": 0.4, "g_prime": 0.7}, "j": "1/2"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "sectors", "--config", str(path),
                               "--j", "3/2")
        assert code == 0
        assert json.loads(out)["sectors"][0]["j"] == "3/2"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "sectors", "--preset", "lmg",
                               "--param", "g=1", "--param", "g_prime=1",
                               "--j", "1", "--output", str(target))
        assert code == 0
        assert json.loads(target.read_text())["sectors"]

    def test_model_and_preset_conflict(self, capsys, tmp_path):
        cfg = {"model": {"M": 0, "r": 1, "s": 1, "k": [], "w": [],
                         "g_prime": 1.0, "g": 0.1}, "j": "1"}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "sectors", "--config", str(path),
                               "--preset", "lmg")
        assert code == 1
        assert "exactly one" in err


class TestUsageErrors:
    def test_missing_model(self, capsys):
        code, _, err = run_cli(capsys, "sectors", "--j", "1")
        assert code == 1

    def test_bad_param_syntax(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--preset", "lmg",
                               "--param", "g0.5", "--j", "1")
        assert code == 1
        assert "KEY=VALUE" in err

    def test_missing_j(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--preset", "lmg",
                               "--param", "g=1", "--param", "g_prime=1")
        assert code == 1
        assert "--j" in err

    def test_unknown_command_flag(self, capsys):
        code, _, _ = run_cli(capsys, "sectors", "--no-such-flag")
        assert code == 1


class TestNumericalFailure:
    def test_overflow_exits_three(self, capsys, monkeypatch):
        # an overflow on the solve path is a numerical failure (exit 3, one
        # line), not a usage error or a traceback
        import spinboson.cli as cli_mod

        def overflow(*args, **kwargs):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(cli_mod, "solve_sector", overflow)
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lmg",
                                 "--param", "g_prime=0.3", "--param", "g=0.7",
                                 "--j", "2", "--mu", "-2")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure:")
        assert len(err.strip().splitlines()) == 1


class TestWriteFailures:
    SPECTRUM = ("spectrum", "--preset", "two_mode_tc", "--param", "w1=0.9",
                "--param", "w2=1.3", "--param", "g_prime=0.4", "--param", "g=0.6",
                "--j", "3", "--max-bosons", "8")

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_output_into_a_missing_directory_exits_one(self, capsys, monkeypatch,
                                                       tmp_path, command):
        import spinboson.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_verification", lambda **kwargs: [])
        target = str(tmp_path / "missing" / "x.json")
        argv = (("spectrum", "--preset", "lmg", "--param", "g_prime=0.3",
                 "--param", "g=0.7", "--j", "3") if command == "spectrum"
                else ("verify", "--draws", "1"))
        code, out, err = run_cli(capsys, *argv, "--output", target)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write report: ")
        assert target in err and len(err.strip().splitlines()) == 1

    def test_a_reader_that_closes_early_gets_no_traceback(self):
        # the reader is gone before the report is written, so the write
        # meets a broken pipe
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "spinboson", *self.SPECTRUM],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == "error: cannot write report: [Errno 32] Broken pipe\n"


class TestPresetList:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "list")
        assert code == 0
        for name in ("bose_hubbard", "lmg", "rigid_rotor", "tavis_cummings",
                     "two_mode_tc"):
            assert name in out


class TestVerifyCommand:
    def test_exit_codes(self, capsys, monkeypatch):
        from spinboson.verify import CheckResult

        import spinboson.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_verification",
            lambda seed, tols, n_draws: [CheckResult("stub", True, "ok")])
        monkeypatch.setattr(cli_mod, "errata_report", lambda: [])
        code, out, _ = run_cli(capsys, "verify", "--draws", "1")
        assert code == 0
        assert "PASS" in out

        monkeypatch.setattr(
            cli_mod, "run_verification",
            lambda seed, tols, n_draws: [CheckResult("stub", False, "broken")])
        code, out, _ = run_cli(capsys, "verify", "--draws", "1")
        assert code == 2
        assert "FAIL" in out

    def test_config_file_tolerances_and_seed(self, capsys, monkeypatch, tmp_path):
        import spinboson.cli as cli_mod
        from spinboson.verify import CheckResult

        seen = {}

        def stub(seed, tols, n_draws):
            seen.update(seed=seed, tols=tols)
            return [CheckResult("stub", True, "ok")]

        monkeypatch.setattr(cli_mod, "run_verification", stub)
        monkeypatch.setattr(cli_mod, "errata_report", lambda: [])
        path = tmp_path / "verify.json"
        path.write_text(json.dumps({"tolerances": {"match": 1e-15}, "seed": 7}))
        code, _, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 0
        assert seen["seed"] == 7 and seen["tols"].match == 1e-15
        # flags still override the file
        code, _, _ = run_cli(capsys, "verify", "--config", str(path),
                             "--seed", "3", "--tol-match", "1e-9")
        assert seen["seed"] == 3 and seen["tols"].match == 1e-9

    def test_json_format_prints_only_the_payload(self, capsys, monkeypatch):
        from spinboson.verify import CheckResult

        import spinboson.cli as cli_mod

        # checks compute their verdicts with numpy, as numpy bools
        monkeypatch.setattr(
            cli_mod, "run_verification",
            lambda seed, tols, n_draws: [CheckResult("stub", np.bool_(False), "broken")])
        monkeypatch.setattr(cli_mod, "errata_report", lambda: [])
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload == {"passed": False, "errata": [], "checks": [
            {"name": "stub", "passed": False, "detail": "broken"}]}

    def test_tightened_tolerance_fails(self, capsys):
        # real run at an unreachable tolerance: controlled failure, exit 2
        code, out, _ = run_cli(capsys, "verify", "--draws", "1",
                               "--tol-match", "1e-15")
        assert code == 2
        assert "FAIL" in out
        assert "errata registry:" in out
