import csv
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spinboson.bethe import solve_sector
from spinboson.cli import main
from spinboson.linalg import ConvergenceError
from spinboson.model import enumerate_sectors
from spinboson.presets import model_for_j


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

    def test_state_checked_before_any_sector_is_solved(self, capsys, monkeypatch):
        # each sector has dim states, so the index is judged from the labels
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_sectors called for an index out of range")

        monkeypatch.setattr("spinboson.cli.solve_sectors", no_solve)
        code, out, err = run_cli(capsys, "roots", "--preset", "two_mode_tc",
                                 "--param", "w1=0.9", "--param", "w2=1.3",
                                 "--param", "g_prime=0.4", "--param", "g=0.6",
                                 "--j", "6", "--max-bosons", "8", "--state", "999")
        assert (code, out, err) == (1, "", "error: --state 999 outside 0..12\n")

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
            assert got == want

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
                # the index column restarts at 0 in each sector of the
                # spectrum, and roots writes the index of the state it picked
                picked = [row.split(",") for row in rows
                          if row.split(",")[5] == str(i)]
                got = [row.split(",") for row in out.splitlines()[1:]]
                assert len(got) == 2
                assert got == picked
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


LMG = ("--preset", "lmg", "--param", "g=1", "--param", "g_prime=1")
LMG_CONFIG = {"preset": "lmg", "params": {"g": 1, "g_prime": 1}, "j": "1"}
TC = ("--preset", "tavis_cummings", "--param", "w=1", "--param", "g_prime=1",
      "--param", "g=0.1")


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
        # the usage printed is that of the command whose parser read the flag
        code, out, err = run_cli(capsys, "sectors", "--no-such-flag")
        assert (code, out) == (1, "")
        assert err.startswith("usage: spinboson sectors [-h]")
        assert err.strip().splitlines()[-1] == ("error: unrecognized arguments: "
                                                "--no-such-flag")

    @pytest.mark.parametrize("argv", [(), ("bogus",), ("--config", "c.json")],
                             ids=["none", "bogus", "flag_first"])
    def test_missing_or_unknown_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        usage, message = err.strip().splitlines()
        assert usage == ("usage: spinboson [-h] "
                         "{sectors,spectrum,roots,verify,preset} ...")
        assert message.startswith("error: ")

    def test_params_of_one_call_do_not_reach_the_next(self, capsys):
        # each command's parser is built once per process; the --param
        # values of one call stay out of the next call's parse
        code, _, err = run_cli(capsys, "spectrum", *LMG, "--j", "1")
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lmg", "--j", "1")
        assert (code, out) == (1, "")
        assert err == "error: preset 'lmg' missing parameters: ['g_prime', 'g']\n"
        code, _, err = run_cli(capsys, "spectrum", "--preset", "lmg",
                               "--param", "g=1", "--j", "1")
        assert code == 1
        assert err == "error: preset 'lmg' missing parameters: ['g_prime']\n"

    def test_n_needs_mu(self, capsys):
        # --n names a reference state only together with --mu; alone it was
        # once dropped, and every sector was listed
        argv = ("sectors", *TC, "--j", "1/2", "--n", "1", "--max-bosons", "1")
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: --n (or config field 'n') needs --mu")
        # --max-bosons beside --mu is accepted, as it has always been
        code, out, _ = run_cli(capsys, *argv, "--mu=-1/2", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 2  # header and the one sector

    @pytest.mark.parametrize("argv", [
        ("sectors", "--preset", "lmg", "--j", "1", "--seed", "3"),
        ("sectors", "--preset", "lmg", "--j", "1", "--tol-match", "1e-9"),
        ("verify", "--preset", "lmg"),
    ], ids=["sectors_seed", "sectors_tol", "verify_preset"])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        # a flag the command would ignore is a usage error, not a no-op
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage:")
        assert "unrecognized arguments" in err

    @pytest.fixture
    def stub_battery(self, monkeypatch):
        # a verify probe that is not rejected returns at once
        import spinboson.cli as cli_mod
        from spinboson.verify import CheckResult

        monkeypatch.setattr(cli_mod, "run_verification",
                            lambda **kwargs: [CheckResult("stub", True, "ok")])
        monkeypatch.setattr(cli_mod, "errata_report", lambda: [])

    @pytest.mark.parametrize("argv,config", [
        (("spectrum", *LMG, "--j", "abc"), None),
        (("spectrum", *LMG, "--j", "1/3"), None),
        (("spectrum", *LMG, "--j=-1"), None),
        (("spectrum", *LMG, "--j", "1/0"), None),
        (("spectrum", *LMG, "--j", "1", "--mu", "5"), None),
        (("spectrum", *TC, "--j", "1", "--mu=0"), None),
        (("spectrum", *TC, "--j", "1", "--mu=0", "--n", "a"), None),
        (("spectrum", *TC, "--j", "1", "--max-bosons", "-1"), None),
        (("verify", "--seed", "-1"), None),
        (("verify", "--draws", "0"), None),
        (("verify", "--draws", "-1"), None),
        (("verify", "--format", "csv"), None),
        (("verify",), {"preset": "lmg", "j": "2"}),
        (("spectrum",), {**LMG_CONFIG, "format": "xml"}),
        (("spectrum",), {**LMG_CONFIG, "max_bosons": "abc"}),
        (("spectrum",), {**LMG_CONFIG, "tolerances": {"match": "x"}}),
        (("spectrum",), {**LMG_CONFIG, "tolerances": {"mtach": 1e-3}}),
        (("spectrum",), [1, 2]),
        (("spectrum",), {**LMG_CONFIG, "seed": 3}),
        (("spectrum", *LMG, "--param", "foo=3", "--j", "1"), None),
        (("spectrum", *TC, "--j", "1", "--max", "1"), None),
        (("spectrum",), {**LMG_CONFIG, "n": [1]}),
    ], ids=["j_abc", "j_third", "j_negative", "j_zero_denominator", "mu_above_j",
            "mu_without_n", "n_not_int", "max_bosons_negative", "seed_negative",
            "draws_zero", "draws_negative", "verify_csv", "verify_config_preset",
            "config_format_xml", "config_max_bosons_abc", "config_tolerance_x",
            "config_tolerance_typo", "config_not_an_object", "config_seed_on_spectrum",
            "param_unknown", "flag_abbreviated", "config_n_without_mu"])
    def test_malformed_input_exits_one(self, capsys, tmp_path, stub_battery,
                                       argv, config):
        # each value meets the same check from a flag or a config field; a
        # flag matches only in full, so that a config key names one flag
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = (*argv, "--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("error:") == 1
        assert err.strip().splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_exits_one(self, capsys, value):
        # a model with a non-finite coupling cannot be built from the input
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lmg",
                                 "--param", f"g={value}", "--param", "g_prime=1",
                                 "--j", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_rotor_j_differs_from_the_j_flag(self, capsys):
        # the rotor's Casimir offset is taken at --j; a --param j that differs
        # once shifted every energy by (a+b)/2 (j'(j'+1) - j(j+1))
        argv = ("spectrum", "--preset", "rigid_rotor", "--param", "a=1",
                "--param", "b=2", "--param", "c=3", "--j", "1")
        code, out, err = run_cli(capsys, *argv, "--param", "j=5")
        assert (code, out) == (1, "")
        assert err.startswith("error: --param j=5 differs from --j 1")
        # the same j is no conflict, and the triple is {a+b, b+c, a+c}
        code, out, _ = run_cli(capsys, *argv, "--param", "j=1")
        assert code == 0
        energies = sorted(st["E"] for sec in json.loads(out)["sectors"]
                          for st in sec["states"])
        np.testing.assert_allclose(energies, [3.0, 4.0, 5.0], atol=1e-12)


class TestConfigKeysMirrorFlags:
    def test_spectrum_refine(self, capsys, monkeypatch, tmp_path):
        import spinboson.cli as cli_mod

        seen = []

        def solve(model, sectors, refine, tols):
            seen.extend([refine] * len(sectors))
            return [[] for _ in sectors]

        monkeypatch.setattr(cli_mod, "solve_sectors", solve)
        path = tmp_path / "run.json"
        for refine in (True, False):
            path.write_text(json.dumps({**LMG_CONFIG, "refine": refine}))
            code, _, _ = run_cli(capsys, "spectrum", "--config", str(path))
            assert code == 0
        # lmg at j=1 has two sectors; false sets nothing, as if left out
        assert seen == [True, True, False, False]

    def test_verify_draws_and_format(self, capsys, monkeypatch, tmp_path):
        import spinboson.cli as cli_mod
        from spinboson.verify import CheckResult

        seen = {}

        def stub(seed, tols, n_draws):
            seen.update(n_draws=n_draws)
            return [CheckResult("stub", True, "ok")]

        monkeypatch.setattr(cli_mod, "run_verification", stub)
        monkeypatch.setattr(cli_mod, "errata_report", lambda: [])
        path = tmp_path / "verify.json"
        path.write_text(json.dumps({"draws": 3, "format": "json"}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 0 and seen["n_draws"] == 3
        assert json.loads(out)["passed"] is True
        # a flag still wins over the file
        code, _, _ = run_cli(capsys, "verify", "--config", str(path), "--draws", "2")
        assert code == 0 and seen["n_draws"] == 2


class TestNumericalFailure:
    def test_overflow_exits_three(self, capsys, monkeypatch):
        # an overflow on the solve path is a numerical failure (exit 3, one
        # line), not a usage error or a traceback
        import spinboson.cli as cli_mod

        def overflow(*args, **kwargs):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(cli_mod, "solve_sectors", overflow)
        code, out, err = run_cli(capsys, "spectrum", "--preset", "lmg",
                                 "--param", "g_prime=0.3", "--param", "g=0.7",
                                 "--j", "2", "--mu", "-2")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure:")
        assert len(err.strip().splitlines()) == 1

    def test_a_coupling_near_the_float_range_fails_in_the_root_finder(self, capsys):
        # at g = 1e300 the eigensolve's identities are checked on the scaled
        # matrix and pass; the roots do not settle, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum", "--preset", "tavis_cummings",
                                     "--param", "w=1", "--param", "g_prime=1",
                                     "--param", "g=1e300", "--j", "3")
        assert code == 3 and out == ""
        assert err == "numerical failure: Aberth-Ehrlich iteration did not converge\n"

    @pytest.mark.parametrize("g", ["0.5", "0"])
    def test_a_dim_1_sector_past_the_float_range_fails_its_eigensolve(self, capsys, g):
        # at j = 0 every sector has dimension 1; w = 1.7e308 puts inf on the
        # diagonal of the occupation-2 and occupation-3 sectors, whose
        # checked eigensolve fails at any g, with no warning on the way
        model = model_for_j("tavis_cummings",
                            {"w": 1.7e308, "g_prime": 1.0, "g": float(g)}, 0)
        message = ("eigenvalues miss the trace by nan and the squared norm by "
                   "nan (tol 1e-12, scale inf)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failing = []
            for sec in enumerate_sectors(model, Fraction(0), 3):
                assert sec.dim == 1
                try:
                    solve_sector(model, sec)
                except ConvergenceError as exc:
                    failing.append((sec.A, str(exc)))
            code, out, err = run_cli(capsys, "spectrum", "--preset", "tavis_cummings",
                                     "--param", "w=1.7e308", "--param", "g_prime=1",
                                     "--param", f"g={g}", "--j", "0",
                                     "--max-bosons", "3")
        assert failing == [((Fraction(2),), message), ((Fraction(3),), message)]
        assert code == 3 and out == ""
        assert err == f"numerical failure: {message}\n"

    def test_refine_keeps_a_state_whose_polish_misses_the_pin(self, capsys):
        # dim 25: Newton polishes one state's roots onto a root set whose
        # closed-form energy misses its eigenvalue; refine drops that
        # candidate as the automatic polish does, instead of failing (exit 3)
        argv = ("spectrum", "--preset", "tavis_cummings",
                "--param", "w=1.0724610869304878",
                "--param", "g_prime=0.37390326416730413",
                "--param", "g=-1.9024339495607634", "--j", "12", "--mu", "-12",
                "--n", "24")
        code, plain, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, *argv, "--refine")
        assert code == 0 and err == ""
        refined = json.loads(out)["sectors"][0]["states"]
        states = json.loads(plain)["sectors"][0]["states"]
        assert len(refined) == len(states) == 25
        assert [st["E"] for st in refined] == [st["E"] for st in states]
        assert any(not st["verified"] for st in refined)
        assert all(a["verified"] or not b["verified"]
                   for a, b in zip(refined, states))


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

    def test_oracle_equivalence_counts_the_sectors_of_every_draw(self, capsys):
        # n_sectors already totals every draw: one draw sweeps 292 sectors
        code, out, _ = run_cli(capsys, "verify", "--draws", "1", "--format", "json")
        assert code == 0
        (check,) = [c for c in json.loads(out)["checks"]
                    if c["name"] == "oracle equivalence"]
        assert check["detail"].startswith("292 sectors over 1 draw, ")


def _state_dict(state):
    """A state's entry in the JSON report, as its dict form."""
    residual = state.max_residual()
    return {"E": float(state.energy),
            "roots": [[r.real + 0.0, r.imag + 0.0] for r in state.roots.tolist()],
            "residual": None if np.isnan(residual) else float(residual),
            "verified": bool(state.verified),
            "degenerate_roots": bool(state.degenerate_roots),
            "refined": bool(state.refined)}


def _expected_report(solved, fmt, state=None):
    """The report of the solved (sector, states) pairs as json.dumps writes
    the dict form, or in the CSV layout: index is a state's index in its
    sector."""
    from spinboson.model import sector_to_dict

    first = state or 0
    entries = [(sector_to_dict(sector),
                [_state_dict(st) for st in (states if state is None
                                            else states[state:state + 1])])
               for sector, states in solved]
    if fmt == "json":
        payload = {"sectors": [{"labels": labels, "states": states}
                               for labels, states in entries]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "p", "kappa", "lambda", "dim", "index", "E",
                     "roots", "residual", "verified", "degenerate_roots"])
    for lab, states in entries:
        for idx, st in enumerate(states, first):
            writer.writerow([
                lab["j"], lab["p"], lab["kappa"], lab["lambda"], lab["dim"],
                idx, f"{st['E']:.15g}",
                ";".join(f"{re:+.12g}{im:+.12g}j" for re, im in st["roots"]),
                "" if st["residual"] is None else f"{st['residual']:.3e}",
                st["verified"], st["degenerate_roots"],
            ])
    return buf.getvalue()


class TestReportWriters:
    """The spectrum and roots reports equal json.dumps of the dict form and
    the CSV layout, built here from the states the command solved."""

    @pytest.fixture
    def solved(self, monkeypatch):
        import spinboson.cli as cli_mod
        from spinboson.bethe import solve_sectors

        calls = []

        def record(model, sectors, refine, tols):
            solved = solve_sectors(model, sectors, refine=refine, tols=tols)
            calls.extend(zip(sectors, solved))
            return solved

        monkeypatch.setattr(cli_mod, "solve_sectors", record)
        return calls

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_random_models_of_every_preset(self, capsys, solved, fmt):
        from spinboson.presets import PRESET_NAMES, random_params

        seen = set()
        for i, name in enumerate(PRESET_NAMES):
            params = random_params(name, np.random.default_rng(i))
            for decoupled in (False, True):
                if decoupled:  # g = 0: the rotor's g is (a - b)/4
                    params = ({**params, "a": params["b"]} if name == "rigid_rotor"
                              else {**params, "g": 0.0})
                argv = ["--preset", name, "--format", fmt]
                argv += [f"--param={key}={value!r}" for key, value in params.items()]
                if name in ("tavis_cummings", "two_mode_tc"):
                    argv += ["--max-bosons", "2"]
                for j in ("1/2", "1", "3/2"):
                    solved.clear()
                    code, out, err = run_cli(capsys, "spectrum", *argv, "--j", j)
                    assert (code, err) == (0, "")
                    assert out == _expected_report(solved, fmt)
                    seen.update("no roots" if st.roots.size == 0 else
                                "null residual" if np.isnan(st.max_residual())
                                else "residual"
                                for _, states in solved for st in states)
                    if max(len(states) for _, states in solved) < 2:
                        continue  # no state 1 to pick
                    solved.clear()
                    code, out, err = run_cli(capsys, "roots", "--state", "1",
                                             *argv, "--j", j)
                    assert (code, err) == (0, "")
                    assert out == _expected_report(solved, fmt, 1)
                    if min(len(states) for _, states in solved) < 2:
                        seen.add("no state")
        # g = 0 sectors give k zero roots and no residual, n_top = 0 sectors
        # no roots, and roots --state 1 lists the dim-1 sectors empty
        assert {"no roots", "null residual", "residual", "no state"} <= seen

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_and_signed_zero_parts(self, capsys, monkeypatch, fmt):
        import spinboson.cli as cli_mod
        from spinboson.bethe import BetheState

        inf, nan = float("inf"), float("nan")

        def states(model, sector, refine, tols):
            # the report reads the residuals, not the scaled certificate
            def state(i, energy, roots, residuals, **flags):
                return BetheState(sector, i, np.array(roots, dtype=complex), energy,
                                  np.array(residuals, dtype=complex), nan, **flags)
            return [
                state(0, -inf, [complex(nan, inf), complex(-inf, -0.0)],
                      [1e-12, 2e-13], degenerate_roots=False, verified=False),
                state(1, nan, [complex(-0.0, 5e-324), complex(1.5, -1.7976931348623157e308)],
                      [inf, 1.0], degenerate_roots=True, verified=False, refined=True),
                state(2, 0.1, [complex(-0.0, -0.0), complex(1e22, 1e-7)],
                      [complex(0.0, -0.0), 3e-16], degenerate_roots=False, verified=True),
            ]

        recorded = []

        def record(model, sectors, refine, tols):
            solved = [states(model, sector, refine, tols) for sector in sectors]
            recorded.extend(zip(sectors, solved))
            return solved

        monkeypatch.setattr(cli_mod, "solve_sectors", record)
        argv = ("--preset", "lmg", "--param", "g=1", "--param", "g_prime=1",
                "--j", "1", "--mu=-1", "--format", fmt)
        for state in (None, 1):
            recorded.clear()
            command = ["spectrum"] if state is None else ["roots", "--state", str(state)]
            code, out, err = run_cli(capsys, *command, *argv)
            assert (code, err) == (0, "")
            assert out == _expected_report(recorded, fmt, state)
            if fmt == "json" and state is None:
                assert "NaN" in out and "-Infinity" in out and "-0.0" not in out


HELP_ARGVS = [("--help",), ("-h",), ("spectrum", "--help"), ("sectors", "-h"),
              ("roots", "--help"), ("verify", "--help"), ("preset", "--help")]


def reference_parser():
    """One `spinboson` parser holding every command as a subparser, each
    with the flags of that command."""
    import argparse

    import spinboson.cli as cli_mod

    parser = argparse.ArgumentParser(
        prog="spinboson", description="Spectra of the spin-boson family, two ways")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in cli_mod.COMMANDS.items():
        sub.add_parser(name, help=summary, add_help=False,
                       parents=[cli_mod._command_parser(name)])
    return parser


def help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestHelp:
    """The help texts equal those of the reference parser."""

    @pytest.mark.parametrize("argv", HELP_ARGVS)
    def test_help_text(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        want = help_text(capsys, reference_parser().parse_args, argv)
        assert help_text(capsys, main, argv) == want
        assert want.startswith(f"usage: spinboson {argv[0]} [-h]" if argv[0] in
                               ("spectrum", "sectors", "roots", "verify", "preset")
                               else "usage: spinboson [-h] {sectors,spectrum,")

    def test_help_width_is_read_when_printed(self, capsys, monkeypatch):
        # the parsers are built once per process, here under a narrower
        # terminal; the help still wraps at the width it is printed under
        import spinboson.cli as cli_mod

        monkeypatch.setenv("COLUMNS", "40")
        cli_mod._command_parser.cache_clear()
        for name in cli_mod.COMMANDS:
            cli_mod._command_parser(name)
        monkeypatch.setenv("COLUMNS", "80")
        reference = reference_parser()
        for argv in HELP_ARGVS:
            want = help_text(capsys, reference.parse_args, argv)
            assert help_text(capsys, main, argv) == want
