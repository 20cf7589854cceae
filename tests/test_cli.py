import csv
import json
import os
import subprocess
import sys

import pytest

from catlink.cli import _Report, _write_text
from catlink.config import load_config

CLI = [sys.executable, "-m", "catlink.cli"]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("CATLINK_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, env=env)


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


class TestValidation:
    def test_unknown_key_exits_nonzero_without_output(self, out_dir):
        r = run_cli("mc", "--out", out_dir, "--set", "chain.bogus=1")
        assert r.returncode == 2
        assert "chain" in r.stderr and "bogus" in r.stderr
        assert not os.path.exists(out_dir)

    def test_unknown_section_in_file(self, tmp_path, out_dir):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[nosuch]\nx = 1\n")
        r = run_cli("mc", "--config", str(cfg), "--out", out_dir)
        assert r.returncode == 2
        assert "nosuch" in r.stderr

    def test_bad_value_names_key(self, tmp_path, out_dir):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mc]\ntrials = many\n")
        r = run_cli("mc", "--config", str(cfg), "--out", out_dir)
        assert r.returncode == 2
        assert "trials" in r.stderr

    @pytest.mark.parametrize("argv", [("device", "--seed", "3"),
                                      ("crossover", "--trials", "5")])
    def test_flag_the_command_does_not_read_is_rejected(self, out_dir, argv):
        r = run_cli(*argv, "--out", out_dir)
        assert r.returncode == 2
        assert "unrecognized arguments" in r.stderr
        assert not os.path.exists(out_dir)

    def test_env_var_config(self, tmp_path, out_dir):
        cfg = tmp_path / "env.ini"
        cfg.write_text("[mc]\ntrials = 12000\n")
        r = run_cli("mc", "--out", out_dir, "--seed", "3",
                    env_extra={"CATLINK_CONFIG": str(cfg)})
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert summary["trials"] == 12000


class TestMonteCarloCommand:
    def test_runs_and_reports(self, out_dir):
        r = run_cli("mc", "--out", out_dir, "--trials", "15000", "--seed", "5",
                    "--set", "chain.nesting_level=1")
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert summary["seed"] == 5
        assert 0.8 < summary["formula_over_mc"]["1"] < 1.2
        assert os.path.exists(os.path.join(out_dir, "mc", "mc.csv"))
        assert os.path.exists(os.path.join(out_dir, "mc", "resolved_config.ini"))

    def test_seed_reproducibility(self, out_dir):
        args = ("mc", "--trials", "15000", "--seed", "9",
                "--set", "chain.nesting_level=1")
        r1 = run_cli(*args, "--out", out_dir + "_a")
        r2 = run_cli(*args, "--out", out_dir + "_b")
        assert r1.stdout == r2.stdout
        csv_a = open(os.path.join(out_dir + "_a", "mc", "mc.csv"), "rb").read()
        csv_b = open(os.path.join(out_dir + "_b", "mc", "mc.csv"), "rb").read()
        assert csv_a == csv_b


class TestFlagsReachSnapshot:
    @pytest.mark.parametrize("command, argv", [
        ("mc", ["--trials", "20000", "--seed", "7", "--set", "chain.nesting_level=1"]),
        ("grape", ["--iters", "2", "--seed", "1", "--set", "grape.n_segments=16"]),
    ])
    def test_rerun_from_snapshot_is_byte_identical(self, out_dir, command, argv):
        assert run_cli(command, "--out", out_dir + "_a", *argv).returncode == 0
        snapshot = os.path.join(out_dir + "_a", command, "resolved_config.ini")
        assert run_cli(command, "--out", out_dir + "_b",
                       "--config", snapshot).returncode == 0
        dirs = [os.path.join(out_dir + side, command) for side in ("_a", "_b")]
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            a, b = (open(os.path.join(d, name), "rb").read() for d in dirs)
            assert a == b, name

    def test_flag_wins_over_set(self, out_dir):
        r = run_cli("mc", "--out", out_dir, "--trials", "12000",
                    "--set", "mc.trials=15000", "--set", "chain.nesting_level=0")
        assert r.returncode == 0
        assert json.loads(r.stdout)["trials"] == 12000
        snapshot = open(os.path.join(out_dir, "mc", "resolved_config.ini")).read()
        assert "trials = 12000\n" in snapshot


class TestTransduceCommand:
    def test_byte_identical_reruns(self, out_dir):
        args = ("transduce", "--set", "transducer.n_bins=101")
        r1 = run_cli(*args, "--out", out_dir + "_a")
        r2 = run_cli(*args, "--out", out_dir + "_b")
        assert r1.returncode == 0 and r2.returncode == 0
        a = open(os.path.join(out_dir + "_a", "transduce", "transduce.csv"), "rb").read()
        b = open(os.path.join(out_dir + "_b", "transduce", "transduce.csv"), "rb").read()
        assert a == b

    def test_json_format(self, out_dir):
        r = run_cli("transduce", "--out", out_dir, "--format", "json",
                    "--set", "transducer.n_bins=101")
        assert r.returncode == 0
        path = os.path.join(out_dir, "transduce", "transduce.json")
        rows = json.load(open(path))
        assert rows[0]["eta_transfer"] > 0.98

    def test_bin_drift_reported(self, out_dir):
        r = run_cli("transduce", "--out", out_dir)
        assert r.returncode == 0
        assert 0.0 <= json.loads(r.stdout)["bin_drift"] < 1e-3
        with open(os.path.join(out_dir, "transduce", "transduce.csv"), newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["converged"] == "True"
        assert 0.0 <= float(row["bin_drift"]) < 1e-3


class TestReportWrite:
    def test_render_failure_keeps_previous_files(self, out_dir):
        report = _Report("transduce", load_config())
        report.add_table("transduce", ["a", "b"], [[1, 2.5]])
        run_dir = report.write(out_dir, "csv")
        before = {name: open(os.path.join(run_dir, name), "rb").read()
                  for name in os.listdir(run_dir)}

        report.add_table("transduce", ["a", "b"], [[3, 4.5]])
        report.summary["bad"] = object()
        with pytest.raises(TypeError):
            report.write(out_dir, "csv")
        after = {name: open(os.path.join(run_dir, name), "rb").read()
                 for name in os.listdir(run_dir)}
        assert after == before

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        target = tmp_path / "summary.json"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            _write_text(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["summary.json"]


class TestDeviceCommand:
    def test_table_schema(self, out_dir):
        r = run_cli("device", "--out", out_dir)
        assert r.returncode == 0
        header = open(os.path.join(out_dir, "device", "device.csv")).readline().strip()
        assert header == ("kappa_c_hz,gamma_hz,g_hz,Delta_hz,K_q_hz,"
                          "K_hz,kappa_hz,kappa_eff_hz")


class TestGrapeCommand:
    def test_zero_iterations_reports_initial_guess(self, out_dir):
        r = run_cli("grape", "--out", out_dir, "--iters", "0",
                    "--set", "grape.n_segments=16")
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert 0.0 <= summary["drive"]["optimized_fidelity"] <= 1.0
        assert summary["drive"]["iterations"] == 0
        pulse = os.path.join(out_dir, "grape", "pulse_drive.csv")
        lines = open(pulse).read().strip().splitlines()
        assert len(lines) == 17

    def test_summary_reports_stop_reason(self, out_dir):
        r = run_cli("grape", "--out", out_dir, "--iters", "2",
                    "--set", "grape.n_segments=16")
        assert r.returncode == 0
        summary = json.load(open(os.path.join(out_dir, "grape", "summary.json")))
        for direction in ("drive", "undrive"):
            assert summary[direction]["converged"] is False
            assert "ITERATIONS REACHED LIMIT" in summary[direction]["stop_reason"]

    def test_bad_seed_rejected(self, out_dir):
        r = run_cli("grape", "--out", out_dir, "--set", "grape.seed=abc")
        assert r.returncode == 2
        assert "[grape] seed" in r.stderr
        assert not os.path.exists(out_dir)

    def test_seed_changes_trace_not_contract(self, out_dir):
        r1 = run_cli("grape", "--out", out_dir + "_a", "--iters", "15",
                     "--seed", "1", "--set", "grape.n_segments=16")
        r2 = run_cli("grape", "--out", out_dir + "_b", "--iters", "15",
                     "--seed", "2", "--set", "grape.n_segments=16")
        s1, s2 = json.loads(r1.stdout), json.loads(r2.stdout)
        assert s1["drive"]["optimized_fidelity"] != s2["drive"]["optimized_fidelity"]


class TestCrossoverCommand:
    def test_full_pipeline_with_adiabatic_budget(self, out_dir):
        # adiabatic drive keeps this CLI path affordable; the GRAPE route is
        # exercised by the acceptance suite
        r = run_cli("crossover", "--out", out_dir,
                    "--set", "chain.drive_method=adiabatic",
                    "--set", "chain.multiplexing=200",
                    "--set", "chain.storage_policy=cat")
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert "diagnostics" not in summary  # the block reports GRAPE only
        cross = summary["crossover_km"]["m200"]
        assert 200.0 < cross < 320.0
        assert 0.8 < summary["final_fidelity"]["m200"] < 1.0
        lines = open(os.path.join(out_dir, "crossover", "crossover.csv")).read().splitlines()
        assert lines[0].startswith("scenario,L_km,n,m,P0,")

    @pytest.mark.parametrize("command", ["rates", "crossover"])
    def test_grape_diagnostics_block(self, out_dir, command):
        r = run_cli(command, "--out", out_dir, "--set", "grape.n_segments=16",
                    "--set", "catqubit.two_qubit_dim=8", "--set", "rates.length_steps=2")
        assert r.returncode == 0, r.stderr
        summary = json.load(open(os.path.join(out_dir, command, "summary.json")))
        grape = summary["diagnostics"]["grape"]
        assert sorted(grape) == ["drive", "undrive"]
        for stats in grape.values():
            assert sorted(stats) == ["converged", "evaluations", "iterations", "stop_reason"]
            assert stats["converged"] is True
            assert 0 < stats["iterations"] <= stats["evaluations"]
            assert "CONVERGENCE" in stats["stop_reason"]

    def test_bad_drive_method_rejected(self, out_dir):
        r = run_cli("crossover", "--out", out_dir,
                    "--set", "chain.drive_method=magic")
        assert r.returncode == 2
        assert "drive_method" in r.stderr

    def test_fractional_multiplexing_rejected(self, out_dir):
        r = run_cli("crossover", "--out", out_dir,
                    "--set", "chain.multiplexing=1.5,200")
        assert r.returncode == 2
        assert "multiplexing" in r.stderr
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("setting, key", [("chain.multiplexing=0,200", "multiplexing"),
                                              ("chain.nesting_level=-1", "nesting_level"),
                                              ("rates.length_steps=0", "length_steps"),
                                              ("rates.bracket_min_km=1500", "bracket_min_km"),
                                              ("chain.loss_ratio=3e4", "loss_ratio")])
    def test_bad_chain_size_rejected(self, out_dir, setting, key):
        r = run_cli("crossover", "--out", out_dir, "--set", setting)
        assert r.returncode == 2
        assert key in r.stderr
        assert not os.path.exists(out_dir)


class TestFigureCommand:
    def test_seven_curves_and_plain_float_csv(self, out_dir):
        r = run_cli("figure6", "--out", out_dir,
                    "--set", "chain.drive_method=adiabatic",
                    "--set", "rates.length_steps=3")
        assert r.returncode == 0
        lines = open(os.path.join(out_dir, "figure6", "figure6.csv")).read().splitlines()
        assert lines[0] == ("L_km,direct,cat_m200,re_m200,dlcz_m200,"
                            "cat_m1,re_m1,dlcz_m1")
        assert len(lines) == 4
        assert "np.float" not in lines[1]
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 100.0

    def test_bad_link_value_rejected(self, out_dir):
        r = run_cli("figure6", "--out", out_dir,
                    "--set", "link.emission_probability=1.5")
        assert r.returncode != 0
        assert "emission_probability" in r.stderr
        assert not os.path.exists(out_dir)


class TestGatesCommand:
    def test_single_row_table(self, out_dir):
        r = run_cli("gates", "--out", out_dir,
                    "--set", "catqubit.loss_ratios=1e3",
                    "--set", "catqubit.drive_ratios=10",
                    "--set", "catqubit.coupling_ratios=15",
                    "--set", "catqubit.two_qubit_dim=12")
        assert r.returncode == 0
        lines = open(os.path.join(out_dir, "gates", "gates.csv")).read().splitlines()
        assert lines[0] == "operation,K_rad_per_s,kappa_per_s,duration_s,duration_Kt,fidelity"
        assert len(lines) == 7  # header + 6 operations

    def test_row_count_scales_with_ratios(self, out_dir):
        r = run_cli("gates", "--out", out_dir,
                    "--set", "catqubit.loss_ratios=1e3,1e4",
                    "--set", "catqubit.drive_ratios=10,20",
                    "--set", "catqubit.coupling_ratios=15,25",
                    "--set", "catqubit.two_qubit_dim=10")
        assert r.returncode == 0
        lines = open(os.path.join(out_dir, "gates", "gates.csv")).read().splitlines()
        assert len(lines) == 13

    def test_diagnostics_block_and_byte_identical_reruns(self, out_dir):
        args = ("gates", "--set", "catqubit.loss_ratios=1e3,1e5",
                "--set", "catqubit.drive_ratios=10,45",
                "--set", "catqubit.coupling_ratios=15,55",
                "--set", "catqubit.two_qubit_dim=8")
        for suffix in ("_a", "_b"):
            assert run_cli(*args, "--out", out_dir + suffix).returncode == 0
        for name in ("gates.csv", "summary.json"):
            a = open(os.path.join(out_dir + "_a", "gates", name), "rb").read()
            b = open(os.path.join(out_dir + "_b", "gates", name), "rb").read()
            assert a == b
        summary = json.load(open(os.path.join(out_dir + "_a", "gates", "summary.json")))
        diagnostics = summary["diagnostics"]
        assert [d["K_over_kappa"] for d in diagnostics] == [1e3, 1e5]
        for d in diagnostics:
            assert sorted(d["gates"]) == ["CNOT", "G_0.5pi", "X_0.5pi", "Z_0.5pi"]
            for gate in d["gates"].values():
                assert 0.0 <= gate["leakage"] < 0.1
                assert 0.0 <= gate["quadrature_gap"] < 1e-7
                assert gate["clip_excess"] >= 0.0

    def test_mismatched_ratio_lists_rejected(self, out_dir):
        r = run_cli("gates", "--out", out_dir,
                    "--set", "catqubit.loss_ratios=1e3,1e4",
                    "--set", "catqubit.drive_ratios=10")
        assert r.returncode == 2
        assert "drive_ratios" in r.stderr
