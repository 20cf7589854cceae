import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest

from catlink import catqubit as cq
from catlink import cli, dynamics
from catlink import pulseopt as po
from catlink import scenarios as sn
from catlink.cli import _Report
from catlink.repeater import ChainParams, LinkParams, mean_time
from catlink.scenarios import TABLE_ROW_DEFAULTS
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

    @pytest.mark.parametrize("argv, message", [
        (("mc", "--trials", "100"), "[mc] trials must be >= 10000, got 100"),
        (("crossover", "--set", "link.emission_probability=0"),
         "[link] emission_probability must lie in (0, 1], got 0.0"),
        (("transduce", "--set", "transducer.span_fwhm=0"),
         "[transducer] span_fwhm must be positive, got 0.0"),
        (("transduce", "--set", "transducer.span_fwhm=-5"),
         "[transducer] span_fwhm must be positive, got -5.0"),
        (("transduce", "--set", "transducer.natural_linewidth_hz=-1e6"),
         "[transducer] natural_linewidth_hz values must be >= 0, got (-1000000.0,)"),
        (("crossover", "--set", "chain.transfer_lifetime_s=0"),
         "[chain] transfer_lifetime_s must be positive, got 0.0"),
        (("rates", "--set", "chain.transfer_lifetime_s=-1"),
         "[chain] transfer_lifetime_s must be positive, got -1.0"),
        (("mc", "--set", "link.fiber_speed_km_s=-2e5"),
         "[link] fiber_speed_km_s must be positive, got -200000.0"),
        (("rates", "--set", "link.fiber_speed_km_s=0"),
         "[link] fiber_speed_km_s must be positive, got 0.0"),
        (("mc", "--set", "link.attenuation_km=0"),
         "[link] attenuation_km must be positive, got 0.0"),
        (("mc", "--set", "link.attenuation_km=nan"),
         "[link] attenuation_km must be finite, got nan"),
        (("mc", "--set", "link.operation_time_s=-1e-5"),
         "[link] operation_time_s must be >= 0, got -1e-05"),
        (("mc", "--set", "link.operation_time_s=nan"),
         "[link] operation_time_s must be finite, got nan"),
        (("rates", "--set", "rates.length_min_km=0"),
         "[rates] length_min_km must be positive, got 0.0"),
        (("figure6", "--set", "rates.length_max_km=-100"),
         "[rates] length_max_km must be positive, got -100.0"),
        (("crossover", "--set", "rates.bracket_min_km=0"),
         "[rates] bracket_min_km must be positive, got 0.0"),
        (("gates", "--set", "catqubit.dim=1"), "[catqubit] dim must be >= 2, got 1"),
        (("gates", "--set", "catqubit.two_qubit_dim=1"),
         "[catqubit] two_qubit_dim must be >= 2, got 1"),
        (("device", "--set", "device.cavity_levels=5"),
         "[device] cavity_levels must be >= 6, got 5"),
        (("device", "--set", "device.qubit_levels=1"),
         "[device] qubit_levels must be >= 2, got 1"),
        (("figure6", "--set", "comparators.source_rate_hz=-1"),
         "[comparators] source_rate_hz must be positive, got -1.0"),
        (("figure6", "--set", "comparators.source_rate_hz=nan"),
         "[comparators] source_rate_hz must be finite, got nan"),
        (("figure6", "--set", "comparators.dlcz_detection_efficiency=0"),
         "[comparators] dlcz_detection_efficiency must lie in (0, 1], got 0.0"),
        (("figure6", "--set", "comparators.dlcz_memory_efficiency=1.5"),
         "[comparators] dlcz_memory_efficiency must lie in (0, 1], got 1.5"),
        (("figure6", "--set", "comparators.dlcz_generation_probability=nan"),
         "[comparators] dlcz_generation_probability must be finite, got nan"),
        (("figure6", "--set", "comparators.re_operation_time_s=-1"),
         "[comparators] re_operation_time_s must be >= 0, got -1.0"),
        (("figure6", "--set", "comparators.re_operation_time_s=nan"),
         "[comparators] re_operation_time_s must be finite, got nan"),
        # these exited 1 naming a library parameter, raised a traceback, or
        # exited 0 and wrote results before every key had a domain
        (("grape", "--set", "grape.n_segments=2"), "[grape] n_segments must be >= 4, got 2"),
        (("grape", "--set", "grape.loss_ratio=0"),
         "[grape] loss_ratio must be positive, got 0.0"),
        (("grape", "--set", "grape.seed=-7"), "[grape] seed must be >= 0, got -7"),
        (("transduce", "--set", "transducer.lineshape=foo"),
         "[transducer] lineshape must be lorentzian or gaussian, got 'foo'"),
        (("transduce", "--set", "transducer.n_bins=2"),
         "[transducer] n_bins must be odd and >= 51, got 2"),
        (("transduce", "--set", "transducer.echo_efficiency=2"),
         "[transducer] echo_efficiency must lie in [0, 1], got 2.0"),
        (("transduce", "--set", "transducer.spin_decay_hz=-5"),
         "[transducer] spin_decay_hz must be >= 0, got -5.0"),
        (("transduce", "--set", "transducer.natural_linewidth_hz="),
         "[transducer] natural_linewidth_hz must not be empty"),
        (("device", "--set", "device.coupling_hz=-1"),
         "[device] coupling_hz values must be >= 0, got (-1.0,)"),
        (("device", "--set", "device.anharmonicity_hz=", "--set", "device.coupling_hz=",
          "--set", "device.cavity_decay_hz=", "--set", "device.qubit_decay_hz="),
         "[device] anharmonicity_hz must not be empty"),
        (("gates", "--set", "catqubit.alpha=-1"),
         "[catqubit] alpha must be positive, got -1.0"),
        (("gates", "--set", "catqubit.drive_ratios=0,20,45"),
         "[catqubit] drive_ratios values must be positive, got (0.0, 20.0, 45.0)"),
        (("crossover", "--set", "chain.drive_method=adiabatic",
          "--set", "catqubit.coupling_ratios=15,25,-55"),
         "[catqubit] coupling_ratios values must be positive, got (15.0, 25.0, -55.0)"),
        (("crossover", "--set", "chain.multiplexing=", "--set", "chain.storage_policy="),
         "[chain] multiplexing must not be empty"),
        (("mc", "--set", "mc.seed=-3"), "[mc] seed must be >= 0, got -3"),
        (("mc", "--set", "chain.swap_probability=1.5"),
         "[chain] swap_probability must lie in (0, 1], got 1.5"),
        (("rates", "--set", "rates.length_max_km=50"),
         "[rates] length_min_km must be below length_max_km, got 100.0 >= 50.0"),
        # these exited 1 from the device model, naming no key
        (("device", "--set", "device.qubit_freq_hz=5.1e9"),
         "[device] coupling_hz must be below 0.3 |qubit_freq_hz - cavity_freq_hz| (the "
         "dispersive regime), got 7.5e+07 >= 0.3 * |5.1e+09 - 5e+09|"),
        (("device", "--set", "device.qubit_freq_hz=5e9"),
         "[device] coupling_hz must be below 0.3 |qubit_freq_hz - cavity_freq_hz| (the "
         "dispersive regime), got 7.5e+07 >= 0.3 * |5e+09 - 5e+09|"),
        # an infinity lies inside every bound it is not beyond: these exited 0
        # with a row of nan, or 1 naming no key
        (("figure6", "--set", "rates.length_max_km=inf"),
         "[rates] length_max_km must be finite, got inf"),
        (("transduce", "--set", "transducer.ensemble_coupling_hz=inf"),
         "[transducer] ensemble_coupling_hz must be finite, got inf"),
        (("device", "--set", "catqubit.alpha=inf"), "[catqubit] alpha must be finite, got inf"),
        (("grape", "--set", "grape.duration_kt=inf"),
         "[grape] duration_kt must be finite, got inf"),
        (("device", "--set", "device.coupling_hz=1e6,-inf"),
         "[device] coupling_hz values must be finite, got (1000000.0, -inf)")])
    def test_value_out_of_range_named_before_any_run(self, out_dir, argv, message):
        r = run_cli(*argv, "--out", out_dir)
        assert r.returncode == 2
        assert r.stderr == f"config error: {message}\n"
        assert not os.path.exists(out_dir)

    def test_truncation_overflow_is_an_error_not_a_traceback(self, out_dir):
        # the drive of the K/kappa = 1e3 row overflows; the message names both
        r = run_cli("gates", "--out", out_dir, "--set", "catqubit.dim=8",
                    "--set", "catqubit.loss_ratios=1e3",
                    "--set", "catqubit.drive_ratios=10",
                    "--set", "catqubit.coupling_ratios=15")
        assert r.returncode == 1
        errors = [line for line in r.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "dim = 8" in errors[0]
        assert errors[0].startswith("error: K/kappa = 1000 row, drive: population ")
        assert "Traceback" not in r.stderr
        assert not os.path.exists(out_dir)

    def test_integration_error_names_row_and_operation(self, out_dir, monkeypatch, capsys):
        # the drives of all rows are one solve in units of 1/K, so a failed
        # ramp integration names the operation, every row of the batch and
        # the failure time K t, and keeps that time
        def failing(rhs, y0, output_times, **kwargs):
            raise dynamics.IntegrationError("step size underflow (t=2.500000e-07)", 2.5e-7)

        monkeypatch.setattr(dynamics, "integrate_rk45", failing)
        monkeypatch.delenv("CATLINK_CONFIG", raising=False)
        # the default table has three rows, and the drives run first
        assert cli.main(["gates", "--out", out_dir]) == 1
        assert capsys.readouterr().err == (
            "error: K/kappa = 1000, 10000, 100000 rows, drive at K t = 2.500000e-07: "
            "step size underflow (t=2.500000e-07)\n")
        assert not os.path.exists(out_dir)
        with pytest.raises(dynamics.IntegrationError) as info:
            cli.cmd_gates(load_config())
        assert info.value.t == 2.5e-7

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

    @pytest.mark.parametrize("text, says", [
        (b"catqubit]\nalpha = 1.5\n", "cannot read config file {cfg}: "),
        (b"[catqubit]\nalpha = 1.5\nalpha = 2\n", "cannot read config file {cfg}: "),
        (b"[catqubit]\nalpha\n", "cannot read config file {cfg}: "),
        (b"[catqubit]\nalpha = 1.5\n[catqubit]\ndim = 20\n", "cannot read config file {cfg}: "),
        (b"[catqubit]\nalpha = 1.5\xff\n", "cannot read config file {cfg}: "),
        # configparser would copy these keys into every section unchecked
        (b"[DEFAULT]\nbogus = 1\n", "unknown config section [DEFAULT]"),
    ], ids=["no-section-header", "repeated-key", "no-equals", "repeated-section", "not-utf8",
            "default-section"])
    def test_malformed_file_names_it_and_writes_nothing(self, tmp_path, out_dir, monkeypatch,
                                                        capsys, text, says):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text)
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert cli.main(["mc", "--trials", "10000", "--config", str(cfg), "--out", out_dir]) == 2
        assert f"config error: {says.format(cfg=cfg)}" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

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

    @staticmethod
    def n0_formula(out_dir):
        with open(os.path.join(out_dir, "mc", "mc.csv"), newline="") as fh:
            return float(next(csv.DictReader(fh))["formula_s"])

    def test_auto_is_the_derived_operation_time(self, out_dir):
        # the [chain] loss_ratio row (1e5) with GRAPE ramps, for the default
        # chain's storage policy
        config = load_config()
        _, params, drive_ratio, coupling_ratio = cli._row_params(config)[2]
        t_o = sn.operation_time(sn.operation_durations(
            params, drive_ratio, coupling_ratio, config.get("grape", "duration_kt")),
            ChainParams().storage_policy)
        assert t_o == pytest.approx(5.8858e-5, rel=1e-4)
        r = run_cli("mc", "--out", out_dir, "--trials", "10000")
        assert r.returncode == 0, r.stderr
        assert self.n0_formula(out_dir) == mean_time(
            ChainParams(nesting_level=0), LinkParams(length_km=50.0, operation_time_s=t_o))

    def test_auto_without_its_row_is_named_before_sampling(self, out_dir, monkeypatch,
                                                           capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(cli, "monte_carlo_time", no_sampling)
        monkeypatch.delenv("CATLINK_CONFIG", raising=False)
        assert cli.main(["mc", "--out", out_dir, "--set", "chain.loss_ratio=3e4"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: [chain] loss_ratio 30000 is not one of [catqubit] loss_ratios")
        assert not os.path.exists(out_dir)

    def test_level_past_the_sampler_limit_is_named_before_sampling(self, out_dir,
                                                                   monkeypatch, capsys):
        # the sampler refuses the level before it draws any sample, of any row
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr("numpy.random.default_rng", no_sampling)
        monkeypatch.delenv("CATLINK_CONFIG", raising=False)
        assert cli.main(["mc", "--out", out_dir, "--set", "chain.nesting_level=14"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: [chain] nesting_level = 14 is past the Monte-Carlo limit n <= 13")
        assert not os.path.exists(out_dir)

    def test_vanishing_p0_refused_without_traceback(self, out_dir):
        # p0 = 2.3e-218 is positive, but its slot counts of about 1e219 would
        # overflow a block's float64 sum of squares
        r = run_cli("mc", "--out", out_dir, "--trials", "10000",
                    "--set", "link.attenuation_km=0.1")
        assert r.returncode == 1
        assert r.stderr.splitlines() == [
            "error: link success probability p0 = 2.308362755784177e-218 is past the "
            "Monte-Carlo limit p0 >= 4.6e-145"]
        assert not os.path.exists(out_dir)

    def test_numeric_operation_time_needs_no_row(self, out_dir):
        r = run_cli("mc", "--out", out_dir, "--trials", "10000",
                    "--set", "link.operation_time_s=1e-4", "--set", "chain.loss_ratio=3e4",
                    "--set", "catqubit.loss_ratios=3e3", "--set", "catqubit.drive_ratios=10",
                    "--set", "catqubit.coupling_ratios=15")
        assert r.returncode == 0, r.stderr
        assert self.n0_formula(out_dir) == mean_time(
            ChainParams(nesting_level=0), LinkParams(length_km=50.0, operation_time_s=1e-4))

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

    def test_format_switch_removes_the_other_table_only(self, out_dir):
        run_dir = os.path.join(out_dir, "mc")
        assert run_cli("mc", "--trials", "10000", "--out", out_dir).returncode == 0
        open(os.path.join(run_dir, "notes.json"), "w").close()
        for fmt, table in (("json", "mc.json"), ("csv", "mc.csv")):
            r = run_cli("mc", "--trials", "10000", "--out", out_dir, "--format", fmt)
            assert r.returncode == 0
            assert sorted(os.listdir(run_dir)) == sorted(
                [table, "notes.json", "resolved_config.ini", "summary.json"])

    def test_summary_records_the_blas_threads(self, out_dir, monkeypatch):
        # the written numbers can depend on the thread count, so the summary
        # says which one the run saw
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        r = run_cli("mc", "--trials", "10000", "--out", out_dir,
                    env_extra={"OPENBLAS_NUM_THREADS": "2"})
        assert r.returncode == 0, r.stderr
        summary = json.load(open(os.path.join(out_dir, "mc", "summary.json")))
        assert summary["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None}

    def test_failed_replace_leaves_no_temporary_file(self, out_dir, monkeypatch):
        # the swap-in rename fails: the old directory goes back into place
        # with every file, catlink's or not, and no hidden directory remains
        report = _Report("transduce", load_config())
        report.add_table("transduce", ["a", "b"], [[1, 2.5]])
        run_dir = report.write(out_dir, "csv")
        with open(os.path.join(run_dir, "notes.txt"), "w") as fh:
            fh.write("mine\n")
        before = {name: open(os.path.join(run_dir, name), "rb").read()
                  for name in os.listdir(run_dir)}
        rename = os.rename

        def refuse_swap_in(src, dst):
            if dst == os.path.realpath(run_dir) and ".old" not in src:
                raise OSError("rename refused")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", refuse_swap_in)
        report.add_table("transduce", ["a", "b"], [[3, 4.5]])
        with pytest.raises(OSError, match="rename refused"):
            report.write(out_dir, "csv")
        after = {name: open(os.path.join(run_dir, name), "rb").read()
                 for name in os.listdir(run_dir)}
        assert after == before
        assert os.listdir(out_dir) == ["transduce"]

    def test_rerun_swaps_the_directory_whole(self, out_dir):
        report = _Report("transduce", load_config())
        report.add_table("transduce", ["a", "b"], [[1, 2.5]])
        run_dir = report.write(out_dir, "csv")
        os.mkdir(os.path.join(run_dir, "plots"))
        with open(os.path.join(run_dir, "plots", "eta.txt"), "w") as fh:
            fh.write("mine\n")
        os.chmod(run_dir, 0o750)
        inode = os.stat(run_dir).st_ino
        report.add_table("transduce", ["a", "b"], [[3, 4.5]])
        assert report.write(out_dir, "csv") == run_dir
        # a new directory, with the old one's mode and the entries catlink
        # did not write, and nothing hidden left beside it
        assert os.stat(run_dir).st_ino != inode
        assert os.stat(run_dir).st_mode & 0o777 == 0o750
        assert open(os.path.join(run_dir, "plots", "eta.txt")).read() == "mine\n"
        assert open(os.path.join(run_dir, "transduce.csv")).read() == "a,b\n3,4.5\n"
        assert os.listdir(out_dir) == ["transduce"]

    def test_interrupted_carry_over_deletes_nothing(self, out_dir, monkeypatch):
        report = _Report("transduce", load_config())
        report.add_table("transduce", ["a", "b"], [[1, 2.5]])
        run_dir = report.write(out_dir, "csv")
        with open(os.path.join(run_dir, "notes.txt"), "w") as fh:
            fh.write("mine\n")
        rename = os.rename

        def interrupt_carry_over(src, dst):
            if src.endswith("notes.txt"):
                raise KeyboardInterrupt
            rename(src, dst)

        monkeypatch.setattr(os, "rename", interrupt_carry_over)
        with pytest.raises(KeyboardInterrupt):
            report.write(out_dir, "csv")
        # the new run is in place, and the file waits in the old directory
        assert sorted(os.listdir(run_dir)) == ["resolved_config.ini", "summary.json",
                                              "transduce.csv"]
        kept = [os.path.join(root, name) for root, _, names in os.walk(out_dir)
                for name in names if name == "notes.txt"]
        assert len(kept) == 1 and open(kept[0]).read() == "mine\n"

    def test_unwritable_root_is_an_error_not_a_traceback(self, tmp_path, monkeypatch, capsys):
        # an output root that is a regular file cannot hold the run directory
        root = tmp_path / "taken"
        root.write_text("not a directory\n")
        monkeypatch.delenv("CATLINK_CONFIG", raising=False)
        assert cli.main(["mc", "--trials", "10000", "--out", str(root)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write output under {root}: ")
        assert "Not a directory" in err[0]
        assert root.read_text() == "not a directory\n"


class TestDeviceCommand:
    def test_table_schema(self, out_dir):
        r = run_cli("device", "--out", out_dir)
        assert r.returncode == 0
        header = open(os.path.join(out_dir, "device", "device.csv")).readline().strip()
        assert header == ("kappa_c_hz,gamma_hz,g_hz,Delta_hz,K_q_hz,"
                          "K_hz,kappa_hz,kappa_eff_hz")

    def test_kappa_eff_follows_alpha(self, tmp_path):
        # kappa_eff is taken at [catqubit] alpha, near 2 kappa alpha^2
        def kappa_eff(alpha):
            out = str(tmp_path / alpha)
            r = run_cli("device", "--out", out, "--set", f"catqubit.alpha={alpha}")
            assert r.returncode == 0, r.stderr
            with open(os.path.join(out, "device", "device.csv")) as fh:
                return [float(row["kappa_eff_hz"]) for row in csv.DictReader(fh)]

        for root2, wider in zip(kappa_eff(repr(math.sqrt(2.0))), kappa_eff("1.5")):
            assert wider / root2 == pytest.approx(1.5**2 / 2.0, rel=0.05)

    def test_lossless_row_has_no_ratio(self, out_dir):
        # kappa_eff is 0 without loss; K / kappa has no finite value, and
        # JSON no infinity, so the summary holds null
        r = run_cli("device", "--out", out_dir, "--set", "device.cavity_decay_hz=0",
                    "--set", "device.qubit_decay_hz=0")
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out_dir, "device", "device.csv")) as fh:
            [row] = list(csv.DictReader(fh))
        assert float(row["kappa_hz"]) == float(row["kappa_eff_hz"]) == 0.0
        summary = json.load(open(os.path.join(out_dir, "device", "summary.json")))
        assert summary["K_over_kappa"] == [None]

    @pytest.mark.parametrize("key", ["coupling_hz", "anharmonicity_hz"])
    def test_row_without_kerr_is_refused_by_name(self, out_dir, key):
        # no coupling or a linear ancilla leaves K at rounding noise (or
        # below 0), which stabilizes no cat and so has no kappa_eff
        r = run_cli("device", "--out", out_dir, "--set", f"device.{key}=0")
        assert r.returncode == 1
        lines = r.stderr.splitlines()
        assert len(lines) == 1
        assert re.match(r"error: kappa_eff at K = \S+ Hz, kappa = \S+ Hz, alpha = 1.41421: ",
                        lines[0]), lines[0]
        assert not os.path.exists(out_dir)

    def test_failing_row_of_several_is_named(self, out_dir):
        r = run_cli("device", "--out", out_dir, "--set", "device.coupling_hz=75e6,0,75e6")
        assert r.returncode == 1
        assert re.match(r"error: \[device\] row 2 of 3: kappa_eff at K = \S+ Hz, "
                        r"kappa = 0.32 Hz, alpha = 1.41421: ", r.stderr), r.stderr
        assert not os.path.exists(out_dir)


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
        assert summary["drive"]["converged"] is False
        assert "ITERATIONS REACHED LIMIT" in summary["drive"]["stop_reason"]
        # one optimization: the undrive is the drive's time reverse
        assert list(summary["undrive"]) == ["lossy_fidelity"]
        with open(os.path.join(out_dir, "grape", "pulse_drive.csv")) as fh:
            drive = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "grape", "pulse_undrive.csv")) as fh:
            undrive = list(csv.DictReader(fh))
        assert [r["t_start_over_K"] for r in undrive] == [r["t_start_over_K"] for r in drive]
        for fwd, rev in zip(drive, reversed(undrive)):
            assert rev["E_p_over_K"] == fwd["E_p_over_K"]
            assert float(rev["E_p_perp_over_K"]) == -float(fwd["E_p_perp_over_K"])

    def test_integration_error_names_the_operation(self, out_dir, monkeypatch, capsys):
        # the optimizer propagates exactly; only the lossy re-score integrates,
        # at K = 1 and kappa = 1 / [grape] loss_ratio, and its error names that row
        def failing(rhs, y0, output_times, **kwargs):
            raise dynamics.IntegrationError("step size underflow (t=2.500000e-07)", 2.5e-7)

        monkeypatch.setattr(dynamics, "integrate_rk45", failing)
        monkeypatch.delenv("CATLINK_CONFIG", raising=False)
        assert cli.main(["grape", "--iters", "3", "--set", "grape.n_segments=16",
                         "--out", out_dir]) == 1
        assert capsys.readouterr().err == (
            "error: K/kappa = 1000 row, GRAPE pulse evaluation at K t = 2.500000e-07: "
            "step size underflow (t=2.500000e-07)\n")
        assert not os.path.exists(out_dir)

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
        assert sorted(summary["diagnostics"]) == ["drive", "undrive"]  # the ramps' block
        cross = summary["crossover_km"]["m200"]
        assert 200.0 < cross < 320.0
        assert 0.8 < summary["final_fidelity"]["m200"] < 1.0
        lines = open(os.path.join(out_dir, "crossover", "crossover.csv")).read().splitlines()
        assert lines[0].startswith("scenario,L_km,n,m,P0,")

    @pytest.mark.parametrize("command", ["rates", "crossover"])
    def test_adiabatic_diagnostics_block(self, out_dir, command):
        # the budget's drive and undrive report what gates reports for them
        r = run_cli(command, "--out", out_dir, "--set", "chain.drive_method=adiabatic",
                    "--set", "catqubit.two_qubit_dim=8", "--set", "rates.length_steps=2")
        assert r.returncode == 0, r.stderr
        summary = json.load(open(os.path.join(out_dir, command, "summary.json")))
        diagnostics = summary["diagnostics"]
        assert sorted(diagnostics) == ["drive", "undrive"]
        for ramp in diagnostics.values():
            assert sorted(ramp) == ["rhs_evals", "tail_population"]
            assert ramp["rhs_evals"] > 0
            assert 0.0 <= ramp["tail_population"] <= 1e-6

    @pytest.mark.parametrize("command", ["rates", "crossover"])
    def test_grape_diagnostics_block(self, out_dir, command):
        r = run_cli(command, "--out", out_dir, "--set", "grape.n_segments=16",
                    "--set", "catqubit.two_qubit_dim=8", "--set", "rates.length_steps=2")
        assert r.returncode == 0, r.stderr
        summary = json.load(open(os.path.join(out_dir, command, "summary.json")))
        stats = summary["diagnostics"]["grape"]  # the one drive optimization
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

    def test_runs_no_simulation(self, tmp_path, monkeypatch):
        # the cat-storage T_o of the [chain] loss_ratio row (1e5) as the
        # simulated records give it
        config = load_config()
        _, params, drive_ratio, coupling_ratio = cli._row_params(config)[2]
        e_x = params.two_photon_amplitude / drive_ratio
        e_c = params.two_photon_amplitude / coupling_ratio
        ramp = config.get("grape", "duration_kt") / params.kerr
        records = {"drive": ramp, "undrive": ramp,
                   "x_half": cq.gate_x(params, math.pi / 2, e_x).duration_s,
                   "x_pi": cq.gate_x(params, math.pi, e_x).duration_s,
                   "z_half": cq.gate_z(params, math.pi / 2).duration_s,
                   "cnot": cq.cnot(params, e_x, e_c).duration_s,
                   "transduction": sn.TRANSDUCTION_TIME_S}
        t_o = sn.operation_time(records, "cat")

        def simulation(*args, **kwargs):
            raise AssertionError("simulated")

        for module, name in ((sn, "operation_budget"), (po, "grape_optimize"), (cq, "cnot")):
            monkeypatch.setattr(module, name, simulation)
        monkeypatch.delenv("CATLINK_CONFIG", raising=False)
        tables = []
        for extra in ([], ["--set", f"link.operation_time_s={t_o!r}"]):
            out = str(tmp_path / f"out{len(tables)}")
            assert cli.main(["figure6", "--out", out, *extra]) == 0
            with open(os.path.join(out, "figure6", "figure6.csv"), "rb") as fh:
                tables.append(fh.read())
        assert tables[0] == tables[1]

    def test_bad_link_value_rejected(self, out_dir):
        r = run_cli("figure6", "--out", out_dir,
                    "--set", "link.emission_probability=1.5")
        assert r.returncode != 0
        assert "emission_probability" in r.stderr
        assert not os.path.exists(out_dir)


class TestGatesCommand:
    def test_single_row_table(self, out_dir, gate_rows_1e3):
        # the row's defaults are those of gate_rows_1e3
        r = run_cli("gates", "--out", out_dir,
                    "--set", "catqubit.loss_ratios=1e3",
                    "--set", "catqubit.drive_ratios=10",
                    "--set", "catqubit.coupling_ratios=15")
        assert r.returncode == 0
        lines = open(os.path.join(out_dir, "gates", "gates.csv")).read().splitlines()
        assert lines[0] == "operation,K_rad_per_s,kappa_per_s,duration_s,duration_Kt,fidelity"
        assert len(lines) == 7  # header + 6 operations
        kerr = TABLE_ROW_DEFAULTS[1e3]
        for line, (name, record) in zip(lines[1:], gate_rows_1e3.items()):
            operation, k, _, duration_s, duration_kt, fidelity = line.split(",")
            assert (operation, k) == (name, repr(kerr))
            assert duration_s == repr(record.duration_s)
            assert duration_kt == repr(record.duration_s * kerr)
            assert fidelity == repr(record.fidelity)

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
            for ramp in ("drive", "undrive"):
                assert d[ramp]["rhs_evals"] > 0
                assert 0.0 <= d[ramp]["tail_population"] <= 1e-6
            # the undrive starts from the truncated Hamiltonian's own cat, so it
            # costs about as much as the drive (5,428 against 4,696 for the
            # batches of the three default rows)
            assert d["undrive"]["rhs_evals"] <= 1.25 * d["drive"]["rhs_evals"]
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
