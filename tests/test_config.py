"""The resolved configuration: its snapshot reads back, and every key
reaches the code that it documents."""

import pytest

from catlink import cli
from catlink import scenarios as sn
from catlink.config import CONFIG_SCHEMA, load_config

ALL_COMMANDS = frozenset(cli.COMMANDS)
BUDGET = frozenset({"rates", "crossover", "figure6"})
CHAIN = frozenset({"rates", "crossover"})
LINK = BUDGET | {"mc"}

# (section, key) -> the commands whose output or budget the key changes.
# No schema key is unused.
KEY_READERS = {
    **{("catqubit", key): BUDGET | {"gates"}
       for key in ("loss_ratios", "kerr_hz", "dim", "two_qubit_dim", "drive_duration_kt",
                   "drive_ratios", "coupling_ratios")},
    ("catqubit", "alpha"): BUDGET | {"gates", "grape"},
    ("grape", "loss_ratio"): {"grape"},
    **{("grape", key): BUDGET | {"grape"}
       for key in ("duration_kt", "n_segments", "max_iters", "amplitude_bound_k", "seed")},
    **{("device", key): {"device"} for key in CONFIG_SCHEMA["device"]},
    **{("transducer", key): {"transduce"} for key in CONFIG_SCHEMA["transducer"]},
    **{("link", key): LINK for key in CONFIG_SCHEMA["link"]},
    ("chain", "loss_ratio"): BUDGET,
    ("chain", "drive_method"): BUDGET,
    ("chain", "nesting_level"): LINK,
    ("chain", "swap_probability"): LINK,
    ("chain", "multiplexing"): CHAIN,
    ("chain", "storage_policy"): CHAIN,
    ("chain", "transfer_lifetime_s"): CHAIN,
    ("comparators", "source_rate_hz"): {"crossover", "figure6"},
    **{("comparators", key): {"figure6"}
       for key in ("dlcz_generation_probability", "dlcz_memory_efficiency",
                   "dlcz_detection_efficiency", "re_operation_time_s")},
    **{("rates", key): {"rates", "figure6"}
       for key in ("length_min_km", "length_max_km", "length_steps")},
    ("rates", "bracket_min_km"): {"crossover"},
    ("rates", "bracket_max_km"): {"crossover"},
    ("mc", "trials"): {"mc"},
    ("mc", "seed"): {"mc"},
    ("output", "directory"): ALL_COMMANDS,
    ("output", "format"): ALL_COMMANDS,
}

# A valid value other than the default for every key read by a command
# that the perturbation test runs.
PERTURBED = {
    ("catqubit", "loss_ratios"): "1e4,1e5,1e3",
    ("catqubit", "kerr_hz"): "3e5,3e5,3e5",
    ("catqubit", "alpha"): "1.5",
    ("catqubit", "dim"): "22",
    ("catqubit", "two_qubit_dim"): "12",
    ("catqubit", "drive_duration_kt"): "8.0",
    ("catqubit", "drive_ratios"): "10,20,40",
    ("catqubit", "coupling_ratios"): "15,25,50",
    ("grape", "duration_kt"): "0.6",
    ("grape", "n_segments"): "32",
    ("grape", "max_iters"): "100",
    ("grape", "amplitude_bound_k"): "8",
    ("grape", "seed"): "3",
    ("link", "attenuation_km"): "20",
    ("link", "emission_probability"): "0.7",
    ("link", "detection_efficiency"): "0.8",
    ("link", "operation_time_s"): "2e-5",
    ("link", "fiber_speed_km_s"): "1e5",
    ("link", "per_round_emission"): "true",
    ("chain", "loss_ratio"): "1e4",
    ("chain", "drive_method"): "adiabatic",
    ("chain", "nesting_level"): "2",
    ("chain", "multiplexing"): "1,100",
    ("chain", "swap_probability"): "0.7",
    ("chain", "storage_policy"): "fock,fock",
    ("chain", "transfer_lifetime_s"): "1.0",
    ("comparators", "source_rate_hz"): "2e9",
    ("comparators", "dlcz_generation_probability"): "0.02",
    ("comparators", "dlcz_memory_efficiency"): "0.8",
    ("comparators", "dlcz_detection_efficiency"): "0.8",
    ("comparators", "re_operation_time_s"): "2e-4",
    ("rates", "length_min_km"): "150",
    ("rates", "length_max_km"): "900",
    ("rates", "length_steps"): "10",
    ("rates", "bracket_min_km"): "100",
    ("rates", "bracket_max_km"): "1400",
    ("mc", "trials"): "10000",
    ("mc", "seed"): "1",
    ("output", "directory"): "out2",
    ("output", "format"): "json",
}

# commands cheap enough to run once per key when the budget is faked
PERTURBATION_COMMANDS = ("rates", "crossover", "figure6", "mc")
MC_TRIALS = "mc.trials=20000"


class TestRoundTrip:
    @staticmethod
    def reread(config, tmp_path):
        path = tmp_path / "resolved_config.ini"
        path.write_text(config.resolved_ini())
        return load_config(str(path))

    def test_defaults(self, tmp_path):
        config = load_config()
        assert self.reread(config, tmp_path).values == config.values

    def test_blank_list_is_empty(self):
        config = load_config().with_overrides({("catqubit", "kerr_hz"): ""})
        assert config.get("catqubit", "kerr_hz") == ()

    def test_every_list_key_perturbed(self, tmp_path):
        lists = {
            ("catqubit", "loss_ratios"): "1e4, 1e5",
            ("catqubit", "kerr_hz"): "3.1e5, 2.7e5",
            ("catqubit", "drive_ratios"): "20.5, 0.1",
            ("catqubit", "coupling_ratios"): "25, 55",
            ("device", "anharmonicity_hz"): "2.5e8, 3e8",
            ("device", "coupling_hz"): "7.5e7, 1e8",
            ("device", "cavity_decay_hz"): "0.3, 0.7",
            ("device", "qubit_decay_hz"): "1600, 3200",
            ("transducer", "natural_linewidth_hz"): "1e7, 2e7",
            ("chain", "multiplexing"): "1, 20, 200",
            ("chain", "storage_policy"): "cat, fock, transfer",
        }
        assert set(lists) == {(section, key) for section, keys in CONFIG_SCHEMA.items()
                              for key, (_, default, _) in keys.items()
                              if isinstance(default, tuple)}
        config = load_config().with_overrides(lists)
        assert self.reread(config, tmp_path).values == config.values


def test_every_key_has_readers():
    assert set(KEY_READERS) == {(section, key) for section, keys in CONFIG_SCHEMA.items()
                                for key in keys}
    assert all(readers <= ALL_COMMANDS for readers in KEY_READERS.values())


_OPS = ("drive", "undrive", "x_half", "x_pi", "z_half", "cnot", "transduction")


@pytest.fixture(scope="module")
def observe(tmp_path_factory):
    """Run a command in process with a fake budget; return its written
    files (less the config snapshot and the summary that embeds it) and the
    arguments the budget received."""
    baselines = {}

    def run(command, setting=None):
        calls = []

        def fake_budget(*args, **kwargs):
            calls.append((args, kwargs))
            return sn.OperationBudget(params=args[0],
                                      fidelities=dict.fromkeys(_OPS, 0.999),
                                      durations_s=dict.fromkeys(_OPS, 1e-7))

        cwd = tmp_path_factory.mktemp(command)
        argv = [command, "--set", MC_TRIALS] + (["--set", setting] if setting else [])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sn, "operation_budget", fake_budget)
            mp.delenv(cli.CONFIG_ENV_VAR, raising=False)
            mp.chdir(cwd)
            assert cli.main(argv) == 0
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
                 if p.is_file() and p.name not in ("summary.json", "resolved_config.ini")}
        return files, repr(calls)

    def observe(command, setting):
        if command not in baselines:
            baselines[command] = run(command)
        return baselines[command], run(command, setting)

    return observe


@pytest.mark.parametrize("command, section, key", [
    (command, section, key) for (section, key), readers in KEY_READERS.items()
    for command in PERTURBATION_COMMANDS if command in readers])
def test_key_reaches_command(observe, command, section, key):
    baseline, perturbed = observe(command, f"{section}.{key}={PERTURBED[(section, key)]}")
    assert perturbed != baseline
