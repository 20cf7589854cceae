"""The resolved configuration: its snapshot reads back, and every key
reaches the code that it documents."""

import contextlib
import csv
import io
import os
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from catlink import cli
from catlink import scenarios as sn
from catlink.config import CONFIG_SCHEMA, ConfigError, RunConfig, load_config
from catlink.device import DISPERSIVE_LIMIT

ALL_KEYS = [(section, key, spec) for section, keys in CONFIG_SCHEMA.items()
            for key, spec in keys.items()]
KEY_IDS = [f"{section}-{key}" for section, key, _ in ALL_KEYS]
ALL_COMMANDS = frozenset(cli.COMMANDS)
# CHAIN commands run the simulated budget; every LINK command reads the
# derived operation time
CHAIN = frozenset({"rates", "crossover"})
LINK = CHAIN | {"figure6", "mc"}

# (section, key) -> the commands whose output or budget the key changes.
# No schema key is unused.  With the default GRAPE ramps the derived time
# reads no truncation and no adiabatic ramp length.
KEY_READERS = {
    **{("catqubit", key): LINK | {"gates"}
       for key in ("loss_ratios", "kerr_hz", "drive_ratios", "coupling_ratios")},
    **{("catqubit", key): CHAIN | {"gates"}
       for key in ("dim", "two_qubit_dim", "drive_duration_kt")},
    ("catqubit", "alpha"): LINK | {"gates", "grape", "device"},
    ("grape", "loss_ratio"): {"grape"},
    ("grape", "duration_kt"): LINK | {"grape"},
    **{("grape", key): CHAIN | {"grape"}
       for key in ("n_segments", "max_iters", "amplitude_bound_k", "seed")},
    **{("device", key): {"device"} for key in CONFIG_SCHEMA["device"]},
    **{("transducer", key): {"transduce"} for key in CONFIG_SCHEMA["transducer"]},
    **{("link", key): LINK for key in CONFIG_SCHEMA["link"]},
    **{("chain", key): LINK
       for key in ("loss_ratio", "drive_method", "nesting_level", "swap_probability")},
    **{("chain", key): CHAIN
       for key in ("multiplexing", "storage_policy", "transfer_lifetime_s")},
    ("comparators", "source_rate_hz"): {"crossover", "figure6"},
    **{("comparators", key): {"figure6"}
       for key in ("dlcz_generation_probability", "dlcz_memory_efficiency",
                   "dlcz_detection_efficiency", "re_operation_time_s")},
    **{("rates", key): {"rates", "figure6"}
       for key in ("length_min_km", "length_max_km", "length_steps")},
    **{("rates", key): {"crossover"} for key in ("bracket_min_km", "bracket_max_km")},
    **{("mc", key): {"mc"} for key in CONFIG_SCHEMA["mc"]},
    **{("output", key): ALL_COMMANDS for key in CONFIG_SCHEMA["output"]},
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


WORDS = st.text(alphabet=string.ascii_letters, min_size=1)
BOOL_WORDS = {"true", "false", "yes", "no", "on", "off"}
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])


def domain_strategies(spec, size=1):
    """(Values in, raw text out of) a key's domain.  Out of it lie text outside
    an enum, NaN, either infinity and numbers past either end or, under an odd
    rule, even ones, and blank where it is refused.  A list key draws ``size`` values, and its
    bad text puts the bad value after its defaults."""
    d, probe = spec.domain, spec.parse("1")  # the parser's type
    kind = type(probe[0] if isinstance(probe, tuple) else probe)
    if d.choices and d.low is None or kind is str:
        refused = BOOL_WORDS | set(map(str, d.choices))
        item = st.sampled_from(d.choices) if d.choices else WORDS
        bad = WORDS.filter(lambda t: t.lower() not in refused) if d.choices else st.nothing()
    elif kind is int:
        even = st.integers(min_value=(d.low + 1) // 2).map(lambda k: str(2 * k))
        item = st.integers(min_value=d.low).filter(lambda n: n % 2 or not d.odd)
        bad = NON_FINITE | st.integers(max_value=d.low - 1).map(str) | (
            even if d.odd else st.nothing())
    else:
        item = st.one_of(st.floats(d.low, d.high, exclude_min=d.low_open, allow_infinity=False),
                         *map(st.just, d.choices))  # auto beside the interval
        bad = st.floats(max_value=d.low).filter(lambda x: x < d.low or d.low_open)
        if d.high is not None:
            bad |= st.floats(min_value=d.high, exclude_min=True)
        bad = bad.map(repr) | NON_FINITE
    if isinstance(spec.default, tuple):
        item = st.lists(item, min_size=size, max_size=size).map(tuple)
        bad = bad.map(lambda v: ", ".join([*map(str, spec.default), v]))
    elif d.blank:
        item = st.none() | item
    return item, (bad if d.blank else bad | st.just(""))


class TestRoundTrip:
    @staticmethod
    def reread(config, tmp_path):
        path = tmp_path / "resolved_config.ini"
        path.write_text(config.resolved_ini())
        return load_config(str(path))

    def test_defaults(self, tmp_path):
        config = load_config()
        assert self.reread(config, tmp_path).values == config.values

    def test_every_default_lies_in_its_domain(self):
        defaults = load_config()  # with_overrides checks every key, even unchanged
        assert defaults.with_overrides({}).values == defaults.values

    def test_blank_list_is_empty(self):
        config = load_config().with_overrides({("catqubit", "kerr_hz"): ""})
        assert config.get("catqubit", "kerr_hz") == ()

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_generated_values(self, tmp_path, data):
        # one row count per section; a [device] list holds 1 value or one per
        # row, and a blank list (kerr_hz) reads the calibrated defaults
        rows = {section: data.draw(st.integers(min_value=1, max_value=3))
                for section in CONFIG_SCHEMA}
        values = {}
        for section, key, spec in ALL_KEYS:
            least = 0 if spec.domain.blank else 1 if section == "device" else rows[section]
            size = data.draw(st.sampled_from((least, rows[section])))
            values.setdefault(section, {})[key] = data.draw(domain_strategies(spec, size)[0])
        ra = values["rates"]
        for low, high in (("length_min_km", "length_max_km"),
                          ("bracket_min_km", "bracket_max_km")):
            ra[low], ra[high] = sorted((ra[low], ra[high]))
            assume(ra[low] < ra[high])
        dev = values["device"]
        assume(all(abs(g) < DISPERSIVE_LIMIT * abs(dev["qubit_freq_hz"] - dev["cavity_freq_hz"])
                   for g in dev["coupling_hz"]))
        config = RunConfig(values=values)
        assert self.reread(config, tmp_path).values == config.values


class TestErrors:
    def test_bad_value_reads_the_same_from_file_and_flag(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mc]\ntrials = many\n")
        with pytest.raises(ConfigError) as from_file:
            load_config(str(path))
        with pytest.raises(ConfigError) as from_flag:
            load_config().with_overrides({("mc", "trials"): "many"})
        assert str(from_file.value) == str(from_flag.value)
        assert "[mc] trials" in str(from_flag.value)

    @pytest.mark.parametrize("key, raw", [("emission_probability", "0"),
                                          ("emission_probability", "1.5"),
                                          ("detection_efficiency", "0.0"),
                                          ("detection_efficiency", "-0.1")])
    def test_link_probability_outside_unit_interval_named(self, key, raw):
        with pytest.raises(ConfigError) as exc:
            load_config().with_overrides({("link", key): raw})
        assert str(exc.value) == f"[link] {key} must lie in (0, 1], got {float(raw)}"

    def test_unknown_section_is_named_from_file_and_flag(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nosuch]\nx = 1\n")
        with pytest.raises(ConfigError) as from_file:
            load_config(str(path))
        with pytest.raises(ConfigError) as from_flag:
            load_config().with_overrides({("nosuch", "x"): "1"})
        assert str(from_flag.value) == str(from_file.value) == "unknown config section [nosuch]"

    # lines a config file is made of, well formed or not: headers, keys,
    # repeats of both, a header without '[', a key without '=', a
    # continuation line, and any other text
    LINES = st.one_of(st.sampled_from(["[catqubit]", "[mc]", "[DEFAULT]", "catqubit]",
                                       "alpha = 1.5", "alpha = 2", "dim = 12", "alpha",
                                       "trials = 20000", "= 1", "  continued", ""]),
                      st.text(max_size=12))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=st.one_of(st.lists(LINES, max_size=8).map("\n".join).map(str.encode),
                             st.binary(max_size=40)))
    def test_any_file_loads_or_is_a_config_error(self, tmp_path, content):
        path = tmp_path / "any.ini"
        path.write_bytes(content)
        try:
            assert isinstance(load_config(str(path)), RunConfig)
        except ConfigError:
            pass


@pytest.mark.parametrize("section, key, spec", ALL_KEYS, ids=KEY_IDS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_value_outside_its_domain_is_refused_by_name(tmp_path, section, key, spec, data):
    raw = data.draw(domain_strategies(spec)[1])
    path, out = tmp_path / "bad.ini", tmp_path / "out"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"\\[{section}\\] {key}\\b"):
        load_config(str(path))
    # the command exits 2 and writes nothing
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()) as err:
        mp.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert cli.main(["mc", "--out", str(out), "--set", f"{section}.{key}={raw}"]) == 2
    assert f"[{section}] {key}" in err.getvalue() and not os.path.exists(out)


def test_every_key_has_readers():
    assert set(KEY_READERS) == {(section, key) for section, key, _ in ALL_KEYS}
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
                                      fidelities=dict.fromkeys(_OPS, 0.999))

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


_CAT, _RE, _DLCZ = ("cat_m200", "cat_m1"), ("re_m200", "re_m1"), ("dlcz_m200", "dlcz_m1")
_CURVES = ("direct",) + _CAT + _RE + _DLCZ

# (section, key) -> the figure6.csv columns that its PERTURBED value moves.
# A key that reaches figure6 only through the derived operation time moves
# the cat curves alone: the comparators set their own local times.
FIGURE6_COLUMNS = {
    **{("catqubit", key): _CAT
       for key in ("loss_ratios", "kerr_hz", "drive_ratios", "coupling_ratios", "alpha")},
    ("grape", "duration_kt"): _CAT,
    ("chain", "loss_ratio"): _CAT,
    ("chain", "drive_method"): _CAT,
    ("link", "operation_time_s"): _CAT,
    ("link", "per_round_emission"): _CAT,
    ("link", "emission_probability"): _CAT + _RE,
    ("link", "detection_efficiency"): _CAT + _RE,
    ("chain", "swap_probability"): _CAT + _RE,
    ("chain", "nesting_level"): _CAT + _RE + _DLCZ,
    ("link", "fiber_speed_km_s"): _CAT + _RE + _DLCZ,
    ("link", "attenuation_km"): _CURVES,
    ("comparators", "source_rate_hz"): ("direct",),
    ("comparators", "re_operation_time_s"): _RE,
    **{("comparators", key): _DLCZ
       for key in ("dlcz_generation_probability", "dlcz_memory_efficiency",
                   "dlcz_detection_efficiency")},
    **{("rates", key): ("L_km",) + _CURVES
       for key in ("length_min_km", "length_max_km", "length_steps")},
}


def _figure6_columns(files):
    [text] = [data.decode() for name, data in files.items() if name.endswith("figure6.csv")]
    header, *rows = csv.reader(io.StringIO(text))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("section, key", [
    key for key, readers in KEY_READERS.items() if "figure6" in readers and key[0] != "output"])
def test_figure6_key_moves_only_its_columns(observe, section, key):
    baseline, perturbed = observe("figure6", f"{section}.{key}={PERTURBED[(section, key)]}")
    before, after = _figure6_columns(baseline[0]), _figure6_columns(perturbed[0])
    assert {name for name in before if before[name] != after[name]} == set(
        FIGURE6_COLUMNS[(section, key)])
