"""Run configuration: a sectioned key-value file with strict validation.

Configs are INI documents read with ``configparser``.  Every key has a
documented default and a domain of valid values; unknown sections or keys,
and values outside their domain, are rejected with the offending path so
typos fail loudly instead of silently running defaults.  Frequencies and
rates are given in Hz and converted to angular units internally; lists are
comma separated.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from .device import DISPERSIVE_LIMIT

__all__ = ["ConfigError", "RunConfig", "load_config", "CONFIG_SCHEMA",
           "describe_schema"]


class ConfigError(ValueError):
    """Configuration validation failure; the message names the field path."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    """Comma-separated list parser; blank text is the empty list."""
    def parse(text: str) -> tuple:
        return tuple(item(x.strip()) for x in text.split(",")) if text.strip() else ()
    return parse


_floats = _parse_list(float)
_ints = _parse_list(int)
_texts = _parse_list(str)


@dataclass(frozen=True)
class Domain:
    """The values a key accepts, each value of a list key: finite numbers from
    ``low`` (open with ``low_open``) to ``high`` (closed), odd with ``odd``;
    text from ``choices`` if any (an enum, or ``auto`` beside an interval); a
    blank (), '' or None only with ``blank``."""

    low: Optional[float] = None
    high: Optional[float] = None
    low_open: bool = False
    odd: bool = False
    choices: tuple = ()
    blank: bool = False

    def admits(self, value: Any) -> bool:
        if value in self.choices or isinstance(value, str):
            return value in self.choices or not self.choices
        return (math.isfinite(value)
                and (self.low is None or (value > self.low if self.low_open else value >= self.low))
                and (self.high is None or value <= self.high)
                and not (self.odd and value % 2 == 0))

    def phrase(self) -> str:
        """What a value must do, in the words of the error message."""
        if self.high is not None:
            return f"lie in {'(' if self.low_open else '['}{self.low}, {self.high}]"
        if self.low is not None:
            return ("be positive" if self.low_open  # every open lower end is 0
                    else f"be {'odd and ' if self.odd else ''}>= {self.low}")
        if self.choices:
            *head, last = self.choices
            return f"be {', '.join(map(str, head))} or {last}"
        return "not be empty"


POSITIVE, NONNEGATIVE = Domain(low=0, low_open=True), Domain(low=0)
UNIT, FRACTION = Domain(low=0, high=1, low_open=True), Domain(low=0, high=1)
BOOL = Domain(choices=(False, True))


class Key(NamedTuple):
    parse: Callable[[str], Any]
    default: Any
    domain: Domain
    doc: str


CONFIG_SCHEMA: dict[str, dict[str, Key]] = {
    "catqubit": {
        "loss_ratios": Key(_floats, (1e3, 1e4, 1e5), POSITIVE, "K/kappa rows for gate tables"),
        "kerr_hz": Key(_floats, (), Domain(low=0, low_open=True, blank=True),
                       "absolute K/2pi per row; empty uses the calibrated defaults"),
        "alpha": Key(float, math.sqrt(2.0), POSITIVE, "target cat amplitude"),
        "dim": Key(int, 20, Domain(low=2), "Fock truncation per cavity"),
        "two_qubit_dim": Key(int, 16, Domain(low=2),
                             "per-cavity truncation in two-cavity gates"),
        "drive_duration_kt": Key(float, 7.2, POSITIVE, "adiabatic ramp duration K*1.3tau"),
        "drive_ratios": Key(_floats, (10.0, 20.0, 45.0), POSITIVE, "E_p0 / E_x per row"),
        "coupling_ratios": Key(_floats, (15.0, 25.0, 55.0), POSITIVE, "E_p0 / E_c per row"),
    },
    "grape": {
        "loss_ratio": Key(float, 1e3, POSITIVE, "K/kappa used when re-scoring under loss"),
        "duration_kt": Key(float, 0.5, POSITIVE, "pulse length in units of 1/K"),
        "n_segments": Key(int, 64, Domain(low=4), "piecewise-constant segments"),
        "max_iters": Key(int, 400, NONNEGATIVE, "L-BFGS-B iteration cap"),
        "amplitude_bound_k": Key(float, 10.0, POSITIVE, "drive bound in units of K"),
        "seed": Key(lambda text: int(text) if text.strip() else None, None,
                    Domain(low=0, blank=True),
                    "optional integer seed perturbing the initial guess"),
    },
    "device": {
        "cavity_freq_hz": Key(float, 5e9, POSITIVE, "bare cavity frequency"),
        "qubit_freq_hz": Key(float, 6.5e9, POSITIVE, "ancilla frequency"),
        "anharmonicity_hz": Key(_floats, (250e6,), NONNEGATIVE, "ancilla self-Kerr K_q"),
        "coupling_hz": Key(_floats, (75e6,), NONNEGATIVE, "cavity-ancilla coupling g"),
        "cavity_decay_hz": Key(_floats, (0.32,), NONNEGATIVE, "bare cavity decay"),
        "qubit_decay_hz": Key(_floats, (1.6e3,), NONNEGATIVE, "ancilla decay gamma"),
        # the Kerr fit reads |5, 0> (device.N_FIT_LEVELS)
        "cavity_levels": Key(int, 12, Domain(low=6), "cavity truncation in the two-mode fit"),
        "qubit_levels": Key(int, 5, Domain(low=2), "ancilla truncation in the two-mode fit"),
    },
    "transducer": {
        "ensemble_coupling_hz": Key(float, 34e6, POSITIVE, "g' sqrt(N)"),
        "natural_linewidth_hz": Key(_floats, (10e6,), NONNEGATIVE,
                                    "spin inhomogeneous FWHM rows"),
        "spin_decay_hz": Key(float, 160.0, NONNEGATIVE, "gamma_1"),
        "spin_dephasing_hz": Key(float, 100e3, NONNEGATIVE, "gamma_2"),
        "cavity_decay_hz": Key(float, 10.0, NONNEGATIVE, "microwave cavity decay"),
        "n_bins": Key(int, 201, Domain(low=51, odd=True), "spin sub-ensemble count"),
        "span_fwhm": Key(float, 25.0, POSITIVE, "detuning grid half-width in linewidths"),
        "lineshape": Key(str, "lorentzian", Domain(choices=("lorentzian", "gaussian")),
                         "spin line shape"),
        "gamma2_model": Key(str, "loss", Domain(choices=("loss", "dephasing")),
                            "gamma_2 as loss or as pure dephasing"),
        "echo_efficiency": Key(float, 0.90, FRACTION, "echo stage efficiency factor"),
        "coupling_efficiency": Key(float, 0.898, FRACTION, "fiber coupling efficiency factor"),
    },
    "link": {
        "attenuation_km": Key(float, 22.0, POSITIVE, "fiber attenuation length"),
        "emission_probability": Key(float, 0.8, UNIT, "photon emission probability p"),
        "detection_efficiency": Key(float, 0.9, UNIT, "single-photon detection eta_o"),
        "operation_time_s": Key(lambda text: "auto" if text.strip() == "auto" else float(text),
                                "auto", Domain(low=0, choices=("auto",)),
                                "local operation time; auto derives it from the closed-form "
                                "durations of the [chain] loss_ratio row, for mc under the "
                                "fock storage policy"),
        "fiber_speed_km_s": Key(float, 2e5, POSITIVE, "light speed in fiber"),
        "per_round_emission": Key(_parse_bool, False, BOOL,
                                  "square the emission probability (alternative reading)"),
    },
    "chain": {
        "loss_ratio": Key(float, 1e5, POSITIVE, "[catqubit] loss_ratios row for rates, "
                          "crossover, figure6 and auto T_o"),
        "drive_method": Key(str, "grape", Domain(choices=("grape", "adiabatic")),
                            "drive fidelities from grape or adiabatic pulses"),
        "nesting_level": Key(int, 3, NONNEGATIVE, "n; total length is 2^n elementary links"),
        "multiplexing": Key(_ints, (1, 200), Domain(low=1), "m values to evaluate"),
        "swap_probability": Key(float, 0.81, UNIT, "P_i per nesting level"),
        "storage_policy": Key(_texts, ("transfer", "cat"),
                              Domain(choices=("cat", "fock", "transfer")),
                              "policy per m value"),
        "transfer_lifetime_s": Key(float, 10.0, POSITIVE, "storage cavity lifetime"),
    },
    "comparators": {
        "source_rate_hz": Key(float, 1e9, POSITIVE, "direct-transmission source rate"),
        "dlcz_generation_probability": Key(float, 0.01, UNIT, "DLCZ photon generation"),
        "dlcz_memory_efficiency": Key(float, 0.9, UNIT, "DLCZ memory efficiency"),
        "dlcz_detection_efficiency": Key(float, 0.9, UNIT, "DLCZ detection efficiency"),
        "re_operation_time_s": Key(float, 1e-4, NONNEGATIVE, "rare-earth scheme local time"),
    },
    "rates": {
        "length_min_km": Key(float, 100.0, POSITIVE, "curve start"),
        "length_max_km": Key(float, 1000.0, POSITIVE, "curve end"),
        "length_steps": Key(int, 46, Domain(low=1), "curve sample count"),
        "bracket_min_km": Key(float, 60.0, POSITIVE, "crossover bracket start"),
        "bracket_max_km": Key(float, 1500.0, POSITIVE, "crossover bracket end"),
    },
    "mc": {
        "trials": Key(int, 100_000, Domain(low=10_000), "Monte-Carlo trials"),
        "seed": Key(int, 0, NONNEGATIVE, "master seed"),
    },
    "output": {
        "directory": Key(str, "out", Domain(), "output root; one subdirectory per command"),
        "format": Key(str, "csv", Domain(choices=("csv", "json")), "primary table format"),
    },
}


def _render(value: Any) -> str:
    """A value as a config file writes it: lists comma separated, None blank."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return "" if value is None else str(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; ``values[section][key]`` holds typed values."""

    values: dict[str, dict[str, Any]]

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def get(self, section: str, key: str) -> Any:
        return self.values[section][key]

    def with_overrides(self, overrides: dict[tuple[str, str], str]) -> "RunConfig":
        """Apply raw-string overrides (flag > file > default precedence)."""
        new_values = {s: dict(kv) for s, kv in self.values.items()}
        for (section, key), raw in overrides.items():
            keys = _schema_section(section)
            if key not in keys:
                raise ConfigError(f"unknown config key [{section}] {key}")
            try:
                new_values[section][key] = keys[key].parse(raw)
            except Exception as exc:
                raise ConfigError(f"invalid value for [{section}] {key}: {raw!r} ({exc})")
        _check_domains(new_values)
        _cross_validate(new_values)
        return RunConfig(values=new_values)

    def chain_row(self) -> int:
        """Index of the ``[catqubit] loss_ratios`` row named by ``[chain] loss_ratio``;
        asked only by the commands that read that row, so not checked on load."""
        ratio, ratios = self.get("chain", "loss_ratio"), self.get("catqubit", "loss_ratios")
        if ratio not in ratios:
            raise ConfigError(f"[chain] loss_ratio {ratio:g} is not one of "
                              f"[catqubit] loss_ratios {ratios}")
        return ratios.index(ratio)

    def resolved_ini(self) -> str:
        """Render the fully resolved configuration (for report embedding)."""
        buf = io.StringIO()
        for section in sorted(self.values):
            buf.write(f"[{section}]\n")
            for key in sorted(self.values[section]):
                buf.write(f"{key} = {_render(self.values[section][key])}\n")
            buf.write("\n")
        return buf.getvalue()


def load_config(path: Optional[str] = None) -> RunConfig:
    """Read and validate a config file; ``None`` yields pure defaults.

    The file's values go through ``RunConfig.with_overrides``, so a bad value
    reads the same from a file as from ``--set``.
    """
    defaults = RunConfig(values={section: {key: spec.default for key, spec in keys.items()}
                                 for section, keys in CONFIG_SCHEMA.items()})
    if path is None:
        return defaults

    # no section header can spell an empty name, so a [DEFAULT] section is an
    # ordinary one, refused as unknown, rather than keys copied into every
    # section unchecked
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    overrides = {}
    for section in parser.sections():
        _schema_section(section)  # an unknown section fails even when empty
        overrides.update({(section, key): raw for key, raw in parser.items(section)})
    return defaults.with_overrides(overrides)


def _schema_section(section: str) -> dict[str, Key]:
    try:
        return CONFIG_SCHEMA[section]
    except KeyError:
        raise ConfigError(f"unknown config section [{section}]") from None


def _check_domains(values: dict[str, dict[str, Any]]) -> None:
    """Check every key against its schema domain, a list key value by value."""
    for section, keys in CONFIG_SCHEMA.items():
        for key, spec in keys.items():
            value, domain = values[section][key], spec.domain
            items = value if isinstance(value, tuple) else (value,)
            if value in ((), "", None):
                if not domain.blank:
                    raise ConfigError(f"[{section}] {key} must not be empty")
            elif not all(map(domain.admits, items)):
                each = "values " if isinstance(value, tuple) else ""
                # an infinity lies inside every bound that it is not beyond,
                # and NaN breaks no bound, only finiteness
                rule = ("be finite" if any(isinstance(v, float) and not math.isfinite(v)
                                           for v in items)
                        else domain.phrase())
                raise ConfigError(f"[{section}] {key} {each}must {rule}, got {value!r}")


def _cross_validate(values: dict[str, dict[str, Any]]) -> None:
    """The checks that relate two keys, each already inside its domain."""
    cq, ch, ra = values["catqubit"], values["chain"], values["rates"]
    n_rows = len(cq["loss_ratios"])
    for key in ("drive_ratios", "coupling_ratios", "kerr_hz"):
        if cq[key] and len(cq[key]) != n_rows:  # only kerr_hz may be blank
            raise ConfigError(f"[catqubit] {key} must list one value per loss ratio ({n_rows})")
    if len(ch["storage_policy"]) != len(ch["multiplexing"]):
        raise ConfigError("[chain] storage_policy must list one policy per multiplexing value")
    # every [device] list holds one value per device row, or one for all rows
    device = {k: v for k, v in values["device"].items() if isinstance(v, tuple)}
    n_devices = max(map(len, device.values()))
    for key, vals in device.items():
        if len(vals) not in (1, n_devices):
            raise ConfigError(f"[device] {key}: expected 1 or {n_devices} values")
    # every device row must be dispersive, as ``DeviceParams.check_dispersive`` asks
    qubit, cavity = values["device"]["qubit_freq_hz"], values["device"]["cavity_freq_hz"]
    for g in device["coupling_hz"]:
        if not abs(g) < DISPERSIVE_LIMIT * abs(qubit - cavity):
            raise ConfigError(
                f"[device] coupling_hz must be below {DISPERSIVE_LIMIT} |qubit_freq_hz - "
                f"cavity_freq_hz| (the dispersive regime), got {g:g} >= {DISPERSIVE_LIMIT} * "
                f"|{qubit:g} - {cavity:g}|")
    for low, high in (("length_min_km", "length_max_km"), ("bracket_min_km", "bracket_max_km")):
        if ra[low] >= ra[high]:
            raise ConfigError(
                f"[rates] {low} must be below {high}, got {ra[low]} >= {ra[high]}")


def describe_schema() -> str:
    """Human-readable listing of every key: default, meaning and domain."""
    lines = []
    for section, keys in CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        for key, spec in keys.items():
            rule = f"must {spec.domain.phrase()}"
            if isinstance(spec.default, tuple):
                rule = f"{0 if spec.domain.blank else 1} or more values, each {rule}"
            lines.append(f"  {key} = {_render(spec.default)}    # {spec.doc}; {rule}")
        lines.append("")
    return "\n".join(lines)
