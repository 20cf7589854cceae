"""Run configuration: a sectioned key-value file with strict validation.

Configs are INI documents read with ``configparser``.  Every key has a
documented default; unknown sections or keys are rejected with the offending
path so typos fail loudly instead of silently running defaults.  Frequencies
and rates are given in Hz and converted to angular units internally; lists
are comma separated.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["ConfigError", "RunConfig", "load_config", "CONFIG_SCHEMA",
           "describe_schema"]

TWO_PI = 2.0 * math.pi


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


_parse_float_list = _parse_list(float)
_parse_int_list = _parse_list(int)
_parse_str_list = _parse_list(str)


# (type converter, default, documentation)
CONFIG_SCHEMA: dict[str, dict[str, tuple[Callable[[str], Any], Any, str]]] = {
    "catqubit": {
        "loss_ratios": (_parse_float_list, (1e3, 1e4, 1e5),
                        "K/kappa rows for gate tables"),
        "kerr_hz": (_parse_float_list, (),
                    "absolute K/2pi per row; empty uses the calibrated defaults"),
        "alpha": (float, math.sqrt(2.0), "target cat amplitude"),
        "dim": (int, 20, "Fock truncation per cavity"),
        "two_qubit_dim": (int, 16, "per-cavity truncation in two-cavity gates"),
        "drive_duration_kt": (float, 7.2, "adiabatic ramp duration K*1.3tau"),
        "drive_ratios": (_parse_float_list, (10.0, 20.0, 45.0),
                         "E_p0 / E_x per row"),
        "coupling_ratios": (_parse_float_list, (15.0, 25.0, 55.0),
                            "E_p0 / E_c per row"),
    },
    "grape": {
        "loss_ratio": (float, 1e3, "K/kappa used when re-scoring under loss"),
        "duration_kt": (float, 0.5, "pulse length in units of 1/K"),
        "n_segments": (int, 64, "piecewise-constant segments"),
        "max_iters": (int, 400, "L-BFGS-B iteration cap"),
        "amplitude_bound_k": (float, 10.0, "drive bound in units of K"),
        "seed": (str, "", "optional integer seed perturbing the initial guess"),
    },
    "device": {
        "cavity_freq_hz": (float, 5e9, "bare cavity frequency"),
        "qubit_freq_hz": (float, 6.5e9, "ancilla frequency"),
        "anharmonicity_hz": (_parse_float_list, (250e6,), "ancilla self-Kerr K_q"),
        "coupling_hz": (_parse_float_list, (75e6,), "cavity-ancilla coupling g"),
        "cavity_decay_hz": (_parse_float_list, (0.32,), "bare cavity decay"),
        "qubit_decay_hz": (_parse_float_list, (1.6e3,), "ancilla decay gamma"),
        "cavity_levels": (int, 12, "cavity truncation in the two-mode fit"),
        "qubit_levels": (int, 5, "ancilla truncation in the two-mode fit"),
        "fit_kappa_eff": (_parse_bool, True,
                          "fit kappa_eff dynamically instead of 2 kappa alpha^2"),
    },
    "transducer": {
        "ensemble_coupling_hz": (float, 34e6, "g' sqrt(N)"),
        "natural_linewidth_hz": (_parse_float_list, (10e6,),
                                 "spin inhomogeneous FWHM rows"),
        "spin_decay_hz": (float, 160.0, "gamma_1"),
        "spin_dephasing_hz": (float, 100e3, "gamma_2"),
        "cavity_decay_hz": (float, 10.0, "microwave cavity decay"),
        "n_bins": (int, 201, "spin sub-ensemble count (odd)"),
        "span_fwhm": (float, 25.0, "detuning grid half-width in linewidths"),
        "lineshape": (str, "lorentzian", "lorentzian or gaussian"),
        "gamma2_model": (str, "loss", "loss or dephasing"),
        "echo_efficiency": (float, 0.90, "echo stage efficiency factor"),
        "coupling_efficiency": (float, 0.898, "fiber coupling efficiency factor"),
    },
    "link": {
        "attenuation_km": (float, 22.0, "fiber attenuation length"),
        "emission_probability": (float, 0.8, "photon emission probability p"),
        "detection_efficiency": (float, 0.9, "single-photon detection eta_o"),
        "operation_time_s": (str, "auto",
                             "local operation time; auto derives it from gate durations "
                             "(mc reads auto as 1e-4 s)"),
        "fiber_speed_km_s": (float, 2e5, "light speed in fiber"),
        "per_round_emission": (_parse_bool, False,
                               "square the emission probability (alternative reading)"),
    },
    "chain": {
        "loss_ratio": (float, 1e5,
                       "[catqubit] loss_ratios row for rates, crossover and figure6"),
        "drive_method": (str, "grape", "drive fidelities from grape or adiabatic pulses"),
        "nesting_level": (int, 3, "n; total length is 2^n elementary links"),
        "multiplexing": (_parse_int_list, (1, 200), "m values to evaluate"),
        "swap_probability": (float, 0.81, "P_i per nesting level"),
        "storage_policy": (_parse_str_list, ("transfer", "cat"),
                           "policy per m value: cat, fock or transfer"),
        "transfer_lifetime_s": (float, 10.0, "storage cavity lifetime"),
    },
    "comparators": {
        "source_rate_hz": (float, 1e9, "direct-transmission source rate"),
        "dlcz_generation_probability": (float, 0.01, "DLCZ photon generation"),
        "dlcz_memory_efficiency": (float, 0.9, "DLCZ memory efficiency"),
        "dlcz_detection_efficiency": (float, 0.9, "DLCZ detection efficiency"),
        "re_operation_time_s": (float, 1e-4, "rare-earth scheme local time"),
    },
    "rates": {
        "length_min_km": (float, 100.0, "curve start"),
        "length_max_km": (float, 1000.0, "curve end"),
        "length_steps": (int, 46, "curve sample count"),
        "bracket_min_km": (float, 60.0, "crossover bracket start"),
        "bracket_max_km": (float, 1500.0, "crossover bracket end"),
    },
    "mc": {
        "trials": (int, 100_000, "Monte-Carlo trials"),
        "seed": (int, 0, "master seed"),
    },
    "output": {
        "directory": (str, "out", "output root; one subdirectory per command"),
        "format": (str, "csv", "csv or json for primary tables"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; ``values[section][key]`` holds typed values."""

    values: dict[str, dict[str, Any]]
    source_path: Optional[str] = None

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def get(self, section: str, key: str) -> Any:
        return self.values[section][key]

    def with_overrides(self, overrides: dict[tuple[str, str], str]) -> "RunConfig":
        """Apply raw-string overrides (flag > file > default precedence)."""
        new_values = {s: dict(kv) for s, kv in self.values.items()}
        for (section, key), raw in overrides.items():
            if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            conv = CONFIG_SCHEMA[section][key][0]
            try:
                new_values[section][key] = conv(raw)
            except Exception as exc:
                raise ConfigError(f"invalid value for [{section}] {key}: {raw!r} ({exc})")
        _cross_validate(new_values)
        return RunConfig(values=new_values, source_path=self.source_path)

    def resolved_ini(self) -> str:
        """Render the fully resolved configuration (for report embedding)."""
        buf = io.StringIO()
        for section in sorted(self.values):
            buf.write(f"[{section}]\n")
            for key in sorted(self.values[section]):
                val = self.values[section][key]
                if isinstance(val, tuple):
                    val = ", ".join(repr(v) if isinstance(v, float) else str(v)
                                    for v in val)
                buf.write(f"{key} = {val}\n")
            buf.write("\n")
        return buf.getvalue()


def load_config(path: Optional[str] = None) -> RunConfig:
    """Read and validate a config file; ``None`` yields pure defaults."""
    values = {section: {key: spec[1] for key, spec in keys.items()}
              for section, keys in CONFIG_SCHEMA.items()}
    if path is None:
        return RunConfig(values=values)

    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            conv = CONFIG_SCHEMA[section][key][0]
            try:
                values[section][key] = conv(raw)
            except Exception as exc:
                raise ConfigError(f"invalid value for [{section}] {key}: {raw!r} ({exc})")
    _cross_validate(values)
    return RunConfig(values=values, source_path=path)


def _cross_validate(values: dict[str, dict[str, Any]]) -> None:
    cq = values["catqubit"]
    n_rows = len(cq["loss_ratios"])
    for key in ("drive_ratios", "coupling_ratios"):
        if len(cq[key]) != n_rows:
            raise ConfigError(
                f"[catqubit] {key} must list one value per loss ratio ({n_rows})")
    if cq["kerr_hz"] and len(cq["kerr_hz"]) != n_rows:
        raise ConfigError(
            f"[catqubit] kerr_hz must list one value per loss ratio ({n_rows})")
    ch = values["chain"]
    if any(m < 1 for m in ch["multiplexing"]):
        raise ConfigError(f"[chain] multiplexing values must be >= 1, got {ch['multiplexing']}")
    if ch["nesting_level"] < 0:
        raise ConfigError(f"[chain] nesting_level must be >= 0, got {ch['nesting_level']}")
    if len(ch["storage_policy"]) != len(ch["multiplexing"]):
        raise ConfigError(
            "[chain] storage_policy must list one policy per multiplexing value")
    for pol in ch["storage_policy"]:
        if pol not in ("cat", "fock", "transfer"):
            raise ConfigError(f"[chain] storage_policy: unknown policy {pol!r}")
    if ch["drive_method"] not in ("grape", "adiabatic"):
        raise ConfigError(
            f"[chain] drive_method must be grape or adiabatic, got {ch['drive_method']!r}")
    ra = values["rates"]
    if ra["length_steps"] < 1:
        raise ConfigError(f"[rates] length_steps must be >= 1, got {ra['length_steps']}")
    if ra["bracket_min_km"] >= ra["bracket_max_km"]:
        raise ConfigError(
            f"[rates] bracket_min_km must be below bracket_max_km, got "
            f"{ra['bracket_min_km']} >= {ra['bracket_max_km']}")
    seed = values["grape"]["seed"]
    if seed:
        try:
            int(seed)
        except ValueError:
            raise ConfigError(
                f"[grape] seed must be an integer or empty, got {seed!r}")
    ot = values["link"]["operation_time_s"]
    if ot != "auto":
        try:
            float(ot)
        except ValueError:
            raise ConfigError(
                f"[link] operation_time_s must be a number or 'auto', got {ot!r}")
    fmt = values["output"]["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"[output] format must be csv or json, got {fmt!r}")


def describe_schema() -> str:
    """Human-readable listing of every key, default, and meaning."""
    lines = []
    for section, keys in CONFIG_SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, default, doc) in keys.items():
            if isinstance(default, tuple):
                default = ", ".join(str(v) for v in default)
            lines.append(f"  {key} = {default}    # {doc}")
        lines.append("")
    return "\n".join(lines)
