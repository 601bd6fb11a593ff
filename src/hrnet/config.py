"""Strict run-configuration loading.

One INI-style file fully determines a run.  Sections: ``[parameters]``
(model constants; omitted keys fall back to the documented default profile),
``[domain]`` (required), ``[matching]`` (required), ``[initial]``,
``[integrator]`` (required; ``t_end`` must be present), ``[metrics]`` and
``[output]``.  Parsing is strict: unknown sections or keys are errors, and
every diagnostic names the file, section, and key it refers to.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass

from .core import DEFAULT_PROFILE, HRParameters
from .domain import BoundaryMatching, Domain, build_domain, full_boundary_matching, parse_matching
from .dynamics import IC_KINDS, SCHEMES, InitialCondition, IntegratorConfig
from .errors import ConfigError, MatchingError

_ETA_MODES = ("discrete", "analytic")

_ALLOWED_KEYS = {
    "parameters": {"a", "b", "alpha", "beta", "q", "r", "c", "J", "d", "p", "n_neurons"},
    "domain": {"dim", "extents", "cells", "eta_mode"},
    "matching": None,  # full | segment* (validated separately)
    "initial": {"kind", "seed", "offset", "noise", "u_values", "v_values",
                "w_values", "center", "width", "amplitude", "path"},
    "integrator": {"t_end", "scheme", "dt", "cfl_safety", "record_every", "linear_tol"},
    "metrics": {"tolerance", "entry_slack", "decay_tolerance", "window_fraction",
                "tail_fraction", "floor"},
    "output": {"directory"},
}

_REQUIRED_SECTIONS = ("domain", "matching", "integrator")


@dataclass(frozen=True)
class MetricsOptions:
    """Tolerances and window rules used by the report writers and monitors."""

    tolerance: float = 0.05
    entry_slack: float = 0.10
    decay_tolerance: float = 0.10
    window_fraction: float = 0.5
    tail_fraction: float = 0.2
    floor: float = 1e-14

    def __post_init__(self):
        # nan fails every comparison, so it would slip past the range checks
        # below and switch the monitors' checks off
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("tolerance", "entry_slack", "decay_tolerance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValueError("window_fraction must lie in (0, 1]")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must lie in (0, 1]")
        if self.floor <= 0:
            raise ValueError("floor must be > 0")


@dataclass(frozen=True)
class RunConfig:
    """Fully typed run description, as loaded from one config file."""

    path: str
    params: HRParameters
    domain: Domain
    matching: BoundaryMatching
    ic: InitialCondition
    integrator: IntegratorConfig
    metrics: MetricsOptions
    output_dir: str
    eta_mode: str


class _Section:
    """Typed accessors over one section with located error messages."""

    def __init__(self, path, name, mapping):
        self.path = path
        self.name = name
        self.mapping = dict(mapping)

    def _fail(self, key, problem):
        raise ConfigError(f"{self.path}: [{self.name}] {key}: {problem}")

    def raw(self, key, default=None):
        return self.mapping.get(key, default)

    def text(self, key, default=None, required=False):
        if key not in self.mapping:
            if required:
                self._fail(key, "required key is missing")
            return default
        value = self.mapping[key].strip()
        if not value:
            self._fail(key, "value is empty")
        return value

    def float(self, key, default=None, required=False):
        value = self.text(key, required=required)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            self._fail(key, f"expected a number, got {value!r}")

    def int(self, key, default=None, required=False):
        value = self.text(key, required=required)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            self._fail(key, f"expected an integer, got {value!r}")

    def float_list(self, key, default=None, required=False):
        value = self.text(key, required=required)
        if value is None:
            return default
        try:
            return tuple(float(tok) for tok in value.split(","))
        except ValueError:
            self._fail(key, f"expected comma-separated numbers, got {value!r}")

    def int_list(self, key, default=None, required=False):
        value = self.text(key, required=required)
        if value is None:
            return default
        try:
            return tuple(int(tok) for tok in value.split(","))
        except ValueError:
            self._fail(key, f"expected comma-separated integers, got {value!r}")

    def choice(self, key, allowed, default=None, required=False):
        value = self.text(key, required=required)
        if value is None:
            return default
        if value not in allowed:
            self._fail(key, f"must be one of {', '.join(allowed)}; got {value!r}")
        return value


def _read_ini(path):
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, inline_comment_prefixes=("#", ";"),
        delimiters=("=",),
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"{path}: malformed config: {err}") from err
    if parser.defaults():
        keys = ", ".join(sorted(parser.defaults()))
        raise ConfigError(f"{path}: [DEFAULT] section is not supported (keys: {keys})")
    return parser


def _check_layout(path, parser):
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            known = ", ".join(sorted(_ALLOWED_KEYS))
            raise ConfigError(
                f"{path}: unknown section [{section}]; known sections: {known}")
        allowed = _ALLOWED_KEYS[section]
        for key in parser[section]:
            if section == "matching":
                if key != "full" and not key.startswith("segment"):
                    raise ConfigError(
                        f"{path}: [matching] {key}: unknown key; use 'full' "
                        f"or keys starting with 'segment'")
            elif key not in allowed:
                raise ConfigError(
                    f"{path}: [{section}] {key}: unknown key; allowed keys: "
                    f"{', '.join(sorted(allowed))}")
    for section in _REQUIRED_SECTIONS:
        if section not in parser.sections():
            raise ConfigError(f"{path}: required section [{section}] is missing")


def _section(path, parser, name):
    mapping = parser[name] if name in parser.sections() else {}
    return _Section(path, name, mapping)


def _build_params(sec) -> HRParameters:
    values = dict(DEFAULT_PROFILE)
    for key in sorted(sec.mapping):
        if key == "n_neurons":
            values[key] = sec.int(key)
        else:
            values[key] = sec.float(key)
    try:
        params = HRParameters(**values)
        params.validate_strict()
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [parameters]: {err}") from err
    return params


def _build_domain(sec):
    dim = sec.int("dim", required=True)
    extents = sec.float_list("extents", required=True)
    cells = sec.int_list("cells", required=True)
    eta_mode = sec.choice("eta_mode", _ETA_MODES, default="discrete")
    try:
        return build_domain(dim, extents, cells), eta_mode
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [domain]: {err}") from err


def _parse_segment_value(sec, key, value):
    fields = {}
    for token in value.split():
        if "=" not in token:
            sec._fail(key, f"segment token {token!r} is not key=value "
                           f"(expected side=..., optional span=lo:hi, pairs=...)")
        name, _, val = token.partition("=")
        if name not in ("side", "span", "pairs"):
            sec._fail(key, f"unknown segment field {name!r}")
        if name in fields:
            sec._fail(key, f"segment field {name!r} repeated")
        fields[name] = val
    if "side" not in fields or "pairs" not in fields:
        sec._fail(key, "segment needs side=... and pairs=...")
    segment = {"side": fields["side"], "pairs": fields["pairs"], "label": key}
    if "span" in fields:
        lo, sep, hi = fields["span"].partition(":")
        if not sep:
            sec._fail(key, f"span must be lo:hi, got {fields['span']!r}")
        try:
            segment["span"] = (float(lo), float(hi))
        except ValueError:
            sec._fail(key, f"span bounds must be numbers, got {fields['span']!r}")
    return segment


def _build_matching(sec, domain, n_neurons) -> BoundaryMatching:
    keys = sorted(sec.mapping)
    if not keys:
        raise ConfigError(f"{sec.path}: [matching]: section is empty; "
                          f"use full=... or segment keys")
    if "full" in keys and len(keys) > 1:
        raise ConfigError(
            f"{sec.path}: [matching]: 'full' cannot be combined with segment keys")
    try:
        if "full" in keys:
            return full_boundary_matching(domain, n_neurons, sec.text("full"))
        segments = [
            _parse_segment_value(sec, key, sec.text(key)) for key in keys
        ]
        return parse_matching(segments, domain, n_neurons)
    except MatchingError as err:
        raise ConfigError(f"{sec.path}: [matching]: {err}") from err
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [matching]: {err}") from err


def _build_initial(sec, n_neurons, dim) -> InitialCondition:
    kwargs = {}
    if "kind" in sec.mapping:
        kwargs["kind"] = sec.choice("kind", IC_KINDS)
    for key in ("offset", "noise", "width", "amplitude"):
        if key in sec.mapping:
            kwargs[key] = sec.float(key)
    if "seed" in sec.mapping:
        kwargs["seed"] = sec.int("seed")
    lengths = {"u_values": n_neurons, "v_values": n_neurons, "w_values": n_neurons,
               "center": dim}
    for key, length in lengths.items():
        if key in sec.mapping:
            kwargs[key] = sec.float_list(key)
            if len(kwargs[key]) != length:
                sec._fail(key, f"expected {length} values, got {len(kwargs[key])}")
    if "path" in sec.mapping:
        kwargs["path"] = sec.text("path")
    try:
        return InitialCondition(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [initial]: {err}") from err


def _build_integrator(sec) -> IntegratorConfig:
    kwargs = {"t_end": sec.float("t_end", required=True)}
    if "scheme" in sec.mapping:
        kwargs["scheme"] = sec.choice("scheme", SCHEMES)
    if "dt" in sec.mapping:
        raw = sec.text("dt")
        kwargs["dt"] = raw if raw == "auto" else sec.float("dt")
    if "cfl_safety" in sec.mapping:
        kwargs["cfl_safety"] = sec.float("cfl_safety")
    if "record_every" in sec.mapping:
        kwargs["record_every"] = sec.int("record_every")
    if "linear_tol" in sec.mapping:
        kwargs["linear_tol"] = sec.float("linear_tol")
    try:
        return IntegratorConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [integrator]: {err}") from err


def _build_metrics(sec) -> MetricsOptions:
    kwargs = {key: sec.float(key) for key in sorted(sec.mapping)}
    try:
        return MetricsOptions(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [metrics]: {err}") from err


def load_config(path, seed=None) -> RunConfig:
    """Load and validate a run config; ``seed`` overrides the initial-data seed."""
    path = os.fspath(path)
    parser = _read_ini(path)
    _check_layout(path, parser)

    params = _build_params(_section(path, parser, "parameters"))
    domain, eta_mode = _build_domain(_section(path, parser, "domain"))
    matching = _build_matching(_section(path, parser, "matching"), domain,
                               params.n_neurons)
    ic = _build_initial(_section(path, parser, "initial"), params.n_neurons, domain.dim)
    integrator = _build_integrator(_section(path, parser, "integrator"))
    metrics = _build_metrics(_section(path, parser, "metrics"))
    output_dir = _section(path, parser, "output").text("directory", default="out")

    if seed is not None:
        ic = dataclasses.replace(ic, seed=int(seed))

    return RunConfig(
        path=path, params=params, domain=domain, matching=matching, ic=ic,
        integrator=integrator, metrics=metrics, output_dir=output_dir,
        eta_mode=eta_mode,
    )
