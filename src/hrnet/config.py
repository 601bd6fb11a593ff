"""Strict run-configuration loading.

One INI-style file fully determines a run.  Sections: ``[parameters]``
(model constants; omitted keys fall back to the documented default profile),
``[domain]`` (required), ``[matching]`` (required), ``[initial]``,
``[integrator]`` (required; ``t_end`` must be present), ``[metrics]`` and
``[output]``.  ``[parameters]``, ``[initial]``, ``[integrator]`` and
``[metrics]`` take exactly the fields of the dataclass they fill, each typed
by its annotation.  Parsing is strict: unknown sections or keys are errors,
and every diagnostic names the file, section, and key it refers to.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .core import DEFAULT_PROFILE, HRParameters
from .domain import BoundaryMatching, Domain, build_domain, full_boundary_matching, parse_matching
from .dynamics import IC_KINDS, SCHEMES, InitialCondition, IntegratorConfig, resolve_dt
from .errors import ConfigError, MatchingError
from .metrics import MetricsOptions


@dataclass(frozen=True)
class RunConfig:
    """Fully typed run description, as loaded from one config file."""

    params: HRParameters
    domain: Domain
    matching: BoundaryMatching
    ic: InitialCondition
    integrator: IntegratorConfig
    metrics: MetricsOptions
    output_dir: str
    eta_mode: str


_ALLOWED_KEYS = {
    **{name: {f.name for f in dataclasses.fields(cls)} for name, cls in (
        ("parameters", HRParameters), ("initial", InitialCondition),
        ("integrator", IntegratorConfig), ("metrics", MetricsOptions))},
    "domain": {"dim", "extents", "cells", "eta_mode"},
    "matching": None,  # full | segment* (validated separately)
    "output": {"directory"},
}

_REQUIRED_SECTIONS = ("domain", "matching", "integrator")

# parser of a value and what its error says was expected, by type name;
# ``object`` is IntegratorConfig.dt, ``auto`` or a number
_PARSERS = {
    "str": (str, None),
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "object": (lambda s: s if s == "auto" else float(s), "a number"),
    "tuple": (lambda s: tuple(float(tok) for tok in s.split(",")), "comma-separated numbers"),
    "tuple[int]": (lambda s: tuple(int(tok) for tok in s.split(",")),
                   "comma-separated integers"),
}

_CHOICES = {"kind": IC_KINDS, "scheme": SCHEMES, "eta_mode": ("discrete", "analytic")}


class _Section:
    """Typed reads of one section with located error messages."""

    def __init__(self, path, name, mapping):
        self.path = path
        self.name = name
        self.mapping = dict(mapping)

    def _fail(self, key, problem):
        raise ConfigError(f"{self.path}: [{self.name}] {key}: {problem}")

    def read(self, key, kind="str", default=None, required=False):
        """``key``'s value parsed as the type named ``kind``, or ``default``
        where the key is absent."""
        if key not in self.mapping:
            if required:
                self._fail(key, "required key is missing")
            return default
        value = self.mapping[key].strip()
        if not value:
            self._fail(key, "value is empty")
        if key in _CHOICES and value not in _CHOICES[key]:
            self._fail(key, f"must be one of {', '.join(_CHOICES[key])}; got {value!r}")
        parse, expected = _PARSERS[kind]
        try:
            return parse(value)
        except ValueError:
            self._fail(key, f"expected {expected}, got {value!r}")


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


def _build(sec, cls, values=(), lengths={}, check=None):
    """``cls`` filled from ``sec``, one key per field in field order, typed by
    the field's annotation.  ``values`` supplies base values; a field with
    neither a base value nor a default is required.  ``lengths`` gives the
    number of values a list field must hold, and ``check`` runs on the
    result; every error, the dataclass's too, names the section."""
    values = dict(values)
    for f in dataclasses.fields(cls):
        default = values.get(f.name, f.default)
        values[f.name] = sec.read(f.name, f.type, default, default is dataclasses.MISSING)
        want = lengths.get(f.name)
        if want is not None and f.name in sec.mapping and len(values[f.name]) != want:
            sec._fail(f.name, f"expected {want} values, got {len(values[f.name])}")
    try:
        built = cls(**values)
        if check is not None:
            check(built)
    except ValueError as err:
        raise ConfigError(f"{sec.path}: [{sec.name}]: {err}") from err
    return built


def _build_domain(sec):
    dim = sec.read("dim", "int", required=True)
    extents = sec.read("extents", "tuple", required=True)
    cells = sec.read("cells", "tuple[int]", required=True)
    eta_mode = sec.read("eta_mode", default="discrete")
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
            return full_boundary_matching(domain, n_neurons, sec.read("full"))
        segments = [
            _parse_segment_value(sec, key, sec.read(key)) for key in keys
        ]
        return parse_matching(segments, domain, n_neurons)
    except (MatchingError, ValueError) as err:  # ValueError: too many neurons to allocate
        raise ConfigError(f"{sec.path}: [matching]: {err}") from err


def load_config(path, seed=None) -> RunConfig:
    """Load and validate a run config; ``seed`` overrides the initial-data seed."""
    path = os.fspath(path)
    parser = _read_ini(path)
    _check_layout(path, parser)

    params = _build(_section(path, parser, "parameters"), HRParameters, DEFAULT_PROFILE,
                    check=HRParameters.validate_strict)
    domain, eta_mode = _build_domain(_section(path, parser, "domain"))
    matching = _build_matching(_section(path, parser, "matching"), domain,
                               params.n_neurons)
    n = params.n_neurons
    ic = _build(_section(path, parser, "initial"), InitialCondition,
                lengths={"u_values": n, "v_values": n, "w_values": n, "center": domain.dim})
    # the step size and step count the run resolves to, checked once here
    integrator = _build(_section(path, parser, "integrator"), IntegratorConfig,
                        check=lambda built: resolve_dt(built, domain, params))
    metrics = _build(_section(path, parser, "metrics"), MetricsOptions)
    output_dir = _section(path, parser, "output").read("directory", default="out")

    if seed is not None:
        try:
            ic = dataclasses.replace(ic, seed=int(seed))
        except ValueError as err:
            raise ConfigError(f"--seed: {err}") from err

    return RunConfig(
        params=params, domain=domain, matching=matching, ic=ic,
        integrator=integrator, metrics=metrics, output_dir=output_dir,
        eta_mode=eta_mode,
    )
