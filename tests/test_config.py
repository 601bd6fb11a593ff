"""Strict config parsing: typed sections, located diagnostics, defaults."""

import configparser
import dataclasses
import io
import pathlib
import re

import numpy as np
import pytest

from hrnet.config import MetricsOptions, load_config
from hrnet.core import HRParameters
from hrnet.dynamics import InitialCondition, IntegratorConfig
from hrnet.errors import ConfigError

BASE = """\
[parameters]
a = 3.0
b = 1.0
alpha = 1.0
beta = 5.0
q = 0.4
r = 0.1
c = -1.6
J = 3.25
d = 1.0
p = 2.0
n_neurons = 2

[domain]
dim = 1
extents = 1.0
cells = 16

[matching]
full = 1-2

[initial]
kind = uniform-random
seed = 3
offset = 1.0
noise = 0.1

[integrator]
scheme = imex-euler
dt = 1e-2
t_end = 0.5
record_every = 5

[metrics]
tolerance = 0.05

[output]
directory = results
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_full_config_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.params.p == 2.0
    assert cfg.params.n_neurons == 2
    assert cfg.domain.n_cells == 16
    assert cfg.domain.omega_measure == 1.0
    assert cfg.matching.n_neurons == 2
    assert cfg.ic.kind == "uniform-random" and cfg.ic.seed == 3
    assert cfg.integrator.scheme == "imex-euler"
    assert cfg.integrator.dt == 1e-2
    assert cfg.integrator.t_end == 0.5
    assert cfg.metrics.tolerance == 0.05
    assert cfg.metrics.floor == 1e-14  # documented default fills the rest
    assert cfg.output_dir == "results"
    assert cfg.eta_mode == "discrete"


def test_parameters_section_defaults_to_profile(tmp_path):
    text = BASE.replace("""\
[parameters]
a = 3.0
b = 1.0
alpha = 1.0
beta = 5.0
q = 0.4
r = 0.1
c = -1.6
J = 3.25
d = 1.0
p = 2.0
n_neurons = 2

""", "")
    cfg = load_config(write(tmp_path, text))
    assert cfg.params.a == 3.0 and cfg.params.p == 1.0  # profile values


def test_seed_override(tmp_path):
    path = write(tmp_path, BASE)
    assert load_config(path).ic.seed == 3
    assert load_config(path, seed=99).ic.seed == 99


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_unknown_section_named(tmp_path):
    path = write(tmp_path, BASE + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        load_config(path)


def test_unknown_key_named_with_location(tmp_path):
    path = write(tmp_path, BASE.replace("a = 3.0", "a = 3.0\nzeta = 1.0"))
    with pytest.raises(ConfigError, match=r"\[parameters\] zeta: unknown key"):
        load_config(path)


def test_required_section_missing(tmp_path):
    text = BASE.replace("[domain]\ndim = 1\nextents = 1.0\ncells = 16\n\n", "")
    with pytest.raises(ConfigError, match=r"required section \[domain\]"):
        load_config(write(tmp_path, text))


def test_t_end_required(tmp_path):
    text = BASE.replace("t_end = 0.5\n", "")
    with pytest.raises(ConfigError, match=r"\[integrator\] t_end: required"):
        load_config(write(tmp_path, text))


def test_singular_parameter_rejected_at_load(tmp_path):
    text = BASE.replace("beta = 5.0", "beta = 0.0")
    with pytest.raises(ConfigError, match="beta"):
        load_config(write(tmp_path, text))


def test_bad_number_diagnostic(tmp_path):
    text = BASE.replace("r = 0.1", "r = fast")
    with pytest.raises(ConfigError, match=r"\[parameters\] r: expected a number"):
        load_config(write(tmp_path, text))


def test_bad_cells_list_diagnostic(tmp_path):
    text = BASE.replace("cells = 16", "cells = 16,many")
    with pytest.raises(ConfigError,
                       match=r"\[domain\] cells: expected comma-separated integers"):
        load_config(write(tmp_path, text))


def test_default_section_rejected(tmp_path):
    path = write(tmp_path, "[DEFAULT]\nx = 1\n" + BASE)
    with pytest.raises(ConfigError, match="DEFAULT"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    text = BASE.replace("a = 3.0", "a = 3.0\na = 4.0")
    with pytest.raises(ConfigError, match="malformed config"):
        load_config(write(tmp_path, text))


def test_inline_comments_allowed(tmp_path):
    text = BASE.replace("p = 2.0", "p = 2.0  # coupling strength")
    assert load_config(write(tmp_path, text)).params.p == 2.0


def test_matching_unknown_key(tmp_path):
    text = BASE.replace("full = 1-2", "edges = 1-2")
    with pytest.raises(ConfigError, match=r"\[matching\] edges: unknown key"):
        load_config(write(tmp_path, text))


def test_matching_full_plus_segments_conflict(tmp_path):
    text = BASE.replace("full = 1-2", "full = 1-2\nsegment1 = side=left pairs=1-2")
    with pytest.raises(ConfigError, match="cannot be combined"):
        load_config(write(tmp_path, text))


def test_matching_empty_section(tmp_path):
    text = BASE.replace("full = 1-2\n", "")
    with pytest.raises(ConfigError, match=r"\[matching\]: section is empty"):
        load_config(write(tmp_path, text))


def test_matching_too_many_neurons_to_allocate(tmp_path):
    # numpy refuses the partner table before allocating it, with a ValueError
    text = BASE.replace("n_neurons = 2", "n_neurons = 10000000000000000000")
    with pytest.raises(ConfigError, match=r"\[matching\]: Maximum allowed size exceeded"):
        load_config(write(tmp_path, text))


def test_matching_segments_parse(tmp_path):
    text = BASE.replace(
        "full = 1-2",
        "segment1 = side=left pairs=1-2\nsegment2 = side=right pairs=1-2")
    cfg = load_config(write(tmp_path, text))
    # both boundary faces matched: partner columns swap the two neurons
    assert np.array_equal(np.sort(cfg.matching.partner[:, 0]), [1, 1])


def test_matching_segment_with_span_2d(tmp_path):
    text = BASE.replace("dim = 1\nextents = 1.0\ncells = 16",
                        "dim = 2\nextents = 1.0,1.0\ncells = 8,8")
    text = text.replace(
        "full = 1-2",
        "segment1 = side=left span=0.0:0.5 pairs=1-2\n"
        "segment2 = side=left span=0.5:1.0 pairs=1-2")
    cfg = load_config(write(tmp_path, text))
    left_faces = (cfg.domain.face_axis == 0) & (cfg.domain.face_side == 0)
    left = cfg.matching.partner[left_faces]
    assert np.all(left[:, 0] == 1)


def test_readme_segment_matching_example_loads(tmp_path):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    example = next(block for block in blocks if "side=left" in block)
    text = (BASE.replace("full = 1-2\n", example)
            .replace("n_neurons = 2", "n_neurons = 3")
            .replace("dim = 1\nextents = 1.0\ncells = 16",
                     "dim = 2\nextents = 1.0, 1.0\ncells = 8, 8"))
    cfg = load_config(write(tmp_path, text))
    assert cfg.matching.matched_pairs == ((0, 1), (0, 2), (1, 2))


def test_matching_segment_bad_token(tmp_path):
    text = BASE.replace("full = 1-2", "segment1 = left 1-2")
    with pytest.raises(ConfigError, match="not key=value"):
        load_config(write(tmp_path, text))


def test_matching_segment_missing_pairs(tmp_path):
    text = BASE.replace("full = 1-2", "segment1 = side=left")
    with pytest.raises(ConfigError, match="needs side=.* and pairs="):
        load_config(write(tmp_path, text))


def test_matching_segment_bad_span(tmp_path):
    text = BASE.replace("dim = 1\nextents = 1.0\ncells = 16",
                        "dim = 2\nextents = 1.0,1.0\ncells = 8,8")
    text = text.replace("full = 1-2", "segment1 = side=left span=0.5 pairs=1-2")
    with pytest.raises(ConfigError, match="span must be lo:hi"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("segment,message", [
    ("side=left pairs=1-2 side2=right", "unknown segment field 'side2'"),
    ("side=left side=right pairs=1-2", "segment field 'side' repeated"),
    ("side=left span=lo:0.5 pairs=1-2", "span bounds must be numbers, got 'lo:0.5'"),
])
def test_matching_segment_field_errors(tmp_path, segment, message):
    text = BASE.replace("dim = 1\nextents = 1.0\ncells = 16",
                        "dim = 2\nextents = 1.0,1.0\ncells = 8,8")
    text = text.replace("full = 1-2", f"segment1 = {segment}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write(tmp_path, text))


def test_matching_overlap_located(tmp_path):
    text = BASE.replace(
        "full = 1-2",
        "segment1 = side=left pairs=1-2\nsegment2 = side=left pairs=1-2")
    with pytest.raises(ConfigError, match=r"\[matching\]"):
        load_config(write(tmp_path, text))


def test_initial_validation_located(tmp_path):
    text = BASE.replace("kind = uniform-random", "kind = smooth-bump")
    text = text.replace("offset = 1.0", "offset = 1.0\nwidth = -1.0")
    with pytest.raises(ConfigError, match=r"\[initial\]"):
        load_config(write(tmp_path, text))


def test_integrator_scheme_choice(tmp_path):
    text = BASE.replace("scheme = imex-euler", "scheme = verlet")
    with pytest.raises(ConfigError, match="must be one of"):
        load_config(write(tmp_path, text))


def test_integrator_dt_auto(tmp_path):
    text = BASE.replace("dt = 1e-2", "dt = auto")
    assert load_config(write(tmp_path, text)).integrator.dt == "auto"


@pytest.mark.parametrize("changes,message", [
    ({"t_end = 0.5": "t_end = 1e300", "dt = 1e-2": "dt = 1e-10"},
     "t_end / dt = 1e+300 / 1e-10 is too many steps to count"),
    ({"scheme = imex-euler": "scheme = explicit-rk4",
      "dt = 1e-2": "dt = auto\ncfl_safety = 5e-324"}, "the step size 0 is not positive"),
])
def test_integrator_step_outside_float_range_located(tmp_path, changes, message):
    text = BASE
    for old, new in changes.items():
        text = text.replace(old, new)
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: [integrator]: {message}"


@pytest.mark.parametrize("domain", ["dim = 1\nextents = 1e300\ncells = 16",
                                    "dim = 1\nextents = 1e-300\ncells = 16",
                                    "dim = 2\nextents = 1e200, 1e200\ncells = 4, 4"])
def test_domain_outside_float_range_located(tmp_path, domain):
    path = write(tmp_path, BASE.replace("dim = 1\nextents = 1.0\ncells = 16", domain))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: \[domain\]: extents "
                                          rf".* leave float range: "):
        load_config(path)


def test_metrics_range_check_located(tmp_path):
    text = BASE.replace("tolerance = 0.05", "tolerance = -0.05")
    with pytest.raises(ConfigError, match=r"\[metrics\]"):
        load_config(write(tmp_path, text))


def test_eta_mode_choice(tmp_path):
    text = BASE.replace("cells = 16", "cells = 16\neta_mode = guesswork")
    with pytest.raises(ConfigError, match="must be one of"):
        load_config(write(tmp_path, text))


def test_metrics_defaults_when_section_absent(tmp_path):
    text = BASE.replace("[metrics]\ntolerance = 0.05\n\n", "")
    cfg = load_config(write(tmp_path, text))
    assert cfg.metrics == MetricsOptions()


def test_output_default_directory(tmp_path):
    text = BASE.replace("[output]\ndirectory = results\n", "")
    assert load_config(write(tmp_path, text)).output_dir == "out"


# every key of the sections that fill a dataclass: one per field
FIELDS = [(section, f.name, getattr(f.type, "__name__", f.type))
          for section, cls in (("parameters", HRParameters), ("initial", InitialCondition),
                               ("integrator", IntegratorConfig), ("metrics", MetricsOptions))
          for f in dataclasses.fields(cls)]
# a value each key takes (text, then as loaded) and one it rejects, by declared type
GOOD = {"float": ("0.5", 0.5), "int": ("3", 3), "tuple": ("0.5, 0.25", (0.5, 0.25)),
        "object": ("auto", "auto"), "str": ("state.npz", "state.npz")}
BAD = {"float": "x!", "int": "1.5", "tuple": "0.5,x", "object": "x!", "str": ""}
GOOD_BY_KEY = {"kind": ("smooth-bump", "smooth-bump"), "scheme": ("explicit-rk4", "explicit-rk4"),
               "center": ("0.5", (0.5,))}
BAD_BY_KEY = {"kind": "x!", "scheme": "x!"}


def with_key(section, key, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(BASE)
    parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def test_fields_cover_every_declared_type():
    assert {kind for _, _, kind in FIELDS} == set(GOOD) == set(BAD)


@pytest.mark.parametrize("section, key, kind", FIELDS)
def test_every_field_is_a_key(tmp_path, section, key, kind):
    text, value = GOOD_BY_KEY.get(key, GOOD[kind])
    cfg = load_config(write(tmp_path, with_key(section, key, text)))
    built = {"parameters": cfg.params, "initial": cfg.ic, "integrator": cfg.integrator,
             "metrics": cfg.metrics}[section]
    assert getattr(built, key) == value


@pytest.mark.parametrize("section, key, kind", FIELDS)
def test_every_field_rejects_a_malformed_value(tmp_path, section, key, kind):
    path = write(tmp_path, with_key(section, key, BAD_BY_KEY.get(key, BAD[kind])))
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: ")):
        load_config(path)
