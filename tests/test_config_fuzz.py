"""Fuzzed run configs: ``load_config`` returns a config or raises ConfigError.

Each example mutates ``configs/default.ini``: whole sections and single
keys are dropped, duplicated or renamed, values are replaced (by ``nan``,
``inf``, empty, huge or malformed text), known keys are added to sections
and raw lines are inserted.  ``load_config`` must either raise
:class:`ConfigError` (the CLI's exit code 2) or return a config whose every
number is finite; any other exception would escape the CLI as a traceback.
"""

import dataclasses
import pathlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrnet.config import load_config
from hrnet.errors import ConfigError

STOCK = (pathlib.Path(__file__).resolve().parent.parent / "configs" / "default.ini").read_text()

# keys any section may be given (the union of the allowed ones, plus junk)
KEYS = ["a", "J", "n_neurons", "dim", "extents", "cells", "eta_mode", "full",
        "segment1", "kind", "seed", "offset", "noise", "u_values", "center", "width",
        "amplitude", "path", "t_end", "scheme", "dt", "record_every", "linear_tol",
        "tolerance", "floor", "window_fraction", "directory", "bogus"]

VALUES = ["nan", "-nan", "inf", "-inf", "", "0", "-1", "2", "1e-400", "1e400", "1e308",
          "-1e308", "9" * 5000, "99999999999999999999", "abc", "1,2", "0.5, nan",
          "1-2", "2-1", "1-3", "file", "smooth-bump", "auto", "analytic",
          "side=left pairs=1-2", "side=top span=0:1 pairs=1-2", "missing.npz"]


def parse(text):
    """[section, [[key, value], ...]] in file order, comments dropped."""
    sections = []
    for line in text.splitlines():
        if line.startswith("["):
            sections.append([line.strip("[]"), []])
        elif "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            sections[-1][1].append([key.strip(), value.strip()])
    return sections


def render(sections, raw=()):
    lines = []
    for name, items in sections:
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items]
        lines.append("")
    return "\n".join(list(raw) + lines) + "\n"


def stock_with(section, key, value):
    """The stock config with ``key = value`` set in ``section``."""
    sections = parse(STOCK)
    items = dict(sections)[section]
    for item in items:
        if item[0] == key:
            item[1] = value
            break
    else:
        items.append([key, value])
    return render(sections)


@st.composite
def mutated_configs(draw):
    sections = parse(STOCK)
    raw = []
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["drop-section", "copy-section", "rename-section",
                                   "drop-key", "copy-key", "rename-key", "set-value",
                                   "set-value", "set-value", "add-key", "raw-line"]))
        if op == "raw-line":
            raw.append(draw(st.text(max_size=20)).replace("\r", ""))
            continue
        if not sections:
            continue
        k = draw(st.integers(0, len(sections) - 1))
        name, items = sections[k]
        if op == "drop-section":
            del sections[k]
        elif op == "copy-section":
            sections.insert(k, [name, [list(item) for item in items]])
        elif op == "rename-section":
            sections[k][0] = draw(st.sampled_from(["Domain", "domain ", "metric", ""]))
        elif op == "add-key":
            items.append([draw(st.sampled_from(KEYS)), draw(st.sampled_from(VALUES))])
        elif items:
            j = draw(st.integers(0, len(items) - 1))
            if op == "drop-key":
                del items[j]
            elif op == "copy-key":
                items.insert(j, list(items[j]))
            elif op == "rename-key":
                items[j][0] = draw(st.sampled_from(KEYS))
            else:
                items[j][1] = draw(st.sampled_from(VALUES))
    return render(sections, raw)


def assert_all_finite(cfg):
    for part in (cfg.params, cfg.metrics, cfg.integrator, cfg.ic):
        for field in dataclasses.fields(part):
            value = getattr(part, field.name)
            if isinstance(value, (float, tuple)):
                assert np.isfinite(value).all(), (field.name, value)
    assert np.isfinite(cfg.domain.extents).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_configs())
# non-finite settings that once loaded and then switched checks off or
# failed every run, and initial data that crashed a run with a traceback
@example(stock_with("metrics", "tolerance", "nan"))
@example(stock_with("metrics", "floor", "nan"))
@example(stock_with("metrics", "entry_slack", "inf"))
@example(stock_with("integrator", "linear_tol", "nan"))
@example(stock_with("initial", "noise", "nan"))
@example(stock_with("initial", "offset", "-inf"))
@example(stock_with("initial", "amplitude", "inf"))
@example(stock_with("initial", "width", "nan"))
@example(stock_with("initial", "u_values", "0.5, nan"))
@example(stock_with("initial", "v_values", "1e400, 0"))
@example(stock_with("initial", "w_values", "0"))
@example(stock_with("initial", "center", "nan"))
@example(stock_with("initial", "kind", "file"))
@example(stock_with("initial", "path", "missing.npz").replace(
    "kind = uniform-random", "kind = file"))
@example(stock_with("domain", "cells", "99999999999999999999"))
def test_load_config_raises_only_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert_all_finite(cfg)
