"""Property test: run configs mutated from the benchmark configs, through
``hardylab run``.  Every one exits 0, 1 or 2; exit 2 prints exactly one
``error:`` line and exit 0 or 1 a JSON summary with a verdict; a key that no
section of ``cli._SECTIONS`` lists exits 2 with a line naming it."""

import contextlib
import copy
import glob
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hardylab import cli  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNLISTED = "unlisted"
VALUES = [None, True, "x", [], {}, [1], 0, -1, 0.5, 2, 1000, 1e308, -1e308, 1e-308,
          math.nan, math.inf, -math.inf]
# The keys that set how long a run takes.  For them the valid values 2 and
# 1000 give way to one small valid value (t_max 1000 is 200,000 implicit-Euler
# steps, corpus.size 1000 is 1,000 reports, a 2D grid.n of 1000 is 10^6
# nodes, heisenberg(1000) has 2,000 frame fields of 2,001 coefficients); the
# magnitudes their checks reject stay.
SMALL = {("parameters", "t_max"): 0.02, ("parameters", "dt"): 0.0025,
         ("corpus", "size"): 4, ("grid", "n"): 16, ("geometry", "params", "m"): 4}


def _tiny(path: str) -> dict:
    """The config at ``path`` on at most 20 nodes per axis in 3D (32 in 2D,
    1024 in 1D), with at most 3 bumps and two semigroup steps up to t = 0.01."""
    with open(path) as fh:
        cfg = json.load(fh)
    grid = cfg["grid"]
    grid["n"] = min(grid["n"], {1: 1024, 2: 32, 3: 20}[len(grid["bounds"])])
    if "corpus" in cfg:
        cfg["corpus"]["size"] = min(cfg["corpus"].get("size", 3), 3)
    if "t_max" in cfg["parameters"]:
        cfg["parameters"].update(t_max=0.01, dt=0.005)
    return cfg


BASES = [_tiny(p) for p in sorted(glob.glob(os.path.join(ROOT, "bench", "configs", "*.json")))]


def _items(node: dict, prefix=()):
    """(path, value) of every key in ``node`` and in the objects nested in it."""
    for key, value in node.items():
        yield prefix + (key,), value
        if isinstance(value, dict):
            yield from _items(value, prefix + (key,))


def _listed(cfg: dict):
    """The path of every key the table lists for ``cfg``'s operation."""
    sections = dict(cli._SECTIONS, weight=cli._SECTIONS["geometry"], parameters={
        **dict.fromkeys(cli._OPERATIONS[cfg["operation"]].parameters),
        **cli._SECTIONS["parameters"]})
    yield from ((key,) for key in sections.pop("config"))
    for section, keys in sections.items():
        yield from ((section, key) for key in keys)


@st.composite
def mutated(draw):
    """(kind, config): one benchmark config with one key dropped, one key
    no table lists added to one of its objects, or one key set to a value
    from VALUES (with SMALL's value for a key that sets a run's length)."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    kind = draw(st.sampled_from(["drop", "add", "set"]))
    paths = sorted(path for path, _ in _items(cfg))
    if kind == "drop":
        *parents, key = draw(st.sampled_from(paths))
    elif kind == "add":
        parents, key = draw(st.sampled_from([()] + sorted(
            path for path, value in _items(cfg) if isinstance(value, dict)))), UNLISTED
    else:
        *parents, key = draw(st.sampled_from(sorted(set(paths) | set(_listed(cfg)))))
    node = cfg
    for parent in parents:
        node = node.setdefault(parent, {})
    if kind == "drop":
        del node[key]
    else:
        path = (*parents, key)
        values = VALUES if path not in SMALL else [
            v for v in VALUES if v not in (2, 1000)] + [SMALL[path]]
        node[key] = 1 if kind == "add" else copy.deepcopy(draw(st.sampled_from(values)))
    return kind, cfg


def _main(cfg: dict):
    """(exit code, stdout, stderr) of ``hardylab run`` on ``cfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", path])
    return code, out.getvalue(), err.getvalue()


def test_the_shrunk_benchmark_configs_run():
    assert len(BASES) == 10
    for cfg in BASES:
        code, _, err = _main(cfg)
        assert code in (0, 1), err


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(mutated())
def test_a_mutated_config_exits_0_1_or_2_with_one_line_or_a_summary(case):
    kind, cfg = case
    code, out, err = _main(cfg)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert "verdict" in json.loads(out)
    if kind == "add":
        assert code == 2 and repr(UNLISTED) in err, err
