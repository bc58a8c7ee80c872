"""The benchmark's traced run finds every wrap point it needs in hardylab.

``bench/tracing.py`` wraps functions where their callers look them up and
walks the subclasses of ``calculus.Diffusion``; a refactor that moves one of
them lists it in the result's ``absent`` and drops the metrics it fed.  This
runs ``bench/inproc.py --trace 1`` on shrunk copies of three benchmark configs
(a corpus sweep, the curvature corpus and the semigroup) and checks that
nothing is absent and that every per-layer metric ``BENCHMARK.json`` names
comes out."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SHRINK = {"heis-hardy": {"grid": {"n": 20}, "corpus": {"size": 2}},
          "heis-curvature": {"grid": {"n": 20}, "corpus": {"size": 2}},
          "eu2-evolve": {"grid": {"n": 24}, "parameters": {"t_max": 0.01, "dt": 0.005}}}


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shrunk(name: str, tmp_path) -> str:
    with open(os.path.join(BENCH, "configs", name + ".json")) as fh:
        cfg = json.load(fh)
    for section, values in SHRINK[name].items():
        cfg[section].update(values)
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(cfg))
    return str(path)


def test_a_traced_run_misses_no_wrap_point_and_yields_every_layer_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    tracing = _tracing()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name in SHRINK:
        result = tmp_path / (name + ".result.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "inproc.py"), "--config", _shrunk(name, tmp_path),
             "--seed", "7", "--out", str(tmp_path / (name + ".csv")), "--trace", "1",
             "--result", str(result)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(result.read_text())
        assert rec["absent"] == [], name
        missing = per_layer - set(tracing.layer_metrics(rec["raw"], rec["absent"]))
        assert not missing, (name, sorted(missing))
