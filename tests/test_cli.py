import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hardylab as hl
from hardylab.cli import RunConfig, list_catalog, main, run
from hardylab.errors import UsageError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_bytes(tmp_path, data: bytes, name="cfg.json"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


BASE_QCOND = {
    "schema": 1,
    "geometry": {"name": "euclidean", "params": {"m": 3}},
    "weight": {"name": "euclid-norm"},
    "operation": "qcond",
    "grid": {"bounds": [[-2, 2], [-2, 2], [-2, 2]], "n": 24},
}


def test_qcond_run_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_QCOND)
    out = str(tmp_path / "report.csv")
    code = main(["run", "--config", cfg, "--out", out])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "exact"
    assert summary["Q_estimate"] == pytest.approx(3.0, abs=1e-8)
    assert open(out).read().startswith("index,")


def test_full_pipeline_heisenberg_hardy(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "schema": 1,
        "geometry": {"name": "heisenberg", "params": {"m": 1}},
        "weight": {"name": "koranyi-gauge"},
        "operation": "hardy",
        "parameters": {"alpha": 0.0, "psi_range": [0.6, 1.8]},
        "grid": {"bounds": [[-2, 2], [-2, 2], [-2, 2]], "n": 24},
        "corpus": {"seed": 7, "size": 20},
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "h.csv")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["worst_ratio"] <= 1.0
    rows = open(tmp_path / "h.csv").read().strip().split("\n")
    assert len(rows) == 21  # header + one row per corpus function


def test_excluded_alpha_exits_2_naming_log_variant(tmp_path, capsys):
    payload = dict(BASE_QCOND, operation="hardy",
                   parameters={"alpha": -1.0, "psi_range": [0.6, 1.6]},
                   corpus={"seed": 1, "size": 2})
    cfg = write_config(tmp_path, payload)
    code = main(["run", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert "log" in err


def test_unknown_geometry_exits_2(tmp_path, capsys):
    payload = dict(BASE_QCOND, geometry={"name": "sphere", "params": {"m": 2}})
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 2


def test_bad_schema_rejected():
    with pytest.raises(UsageError):
        RunConfig.from_json(json.dumps(dict(BASE_QCOND, schema=99)))
    with pytest.raises(UsageError):
        RunConfig.from_json(json.dumps(dict(BASE_QCOND, operation="fly")))
    with pytest.raises(UsageError):
        RunConfig.from_json("{not json")


EU3 = {"name": "euclidean", "params": {"m": 3}}
HEIS1 = {"name": "heisenberg", "params": {"m": 1}}
EU2_HARDY = {
    "schema": 1,
    "geometry": {"name": "euclidean", "params": {"m": 2}},
    "weight": {"name": "euclid-norm"},
    "operation": "hardy",
    "parameters": {"alpha": 1.0, "psi_range": [0.5, 1.6]},
    "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 64},
    "corpus": {"seed": 3, "size": 6},
}


def _cached_sweep(geometry, weight, operation, parameters):
    """A corpus run whose reports share the per-(grid, weight) terms and
    each supported bump's rows memo."""
    return {
        "schema": 1,
        "geometry": geometry,
        "weight": {"name": weight},
        "operation": operation,
        "parameters": dict(parameters, psi_range=[0.5, 1.6]),
        "grid": {"bounds": [[-2, 2]] * 3, "n": 20, "excision_radius": 0.25},
        "corpus": {"seed": 4, "size": 8},
    }


@pytest.mark.parametrize("payload", [
    pytest.param(EU2_HARDY, id="eu2-hardy"),
    pytest.param(_cached_sweep(EU3, "euclid-norm", "radial", {"alpha": 0.5}), id="eu3-radial"),
    pytest.param(_cached_sweep(EU3, "euclid-norm", "funcineq", {"p": 0.5, "gamma": 0.0}),
                 id="eu3-funcineq"),
    pytest.param(_cached_sweep(HEIS1, "koranyi-gauge", "hardy", {"alpha": 0.0}),
                 id="heis-hardy"),
    pytest.param(_cached_sweep(HEIS1, "koranyi-gauge", "curvature", {"p": 0.5, "gamma": 0.0}),
                 id="heis-curvature"),
])
def test_csv_determinism(tmp_path, payload):
    """The same config run twice in one process writes the same bytes: memos
    a first run leaves behind change nothing in the second."""
    cfg = write_config(tmp_path, payload)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["run", "--config", cfg, "--out", out1]) == 0
    assert main(["run", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_seed_override_changes_rows(tmp_path):
    payload = {
        "schema": 1,
        "geometry": {"name": "euclidean", "params": {"m": 2}},
        "weight": {"name": "euclid-norm"},
        "operation": "hardy",
        "parameters": {"alpha": 1.0, "psi_range": [0.5, 1.6]},
        "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 64},
        "corpus": {"seed": 3, "size": 4},
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["run", "--config", cfg, "--out", out1]) == 0
    assert main(["run", "--config", cfg, "--out", out2, "--seed", "11"]) == 0
    assert open(out1).read() != open(out2).read()


def test_genuine_violation_is_rechecked_then_exit_1(tmp_path, capsys):
    # curvature with gamma above the criterion floor fails at any spacing:
    # the run must re-check at halved h before reporting the violation
    payload = {
        "schema": 1,
        "geometry": {"name": "euclidean", "params": {"m": 2}},
        "weight": {"name": "euclid-norm"},
        "operation": "curvature",
        "parameters": {"p": 0.5, "gamma": 0.5},
        "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 32},
        "corpus": {"seed": 9, "size": 4},
    }
    cfg = write_config(tmp_path, payload)
    code = main(["run", "--config", cfg])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "violation"
    assert summary["note"] == "violation persists at halved spacing"


def test_json_lines_format(tmp_path):
    cfg = write_config(tmp_path, BASE_QCOND)
    out = str(tmp_path / "r.jsonl")
    assert main(["run", "--config", cfg, "--out", out, "--format", "json-lines"]) == 0
    lines = open(out).read().strip().split("\n")
    row = json.loads(lines[0])
    assert row["verdict"] == "exact"


LISTING = (
    "geometries:\n"
    "  euclidean(m): coordinate frame, Lebesgue measure, Q_hom = m\n"
    "  halfspace-euclidean(m): euclidean frame on {x_m > 0}\n"
    "  heisenberg(m): sublaplacian frame on R^(2m+1), Q_hom = 2m+2\n"
    "  hyperbolic(m): half-space Laplace-Beltrami, density x_m^-m\n"
    "  grushin(n): frame d_x_i and x_i d_y, Q_hom = n+2\n"
    "  convex-domain(m): euclidean frame inside a convex polytope\n"
    "  euclidean-radial(m): 1D radial model, density r^(m-1)\n"
    "  logradial(m): radial model in u = log r, density e^(m u)\n"
    "weights:\n"
    "  euclid-norm: |x|, Q = m\n"
    "  horizontal-norm: |x_0'| over n_0 horizontal coordinates, Q = n_0\n"
    "  koranyi-gauge: Q = Q(G)\n"
    "  coordinate(j): |x_j|, Q = 1\n"
    "  hyperbolic(m): weight x_m, Q = 3-m\n"
    "  grushin-gauge: Q = n+2\n"
    "  boundary-distance: one-sided upper, Q = 2\n"
    "  log-of(weight, branch): +-log psi, Q = 1\n"
    "  power-of(weight, p): psi^p, Q -> (Q-2)/p + 2\n"
    "  shifted(|x_0|+eps N): one-sided lower, Q = n_0 + o(eps)\n"
    "inequalities (constant):\n"
    "  hardy: (2/(Q+alpha-2))^2\n"
    "  log-hardy, weighted-log-hardy: (2/(alpha-1))^2\n"
    "  radial: (2/(Q+alpha-2))^2 against Gamma(psi,f)^2\n"
    "  dilation: (2/(Q_hom+alpha))^2\n"
    "  homo-norm: min(4, (2/(n_0-2)))^2 kappa^2(|x_0|) kappa^2(rho)\n"
    "  funcineq: 2 int W^2 Gamma(f) - 2 gamma int W^2 f^2\n"
)


def test_list_catalog_contents_and_determinism(capsys):
    listing = list_catalog()
    assert listing == LISTING
    assert main(["list"]) == 0
    assert capsys.readouterr().out == listing


def test_best_constant_operation(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "schema": 1,
        "geometry": {"name": "logradial", "params": {"m": 3}},
        "weight": {"name": "euclid-norm"},
        "operation": "best-constant",
        "parameters": {"alpha": 0.0},
        "grid": {"bounds": [[-30, 3]], "n": 4096},
    })
    assert main(["run", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert 3.0 <= summary["sup_ratio"] <= summary["constant"] * (1 + 1e-6)


def test_evolve_and_subcommutation_operations(tmp_path, capsys):
    payload = {
        "schema": 1,
        "geometry": {"name": "euclidean-radial", "params": {"m": 3}},
        "weight": {"name": "euclid-norm"},
        "operation": "evolve",
        "parameters": {"t_max": 0.02, "dt": 1e-3, "psi_range": [1.0, 3.0]},
        "grid": {"bounds": [[0.2, 6.0]], "n": 256},
        "corpus": {"seed": 5},
    }
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / "trace.csv")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert "l2_norm" in open(out).readline()
    payload["operation"] = "subcommutation"
    payload["parameters"]["p"] = 0.5
    cfg2 = write_config(tmp_path, payload, "cfg2.json")
    assert main(["run", "--config", cfg2]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["verdict"] == "pass"


def test_evolve_run_holds_one_state_not_the_trajectory():
    # eu3-evolve-cg on 20^3 nodes: 100 CG steps, 51 samples.  The traced peak
    # of the run is set by assembling the generator, about 1.5 times the bytes
    # of the 51 samples; a run that kept them in a list and then stacked them
    # peaked at about 2.9 times, and keeping one copy would pass 2.5 times
    import tracemalloc

    from hardylab import semigroup  # noqa: F401  scipy's import is not part of the run
    n, samples = 20, 51
    cfg = RunConfig.from_json(json.dumps(_bench_config("eu3-evolve-cg", n)))
    tracemalloc.start()
    try:
        result = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0 and len(result.rows) == samples
    assert peak < 2 * samples * n ** 3 * 8


SMALL_RADIAL = {
    "schema": 1,
    "geometry": {"name": "euclidean-radial", "params": {"m": 3}},
    "weight": {"name": "euclid-norm"},
    "parameters": {"t_max": 0.005, "psi_range": [1.0, 3.0]},
    "grid": {"bounds": [[0.2, 6.0]], "n": 64},
    "corpus": {"seed": 5},
}


@pytest.mark.parametrize("operation", ["evolve", "subcommutation"])
@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_nonpositive_dt_exits_2(tmp_path, capsys, operation, dt):
    payload = dict(SMALL_RADIAL, operation=operation,
                   parameters=dict(SMALL_RADIAL["parameters"], dt=dt))
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_of_wrong_dimension_exit_2(tmp_path, capsys):
    payload = dict(BASE_QCOND, grid={"bounds": [[-2, 2], [-2, 2]], "n": 16})
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(UsageError, match="JSON object"):
        RunConfig.from_json(json.dumps([BASE_QCOND]))
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SMALL_HARDY = {
    "schema": 1,
    "geometry": {"name": "euclidean", "params": {"m": 2}},
    "weight": {"name": "euclid-norm"},
    "operation": "hardy",
    "parameters": {"alpha": 1.0, "psi_range": [0.5, 1.6]},
    "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 16},
    "corpus": {"seed": 3, "size": 2},
}


SMALL_QCOND = dict(SMALL_HARDY, operation="qcond", parameters={"psi_range": [0.5, 1.6]})
HEISENBERG = {"geometry": {"name": "heisenberg", "params": {"m": 1}},
              "grid": {"bounds": [[-2, 2]] * 3, "n": 12}}
SQUARE = {"geometry": {"name": "convex-domain", "params": {"m": 2, "box": [[-2, 2], [-2, 2]]}}}
FACETS = [[[1.0, 0.0], 2.0], [[-1.0, 0.0], 2.0], [[0.0, 1.0], 2.0], [[0.0, -1.0], 2.0]]


def _on_facets(facets):
    """A convex-domain(2) qcond config with the given facets."""
    return dict(SMALL_QCOND, geometry={"name": "convex-domain",
                                       "params": {"m": 2, "facets": facets}},
                weight={"name": "boundary-distance"})


def _bench_config(name: str, n: int, **parameters) -> dict:
    """bench/configs/<name>.json on n nodes per axis, at most 3 bumps, with
    ``parameters`` set."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "configs", f"{name}.json")) as fh:
        cfg = json.load(fh)
    cfg["grid"]["n"] = n
    if "corpus" in cfg:
        cfg["corpus"]["size"] = 3
    cfg["parameters"].update(parameters)
    return cfg


@pytest.mark.parametrize("payload", [
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": 0}),
                 id="zero-grid-n"),
    pytest.param(dict(SMALL_HARDY, geometry={"name": "euclidean", "params": {}}),
                 id="geometry-without-m"),
    pytest.param(dict(SMALL_HARDY, parameters={"alpha": "abc", "psi_range": [0.5, 1.6]}),
                 id="non-numeric-alpha"),
    pytest.param(dict(SMALL_HARDY, geometry={"name": "euclidean", "params": [2]}),
                 id="geometry-params-not-object"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "euclid-norm", "params": "x"}),
                 id="weight-params-not-object"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "log-of", "params": {"branch": "upper"}}),
                 id="log-of-without-base"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "power-of", "params": {"p": 2.0}}),
                 id="power-of-without-base"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "power-of", "params": {
        "p": 2.0, "base": {"name": "euclid-norm", "params": 3}}}),
                 id="base-params-not-object"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [-2, 2], "n": 16}),
                 id="bounds-not-pairs"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [2, -2]], "n": 16}),
                 id="bounds-lo-not-below-hi"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, "2"]], "n": 16}),
                 id="bounds-not-numbers"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": 16,
                                         "excision_radius": "0.2"}),
                 id="excision-radius-not-number"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": [16]}),
                 id="n-wrong-length"),
    # each of the next eight runs when the one bad value is made valid (see
    # test_config_value_faults_have_running_twins)
    # psi^alpha overflows, and the integrand check raises NumericError without a warning
    pytest.param(dict(SMALL_HARDY, parameters={"alpha": 1e308, "psi_range": [0.5, 1.6]}),
                 id="alpha-overflows-the-integrand"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": 16,
                                         "excision_radius": -0.5}),
                 id="negative-excision-radius"),
    pytest.param(dict(SMALL_HARDY, geometry={"name": "euclidean", "params": {"m": 2, "mm": 3}}),
                 id="geometry-unknown-param"),
    pytest.param(dict(SMALL_HARDY, geometry={"name": "euclidean",
                                             "params": {"m": 2, "name": "euclidean"}}),
                 id="geometry-param-named-name"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "euclid-norm", "params": {"geo": 1}}),
                 id="weight-param-named-geo"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "euclid-norm", "params": {"foo": 1}}),
                 id="weight-unknown-param"),
    pytest.param(dict(SMALL_QCOND, **HEISENBERG,
                      weight={"name": "horizontal-norm", "params": {"index": [0]}}),
                 id="horizontal-norm-index-for-indices"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "power-of", "params": {
        "p": 2.0, "base": {"name": "euclid-norm", "params": {"foo": 1}}}}),
                 id="base-weight-unknown-param"),
    # each of the next twelve runs when the one bad value is made valid
    pytest.param(dict(SMALL_QCOND, weight={"name": "coordinate", "params": {"index": "a"}}),
                 id="coordinate-index-not-integer"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "coordinate"}),
                 id="coordinate-without-index"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "power-of", "params": {
        "p": "x", "base": {"name": "euclid-norm"}}}), id="power-of-p-not-number"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "power-of", "params": {
        "base": {"name": "euclid-norm"}}}), id="power-of-without-p"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "log-of", "params": {
        "base": {"name": "euclid-norm"}}}), id="log-of-without-branch"),
    pytest.param(dict(SMALL_QCOND, **HEISENBERG,
                      weight={"name": "shifted", "params": {"eps": "a"}}),
                 id="shifted-eps-not-number"),
    pytest.param(dict(SMALL_QCOND, **HEISENBERG,
                      weight={"name": "horizontal-norm", "params": {"indices": 5}}),
                 id="horizontal-norm-indices-not-list"),
    pytest.param(dict(SMALL_QCOND, **HEISENBERG,
                      weight={"name": "horizontal-norm", "params": {"indices": [0, 0]}}),
                 id="horizontal-norm-repeated-index"),
    pytest.param(dict(SMALL_QCOND, **HEISENBERG,
                      weight={"name": "horizontal-norm", "params": {"indices": []}}),
                 id="horizontal-norm-no-index"),
    pytest.param(dict(SMALL_QCOND, **SQUARE,
                      weight={"name": "boundary-distance", "params": {"corner_tube": "x"}}),
                 id="boundary-distance-corner-tube-not-number"),
    pytest.param(dict(SMALL_HARDY, geometry={"name": "convex-domain",
                                             "params": {"m": 2, "box": 3}}),
                 id="convex-domain-box-not-pairs"),
    pytest.param(dict(_on_facets(FACETS), geometry={"name": "convex-domain", "params": {
        "m": 2, "facets": FACETS, "box": [[-1, 1], [-1, 1]]}}),
                 id="convex-domain-facets-and-box"),
    # each facets case runs when its facets are made FACETS
    pytest.param(_on_facets(3), id="facets-not-list"),
    pytest.param(_on_facets([]), id="facets-empty"),
    pytest.param(_on_facets([[1.0, 0.0]]), id="facet-not-normal-offset-pair"),
    pytest.param(_on_facets([[[1.0, 0.0, 0.0], 2.0]] + FACETS[1:]), id="facet-normal-length-3"),
    pytest.param(_on_facets([[[1.0, 0.0], "x"]] + FACETS[1:]), id="facet-offset-not-number"),
    # a key no section reads; SMALL_HARDY runs without it
    pytest.param(dict(SMALL_HARDY, parameters={"alpha": 1.0, "alpah": 3.0,
                                               "psi_range": [0.5, 1.6]}),
                 id="unread-parameter"),
    pytest.param(dict(SMALL_HARDY, parameters={"alpha": 1.0, "tol": 1e-8,
                                               "psi_range": [0.5, 1.6]}),
                 id="parameter-of-another-operation"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": 16,
                                         "excison_radius": 0.2}),
                 id="unread-grid-key"),
    pytest.param(dict(SMALL_HARDY, corpus={"seed": 3, "size": 2, "sizee": 3}),
                 id="unread-corpus-key"),
    pytest.param(dict(SMALL_HARDY, extra=1), id="unread-top-level-key"),
    # psi_range sets the default bounds even where no bump is drawn; each
    # runs with psi_range [0.5, 1.6] (the running twin no-bounds-qcond)
    pytest.param(dict(SMALL_QCOND, grid={"n": 16}, parameters={"psi_range": [-2, -1]}),
                 id="psi-range-negative"),
    pytest.param(dict(SMALL_QCOND, grid={"n": 16}, parameters={"psi_range": [1.6, 0.5]}),
                 id="psi-range-reversed"),
    pytest.param(dict(SMALL_QCOND, grid={"n": 16}, parameters={"psi_range": [-1, 0.5]}),
                 id="psi-range-lo-below-0"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "power-of", "params": {
        "p": 2.0, "base": {"name": "euclid-norm"}, "weight": {"name": "euclid-norm"}}}),
                 id="power-of-with-weight-beside-base"),
    # a null section is not an absent one
    pytest.param(dict(SMALL_HARDY, grid=None), id="null-grid"),
    pytest.param(dict(SMALL_HARDY, corpus=None), id="null-corpus"),
    pytest.param(dict(SMALL_HARDY, parameters=None), id="null-parameters"),
    # no interior box fits between the margins of an 8-node axis
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": 8}),
                 id="grid-too-coarse-for-a-bump-box"),
    # no polynomial bump fits inside a 12-node Heisenberg grid
    pytest.param(dict(SMALL_HARDY, **HEISENBERG, weight={"name": "koranyi-gauge"},
                      operation="curvature", parameters={"p": 0.5}),
                 id="curvature-corpus-does-not-fit"),
    # extreme magnitudes; a numpy warning on the way is an error under the
    # pytest filterwarnings of pyproject.toml
    pytest.param(_bench_config("heis-curvature", 20, p=1e308), id="curvature-p-1e308"),
    pytest.param(_bench_config("heis-funcineq", 20, p=1e308), id="funcineq-p-1e308"),
    pytest.param(_bench_config("eu2-evolve", 32, t_max=1e308), id="evolve-t_max-1e308"),
    pytest.param(_bench_config("eu2-evolve", 32, t_max=-0.5), id="evolve-t_max-negative"),
    pytest.param(_bench_config("eu2-evolve", 32, t_max=0.0), id="evolve-t_max-0"),
    pytest.param(_bench_config("eu2-evolve", 32, dt=1e-308), id="evolve-dt-1e-308"),
    pytest.param(_bench_config("eu2-evolve", 32, dt=1e308), id="evolve-dt-beyond-t_max"),
    pytest.param(_bench_config("eu2-evolve", 32, t_max=1e308, dt=1e308),
                 id="evolve-dt-overflows-the-matrix"),
    pytest.param(_bench_config("eu3-subcommutation", 12, t_max=-1e308),
                 id="subcommutation-t_max-negative"),
    pytest.param(_bench_config("logr-best-constant", 1024, alpha=1e308),
                 id="best-constant-alpha-1e308"),
    pytest.param(dict(SMALL_QCOND, parameters={"tol": 10 ** 400}), id="integer-beyond-floats"),
    # True == 1 == 1.0, but the schema version is the integer 1
    pytest.param(dict(SMALL_QCOND, schema=True), id="schema-true"),
    pytest.param(dict(SMALL_QCOND, schema=1.0), id="schema-1.0"),
    # psi^p overflows a float on the grid
    pytest.param(_bench_config("heis-curvature", 20, p=1000), id="curvature-p-1000"),
    pytest.param(dict(_bench_config("heis-curvature", 20, p=1000), operation="suffcond"),
                 id="suffcond-p-1000"),
    pytest.param(_bench_config("heis-funcineq", 20, p=1000), id="funcineq-p-1000"),
    pytest.param(_bench_config("eu3-subcommutation", 12, p=1000), id="subcommutation-p-1000"),
])
def test_config_value_faults_exit_2_with_one_line(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [
    pytest.param(10 ** 30, id="beyond-an-index"),
    # 2^57 nodes fit an index, but their coordinates need 2^60 bytes
    pytest.param(2 ** 19, id="beyond-memory"),
])
def test_grid_too_large_exits_2_with_one_line_naming_grid_n(tmp_path, capsys, n):
    cfg = write_config(tmp_path, _bench_config("heis-qcond", n))
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid.n gives ") and err.count("\n") == 1


def test_grid_failing_to_allocate_exits_2_with_one_line_naming_grid_n(tmp_path, capsys,
                                                                      monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("hardylab.cli.default_grid", no_memory)
    assert main(["run", "--config", write_config(tmp_path, SMALL_QCOND)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid.n gives ") and err.count("\n") == 1


def _far_bounds(name: str, bound: float) -> dict:
    """bench/configs/<name>.json on 16 nodes per axis with every axis at
    [-bound, bound]."""
    cfg = _bench_config(name, 16)
    cfg["grid"]["bounds"] = [[-bound, bound]] * len(cfg["grid"]["bounds"])
    return cfg


@pytest.mark.parametrize("payload", [
    pytest.param(_far_bounds("heis-qcond", 1e300), id="heis-qcond-1e300"),
    pytest.param(_far_bounds("heis-hardy", 1e300), id="heis-hardy-1e300"),
    pytest.param(_far_bounds("heis-hardy", 1e200), id="heis-hardy-1e200"),
    pytest.param(_far_bounds("eu3-radial", 1e300), id="eu3-radial-1e300"),
])
def test_grid_bounds_overflowing_exit_2_with_one_line_naming_grid_bounds(tmp_path, capsys,
                                                                         payload):
    # the excision mask squares the far nodes' coordinates, which overflows
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid.bounds ") and err.count("\n") == 1
    assert "overflow" in err


def test_funcineq_right_side_below_zero_is_a_violation(tmp_path, capsys):
    # gamma 1000 takes every right side below 0 while each left side stays above
    cfg = write_config(tmp_path, _bench_config("heis-funcineq", 20, gamma=1000.0))
    out_csv = tmp_path / "rows.csv"
    assert main(["run", "--config", cfg, "--out", str(out_csv)]) == 1
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert err == "" and summary["verdict"] == "violation" and summary["worst_ratio"] is None
    rows = [line.split(",") for line in out_csv.read_text().splitlines()]
    lhs, rhs = rows[0].index("lhs"), rows[0].index("rhs")
    assert all(float(row[lhs]) > 0.0 > float(row[rhs]) for row in rows[1:])


@pytest.mark.parametrize("payload,message", [
    # beta^2 overflows a float
    pytest.param({"schema": 1, "geometry": HEIS1, "weight": {"name": "koranyi-gauge"},
                  "operation": "funcineq-general",
                  "parameters": {"p": 0.5, "beta": 1e155, "psi_range": [0.6, 1.8]},
                  "grid": {"bounds": [[-2, 2]] * 3, "n": 24}, "corpus": {"seed": 7, "size": 3}},
                 "beta 1e+155 is too large", id="funcineq-general-beta-1e155"),
    # psi^3000 underflows to 0 on every bump, so both sides of every report are 0
    pytest.param({"schema": 1, "geometry": {"name": "euclidean", "params": {"m": 2}},
                  "weight": {"name": "euclid-norm"}, "operation": "hardy",
                  "parameters": {"alpha": 3000, "psi_range": [0.1, 0.6]},
                  "grid": {"bounds": [[-0.5, 0.5]] * 2, "n": 64, "excision_radius": 0.02},
                  "corpus": {"seed": 7, "size": 4}},
                 "every right-side term is 0", id="hardy-alpha-3000-underflow"),
])
def test_run_without_evidence_or_with_an_overflowing_beta_exits_2_with_one_line(
        tmp_path, capsys, payload, message):
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("payload", [
    pytest.param(SMALL_HARDY, id="alpha-1"),
    pytest.param(dict(SMALL_HARDY, grid={"bounds": [[-2, 2], [-2, 2]], "n": 16,
                                         "excision_radius": 0.0}),
                 id="zero-excision-radius"),
    pytest.param(dict(SMALL_HARDY, weight={"name": "euclid-norm", "params": {}}),
                 id="weight-without-params"),
    pytest.param(dict(SMALL_QCOND, **HEISENBERG,
                      weight={"name": "horizontal-norm", "params": {"indices": [0]}}),
                 id="horizontal-norm-indices"),
    pytest.param(dict(SMALL_QCOND, weight={"name": "power-of", "params": {
        "p": 2.0, "base": {"name": "euclid-norm"}}}),
                 id="power-of-euclid-norm"),
    pytest.param(dict(SMALL_QCOND, grid={"n": 16}), id="no-bounds-qcond"),
])
def test_config_value_faults_have_running_twins(tmp_path, capsys, payload):
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 0


def test_facets_config_runs(tmp_path, capsys):
    assert main(["run", "--config", write_config(tmp_path, _on_facets(FACETS))]) == 0


def test_negative_seed_override_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_HARDY)
    assert main(["run", "--config", cfg, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err


@pytest.mark.parametrize("name, params, bounds, n", [
    ("hyperbolic", {"m": 2}, [(-2.0, 2.0), (0.04, 2.0)], (64, 64)),
    ("halfspace-euclidean", {"m": 3}, [(-2.0, 2.0)] * 2 + [(0.04, 2.0)], (48,) * 3),
    ("euclidean-radial", {"m": 3}, [(0.04, 2.0)], (64,)),
    ("euclidean", {"m": 2}, [(-2.0, 2.0)] * 2, (64, 64)),
    ("heisenberg", {"m": 1}, [(-2.0, 2.0)] * 3, (48,) * 3),
    ("logradial", {"m": 3}, [(-2.0, 2.0)], (64,)),
])
def test_default_grid_bounds_and_size(monkeypatch, name, params, bounds, n):
    """Without grid.bounds, grid.n and psi_range: [-2, 2] per axis, the last
    from 0.04 on the half-space models; 64 nodes per axis up to m = 2, 48 above."""
    from hardylab import cli

    seen = {}
    monkeypatch.setattr(cli, "default_grid", lambda geo, **kw: seen.update(kw))
    cli._build_grid(cli.make_geometry(name, **params), None, {}, None)
    assert seen["bounds"] == bounds and seen["n"] == n


def test_corpus_bumps_default_to_the_middle_70_percent_of_psi(monkeypatch):
    from hardylab import cli

    seen = []
    monkeypatch.setattr(cli, "bump_corpus", lambda psi, grid, size, seed, psi_range:
                        seen.append(psi_range))
    cfg = RunConfig.from_json(json.dumps(dict(SMALL_HARDY, parameters={"alpha": 1.0})))
    geo = cli.make_geometry("euclidean", m=2)
    weight = cli.make_weight(geo, "euclid-norm")
    grid = hl.default_grid(geo, weight, bounds=[(-2, 2)] * 2, n=16)
    cli._Context(cfg, geo, weight, grid, weight.psi, 2.0, {}, 0, 1).bumps(1)
    vals = weight.psi.value_at(grid.points)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    assert seen == [pytest.approx((lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)))]


def test_violation_resolved_at_halved_spacing_reports_the_recheck(monkeypatch):
    from hardylab import cli

    calls = []

    def dispatch(cfg, refine=1, verdict_only=False):
        calls.append((refine, verdict_only))
        code = 1 if len(calls) == 1 else 0
        return cli.RunResult(code, {"verdict": "violation" if code else "pass"},
                             [{"index": 0, "refine": refine}])

    monkeypatch.setattr(cli, "_dispatch", dispatch)
    result = cli.run(RunConfig.from_json(json.dumps(SMALL_HARDY)))
    assert calls == [(1, False), (2, True)] and result.exit_code == 0
    assert result.summary == {"verdict": "pass", "note": "violation resolved at halved spacing"}
    assert result.rows == [{"index": 0, "refine": 2}]


# -- the halved-spacing re-check -------------------------------------------------
# When the re-check fails too, run keeps only its exit code, so it draws its
# bumps one at a time and stops at its first violating one; the first pass,
# --refine and a re-check that passes check every bump.

def _counting(monkeypatch, owner, name):
    """Wrap ``owner.<name>`` to record the node count of each call's grid."""
    real, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        grid = kwargs.get("grid") or args[-1]
        calls.append(grid.n_nodes)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


VIOLATION = _bench_config("eu2-hardy-violation", 32)  # 3 bumps; the first violates
RESOLVED = {  # a violation of the grid: worst ratio 1.097 at n = 96, 0.798 at n = 192
    "schema": 1, "geometry": {"name": "euclidean", "params": {"m": 2}},
    "weight": {"name": "euclid-norm"}, "operation": "hardy",
    "parameters": {"alpha": 200.0, "psi_range": [0.2, 0.8]},
    "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 96, "excision_radius": 0.05},
    "corpus": {"seed": 7, "size": 4}}


def test_a_persisting_violation_rechecks_up_to_its_first_violating_bump(monkeypatch):
    from hardylab import cli

    reports = _counting(monkeypatch, cli.ineq, "hardy_report")
    result = run(RunConfig.from_json(json.dumps(VIOLATION)))
    assert result.exit_code == 1
    assert result.summary["note"] == "violation persists at halved spacing"
    coarse, fine = sorted(set(reports))
    assert reports == [coarse] * 3 + [fine]  # the first fine bump already fails
    assert [row["index"] for row in result.rows] == [0, 1, 2]


def test_a_persisting_curvature_violation_rechecks_up_to_its_first_violating_bump(
        monkeypatch):
    from hardylab import cli

    payload = {"schema": 1, "geometry": {"name": "euclidean", "params": {"m": 2}},
               "weight": {"name": "euclid-norm"}, "operation": "curvature",
               "parameters": {"p": 0.5, "gamma": 0.5},
               "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 32}, "corpus": {"seed": 9, "size": 4}}
    checks = _counting(monkeypatch, cli, "check_curvature")
    result = run(RunConfig.from_json(json.dumps(payload)))
    assert result.exit_code == 1
    assert result.summary["note"] == "violation persists at halved spacing"
    coarse, fine = sorted(set(checks))
    assert checks == [coarse] * 4 + [fine]
    assert len(result.rows) == 4


def test_a_resolved_violation_returns_every_recheck_row(monkeypatch):
    from hardylab import cli

    cfg = RunConfig.from_json(json.dumps(RESOLVED))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        first, listed = cli._dispatch(cfg), cli._dispatch(cfg, refine=2)
    assert first.exit_code == 1 and listed.exit_code == 0
    reports = _counting(monkeypatch, cli.ineq, "hardy_report")
    result = run(cfg)
    assert result.exit_code == 0
    assert result.summary == {**listed.summary, "note": "violation resolved at halved spacing"}
    assert result.rows == listed.rows and len(result.rows) == 4
    coarse, fine = sorted(set(reports))
    assert reports == [coarse] * 4 + [fine] * 4


def test_refine_reports_every_bump_on_the_fine_grid(monkeypatch):
    from hardylab import cli

    reports = _counting(monkeypatch, cli.ineq, "hardy_report")
    result = run(RunConfig.from_json(json.dumps(VIOLATION)), refine=True)
    assert result.exit_code == 1 and "note" not in result.summary
    assert len(result.rows) == 3 and len(reports) == 3 and len(set(reports)) == 1


def _recheck_corpus(monkeypatch, *tail):
    """The re-check's bumps: its real first bump, then each of ``tail`` in
    turn, a function of the grid giving a bump, or an exception to raise."""
    from hardylab import cli

    real = cli.iter_bump_corpus

    def drawn(psi, grid, n, seed, psi_range):
        yield next(real(psi, grid, n, seed, psi_range))
        for item in tail:
            if isinstance(item, Exception):
                raise item
            yield item(grid)

    monkeypatch.setattr(cli, "iter_bump_corpus", drawn)


def _on_the_boundary(grid):
    """A bump whose report raises: its support touches the grid boundary."""
    from hardylab.fields import SupportedField

    return SupportedField(hl.tensor_bump(grid.bounds))


PLACE = UsageError("could not place the requested corpus inside the grid")


# Behaviour changes of the early stop: what the re-check would raise after its
# first violating bump no longer turns exit 1 into exit 2, and in a re-check
# whose bumps pass so far a report's error comes before the corpus's.
@pytest.mark.parametrize("tail", [pytest.param((PLACE,), id="could-not-place"),
                                  pytest.param((_on_the_boundary,), id="report-error")])
def test_what_follows_the_first_violating_recheck_bump_is_never_reached(
        tmp_path, capsys, monkeypatch, tail):
    _recheck_corpus(monkeypatch, *tail)
    assert main(["run", "--config", write_config(tmp_path, VIOLATION)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["note"] == "violation persists at halved spacing" and err == ""


def test_a_passing_recheck_reports_an_error_before_the_corpus_gives_out(
        tmp_path, capsys, monkeypatch):
    _recheck_corpus(monkeypatch, _on_the_boundary, PLACE)
    assert main(["run", "--config", write_config(tmp_path, RESOLVED)]) == 2
    assert capsys.readouterr().err == ("error: test function support touches the grid "
                                       "boundary or an excised region\n")


def _small_euclidean(operation, parameters, n, excision, seed, size):
    return {"schema": 1, "geometry": {"name": "euclidean", "params": {"m": 2}},
            "weight": {"name": "euclid-norm"}, "operation": operation, "parameters": parameters,
            "grid": {"bounds": [[-2, 2], [-2, 2]], "n": n, "excision_radius": excision},
            "corpus": {"seed": seed, "size": size}}


# The same changes on configs a random search over small euclidean(2) grids
# found: each one's coarse pass violates, and its re-check, run on the list
# path, raises ``listed``.
@pytest.mark.parametrize("payload,listed,code,err", [
    pytest.param(_small_euclidean("hardy", {"psi_range": [0.1, 1.1], "Q": 100.0}, 12, 0.5,
                                  511, 5),
                 "could not place", 1, "", id="could-not-place-after-a-violation"),
    pytest.param(_small_euclidean("hardy", {"psi_range": [0.05, 0.65], "alpha": 400.0,
                                            "Q": 14.0}, 10, 0.01, 666, 5),
                 "every right-side term is 0", 1, "", id="report-error-after-a-violation"),
    pytest.param(_small_euclidean("weighted-log-hardy", {"psi_range": [0.1, 1.1],
                                                         "alpha": -300.0, "Q": 2.5},
                                  12, 0.5, 355, 2),
                 "could not place", 2, "error: support crosses the level set {psi = 1}\n",
                 id="report-error-before-the-corpus-gives-out"),
])
def test_recheck_behaviour_changes_on_found_configs(tmp_path, capsys, payload, listed, code,
                                                    err):
    from hardylab import cli

    cfg = RunConfig.from_json(json.dumps(payload))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert cli._dispatch(cfg).exit_code == 1
        with pytest.raises(Exception, match=listed):
            cli._dispatch(cfg, refine=2)
    assert main(["run", "--config", write_config(tmp_path, payload)]) == code
    out, got = capsys.readouterr()
    assert got == err
    if code == 1:
        assert json.loads(out)["note"] == "violation persists at halved spacing"


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hardylab"] == "hardylab.cli:main"


def test_no_trial_function_in_grid_exits_2_with_one_line(tmp_path, capsys):
    payload = {
        "schema": 1,
        "geometry": {"name": "euclidean", "params": {"m": 2}},
        "weight": {"name": "euclid-norm"},
        "operation": "best-constant",
        "parameters": {"alpha": 1.0},
        "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 16},
    }
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err == "error: no trial function fits inside the grid\n"


@pytest.mark.parametrize("out", [
    pytest.param("missing/report.csv", id="in-missing-directory"),
    pytest.param(".", id="a-directory"),
])
def test_out_path_that_names_no_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                             out):
    from hardylab import cli

    ran = []
    monkeypatch.setattr(cli, "_dispatch", lambda *a, **k: ran.append(a))
    out = str(tmp_path / out)
    assert main(["run", "--config", write_config(tmp_path, SMALL_HARDY), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ran == []


def test_out_path_failing_to_open_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    from hardylab import cli

    monkeypatch.setattr(cli, "_dispatch", lambda *a, **k: cli.RunResult(0, {}, [{"index": 0}]))
    # its directory exists, but no file system takes a 300-byte name
    out = str(tmp_path / ("r" * 300 + ".csv"))
    assert main(["run", "--config", write_config(tmp_path, SMALL_HARDY), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("config", [
    pytest.param(str, id="a-directory"),
    pytest.param(lambda tmp_path: write_bytes(tmp_path, b'{"schema": 1\xff}'), id="not-utf-8"),
])
def test_config_that_cannot_be_read_exits_2_with_one_line(tmp_path, capsys, config):
    assert main(["run", "--config", config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


SMALL_BEST_CONSTANT = {
    "schema": 1,
    "geometry": {"name": "logradial", "params": {"m": 3}},
    "weight": {"name": "euclid-norm"},
    "operation": "best-constant",
    "parameters": {"alpha": 0.0},
    "grid": {"bounds": [[-30, 3]], "n": 4096},
}


@pytest.mark.parametrize("base,operation,alpha", [
    pytest.param(SMALL_HARDY, "hardy", 1.0, id="hardy"),
    pytest.param(SMALL_HARDY, "weighted-log-hardy", 2.0, id="weighted-log-hardy"),
    pytest.param(SMALL_HARDY, "radial", 1.0, id="radial"),
    pytest.param(SMALL_BEST_CONSTANT, "best-constant", 0.0, id="best-constant"),
])
def test_null_Q_exits_2_with_one_line(tmp_path, capsys, base, operation, alpha):
    payload = dict(base, operation=operation,
                   parameters=dict(base["parameters"], alpha=alpha, Q=None))
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "parameters.Q" in err


def test_best_constant_at_Q_plus_alpha_2_exits_2_before_the_search(tmp_path, capsys,
                                                                  monkeypatch):
    from hardylab import inequalities

    searched = []
    monkeypatch.setattr(inequalities, "estimate_best_constant",
                        lambda *a, **k: searched.append(a) or (0.0, {}))
    payload = dict(SMALL_BEST_CONSTANT, parameters={"alpha": 0.0, "Q": 2})
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Q + alpha = 2") and err.count("\n") == 1
    assert searched == []


def test_Q_plus_alpha_2_up_to_rounding_exits_2(tmp_path, capsys):
    # 2.3 + -0.3 is 1.9999999999999998, which an exact == 2 test lets through
    payload = dict(SMALL_HARDY, parameters={"Q": 2.3, "alpha": -0.3, "psi_range": [0.5, 1.6]})
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Q + alpha = 2") and err.count("\n") == 1


def test_weight_claiming_no_Q_exits_2(tmp_path, capsys, monkeypatch):
    import dataclasses

    from hardylab import cli

    resolve = cli._resolve_weight
    monkeypatch.setattr(cli, "_resolve_weight",
                        lambda geo, spec: dataclasses.replace(resolve(geo, spec),
                                                              claimed_Q=None))
    cfg = write_config(tmp_path, SMALL_HARDY)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def loads_scipy(code: str, *args: str) -> bool:
    """Run ``code`` in a fresh interpreter; True when scipy got imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = code + "\nprint('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_importing_the_package_and_cli_leaves_scipy_out():
    assert not loads_scipy("import sys, hardylab, hardylab.cli")


@pytest.mark.parametrize("payload,expected", [
    pytest.param(SMALL_HARDY, False, id="hardy"),
    pytest.param(dict(SMALL_RADIAL, operation="evolve"), True, id="evolve"),
])
def test_only_semigroup_runs_load_scipy(tmp_path, payload, expected):
    cfg = write_config(tmp_path, payload)
    code = ("import sys\n"
            "from hardylab import cli\n"
            "assert cli.main(['run', '--config', sys.argv[1]]) == 0")
    assert loads_scipy(code, cfg) is expected


def test_semigroup_names_are_reexported_lazily():
    from hardylab import semigroup

    assert hl.evolve is semigroup.evolve
    for name in ("ContractionTrace", "contraction_trace", "evolve",
                 "subcommutation_check", "symmetry_defect", "trajectory"):
        assert name in dir(hl)
        assert getattr(hl, name) is getattr(semigroup, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        hl.no_such_name


SWEEP_KEYS = {"operation", "alpha", "Q", "inequality", "constant", "worst_ratio", "verdict"}


def _tiny(geometry, weight, parameters, excision=None, n=16):
    grid = {"bounds": [[-2, 2]] * 3, "n": n}
    if excision is not None:
        grid["excision_radius"] = excision
    return {"schema": 1, "geometry": geometry, "weight": {"name": weight},
            "parameters": parameters, "grid": grid, "corpus": {"seed": 2, "size": 3}}


@pytest.mark.parametrize("operation,payload,keys", [
    pytest.param("suffcond", _tiny(EU3, "euclid-norm", {"p": 0.5, "gamma": 0.0}, 0.3, n=12),
                 {"operation", "gamma", "inf_value", "verdict"}, id="suffcond"),
    pytest.param("log-hardy", _tiny(EU3, "euclid-norm",
                                    {"alpha": 0.0, "psi_range": [1.1, 1.9]}),
                 SWEEP_KEYS, id="log-hardy"),
    pytest.param("weighted-log-hardy", _tiny(EU3, "euclid-norm",
                                             {"alpha": 0.0, "psi_range": [1.1, 1.9]}),
                 SWEEP_KEYS, id="weighted-log-hardy"),
    pytest.param("dilation", _tiny(HEIS1, "koranyi-gauge",
                                   {"alpha": 0.0, "psi_range": [0.6, 1.6]}),
                 SWEEP_KEYS, id="dilation"),
    pytest.param("homo-norm", _tiny(HEIS1, "koranyi-gauge", {"psi_range": [0.6, 1.6]}),
                 SWEEP_KEYS, id="homo-norm"),
    pytest.param("funcineq-general",
                 _tiny(EU3, "euclid-norm", {"p": 0.5, "beta": 0.5, "psi_range": [0.5, 1.6]},
                       0.25),
                 SWEEP_KEYS, id="funcineq-general"),
])
def test_operation_runs_through_the_cli(operation, payload, keys):
    result = run(RunConfig.from_json(json.dumps(dict(payload, operation=operation))))
    assert result.exit_code == 0
    assert result.summary["verdict"] == "pass"
    assert set(result.summary) == keys
    if "inequality" in keys:
        assert result.summary["inequality"] == operation
        assert len(result.rows) == 3


def test_homo_norm_eps_exits_2_with_one_line_naming_the_key(tmp_path, capsys):
    """homo-norm reads no parameter beside Q and psi_range: eps is rejected
    like any key that no section reads."""
    payload = dict(_tiny(HEIS1, "koranyi-gauge", {"psi_range": [0.6, 1.6], "eps": 1e-3}),
                   operation="homo-norm")
    assert main(["run", "--config", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: parameters reads no key 'eps'")


def readme_table_rows():
    """The cells of every table row in the README."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        return [[c.strip() for c in line.strip().strip("|").split("|")]
                for line in fh.read().splitlines() if line.startswith("|")]


def test_readme_operation_table_matches_the_cli():
    from hardylab.cli import _OPERATIONS

    table = {}
    for cells in readme_table_rows():
        if len(cells) == 3 and cells[0].startswith("`") and cells[2] in ("yes", "no"):
            params = {}
            items = cells[1].replace("`", "").split(", ")
            for item in [] if items == ["none"] else items:
                name, _, default = item.partition("=")
                params[name] = float(default) if default else None
            table[cells[0].strip("`")] = (params, cells[2] == "yes")
    assert list(table) == list(_OPERATIONS)
    for op, entry in _OPERATIONS.items():
        assert table[op] == (entry.parameters, entry.needs_Q), op


def test_readme_config_key_table_matches_the_sections():
    from hardylab.cli import _SECTIONS

    rows = {cells[0].strip("`"): re.findall(r"`(\w+)`", cells[1])
            for cells in readme_table_rows() if len(cells) == 2}
    assert rows["top level"] == list(_SECTIONS["config"])
    for section in ("grid", "corpus"):
        assert rows[section] == list(_SECTIONS[section]), section


def test_an_unread_key_is_named_with_the_keys_its_section_reads():
    with pytest.raises(UsageError) as grid:
        RunConfig.from_json(json.dumps(dict(SMALL_HARDY, grid={"excison_radius": 0.2})))
    assert str(grid.value) == ("grid reads no key 'excison_radius'; "
                               "it reads bounds, n, excision_radius")
    with pytest.raises(UsageError) as parameters:
        RunConfig.from_json(json.dumps(dict(SMALL_HARDY, parameters={"tol": 1e-8})))
    assert str(parameters.value) == "parameters reads no key 'tol'; it reads alpha, Q, psi_range"


def test_every_bench_config_parses():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = sorted(glob.glob(os.path.join(root, "bench", "configs", "*.json")))
    assert len(configs) == 10
    for path in configs:
        with open(path) as fh:
            RunConfig.from_json(fh.read())


def test_readme_catalog_table_matches_the_catalog():
    """The README geometry column lists GEOMETRIES in order, and every weight
    a row names builds on that row's geometry."""
    from hardylab.catalog import GEOMETRIES

    rows = {}
    for cells in readme_table_rows():
        geometry = re.fullmatch(r"`([a-z-]+)\(\w\)`", cells[0])
        if geometry and len(cells) == 3:
            rows[geometry.group(1)] = re.findall(r"`([a-z-]+)(?:\(\w\))?`", cells[2])
    assert list(rows) == list(GEOMETRIES)
    for name, weights in rows.items():
        params = {GEOMETRIES[name][1][0]: 2}
        if name == "convex-domain":
            params["box"] = [(-1, 1)] * 2
        geo = hl.make_geometry(name, **params)
        assert weights, name
        for weight in weights:
            hl.make_weight(geo, weight, **({"index": 0} if weight == "coordinate" else {}))


def test_overflowing_curvature_bound_is_a_violation_without_warnings(tmp_path, capsys):
    # gamma W^2 f^2 overflows to inf, which violates the bound; numpy stays quiet
    cfg = write_config(tmp_path, _bench_config("heis-curvature", 20, gamma=1e308))
    assert main(["run", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["verdict"] == "violation"
