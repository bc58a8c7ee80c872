"""How long a corpus bump holds memoized values.

An accepted bump keeps its support rows, the support sub-array, its tree's
values on that sub-array and its ``grid.supports`` verdict, and nothing of
the whole grid's size.  Once its report or curvature check returns, the
bump itself is freed by reference counting, with its sub-array and every
entry on it, while the weight-side memos that every bump shares stay, keyed
on the grid's points.  Each run goes through ``cli.run`` on a small
Heisenberg grid; the corpus builders and the per-bump checks are wrapped
where the handlers look them up, so the test sees each bump as the run
hands it on."""

import collections
import json
import weakref

import numpy as np
import pytest

from hardylab import cli
from hardylab import inequalities as ineq
from hardylab.fields import ComposeField, ProductField, ScalarField, SupportedField, squared


def _config(operation, parameters):
    return cli.RunConfig.from_json(json.dumps({
        "schema": 1, "geometry": {"name": "heisenberg", "params": {"m": 1}},
        "weight": {"name": "koranyi-gauge"}, "operation": operation,
        "parameters": parameters,
        "grid": {"bounds": [[-2, 2]] * 3, "n": 20}, "corpus": {"seed": 3, "size": 3}}))


def _tree(field, shared=()):
    """``field`` and every field its attributes lead to, not entering ``shared``."""
    seen, todo = [], [field]
    while todo:
        node = todo.pop()
        if not any(node is s for s in [*seen, *shared]):
            seen.append(node)
            todo.extend(v for v in vars(node).values() if isinstance(v, ScalarField))
    return seen


def _entries(node):
    """The node's memo table: ``id(pts)`` -> (weakref to pts, {key: value})."""
    return vars(node).get("_memo", {})


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("operation,parameters,builder,check", [
    pytest.param("hardy", {"psi_range": [0.6, 1.8]}, "bump_corpus", "hardy_report",
                 id="hardy"),
    pytest.param("funcineq", {"p": 0.5, "psi_range": [0.6, 1.8]}, "bump_corpus",
                 "funcineq_report", id="funcineq"),
    pytest.param("curvature", {"p": 0.5}, "polynomial_bump_corpus", "check_curvature",
                 id="curvature"),
])
def test_a_bump_holds_its_support_rows_until_its_check_and_nothing_after(
        monkeypatch, no_cyclic_gc, operation, parameters, builder, check):
    seen = {}
    build = getattr(cli, builder)

    def recorded_build(*args, **kwargs):
        corpus = build(*args, **kwargs)
        grid = next(a for a in args if hasattr(a, "n_nodes"))
        psi = args[0] if builder == "bump_corpus" else None
        shared = [] if psi is None else [psi]
        for f in corpus:
            for node in _tree(f, shared):
                for ref, values in _entries(node).values():
                    assert all(len(a) != grid.n_nodes for a in _arrays(values)), (node, ref)
            rows, sub = f.rows_at(grid.points)
            assert 0 < len(rows) == len(sub) < grid.n_nodes
            # one entry, on the grid's points: the rows and the supports verdict
            (ref, values), = _entries(f).values()
            assert ref() is grid.points and set(values) == {"rows", "supports"}
            # the tree keeps its values on the rows, for the report to read
            assert [ref() for ref, _ in _entries(f.base).values()] == [sub]
        # weak references only: the run alone decides how long a bump lives
        seen.update(grid=grid, checked=0,
                    bumps=[(weakref.ref(f), weakref.ref(f.rows_at(grid.points)[1]))
                           for f in corpus])
        return corpus

    owner = ineq if check.endswith("_report") else cli
    run_check = getattr(owner, check)

    def recorded_check(*args, **kwargs):
        # the bumps are handed on in order, and every bump checked before
        # this one is gone, with its sub-array
        bump, _ = seen["bumps"][seen["checked"]]
        assert (kwargs["f"] if "f" in kwargs else args[2]) is bump()
        for bump, sub in seen["bumps"][:seen["checked"]]:
            assert bump() is None and sub() is None
        seen["checked"] += 1
        seen["W"] = args[1]
        return run_check(*args, **kwargs)

    monkeypatch.setattr(cli, builder, recorded_build)
    monkeypatch.setattr(owner, check, recorded_check)
    result = cli.run(_config(operation, parameters))
    assert result.exit_code == 0 and seen["checked"] == 3

    assert all(bump() is None and sub() is None for bump, sub in seen["bumps"])
    # the weight-side terms every bump shares are still there, on the grid,
    # and no entry on a bump's sub-array outlived it
    weight = seen["W"].psi if operation == "hardy" else seen["W"]
    (ref, terms), = _entries(weight).values()
    assert ref() is seen["grid"].points and set(terms) - {"v", "g", "h"}


def test_a_curvature_run_evaluates_each_weight_side_node_on_the_grid_once(monkeypatch):
    """W^2, W and psi are evaluated on the grid's points once in a curvature
    pass, however many bumps it checks: a bump's work on its own support
    rows leaves their whole-grid entries in place."""
    seen = {"checked": 0}
    calls = collections.Counter()
    for cls in (ComposeField, ProductField):
        def counted(self, pts, _value=cls._value):
            calls[self] += pts is getattr(seen.get("grid"), "points", None)
            return _value(self, pts)
        monkeypatch.setattr(cls, "_value", counted)
    build_grid, check = cli.default_grid, cli.check_curvature

    def recorded_grid(*args, **kwargs):
        seen["grid"] = build_grid(*args, **kwargs)
        return seen["grid"]

    def recorded_check(diff, W, f, gamma, grid):
        seen.update(W=W, checked=seen["checked"] + 1)
        return check(diff, W, f, gamma, grid)

    monkeypatch.setattr(cli, "default_grid", recorded_grid)
    monkeypatch.setattr(cli, "check_curvature", recorded_check)
    assert cli.run(_config("curvature", {"p": 0.5})).exit_code == 0
    W = seen["W"]
    assert seen["checked"] == 3
    for name, node in (("W^2", squared(W)), ("W", W), ("psi", W.f)):
        assert calls[node] == 1, name


def test_a_curvature_run_keeps_no_frame_or_density_entry_on_the_grid(monkeypatch):
    """A bump's Gamma takes the frame coefficients on its own sub-array,
    L(W^2)'s pass takes them on its row blocks, and the grid reads the
    density without memoizing it, so after a curvature run the diffusion,
    its frame coefficient fields and rho hold nothing keyed on the grid's
    points.  The 8,000-node grid is one block, which is still a new array."""
    seen = {}
    build_grid = cli.default_grid

    def recorded_grid(*args, **kwargs):
        seen["grid"] = build_grid(*args, **kwargs)
        return seen["grid"]

    monkeypatch.setattr(cli, "default_grid", recorded_grid)
    assert cli.run(_config("curvature", {"p": 0.5})).exit_code == 0
    grid = seen["grid"]
    diff = grid.geometry
    nodes = [("diffusion", diff), ("rho", diff.measure_density)]
    nodes += [(f"frame field {j}, coefficient {i}", c)
              for j, X in enumerate(diff.frame) for i, c in enumerate(X.coeffs)]
    for name, node in nodes:
        assert all(ref() is not grid.points for ref, _ in _entries(node).values()), name


def test_a_hardy_run_keeps_psis_whole_grid_values_in_psis_own_table(monkeypatch):
    """psi's whole-grid value is computed in row blocks, so after a hardy run
    only psi's own table holds entries keyed on the grid's points (its value
    and the weight-side terms) and none of its inner nodes does.  The
    8,000-node grid is one block, which is still a new array."""
    seen = {}
    build_grid, report = cli.default_grid, ineq.hardy_report

    def recorded_grid(*args, **kwargs):
        seen["grid"] = build_grid(*args, **kwargs)
        return seen["grid"]

    def recorded_report(geo, psi, *args, **kwargs):
        seen["psi"] = psi.psi
        return report(geo, psi, *args, **kwargs)

    monkeypatch.setattr(cli, "default_grid", recorded_grid)
    monkeypatch.setattr(ineq, "hardy_report", recorded_report)
    assert cli.run(_config("hardy", {"psi_range": [0.6, 1.8]})).exit_code == 0
    psi, pts = seen["psi"], seen["grid"].points
    on_grid = [node for node in _tree(psi)
               if any(ref() is pts for ref, _ in _entries(node).values())]
    assert on_grid == [psi]
    (terms,) = [values for ref, values in _entries(psi).values() if ref() is pts]
    assert "v" in terms


@pytest.mark.parametrize("operation,parameters,whole", [
    pytest.param("hardy", {"psi_range": [0.6, 1.8]}, [], id="hardy"),
    pytest.param("funcineq", {"p": 0.5, "psi_range": [0.6, 1.8]}, [], id="funcineq"),
    pytest.param("curvature", {"p": 0.5}, [], id="curvature"),
    # the one bump that is evaluated on the whole grid: a semigroup's
    # initial state, once, since the value is memoized
    pytest.param("evolve", {"t_max": 0.002, "dt": 0.001, "psi_range": [0.6, 1.8]},
                 ["_value"], id="evolve"),
])
def test_no_sweep_or_curvature_run_evaluates_a_bump_on_the_whole_grid(
        monkeypatch, operation, parameters, whole):
    """A bump's corpus test, reports and curvature check read it on its
    support rows only, so no bump memoizes an array of the grid's size."""
    seen = {"calls": []}
    build_grid = cli.default_grid

    def recorded_grid(*args, **kwargs):
        seen["grid"] = build_grid(*args, **kwargs)
        return seen["grid"]

    monkeypatch.setattr(cli, "default_grid", recorded_grid)
    for name in ("_value", "_grad", "_hess"):
        def recorded(self, pts, name=name, method=getattr(SupportedField, name)):
            seen["calls"].append((name, len(pts)))
            return method(self, pts)
        monkeypatch.setattr(SupportedField, name, recorded)
    assert cli.run(_config(operation, parameters)).exit_code == 0
    assert [name for name, n in seen["calls"] if n == seen["grid"].n_nodes] == whole
