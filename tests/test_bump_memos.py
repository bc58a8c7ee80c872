"""How long a corpus bump holds memoized values.

An accepted bump keeps its support rows, the support sub-array, its tree's
values on that sub-array and its ``grid.supports`` verdict, and nothing of
the whole grid's size.  Once its report or curvature check returns it holds
no memo entry at all, while the weight-side memos that every bump shares
stay.  Each run goes through ``cli.run`` on a small Heisenberg grid; the
corpus builders and the per-bump checks are wrapped where the handlers look
them up, so the test sees each bump as the run hands it on."""

import json

import numpy as np
import pytest

from hardylab import cli
from hardylab import inequalities as ineq
from hardylab.fields import ScalarField


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


def _slots(node):
    return {k: v for k, v in vars(node).items() if k.endswith("_memo")}


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
        monkeypatch, operation, parameters, builder, check):
    monkeypatch.setenv("HARDYLAB_THREADS", "1")
    seen = {}
    build = getattr(cli, builder)

    def recorded_build(*args, **kwargs):
        corpus = build(*args, **kwargs)
        grid = next(a for a in args if hasattr(a, "n_nodes"))
        psi = args[0] if builder == "bump_corpus" else None
        shared = [] if psi is None else [psi]
        for f in corpus:
            for node in _tree(f, shared):
                for slot, (_, values) in _slots(node).items():
                    assert all(len(a) != grid.n_nodes for a in _arrays(values)), (node, slot)
            rows, sub = f.rows_at(grid.points)
            assert 0 < len(rows) == len(sub) < grid.n_nodes
            assert set(_slots(f)) == {"_rows_memo", "_supports_memo"}
            # the tree keeps its values on the rows, for the report to read
            assert vars(f.base)["_eval_memo"][0]() is sub
        seen.update(grid=grid, corpus=corpus, shared=shared, checked=0)
        return corpus

    owner = ineq if check.endswith("_report") else cli
    run_check = getattr(owner, check)

    def recorded_check(*args, **kwargs):
        # every bump checked before this one already holds nothing
        for f in seen["corpus"][:seen["checked"]]:
            assert not any(_slots(node) for node in _tree(f, seen["shared"] + [args[1]]))
        seen["checked"] += 1
        seen["W"] = args[1]
        return run_check(*args, **kwargs)

    monkeypatch.setattr(cli, builder, recorded_build)
    monkeypatch.setattr(owner, check, recorded_check)
    result = cli.run(_config(operation, parameters))
    assert result.exit_code == 0 and seen["checked"] == 3

    for f in seen["corpus"]:
        assert not any(_slots(node) for node in _tree(f, seen["shared"]))
    # the weight-side terms every bump shares are still there, on the grid
    weight = seen["W"].psi if operation == "hardy" else seen["W"]
    ref, terms = vars(weight)["_weight_memo"]
    assert ref() is seen["grid"].points and terms
