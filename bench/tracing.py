"""Spans and counters recorded around hardylab's public entry points.

The benchmark wraps functions where their callers look them up (a module
attribute or a class method), so hardylab itself runs unchanged.  A wrapped
call records a span (name, start, end, parent) only when no call with the
same nesting key is already open: composite fields call ``value_at`` on
their children, and only the outermost call is work the caller asked for.
A span's layer is the first dotted part of its name.  The clock stops while
the tracer computes a metric of its own (``paused``), so that work lands in
no span.

A wrap point that a refactor removes, or whose result hook fails, is listed
in ``Tracer.absent``; every metric it fed is then left out of the result
rather than reported as zero.

This module imports nothing from hardylab at import time, so the stdlib-only
harness can use ``layer_metrics`` on the raw sums the traced child writes.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager


class Tracer:
    """In-memory spans and counters for one in-process run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.absent = []
        self.originals = {}
        self._stack = []  # indices of the open spans
        self._open_keys = set()
        self._paused_total = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused_total

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - t0

    def add(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, key: str, fn, args, kwargs, on_result=None):
        if key in self._open_keys:
            return fn(*args, **kwargs)
        self._open_keys.add(key)
        span = [name, self.now(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.now()
            self._stack.pop()
            self._open_keys.discard(key)
            self.add(name + ".calls")
        if on_result is not None:
            with self.paused():
                try:
                    on_result(self, args, kwargs, result)
                except Exception:  # a hook must not break the run it measures
                    if name not in self.absent:
                        self.absent.append(name)
        return result

    def wrap(self, owner, attr: str, name: str, key: str | None = None,
             on_result=None) -> bool:
        """Replace ``owner.attr`` by a traced version; False when it is gone."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return False
        key = key or name.split(".")[0]
        self.originals[name] = fn
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, key, fn, args, kwargs, on_result)

        setattr(owner, attr, traced)
        return True

    def wrap_path(self, path: str, name: str, key: str | None = None,
                  on_result=None) -> bool:
        """Wrap ``path``, written 'module:attr' or 'module:Owner.attr'."""
        mod_name, _, dotted = path.partition(":")
        *parents, attr = dotted.split(".")
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            owner = None
        for p in parents:
            owner = getattr(owner, p, None)
        if owner is None:
            self.absent.append(name)
            return False
        return self.wrap(owner, attr, name, key, on_result)

    def span_times(self):
        """(name, duration, self time) per span; self time is the duration
        minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(s[0], s[2] - s[1], s[2] - s[1] - covered[i])
                for i, s in enumerate(self.spans)]

    def raw(self) -> dict:
        """Counts plus per-name sums of span time ('<name>.s') and self time
        ('<name>.self_s'): the additive quantities the metrics derive from."""
        out = dict(self.counts)
        for name, dur, self_dur in self.span_times():
            out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_dur
        return out


# ---------------------------------------------------------------------------
# Wrap points
# ---------------------------------------------------------------------------

def _on_grid(tr, args, kwargs, grid):
    tr.add("grid.nodes", grid.n_nodes)
    tr.add("grid.lattice_nodes", math.prod(grid.shape))


def _on_corpus(tr, args, kwargs, corpus):
    """Corpus size, and the share of grid nodes each bump is nonzero on.  The
    corpus builder has just evaluated every bump on ``grid.points``, so the
    field memo answers these calls without recomputing."""
    grid = kwargs.get("grid") or next(a for a in args if hasattr(a, "n_nodes"))
    value_at = tr.originals["fields.value_at"]
    tr.add("testfunctions.corpus_size", len(corpus))
    for f in corpus:
        nonzero = int((value_at(f, grid.points) != 0.0).sum())
        tr.add("testfunctions.bumps")
        tr.add("testfunctions.support_sum", nonzero / grid.n_nodes)


def _on_points(tr, args, kwargs, result):
    tr.add("fields.nodes_evaluated", len(args[1]))


def _on_assemble(tr, args, kwargs, result):
    tr.add("semigroup.A_nnz", int(result[1].nnz))


def _on_splu(tr, args, kwargs, lu):
    tr.add("semigroup.lu_nnz", int(lu.L.nnz + lu.U.nnz))


# (path, span name, nesting key, result hook); the key defaults to the layer.
WRAPS = (
    ("hardylab.cli:run", "cli.run", "cli.run", None),
    ("hardylab.cli:_dispatch", "cli.dispatch", "cli.dispatch", None),
    ("hardylab.cli:write_rows", "cli.write_rows", "cli.write_rows", None),
    ("hardylab.cli:make_geometry", "catalog.make_geometry", None, None),
    ("hardylab.cli:make_weight", "catalog.make_weight", None, None),
    ("hardylab.cli:default_grid", "grid.default_grid", None, _on_grid),
    ("hardylab.grid:Grid.supports", "grid.supports", "grid.supports", None),
    ("hardylab.cli:bump_corpus", "testfunctions.bump_corpus", None, _on_corpus),
    ("hardylab.cli:polynomial_bump_corpus", "testfunctions.polynomial_bump_corpus",
     None, _on_corpus),
    # one random sub-box is drawn per corpus candidate
    ("hardylab.testfunctions:_interior_box", "testfunctions.attempt",
     "testfunctions.attempt", None),
    ("hardylab.fields:ScalarField.value_at", "fields.value_at", None, _on_points),
    ("hardylab.fields:ScalarField.grad_at", "fields.grad_at", None, _on_points),
    ("hardylab.fields:ScalarField.hess_at", "fields.hess_at", None, _on_points),
    ("hardylab.cli:qcond_report", "conditions.qcond_report", None, None),
    ("hardylab.cli:check_curvature", "conditions.check_curvature", None, None),
    ("hardylab.inequalities:rayleigh_ratio", "inequalities.rayleigh_ratio",
     "inequalities.rayleigh", None),
    ("hardylab.inequalities:estimate_best_constant", "inequalities.best_constant",
     "inequalities.best_constant", None),
    ("hardylab.semigroup:assemble_generator", "semigroup.assemble", None, _on_assemble),
    ("hardylab.semigroup:spla.splu", "semigroup.splu", "semigroup.splu", _on_splu),
    ("hardylab.semigroup:spla.cg", "semigroup.cg", "semigroup.cg", None),
    ("hardylab.semigroup:_Stepper.step", "semigroup.step", "semigroup.step", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in WRAPS plus the generator methods and the
    inequality reports, which are found by name."""
    _count_cg_iterations(tracer)
    for path, name, key, hook in WRAPS:
        tracer.wrap_path(path, name, key, hook)

    calc = importlib.import_module("hardylab.calculus")
    importlib.import_module("hardylab.operators")
    base = getattr(calc, "Diffusion", None)
    classes, todo = [], [base] if base is not None else []
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for attr in ("gamma", "apply_L"):
        name = "calculus." + attr
        owners = [c for c in classes if attr in c.__dict__]
        if not owners:
            tracer.absent.append(name)
        for cls in owners:
            tracer.wrap(cls, attr, name)

    ineq = importlib.import_module("hardylab.inequalities")
    if not callable(getattr(ineq, "hardy_report", None)):
        tracer.absent.append("inequalities.report")
    for attr, fn in sorted(vars(ineq).items()):
        if attr.endswith("_report") and callable(fn) and fn.__module__ == ineq.__name__:
            tracer.wrap(ineq, attr, "inequalities.report", "inequalities.report")


def _count_cg_iterations(tracer: Tracer) -> None:
    """Count CG iterations through the solver's own per-iteration callback."""
    spla = getattr(importlib.import_module("hardylab.semigroup"), "spla", None)
    cg = getattr(spla, "cg", None)
    if cg is None:
        return

    @functools.wraps(cg)
    def counted(*args, callback=None, **kwargs):
        def on_iteration(xk):
            tracer.add("semigroup.cg_iters")
            if callback is not None:
                callback(xk)
        return cg(*args, callback=on_iteration, **kwargs)

    spla.cg = counted


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den, scale=1.0):
    """num/den, or 0.0 when nothing was counted (e.g. no step on sweep)."""
    return scale * num / den if den else 0.0


def _g(raw, *keys):
    return sum(raw.get(k, 0) for k in keys)


_FIELDS = ("fields.value_at", "fields.grad_at", "fields.hess_at")
_CORPUS = ("testfunctions.bump_corpus", "testfunctions.polynomial_bump_corpus")

# metric -> (unit, better, wrap points it needs, value from the raw sums)
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", ("cli.run", "cli.dispatch"),
                   lambda r: _g(r, *(k for k in r if k.startswith("cli.")
                                     and k.endswith(".self_s")))),
    "cli.rechecks": ("count", "lower", ("cli.run", "cli.dispatch"),
                     lambda r: _g(r, "cli.dispatch.calls") - _g(r, "cli.run.calls")),
    "cli.write_s": ("s", "lower", ("cli.write_rows",),
                    lambda r: _g(r, "cli.write_rows.s")),
    "cli.byte_drift_runs": ("count", "lower", (), lambda r: _g(r, "cli.byte_drift_runs")),
    "catalog.build_s": ("s", "lower", ("catalog.make_geometry", "catalog.make_weight"),
                        lambda r: _g(r, "catalog.make_geometry.s", "catalog.make_weight.s")),
    "setup.import_s": ("s", "lower", (), lambda r: _g(r, "setup.import_s")),
    "grid.build_s": ("s", "lower", ("grid.default_grid",),
                     lambda r: _g(r, "grid.default_grid.s")),
    "grid.nodes": ("count", "lower", ("grid.default_grid",),
                   lambda r: _g(r, "grid.nodes")),
    "grid.retained_share": ("share", "higher", ("grid.default_grid",),
                            lambda r: _ratio(_g(r, "grid.nodes"), _g(r, "grid.lattice_nodes"))),
    "grid.supports_calls": ("count", "lower", ("grid.supports",),
                            lambda r: _g(r, "grid.supports.calls")),
    "grid.supports_s": ("s", "lower", ("grid.supports",),
                        lambda r: _g(r, "grid.supports.s")),
    "testfunctions.corpus_s": ("s", "lower", _CORPUS,
                               lambda r: _g(r, *(k + ".s" for k in _CORPUS))),
    "testfunctions.corpus_attempts": ("count", "lower", ("testfunctions.attempt",),
                                      lambda r: _g(r, "testfunctions.attempt.calls")),
    "testfunctions.accept_ratio": ("share", "higher", _CORPUS + ("testfunctions.attempt",),
                                   lambda r: _ratio(_g(r, "testfunctions.corpus_size"),
                                                    _g(r, "testfunctions.attempt.calls"))),
    "testfunctions.support_share": ("share", "lower", _CORPUS + ("fields.value_at",),
                                    lambda r: _ratio(_g(r, "testfunctions.support_sum"),
                                                     _g(r, "testfunctions.bumps"))),
    "fields.calls": ("count", "lower", _FIELDS,
                     lambda r: _g(r, *(k + ".calls" for k in _FIELDS))),
    "fields.nodes_evaluated": ("count", "lower", _FIELDS,
                               lambda r: _g(r, "fields.nodes_evaluated")),
    "fields.value_s": ("s", "lower", ("fields.value_at",),
                       lambda r: _g(r, "fields.value_at.s")),
    "fields.grad_s": ("s", "lower", ("fields.grad_at",),
                      lambda r: _g(r, "fields.grad_at.s")),
    "fields.hess_s": ("s", "lower", ("fields.hess_at",),
                      lambda r: _g(r, "fields.hess_at.s")),
    "calculus.gamma_calls": ("count", "lower", ("calculus.gamma",),
                             lambda r: _g(r, "calculus.gamma.calls")),
    "calculus.gamma_s": ("s", "lower", ("calculus.gamma",),
                         lambda r: _g(r, "calculus.gamma.s")),
    "calculus.apply_L_calls": ("count", "lower", ("calculus.apply_L",),
                               lambda r: _g(r, "calculus.apply_L.calls")),
    "calculus.apply_L_s": ("s", "lower", ("calculus.apply_L",),
                           lambda r: _g(r, "calculus.apply_L.s")),
    "conditions.qcond_s": ("s", "lower", ("conditions.qcond_report",),
                           lambda r: _g(r, "conditions.qcond_report.s")),
    "conditions.curvature_s": ("s", "lower", ("conditions.check_curvature",),
                               lambda r: _g(r, "conditions.check_curvature.s")),
    "conditions.curvature_calls": ("count", "lower", ("conditions.check_curvature",),
                                   lambda r: _g(r, "conditions.check_curvature.calls")),
    "inequalities.reports": ("count", "lower", ("inequalities.report",),
                             lambda r: _g(r, "inequalities.report.calls")),
    "inequalities.report_s": ("s", "lower", ("inequalities.report",),
                              lambda r: _g(r, "inequalities.report.s")),
    "inequalities.report_self_s": ("s", "lower", ("inequalities.report",),
                                   lambda r: _g(r, "inequalities.report.self_s")),
    "inequalities.ms_per_report": ("ms", "lower", ("inequalities.report",),
                                   lambda r: _ratio(_g(r, "inequalities.report.s"),
                                                    _g(r, "inequalities.report.calls"), 1e3)),
    "inequalities.rayleigh_calls": ("count", "lower", ("inequalities.rayleigh_ratio",),
                                    lambda r: _g(r, "inequalities.rayleigh_ratio.calls")),
    "inequalities.best_constant_s": ("s", "lower", ("inequalities.best_constant",),
                                     lambda r: _g(r, "inequalities.best_constant.s")),
    "semigroup.assemble_s": ("s", "lower", ("semigroup.assemble",),
                             lambda r: _g(r, "semigroup.assemble.s")),
    "semigroup.A_nnz": ("count", "lower", ("semigroup.assemble",),
                        lambda r: _g(r, "semigroup.A_nnz")),
    "semigroup.factor_s": ("s", "lower", ("semigroup.splu",),
                           lambda r: _g(r, "semigroup.splu.s")),
    "semigroup.lu_nnz": ("count", "lower", ("semigroup.splu",),
                         lambda r: _g(r, "semigroup.lu_nnz")),
    "semigroup.solves": ("count", "lower", ("semigroup.step",),
                         lambda r: _g(r, "semigroup.step.calls")),
    "semigroup.ms_per_step": ("ms", "lower", ("semigroup.step",),
                              lambda r: _ratio(_g(r, "semigroup.step.s"),
                                               _g(r, "semigroup.step.calls"), 1e3)),
    "semigroup.cg_iters": ("count", "lower", ("semigroup.cg",),
                           lambda r: _g(r, "semigroup.cg_iters")),
    "semigroup.direct_steps": ("count", "lower", ("semigroup.step", "semigroup.cg"),
                               lambda r: _g(r, "semigroup.step.calls") - _g(r, "semigroup.cg.calls")),
    "semigroup.iterative_steps": ("count", "lower", ("semigroup.step", "semigroup.cg"),
                                  lambda r: _g(r, "semigroup.cg.calls")),
    "trace.overhead_s": ("s", "lower", (), lambda r: _g(r, "trace.overhead_s")),
}


def layer_metrics(raw: dict, absent=()) -> dict:
    """Per-layer metric values from summed raw counts, leaving out every
    metric that needs a wrap point in ``absent``."""
    gone = set(absent)
    return {name: value(raw) for name, (_, _, needs, value) in LAYER_METRICS.items()
            if not gone.intersection(needs)}
