"""Truncated lattices with singularity excision and measure-weighted quadrature.

Nodes sit at cell midpoints of a tensor lattice over a box; the quadrature
weight of a node is prod(h) times the reversible-measure density there, so
``integrate`` is the measure-weighted midpoint rule (O(h^2) on smooth
integrands supported away from excisions).  The lattice index maps retained
here also drive the finite-difference stencils of the semigroup module.

A grid keeps only what is grid-sized in its answer: the retained points,
their weights and the index map (and each node's lattice coordinates once
``neighbor_rows`` is asked for them).  The box's coordinates are filled in place
and dropped once the kept rows are gathered, and the domain mask and the
excisions are called on row blocks of the box (``fields.blockwise``), so
each excision must decide every node from that node alone, and no field
keeps a memo entry on the whole box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Weight
from .errors import DegenerateInputError, NumericError, PreconditionError
from .fields import ScalarField, blockwise, memo, support

DEFAULT_EXCISION_FACTOR = 3.0


@dataclass
class Grid:
    """Retained nodes of a truncated lattice plus quadrature data.

    ``index_map`` sends a flat full-lattice index to the retained-node row
    or -1.
    """

    bounds: tuple
    spacing: np.ndarray
    shape: tuple
    points: np.ndarray
    weights: np.ndarray
    index_map: np.ndarray
    geometry: object = None
    excisions: tuple = ()

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    def flat_index(self, lattice_idx):
        return np.ravel_multi_index(tuple(lattice_idx.T), self.shape)

    def neighbor_rows(self, axis: int, step: int):
        """Retained row index of each node's lattice neighbor (-1 if absent).
        Each node's per-axis integer coordinates come from ``index_map`` and
        are memoized on the grid."""
        lattice = memo(self, "lattice", self.points, lambda _: np.stack(
            np.unravel_index(np.flatnonzero(self.index_map >= 0), self.shape), axis=1))
        nb = lattice.copy()
        nb[:, axis] += step
        valid = (nb[:, axis] >= 0) & (nb[:, axis] < self.shape[axis])
        rows = np.full(self.n_nodes, -1, dtype=np.int64)
        rows[valid] = self.index_map[self.flat_index(nb[valid])]
        return rows

    def interior_depth(self, max_layers: int = 3):
        """Per-node count of intact axis-neighbor layers (capped).  Worked
        out on the whole lattice with shifted slices of the retained mask,
        padded with absent nodes, then read at the retained nodes."""
        pad = max_layers
        retained = self.index_map >= 0
        present = np.pad(retained.reshape(self.shape), pad)
        depth = np.full(self.shape, max_layers, dtype=np.int64)
        for layer in range(1, max_layers + 1):
            missing = np.zeros(self.shape, dtype=bool)
            for ax in range(self.dim):
                for s in (-layer, layer):
                    window = [slice(pad, pad + k) for k in self.shape]
                    window[ax] = slice(pad + s, pad + s + self.shape[ax])
                    missing |= ~present[tuple(window)]
            depth[missing & (depth > layer - 1)] = layer - 1
        return depth.ravel()[retained]

    def fringe_mask(self):
        """Nodes within 2 layers of a missing lattice neighbor (cached)."""
        return memo(self, "fringe", self.points, lambda p: self.interior_depth(2) < 2)

    def supports(self, f: ScalarField) -> bool:
        """True when |f| is at most 1e-12 max |f| on every node within 2
        layers of a missing neighbor (i.e. its support stays clear of the
        boundary/excisions).  Only f's support rows are read
        (``fields.support``); the zeros off them pass unless the bound is
        NaN or negative.  The verdict is memoized on f for this grid's
        points, so a corpus bump checked when it is drawn, or a trial
        function checked before its Rayleigh quotient, is not checked again
        by its report."""

        def check(pts):
            on = support(f, pts)
            vals = np.abs(on.tree.value_at(on.sub))
            scale = float(np.max(vals)) if len(vals) else 0.0
            if scale == 0.0:
                return True
            bound = 1e-12 * scale
            fringe = self.fringe_mask()
            if not 0.0 <= bound:  # no node passes
                return not np.any(fringe)
            return bool(np.all(vals[on.take(fringe)] <= bound))

        return memo(f, "supports", self.points, check)

    def box_rows(self, box):
        """Ascending rows of the retained nodes within one cell of ``box``
        ((lo, hi) per axis), read off ``index_map`` without visiting the
        others: a superset of the nodes strictly inside the box."""
        axes = []
        for (lo, _), (a, b), h, k in zip(self.bounds, box, self.spacing, self.shape):
            # node i sits at lo + (i + 1/2) h; the extra cell absorbs rounding
            first = max(int(np.floor((a - lo) / h - 0.5)) - 1, 0)
            last = min(int(np.ceil((b - lo) / h - 0.5)) + 1, k - 1)
            if first > last:
                return np.empty(0, dtype=np.int64)
            axes.append(np.arange(first, last + 1))
        rows = self.index_map[np.ravel_multi_index(np.ix_(*axes), self.shape).ravel()]
        return rows[rows >= 0]

    def refined(self, factor: int = 2) -> "Grid":
        """Same box and excisions with the spacing divided by ``factor``."""
        n = tuple(s * factor for s in self.shape)
        return make_grid(self.geometry, self.bounds, n=n, excisions=self.excisions)


def make_grid(geo, bounds, n=64, excisions=()) -> Grid:
    """Build the retained midpoint lattice of a box.

    ``n`` is the node count per axis (int or per-axis sequence); ``excisions``
    is a sequence of callables mapping (k, m) points to a boolean "drop"
    mask.  Nodes outside the geometry's domain or where the measure density
    is not finite and positive are dropped as well.  The domain mask and the
    excisions are called on row blocks of the box (``fields.blockwise``), so
    each must decide every node from that node alone.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    m = len(bounds)
    if m != geo.dim:
        raise PreconditionError(f"bounds have dimension {m}, geometry has {geo.dim}")
    if np.isscalar(n):
        n = (int(n),) * m
    else:
        n = tuple(int(k) for k in n)
    if len(n) != m:
        raise PreconditionError(f"n gives {len(n)} node counts, geometry has dimension {m}")
    spacing = np.array([(hi - lo) / k for (lo, hi), k in zip(bounds, n)])
    size = int(np.prod(n))
    box = np.empty((size, m))
    cells = box.reshape(n + (m,))
    for i, ((lo, _), k, h) in enumerate(zip(bounds, n, spacing)):
        cells[..., i] = (lo + (np.arange(k) + 0.5) * h).reshape((-1,) + (1,) * (m - 1 - i))

    def kept(pts):
        keep = geo.mask(pts)
        for exc in excisions:
            keep &= ~np.asarray(exc(pts), dtype=bool)
        return keep

    rows = np.flatnonzero(blockwise(kept, box))
    if len(rows) == 0:
        raise DegenerateInputError("no grid nodes retained")
    points = np.take(box, rows, axis=0)
    del box, cells  # before the index map, so the two never coexist
    index_map = np.full(size, -1, dtype=np.int64)
    index_map[rows] = np.arange(len(rows))

    density = geo.measure_density._value(points)
    if not np.all(np.isfinite(density)) or np.any(density <= 0):
        raise NumericError("measure density must be finite and positive on the grid")
    weights = float(np.prod(spacing)) * density

    return Grid(bounds=bounds, spacing=spacing, shape=n, points=points,
                weights=weights, index_map=index_map,
                geometry=geo, excisions=tuple(excisions))


def weight_excision(weight: Weight, radius: float):
    """Drop nodes within ``radius`` of the weight's singular set (measured by
    the weight's own value) plus its branch/extra exclusions."""

    def exc(pts):
        return weight.excised(pts, radius)

    return exc


def level_tube_excision(field: ScalarField, level: float, halfwidth: float):
    """Drop nodes with |field - level| < halfwidth (the {psi = 1} tube)."""

    def exc(pts):
        return np.abs(field.value_at(pts) - level) < halfwidth

    return exc


def ball_excision(center, radius: float):
    c = np.asarray(center, dtype=float)

    def exc(pts):
        return np.sum((pts - c) ** 2, axis=1) < radius ** 2

    return exc


def default_grid(geo, weight: Weight | None = None, bounds=None, n=64,
                 excision_radius=None) -> Grid:
    """Grid with the standard excisions for a (geometry, weight) pair.

    The weight's own excision (a radius around its singular set, and for log
    weights the off-branch side of {psi = 1}) is applied, together with the
    singular sets of any base weights it was derived from.
    """
    if bounds is None:
        bounds = ((-2.0, 2.0),) * geo.dim
    if np.isscalar(n):
        nseq = (int(n),) * geo.dim
    else:
        nseq = tuple(int(k) for k in n)
    h = max((hi - lo) / k for (lo, hi), k in zip(bounds, nseq))
    excs = []
    w = weight
    while w is not None:
        r = DEFAULT_EXCISION_FACTOR * h if excision_radius is None else float(excision_radius)
        excs.append(weight_excision(w, r))
        w = w.base_weight
    return make_grid(geo, bounds, n=nseq, excisions=excs)


def integrate(grid: Grid, field) -> float:
    """Measure-weighted midpoint sum over retained nodes (deterministic
    fixed-order summation)."""
    if isinstance(field, ScalarField):
        vals = field.value_at(grid.points)
    else:
        vals = np.asarray(field, dtype=float)
        if vals.shape != (grid.n_nodes,):
            raise PreconditionError("value array does not match the grid")
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite integrand value at a grid node")
    return float(np.sum(vals * grid.weights))
