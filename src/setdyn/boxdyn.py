"""Box coverings of rectangular domains and epsilon-transition graphs.

A covering at depth d splits the domain into 2^d dyadic cells per axis.  A
``BoxSet`` is a sorted collection of such cells (stored as packed integer
codes), and a ``TransitionGraph`` is the directed relation

    b -> b'   iff   the closed ball of radius (epsilon + pad) around some
                    sampled image point of b meets b'

in the max metric, which over-approximates the true transition relation of
the map and hence the epsilon-orbit (pseudo-orbit) relation.  All graph
construction is deterministic: fixed sample grids, integer arithmetic for
cell ranges, and sorted CSR output.

Edges are enumerated per box, not per sample.  The ball around one sample
image meets a rectangle of cells, one integer range per axis.  A range is
clipped to the grid on a non-periodic axis; on a periodic axis it is moved
by whole periods next to the range of the box's first sample and capped at
one period.  The box's destination cells are the union of its rectangles,
taken with a difference array over the box's own window, so each
(box, cell) pair comes out once.  Boxes are mapped in chunks of consecutive
boxes, and each chunk's edges are sorted, so the chunks concatenate into the
CSR without a global dedupe.
"""

from __future__ import annotations

import contextlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, NumericsError

BOX_BUDGET = 2**26
EDGE_BUDGET = 2**30

# an edge key packs (source index, destination index) as src << _KEY_BITS | dst,
# so no graph may hold more than _MAX_BOXES boxes
_KEY_BITS = 27
_MAX_BOXES = 1 << _KEY_BITS

_CHUNK_BOXES = 1024


@dataclass(frozen=True)
class Domain:
    """An axis-aligned rectangle, optionally periodic per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.periodic)):
            raise ConfigError("lower/upper/periodic must have equal lengths")
        if len(self.lower) == 0:
            raise ConfigError("domain must have at least one axis")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ConfigError(f"invalid axis bounds [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float) - np.asarray(self.lower, dtype=float)

    def box_width(self, depth: int) -> np.ndarray:
        """Per-axis cell width at the given depth."""
        return self.widths / (1 << depth)

    def max_box_width(self, depth: int) -> float:
        """Largest cell width at the given depth: one box diameter in the max metric."""
        return float(np.max(self.box_width(depth)))

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        """Wrap periodic axes into [lower, upper); other axes pass through."""
        pts = np.array(pts, dtype=float, copy=True)
        lo = np.asarray(self.lower)
        w = self.widths
        for ax, per in enumerate(self.periodic):
            if per:
                pts[..., ax] = lo[ax] + np.mod(pts[..., ax] - lo[ax], w[ax])
        return pts

    def contains(self, pts: np.ndarray, atol: float = 0.0):
        """Boolean mask of points inside the closed rectangle, grown by
        ``atol`` on non-periodic axes.  A periodic axis wraps, so there any
        finite coordinate is inside; a non-finite one is outside on every axis."""
        pts = np.asarray(pts, dtype=float)
        inside = np.isfinite(pts)
        for ax, per in enumerate(self.periodic):
            if not per:
                x = pts[..., ax]
                inside[..., ax] = (x >= self.lower[ax] - atol) & (x <= self.upper[ax] + atol)
        return np.all(inside, axis=-1)

    def signed_diff(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a - b per axis, taken the short way round on periodic axes."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        w = self.widths
        for ax, per in enumerate(self.periodic):
            if per:
                d[..., ax] = (d[..., ax] + w[ax] / 2.0) % w[ax] - w[ax] / 2.0
        return d

    def distance(self, a: np.ndarray, b: np.ndarray):
        """Max-metric distance, shortest way around on periodic axes."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = np.abs(a - b)
        w = self.widths
        for ax, per in enumerate(self.periodic):
            if per:
                d[..., ax] = np.minimum(d[..., ax], w[ax] - d[..., ax])
        return np.max(d, axis=-1)

    def to_dict(self) -> dict:
        return {
            "lower": list(self.lower),
            "upper": list(self.upper),
            "periodic": list(self.periodic),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Domain":
        return cls(
            lower=tuple(float(x) for x in d["lower"]),
            upper=tuple(float(x) for x in d["upper"]),
            periodic=tuple(bool(x) for x in d["periodic"]),
        )


def _check_depth(domain: Domain, depth: int) -> None:
    if depth < 0 or int(depth) != depth:
        raise ConfigError(f"depth must be a non-negative integer, got {depth!r}")
    if depth * domain.dim > 60:
        raise ConfigError(f"depth {depth} too large to encode for dim {domain.dim}")


class BoxSet:
    """A sorted set of depth-d cells of a domain.

    Cells are stored as packed integer codes (row-major over axes, ``depth``
    bits per axis) in a sorted, duplicate-free int64 array, so set algebra
    reduces to sorted-array operations.
    """

    def __init__(self, domain: Domain, depth: int, codes: np.ndarray):
        _check_depth(domain, depth)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ConfigError("codes must be one-dimensional")
        self.domain = domain
        self.depth = int(depth)
        self.codes = np.unique(codes)

    # -- construction -------------------------------------------------------

    @classmethod
    def full_cover(cls, domain: Domain, depth: int) -> "BoxSet":
        _check_depth(domain, depth)
        n = 1 << (depth * domain.dim)
        return cls(domain, depth, np.arange(n, dtype=np.int64))

    @classmethod
    def from_coords(cls, domain: Domain, depth: int, coords: np.ndarray) -> "BoxSet":
        return cls(domain, depth, pack_coords(coords, depth, domain.dim))

    # -- geometry -----------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.codes)

    def coords(self) -> np.ndarray:
        return unpack_codes(self.codes, self.depth, self.domain.dim)

    def centers(self) -> np.ndarray:
        h = self.domain.box_width(self.depth)
        return np.asarray(self.domain.lower) + (self.coords() + 0.5) * h

    def lower_corners(self) -> np.ndarray:
        h = self.domain.box_width(self.depth)
        return np.asarray(self.domain.lower) + self.coords() * h

    def volume_fraction(self) -> float:
        return self.count / float(1 << (self.depth * self.domain.dim))

    # -- set algebra --------------------------------------------------------

    def contains_codes(self, codes: np.ndarray):
        return np.isin(codes, self.codes, assume_unique=False)

    def indices_of(self, codes: np.ndarray) -> np.ndarray:
        """Positions of the given codes inside this set (-1 when absent)."""
        codes = np.asarray(codes, dtype=np.int64)
        if len(self.codes) == 0:
            return np.full(codes.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.codes, codes)
        pos = np.clip(pos, 0, len(self.codes) - 1)
        return np.where(self.codes[pos] == codes, pos, -1)

    def union(self, other: "BoxSet") -> "BoxSet":
        self._check_compatible(other)
        return BoxSet(self.domain, self.depth, np.union1d(self.codes, other.codes))

    def intersection(self, other: "BoxSet") -> "BoxSet":
        self._check_compatible(other)
        return BoxSet(
            self.domain, self.depth, np.intersect1d(self.codes, other.codes, assume_unique=True)
        )

    def difference(self, other: "BoxSet") -> "BoxSet":
        self._check_compatible(other)
        return BoxSet(
            self.domain, self.depth, np.setdiff1d(self.codes, other.codes, assume_unique=True)
        )

    def issubset(self, other: "BoxSet") -> bool:
        self._check_compatible(other)
        return bool(np.all(np.isin(self.codes, other.codes, assume_unique=True)))

    def _check_compatible(self, other: "BoxSet") -> None:
        if self.depth != other.depth or self.domain != other.domain:
            raise ConfigError("box sets live on different grids")

    # -- refinement ---------------------------------------------------------

    def subdivide(self, budget: int = BOX_BUDGET) -> "BoxSet":
        """All children of all members, one level deeper."""
        dim = self.domain.dim
        _check_box_count(self.count << dim, budget)
        coords = self.coords()
        offs = _unit_offsets(dim)
        child = (coords[:, None, :] * 2 + offs[None, :, :]).reshape(-1, dim)
        return BoxSet.from_coords(self.domain, self.depth + 1, child)

    def refine_to(self, depth: int, budget: int = BOX_BUDGET) -> "BoxSet":
        if depth < self.depth:
            raise ConfigError("refine_to cannot coarsen a box set")
        out = self
        while out.depth < depth:
            out = out.subdivide(budget=budget)
        return out

    def dilate(self, rings: int = 1) -> "BoxSet":
        """Grow by the given number of box rings (periodic-aware)."""
        dim = self.domain.dim
        n = 1 << self.depth
        offs = np.stack(
            np.meshgrid(*([np.arange(-rings, rings + 1)] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        coords = self.coords()[:, None, :] + offs[None, :, :]
        coords = coords.reshape(-1, dim)
        keep = np.ones(len(coords), dtype=bool)
        for ax, per in enumerate(self.domain.periodic):
            if per:
                coords[:, ax] %= n
            else:
                keep &= (coords[:, ax] >= 0) & (coords[:, ax] < n)
        return BoxSet.from_coords(self.domain, self.depth, coords[keep])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoxSet)
            and self.domain == other.domain
            and self.depth == other.depth
            and len(self.codes) == len(other.codes)
            and bool(np.all(self.codes == other.codes))
        )

    def __repr__(self) -> str:
        return f"BoxSet(depth={self.depth}, count={self.count})"


def _unit_offsets(dim: int) -> np.ndarray:
    return np.stack(
        np.meshgrid(*([np.arange(2)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)


def pack_coords(coords: np.ndarray, depth: int, dim: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, dim)
    if np.any(coords < 0) or np.any(coords >= (1 << depth)):
        raise ConfigError("box coordinates out of range for depth")
    code = np.zeros(len(coords), dtype=np.int64)
    for ax in range(dim):
        code = (code << depth) | coords[:, ax]
    return code

def unpack_codes(codes: np.ndarray, depth: int, dim: int) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty((len(codes), dim), dtype=np.int64)
    mask = (1 << depth) - 1
    for ax in range(dim - 1, -1, -1):
        out[:, ax] = codes & mask
        codes = codes >> depth
    return out


def point_codes(domain: Domain, depth: int, pts: np.ndarray) -> np.ndarray:
    """Code of the half-open cell containing each point (boundary clamped)."""
    pts = domain.wrap(np.asarray(pts, dtype=float).reshape(-1, domain.dim))
    h = domain.box_width(depth)
    n = 1 << depth
    idx = np.floor((pts - np.asarray(domain.lower)) / h).astype(np.int64)
    idx = np.clip(idx, 0, n - 1)
    return pack_coords(idx, depth, domain.dim)


def _check_box_count(n: int, budget: int = _MAX_BOXES) -> None:
    if n > budget:
        raise BudgetError(f"{n} boxes exceed budget {budget}")
    if n > _MAX_BOXES:
        raise BudgetError(f"{n} boxes exceed the {_MAX_BOXES} that edge keys can index")


def initial_cover(domain: Domain, depth: int, budget: int = BOX_BUDGET) -> BoxSet:
    """Full covering of the domain at the given depth, guarded by a budget."""
    _check_depth(domain, depth)
    _check_box_count(1 << (depth * domain.dim), budget)
    return BoxSet.full_cover(domain, depth)


# ---------------------------------------------------------------------------
# Transition graphs
# ---------------------------------------------------------------------------


class TransitionGraph:
    """Sorted-CSR over-approximation of the map on a box set."""

    def __init__(
        self,
        boxset: BoxSet,
        epsilon: float,
        indptr: np.ndarray,
        indices: np.ndarray,
        pad: float,
    ):
        self.boxset = boxset
        self.epsilon = float(epsilon)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.pad = float(pad)

    @property
    def n_boxes(self) -> int:
        return self.boxset.count

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def successors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def _transpose_csr(indptr: np.ndarray, indices: np.ndarray):
    """(indptr, indices) of the transposed square CSR pattern, rows sorted."""
    n = len(indptr) - 1
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=out_ptr[1:])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # stable sort on destination keeps sources ascending within each row
    return out_ptr, src[np.argsort(indices, kind="stable")]


def _sample_offsets(dim: int, samples_per_axis: int) -> np.ndarray:
    """Fractional sample positions inside a box: uniform grid with corners,
    plus the center when the grid has no middle point."""
    if samples_per_axis < 2:
        raise ConfigError("samples_per_axis must be at least 2")
    axis = np.linspace(0.0, 1.0, samples_per_axis)
    grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    if samples_per_axis % 2 == 0:
        grid = np.concatenate([grid, np.full((1, dim), 0.5)], axis=0)
    return grid


def _chunk_edges(
    system,
    depth: int,
    codes: np.ndarray,
    epsilon: float,
    offsets: np.ndarray,
    samples_per_axis: int,
):
    """Edges out of one chunk of boxes, given by their codes.

    Returns (src, dst, spread): the position of each edge's source box
    inside the chunk, the code of its destination cell, and each box's
    image spread (None under a Lipschitz pad).  Every pair occurs once.
    """
    domain = system.domain
    dim = domain.dim
    n_axis = 1 << depth
    h = domain.box_width(depth)
    lo = np.asarray(domain.lower)
    corners = lo + unpack_codes(codes, depth, dim) * h
    pts = domain.wrap((corners[:, None, :] + offsets[None, :, :] * h).reshape(-1, dim))
    B, S = len(codes), len(offsets)
    img = np.asarray(system.forward(pts), dtype=float).reshape(B, S, dim)

    bad = ~np.isfinite(img).all(axis=(1, 2))
    if np.any(bad):
        raise NumericsError(f"non-finite map image on boxes with codes {codes[bad][:8].tolist()}")

    if system.lipschitz_hint is not None:
        # the sample grid covers the box with radius h/(2(n-1)) in the max
        # metric, so L times that radius is a sound image pad
        cover_r = domain.max_box_width(depth) / (2.0 * (samples_per_axis - 1))
        spread = None
        pad = np.full(B, system.lipschitz_hint * cover_r)
    else:
        # covering radius of the image sample grid, estimated per box from the
        # spread of its sampled images
        spread = _image_spread(domain, img)
        pad = spread / (2.0 * (samples_per_axis - 1))

    # closed cells c with lo_i <= c <= hi_i meet the ball around a sample image
    rad = (epsilon + pad)[:, None, None]
    lo_i = np.ceil((img - lo - rad) / h - 1.0).astype(np.int64)  # (B, S, dim)
    hi_i = np.floor((img - lo + rad) / h).astype(np.int64)
    for ax, per in enumerate(domain.periodic):
        first, last = lo_i[..., ax], hi_i[..., ax]
        if per:
            # move each range by whole periods next to the box's first one,
            # whose start is taken into [0, n); one period covers every cell
            ref = first[:, :1] % n_axis
            shift = (first - ref + n_axis // 2) // n_axis * n_axis
            first -= shift
            last -= shift
            np.minimum(last, first + n_axis - 1, out=last)
        else:
            np.maximum(first, 0, out=first)
            np.minimum(last, n_axis - 1, out=last)
    # (B, S, 1): the sample's rectangle meets the grid
    live = np.all(lo_i <= hi_i, axis=-1, keepdims=True)
    boxes = np.flatnonzero(live.any(axis=(1, 2)))
    if len(boxes) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), spread

    # each box's window is the bounding range of its live rectangles; in it
    # a rectangle spans [a, b), and one that misses the grid spans nothing
    unset = 4 * n_axis  # beyond every clipped or moved range
    win_lo = np.where(live, lo_i, unset).min(axis=1)  # (B, dim)
    width = np.where(live, hi_i, -unset).max(axis=1) - win_lo + 1
    a = (lo_i - win_lo[:, None, :]) * live
    b = (hi_i + 1 - win_lo[:, None, :]) * live

    # boxes share a grid with the boxes of the same power-of-two window size
    # per axis, so a few fat-pad boxes do not widen the grid of the others
    size_class = np.ceil(np.log2(width[boxes])).astype(np.int64)
    _, size_class = np.unique(size_class, axis=0, return_inverse=True)
    size_class = size_class.ravel()
    src_parts, dst_parts = [], []
    for cls in range(size_class.max() + 1):
        sel = boxes[size_class == cls]
        hit = _window_union(a[sel], b[sel], width[sel].max(axis=0))
        # codes of the window cells, wrapped on periodic axes
        code = np.zeros((len(sel),) + (1,) * dim, dtype=np.int64)
        for ax, per in enumerate(domain.periodic):
            if per and hit.shape[ax + 1] > n_axis:
                hit = _fold_axis(hit, ax + 1, n_axis)
            along = [1] * (dim + 1)
            along[ax + 1] = -1
            cells = np.arange(hit.shape[ax + 1]).reshape(along)
            c = win_lo[sel, ax].reshape((-1,) + (1,) * dim) + cells
            code = (code << depth) | (c % n_axis if per else c)
        src_parts.append(np.repeat(sel, hit.reshape(len(sel), -1).sum(axis=1)))
        dst_parts.append(code[hit])
    return np.concatenate(src_parts), np.concatenate(dst_parts), spread


def _window_union(a, b, shape):
    """Union of each box's rectangles [a, b) (G, S, dim), as a boolean array
    (G, *shape) over the boxes' windows.

    A difference array gets +1 on each rectangle's corners that take the far
    end on an even number of axes and -1 on the others; its cumulative sums
    along each axis count the rectangles over a cell.
    """
    G, S, dim = a.shape
    grid = tuple(int(s) + 1 for s in shape)
    cells = int(np.prod(grid))
    strides = np.cumprod((1,) + grid[:0:-1])[::-1]
    pos, neg = [np.repeat(np.arange(G, dtype=np.int64) * cells, S)], []
    for ax in range(dim):
        near = a[..., ax].ravel() * strides[ax]
        far = b[..., ax].ravel() * strides[ax]
        pos, neg = ([p + near for p in pos] + [q + far for q in neg],
                    [q + near for q in neg] + [p + far for p in pos])
    count = np.bincount(np.concatenate(pos), minlength=G * cells)
    count -= np.bincount(np.concatenate(neg), minlength=G * cells)
    count = count.reshape((G,) + grid)
    for ax in range(dim):
        np.cumsum(count, axis=ax + 1, out=count)
    return count[(slice(None),) + tuple(slice(0, int(s)) for s in shape)] > 0


def _fold_axis(hit, axis: int, n_axis: int):
    """Merge the cells of a window wider than one period that coincide
    modulo the period along the given axis."""
    k = -(-hit.shape[axis] // n_axis)
    widths = [(0, 0)] * hit.ndim
    widths[axis] = (0, k * n_axis - hit.shape[axis])
    hit = np.pad(hit, widths)
    return hit.reshape(hit.shape[:axis] + (k, n_axis) + hit.shape[axis + 1 :]).any(axis=axis)


def _chunk_edges_by_name(args):
    """Worker entry: rebuild the system from its registry name, then chunk."""
    name, params, *rest = args
    from . import mapzoo

    return _chunk_edges(mapzoo.make_system(name, params), *rest)


def _chunk_parts(system, boxset: BoxSet, chunks, epsilon, offsets, samples_per_axis, workers):
    """(src, dst) of each chunk of boxes, in chunk order, mapped lazily."""
    depth = boxset.depth
    if workers == 1:
        for lo, hi in chunks:
            yield _chunk_edges(
                system, depth, boxset.codes[lo:hi], epsilon, offsets, samples_per_axis
            )
        return
    # each task carries only its own slice of the codes
    args = [
        (system.registry_name, system.params, depth, boxset.codes[lo:hi], epsilon, offsets,
         samples_per_axis)
        for lo, hi in chunks
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_chunk_edges_by_name, args, chunksize=1)


def build_graph(
    system,
    boxset: BoxSet,
    epsilon: float,
    samples_per_axis: int = 4,
    workers: int = 1,
    edge_budget: int = EDGE_BUDGET,
) -> TransitionGraph:
    """Build the epsilon-transition graph of a map over a box set.

    Each box is sampled on a uniform grid (corners and center included); an
    edge b -> b' is added whenever the max-metric ball of radius
    epsilon + pad around a sampled image point meets b'.  pad is
    lipschitz_hint * max_box_width / 2 when the system carries a hint, else
    the empirical covering radius of the image sample grid.

    A box's edges are the union of its samples' cell rectangles, clipped on
    non-periodic axes and wrapped on periodic ones (see the module
    docstring).  Chunks of boxes are disjoint in source box and each one's
    edges come out sorted, so the CSR needs no global dedupe.  The edge
    budget is checked after every chunk, before the next one is mapped.
    Output is independent of ``workers``.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise ConfigError(f"epsilon must be >= 0, got {epsilon!r}")
    if boxset.count == 0:
        raise ConfigError("cannot build a graph over an empty box set")
    if system.dim != boxset.domain.dim:
        raise ConfigError("system and box set dimensions differ")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if workers > 1 and getattr(system, "registry_name", None) is None:
        raise ConfigError("parallel build requires a registry-buildable system")
    _check_box_count(boxset.count)

    dim = boxset.domain.dim
    offsets = _sample_offsets(dim, samples_per_axis)
    n = boxset.count
    # on a full cover a cell's index is its code
    full = n == 1 << (boxset.depth * dim)
    chunks = [(lo, min(lo + _CHUNK_BOXES, n)) for lo in range(0, n, _CHUNK_BOXES)]

    # the empirical pad is reported from the spreads of up to 256 boxes
    # spaced evenly over the set
    probe = np.linspace(0, n - 1, min(n, 256)).astype(np.int64)
    key_parts, spreads = [], []
    total = 0
    parts = _chunk_parts(system, boxset, chunks, epsilon, offsets, samples_per_axis, workers)
    # closing the generator on a budget error cancels the pool's pending tasks
    with contextlib.closing(parts):
        for (lo, hi), (src, dst, spread) in zip(chunks, parts):
            if spread is not None:
                spreads.append(spread[probe[(probe >= lo) & (probe < hi)] - lo])
            if not full:
                dst = boxset.indices_of(dst)
                keep = dst >= 0
                src, dst = src[keep], dst[keep]
            keys = ((src + lo) << _KEY_BITS) | dst
            keys.sort()
            total += len(keys)
            if total > edge_budget:
                raise BudgetError(f"{total} edges exceed budget {edge_budget}")
            key_parts.append(keys)
    keys = np.concatenate(key_parts)

    src = keys >> _KEY_BITS
    dst = keys & (_MAX_BOXES - 1)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    # pad recorded for diagnostics and tolerance scaling.  The Lipschitz
    # value rounds as L*h/k here and as L*(h/k) in _chunk_edges; the two can
    # differ in the last bit, and both are kept as they were.  The empirical
    # pad is the median, not the max: a few boxes on a boundary clamp can
    # have much fatter image spreads, and those get their fat pads in the
    # edges themselves, but they should not inflate resolution-scale
    # tolerances derived from the graph.
    if system.lipschitz_hint is not None:
        hmax = boxset.domain.max_box_width(boxset.depth)
        pad_used = system.lipschitz_hint * hmax / (2.0 * (samples_per_axis - 1))
    else:
        pad_used = float(np.median(np.concatenate(spreads)) / (2.0 * (samples_per_axis - 1)))

    return TransitionGraph(boxset, epsilon, indptr, dst, pad_used)


def _image_spread(domain: Domain, img: np.ndarray) -> np.ndarray:
    """Largest per-axis extent of each box's sampled images (B, S, dim)."""
    rel = domain.signed_diff(img, img[:, :1, :])
    return (rel.max(axis=1) - rel.min(axis=1)).max(axis=-1)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_boxset(path, bs: BoxSet) -> None:
    """Write a box set: a JSON header line, then its codes as little-endian int64."""
    header = {"kind": "boxset", "domain": bs.domain.to_dict(), "depth": bs.depth,
              "count": bs.count, "encoding": "int64-le"}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(bs.codes.astype("<i8").tobytes())


def load_boxset(path) -> BoxSet:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "boxset" or header.get("encoding") != "int64-le":
            raise ConfigError(f"{path} is not a binary boxset file")
        codes = np.frombuffer(fh.read(8 * header["count"]), dtype="<i8").astype(np.int64)
        return BoxSet(Domain.from_dict(header["domain"]), int(header["depth"]), codes)


# ---------------------------------------------------------------------------
# PGM raster output
# ---------------------------------------------------------------------------


def write_pgm(path, domain: Domain, depth: int, layers, background: int = 0) -> None:
    """Binary PGM (P5) raster of box-set membership classes.

    ``layers`` is a list of (BoxSet, shade) painted in order (later layers
    overwrite earlier ones).  Raster rows run from the top of the domain
    (largest second coordinate) downward, columns left to right.  Only
    2-dimensional domains can be rasterized.
    """
    if domain.dim != 2:
        raise ConfigError("PGM export requires a 2-dimensional domain")
    n = 1 << depth
    raster = np.full((n, n), np.uint8(background), dtype=np.uint8)
    for bs, shade in layers:
        if bs.depth != depth or bs.domain != domain:
            raise ConfigError("layer grid does not match raster grid")
        if not (0 <= shade <= 255):
            raise ConfigError("shade must be in [0, 255]")
        c = bs.coords()
        raster[n - 1 - c[:, 1], c[:, 0]] = np.uint8(shade)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def write_pgm_heat(path, domain: Domain, depth: int, codes: np.ndarray, counts: np.ndarray) -> None:
    """PGM heat raster: shade proportional to count, 255 at the maximum."""
    if domain.dim != 2:
        raise ConfigError("PGM export requires a 2-dimensional domain")
    n = 1 << depth
    raster = np.zeros((n, n), dtype=np.uint8)
    if len(codes):
        coords = unpack_codes(np.asarray(codes, np.int64), depth, 2)
        peak = float(np.max(counts))
        shade = np.maximum(1, np.round(255.0 * np.asarray(counts) / peak)).astype(np.uint8)
        raster[n - 1 - coords[:, 1], coords[:, 0]] = shade
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())
