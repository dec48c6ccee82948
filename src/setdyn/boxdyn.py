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
(box, cell) pair comes out once.  Edges are enumerated in chunks of
consecutive boxes, and each chunk's edges are sorted, so the chunks
concatenate into the CSR without a global dedupe.

Samples are points of one lattice shared by neighbouring boxes: a box's
edge and corner samples are also samples of the boxes next to it.  Each
sample's coordinate comes from its integer lattice index, so a shared
point is the same double in every box.  A graph build finds the distinct
lattice points of its whole box set once, as one table (``LatticeImages``),
maps each of them once, and gives each chunk's edge step its images
gathered from that table.  With 3 samples an axis that maps 2.2 times
fewer points on a 2-D full cover.  A deeper cover's lattice contains the
coarser one's, so a scan hands each stage's table to the next, which
reuses an image wherever the point's coordinate has the same bits at both
depths.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, NumericsError

BOX_BUDGET = 2**26
EDGE_BUDGET = 2**30

# an edge key packs (source position in its chunk, destination index) as
# src << _KEY_BITS | dst, so no graph may hold more than _MAX_BOXES boxes
_KEY_BITS = 27
_MAX_BOXES = 1 << _KEY_BITS

# the CSR arrays are int32: box indices stay below _MAX_BOXES, and edge
# offsets below the edge budget, which may not exceed _MAX_EDGES
_MAX_EDGES = np.iinfo(np.int32).max

_CHUNK_BOXES = 1024

# edges that one step of a pass over a CSR graph handles at once
_SLAB_EDGES = 1 << 15


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

    @functools.cached_property
    def _torus(self):
        """(lower, width) as 0-d arrays when every axis is periodic with the
        same lower bound and width, else None."""
        w = self.widths
        if all(self.periodic) and len(set(self.lower)) == 1 and np.all(w == w[0]):
            return np.array(self.lower[0]), np.array(w[0])
        return None

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        """Wrap periodic axes into [lower, upper); other axes pass through.

        On a torus with one lower bound and width for all axes the wrap is a
        single whole-array expression with 0-d bounds.  Each coordinate goes
        through the same operations as on the per-axis path, so the bits
        agree.  Bounds broadcast per axis, as (dim,) vectors, were slower
        than the loop on blocks of ~10^4 points, so other domains keep it.
        """
        if self._torus is not None:
            lo, w = self._torus
            return lo + np.mod(np.asarray(pts, dtype=float) - lo, w)
        pts = np.array(pts, dtype=float, copy=True)
        lo = np.asarray(self.lower)
        w = self.widths
        for ax, per in enumerate(self.periodic):
            if per:
                pts[..., ax] = lo[ax] + np.mod(pts[..., ax] - lo[ax], w[ax])
        return pts

    def contains(self, pts: np.ndarray):
        """Boolean mask of points inside the closed rectangle.  A periodic
        axis wraps, so there any finite coordinate is inside; a non-finite
        one is outside on every axis."""
        pts = np.asarray(pts, dtype=float)
        inside = np.isfinite(pts)
        for ax, per in enumerate(self.periodic):
            if not per:
                x = pts[..., ax]
                inside[..., ax] = (x >= self.lower[ax]) & (x <= self.upper[ax])
        return np.logical_and.reduce(inside, axis=-1)

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
        self.codes = _unique(codes)
        if len(self.codes) and (self.codes[0] < 0 or self.codes[-1] >= 1 << (depth * domain.dim)):
            raise ConfigError(f"box codes out of range for depth {depth}")

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
        return self.indices_of(codes) >= 0

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
        return BoxSet(self.domain, self.depth, np.concatenate([self.codes, other.codes]))

    def intersection(self, other: "BoxSet") -> "BoxSet":
        self._check_compatible(other)
        return BoxSet(
            self.domain, self.depth, np.intersect1d(self.codes, other.codes, assume_unique=True)
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


def _unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by a sort and a neighbour mask.  A plain
    ``np.unique`` takes a hash path that is many times slower on the int64
    codes and keys here."""
    a = np.sort(np.asarray(a).ravel())
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _unit_offsets(dim: int) -> np.ndarray:
    return np.stack(
        np.meshgrid(*([np.arange(2)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)


def pack_coords(coords: np.ndarray, depth: int, dim: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, dim)
    if np.any(coords < 0) or np.any(coords >= (1 << depth)):
        raise ConfigError("box coordinates out of range for depth")
    return _pack(coords, depth)


def _pack(coords: np.ndarray, bits: int) -> np.ndarray:
    """One int64 code per row of ``coords`` (..., dim), ``bits`` an axis,
    axis 0 most significant."""
    code = np.zeros(coords.shape[:-1], dtype=np.int64)
    for ax in range(coords.shape[-1]):
        code = (code << bits) | coords[..., ax]
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


def check_cover(domain: Domain, depth: int, budget: int = BOX_BUDGET) -> None:
    """Raise, before anything is allocated, when the full cover of the domain
    at ``depth`` cannot be encoded or holds more than ``budget`` boxes."""
    _check_depth(domain, depth)
    _check_box_count(1 << (depth * domain.dim), budget)


def initial_cover(domain: Domain, depth: int, budget: int = BOX_BUDGET) -> BoxSet:
    """Full covering of the domain at the given depth, guarded by a budget."""
    check_cover(domain, depth, budget)
    return BoxSet.full_cover(domain, depth)


# ---------------------------------------------------------------------------
# Transition graphs
# ---------------------------------------------------------------------------


class TransitionGraph:
    """Sorted-CSR over-approximation of the map on a box set.

    ``indptr`` and ``indices`` are int32.  That always fits: a graph holds
    at most ``_MAX_BOXES`` = 2^27 boxes and, by default, ``EDGE_BUDGET`` =
    2^30 edges, and ``build_graph`` takes no edge budget above 2^31 - 1.
    Arrays of another integer type are converted, and a value outside int32
    raises instead of wrapping.

    ``lattice_images`` holds the table of the graph's sample lattice points
    and their images when ``build_graph`` was asked to keep it, else None.
    """

    def __init__(
        self,
        boxset: BoxSet,
        epsilon: float,
        indptr: np.ndarray,
        indices: np.ndarray,
        pad: float,
        lattice_images: "LatticeImages | None" = None,
    ):
        self.boxset = boxset
        self.epsilon = float(epsilon)
        self.indptr = _as_int32(indptr, "indptr")
        self.indices = _as_int32(indices, "indices")
        self.pad = float(pad)
        self.lattice_images = lattice_images

    @property
    def n_boxes(self) -> int:
        return self.boxset.count

    @property
    def n_edges(self) -> int:
        return len(self.indices)


def _as_int32(a, what: str) -> np.ndarray:
    """An integer array as int32, shared when it already is one."""
    a = np.asarray(a)
    if a.dtype == np.int32:
        return a
    info = np.iinfo(np.int32)
    if a.size and (a.min() < info.min or a.max() > info.max):
        raise ConfigError(f"{what} holds values outside int32")
    return a.astype(np.int32)


def _out_edges(indptr: np.ndarray, indices: np.ndarray, rows=None):
    """Yield the out-edges of ``rows`` of a CSR graph in slabs of about
    ``_SLAB_EDGES`` edges (a row longer than that is a slab of its own), as
    (slab rows, their out-degrees, their destinations in row order); the
    sources are ``np.repeat(slab_rows, degrees)``.  Empty slabs are skipped.

    ``rows`` is None for all rows, whose slabs are runs of consecutive rows,
    or distinct row indices, whose edges are gathered by position.  No array
    of edge length is made.
    """
    if rows is None:
        n = len(indptr) - 1
        cuts = np.searchsorted(indptr, np.arange(_SLAB_EDGES, indptr[-1], _SLAB_EDGES), "right") - 1
        for lo, hi in itertools.pairwise(sorted({0, *cuts.tolist(), n})):
            if indptr[lo] != indptr[hi]:
                yield np.arange(lo, hi), np.diff(indptr[lo : hi + 1]), indices[indptr[lo] : indptr[hi]]
        return
    rows = np.asarray(rows)
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    if not len(ends) or not ends[-1]:
        return
    base = ends - lens  # where each row's edges begin among the gathered ones
    cuts = np.searchsorted(ends, np.arange(_SLAB_EDGES, ends[-1], _SLAB_EDGES))
    for a, b in itertools.pairwise(sorted({0, *cuts.tolist(), len(rows)})):
        lo, hi = base[a], ends[b - 1]
        if lo == hi:
            continue
        # position of each edge: its row's start plus its place in the row
        pos = np.repeat(starts[a:b] - base[a:b], lens[a:b])
        pos += np.arange(lo, hi)
        yield rows[a:b], lens[a:b], indices[pos]


def _transpose_csr(indptr: np.ndarray, indices: np.ndarray):
    """(indptr, indices) of the transposed square CSR pattern, rows sorted,
    in the dtypes of the input.

    A counting sort, one slab of ``_out_edges`` at a time: each slab sorts
    its (destination, source) keys, so its sources into one node form a
    sorted run, and the runs go to their rows' next free slots.  The slabs
    come in source order, so every row ends up sorted.
    """
    n = len(indptr) - 1
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, len(indices), _SLAB_EDGES):
        np.add.at(counts, indices[lo : lo + _SLAB_EDGES], 1)
    out_ptr = np.zeros(n + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=out_ptr[1:])
    free = out_ptr[:-1].astype(np.int64)  # each row's next free slot
    out = np.empty_like(indices)
    for rows, lens, dst in _out_edges(indptr, indices):
        lo = rows[0]
        bits = int(rows[-1] - lo).bit_length()
        key = dst.astype(np.int32 if n << bits <= np.iinfo(np.int32).max else np.int64)
        key <<= bits
        key |= np.repeat(rows - lo, lens)
        key.sort()
        dst, src = key >> bits, key & ((1 << bits) - 1)
        brk = np.ones(len(dst), dtype=bool)
        np.not_equal(dst[1:], dst[:-1], out=brk[1:])
        starts = np.flatnonzero(brk)
        run = np.diff(starts, append=len(dst))
        heads = dst[starts]
        pos = np.repeat(free[heads] - starts, run)
        pos += np.arange(len(dst))
        out[pos] = src + lo
        free[heads] += run
    return out_ptr, out


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


def _lattice_den(samples_per_axis: int) -> int:
    """Lattice steps per cell on one axis: k-1 for k samples when k is odd,
    2(k-1) when k is even, so the centre of an even grid is a lattice point."""
    return (samples_per_axis - 1) * (1 if samples_per_axis % 2 else 2)


def _lattice_points(domain: Domain, depth: int, axis: np.ndarray, cell, frac) -> np.ndarray:
    """Coordinates lo + cell*h + axis[frac]*h of lattice points, given per
    axis by their owner cell and their fraction of it; every stage of a
    scan computes a point's coordinate with this one formula."""
    h = domain.box_width(depth)
    return (np.asarray(domain.lower) + cell * h) + axis[frac] * h


def _lattice_axis(offsets: np.ndarray, den: int) -> np.ndarray:
    """The offset of each lattice fraction 0..den-1 of a cell, with the
    bits of ``offsets``."""
    steps = np.rint(offsets * den).astype(np.int64)
    axis = np.zeros(den)
    axis[steps[steps < den]] = offsets[steps < den]
    return axis


def _owner_codes(domain: Domain, depth: int, codes: np.ndarray) -> np.ndarray:
    """Codes (B, 2^dim) of the cells that own each box's samples: the box
    and its upper neighbours, ``depth + 1`` bits an axis.  They reach 2^depth
    on a non-periodic top face; a periodic axis wraps them to its cell 0."""
    owners = unpack_codes(codes, depth, domain.dim)[:, None, :] + _unit_offsets(domain.dim)
    # modulo 2^depth + 1 leaves a non-periodic owner, at most 2^depth, as it is
    return _pack(owners % ((1 << depth) + np.logical_not(domain.periodic)), depth + 1)


def _sample_keys(domain: Domain, depth: int, codes: np.ndarray, offsets: np.ndarray, den: int,
                 cells: np.ndarray) -> np.ndarray:
    """The key (see ``LatticeImages``) of each sample of each box in turn
    (B*S,).  The sample at offset o of box c has the lattice index
    c*den + o*den per axis: it lies in the owner cell c + (o == 1), at the
    fraction o*den mod den there."""
    dim = domain.dim
    steps = np.rint(offsets * den).astype(np.int64)  # (S, dim)
    up = steps // den
    rank = np.searchsorted(cells, _owner_codes(domain, depth, codes))
    return (rank[:, np.ravel_multi_index(tuple(up.T), (2,) * dim)] * den**dim
            + np.ravel_multi_index(tuple((steps - up * den).T), (den,) * dim)).ravel()


@dataclass(frozen=True)
class LatticeImages:
    """The distinct sample lattice points of a graph's box set at ``depth``
    and their images, which its chunks gather and the next stage of a scan
    looks up.  A point's key is r*den^dim + f, for the rank r of its owner
    cell among ``cells``, the set's sorted owner codes (``_owner_codes``),
    and its fraction slot f there, so a key fits in int64 at every depth.
    ``keys`` is sorted and duplicate-free; ``images`` (P, dim) follows it.
    """

    depth: int
    den: int
    cells: np.ndarray
    keys: np.ndarray
    images: np.ndarray

    def lookup(self, domain: Domain, depth: int, axis: np.ndarray, cell, frac, pts):
        """(found, pos): which lattice points of ``depth``, given by owner
        cell, fraction (P, dim) and coordinates, have their image at row
        ``pos`` here.  A point lies on this lattice when its index
        cell*den + frac divides by 2^(depth - self.depth); the halvings test
        that without forming the index, which could overflow.  It counts
        only when its coordinate here has the same bits as ``pts``: where h
        is not exact in binary the two can differ.
        """
        on = np.ones(len(cell), dtype=bool)
        for _ in range(depth - self.depth):
            half = (cell & 1) * self.den + frac
            on &= np.all((half & 1) == 0, axis=1)
            cell, frac = cell >> 1, half >> 1
        owner = _pack(cell, self.depth + 1)
        rank = np.minimum(np.searchsorted(self.cells, owner), len(self.cells) - 1)
        key = rank * self.den ** cell.shape[1] + np.ravel_multi_index(
            tuple(frac.T), (self.den,) * cell.shape[1])
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        found = on & (self.cells[rank] == owner) & (self.keys[pos] == key)
        idx = np.flatnonzero(found)
        there = _lattice_points(domain, self.depth, axis, cell[idx], frac[idx])
        same = np.all(there.view(np.int64) == pts[idx].view(np.int64), axis=1)
        found[idx[~same]] = False
        return found, pos


def _off_heap(n: int, dtype) -> np.ndarray:
    """A zeroed array of ``n`` items in its own anonymous memory map, for a
    build's lattice images and CSR parts.  Freed, it is unmapped, where a
    freed numpy array that size raises glibc's dynamic mmap threshold or
    leaves heap space that the process keeps: as numpy arrays, those two
    raised torus_classify's peak RSS by 10%."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(1, n * dtype.itemsize)), dtype=dtype, count=n)


def _lattice_table(boxset: BoxSet, chunks, offsets: np.ndarray, den: int):
    """(table, ends): the keys of a box set's distinct sample lattice points,
    with room for their images, and for each chunk the number of table rows
    that it and the chunks before it need.  Keys follow the owner cells'
    codes, so the rows one chunk adds are little more than the points of its
    own boxes.  Samples are marked in den^dim slots an owner, a chunk at a
    time."""
    domain, depth, codes = boxset.domain, boxset.depth, boxset.codes
    cells = _unique(np.concatenate([_unique(_owner_codes(domain, depth, codes[lo:hi]))
                                    for lo, hi in chunks]))
    mark = np.zeros(len(cells) * den**domain.dim, dtype=bool)
    last = []
    for lo, hi in chunks:
        sample = _sample_keys(domain, depth, codes[lo:hi], offsets, den, cells)
        mark[sample] = True
        last.append(sample.max())
    keys = np.flatnonzero(mark)
    images = _off_heap(len(keys) * domain.dim, float).reshape(-1, domain.dim)
    ends = np.searchsorted(keys, np.maximum.accumulate(last), side="right")
    return LatticeImages(depth, den, cells, keys, images), ends


def _unmapped(table: LatticeImages, domain: Domain, axis: np.ndarray, bounds,
              reuse: LatticeImages | None):
    """(rows, pts) of each block [bounds[j], bounds[j+1]) of the table's
    keys: the rows whose points ``reuse`` lacks, and their coordinates.  The
    images of the points found in ``reuse`` are filled in here."""
    dim, den = domain.dim, table.den
    for a, b in zip(bounds, bounds[1:]):
        owner, slot = np.divmod(table.keys[a:b], den**dim)
        cell = unpack_codes(table.cells[owner], table.depth + 1, dim)
        frac = np.stack(np.unravel_index(slot, (den,) * dim), axis=-1)
        pts = _lattice_points(domain, table.depth, axis, cell, frac)
        rows = np.arange(a, b)
        if reuse is not None:
            found, pos = reuse.lookup(domain, table.depth, axis, cell, frac, pts)
            table.images[rows[found]] = reuse.images[pos[found]]
            rows, pts = rows[~found], pts[~found]
        yield rows, pts


def _map_block(system, rows: np.ndarray, pts: np.ndarray):
    """(rows, images) of a block of lattice points; an empty one maps none."""
    return rows, (np.asarray(system.forward(pts), dtype=float) if len(pts) else pts)


def _chunk_args(boxset: BoxSet, chunks, epsilon: float, offsets: np.ndarray,
                samples_per_axis: int, table: LatticeImages, mapped):
    """The ``_chunk_edges`` arguments of each chunk, with the images of its
    samples (B, S, dim) gathered from ``table``, once the chunk's block of
    images from ``mapped`` is in the table."""
    domain, depth = boxset.domain, boxset.depth
    for (lo, hi), (got, img) in zip(chunks, mapped):
        table.images[got] = img
        codes = boxset.codes[lo:hi]
        rows = np.searchsorted(table.keys, _sample_keys(domain, depth, codes, offsets, table.den,
                                                        table.cells))
        img = table.images.take(rows, axis=0).reshape(len(codes), len(offsets), domain.dim)
        yield depth, codes, img, epsilon, samples_per_axis


def _chunk_edges(system, depth: int, codes: np.ndarray, img: np.ndarray, epsilon: float,
                 samples_per_axis: int):
    """Edges out of one chunk of boxes, given by their codes and the images
    of their samples (B, S, dim).

    Returns (src, dst, spread): the position of each edge's source box
    inside the chunk, the code of its destination cell, and each box's
    image spread (None under a Lipschitz pad).  Every pair occurs once.
    """
    domain = system.domain
    dim = domain.dim
    n_axis = 1 << depth
    h = domain.box_width(depth)
    lo = np.asarray(domain.lower)
    B = len(codes)

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
    # per axis, so a few fat-pad boxes do not widen the grid of the others.
    # Ranked one axis at a time, axis 0 first, the classes keep their row
    # order in a small int64, and a 1-D unique sorts where axis=0 is slow
    classes = np.ceil(np.log2(width[boxes])).astype(np.int64)
    base = int(classes.max()) + 1
    size_class = np.zeros(len(boxes), dtype=np.int64)
    for ax in range(dim):
        _, size_class = np.unique(size_class * base + classes[:, ax], return_inverse=True)
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


# the build's system in a pool worker, stored there by _keep_system
_worker_system = None


def _keep_system(system) -> None:
    """Pool initializer: keep the build's system for the worker's tasks."""
    global _worker_system
    _worker_system = system


def _call(task):
    """Worker entry: fn(system, *args) on the system the worker was forked with."""
    fn, args = task
    return fn(_worker_system, *args)


def _run(system, pool, fn, args):
    """fn(system, *a) for each a of ``args``, in order: lazily one at a
    time, or submitted all at once to ``pool``, whose generator cancels the
    tasks not yet started when it is closed."""
    if pool is None:
        return (fn(system, *a) for a in args)
    return pool.map(_call, [(fn, a) for a in args])


def build_graph(
    system,
    boxset: BoxSet,
    epsilon: float,
    samples_per_axis: int = 4,
    workers: int = 1,
    edge_budget: int = EDGE_BUDGET,
    reuse: LatticeImages | None = None,
    keep_images: bool = False,
) -> TransitionGraph:
    """Build the epsilon-transition graph of a map over a box set.

    Each box is sampled on a uniform grid (corners and center included).
    The samples are shared lattice points: the build finds the distinct
    points of the whole set once, as one ``LatticeImages`` table, and maps
    each of them once: each chunk of boxes maps, in one ``forward`` call,
    the points that no chunk before it needed, and takes its samples'
    images from the table.  An edge b -> b' is added whenever the
    max-metric ball of radius epsilon + pad around a sampled image point
    meets b'.  pad is lipschitz_hint * max_box_width / 2 when the system
    carries a hint, else the empirical covering radius of the image sample
    grid.

    A scan passes the table of one stage to the next through ``reuse``: the
    ``lattice_images`` of a graph of the same system and sample count at
    the same or a lower depth.  A point found there with the same
    coordinate bits is not mapped again; the maps are batch-invariant, so
    its image is the one a fresh call would give.  ``keep_images`` stores
    this graph's table in ``lattice_images``; else the build drops it.

    With ``workers`` > 1 a pool of processes forked from the caller maps
    the chunks' points, then enumerates their edges, each task getting only
    its chunk's images.  Each worker keeps ``system`` as it was passed, so
    any system builds in parallel, a hand-built one included, and no task
    carries it.  The parent gathers every chunk's images before the edge
    tasks are submitted.  A box's edges are the union of its samples' cell
    rectangles, clipped on non-periodic axes and wrapped on periodic ones
    (see the module docstring).  Chunks of boxes are disjoint in source box
    and each one's edges come out sorted, so the CSR needs no global
    dedupe: each chunk adds its destinations as int32 and its row lengths,
    and no array of whole-graph length is made but the CSR itself.  The CSR
    is int32 (see ``TransitionGraph``), so an ``edge_budget`` above
    2^31 - 1 is rejected before anything is mapped.  The edge budget is
    checked after every chunk, with one worker before the points that only
    later chunks need are mapped.  Output is independent of ``workers`` and
    of ``reuse``.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise ConfigError(f"epsilon must be >= 0, got {epsilon!r}")
    if boxset.count == 0:
        raise ConfigError("cannot build a graph over an empty box set")
    if system.dim != boxset.domain.dim:
        raise ConfigError("system and box set dimensions differ")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if edge_budget > _MAX_EDGES:
        raise ConfigError(f"edge budget {edge_budget} exceeds {_MAX_EDGES}, the int32 CSR limit")
    _check_box_count(boxset.count)
    depth, dim = boxset.depth, boxset.domain.dim
    if (depth + 1) * dim > 63:
        raise ConfigError(f"depth {depth} too large to sample for dim {dim}")

    offsets = _sample_offsets(dim, samples_per_axis)
    den = _lattice_den(samples_per_axis)
    if reuse is not None and (reuse.den != den or reuse.depth > depth):
        raise ConfigError("lattice images come from another sample count or a deeper grid")
    n = boxset.count
    # on a full cover a cell's index is its code
    full = n == 1 << (depth * dim)
    chunks = [(lo, min(lo + _CHUNK_BOXES, n)) for lo in range(0, n, _CHUNK_BOXES)]

    # the empirical pad is reported from the spreads of up to 256 boxes
    # spaced evenly over the set
    probe = np.linspace(0, n - 1, min(n, 256)).astype(np.int64)
    dst_parts, count_parts, spreads = [], [], []
    total = 0
    table, ends = _lattice_table(boxset, chunks, offsets, den)
    pool = None
    if workers > 1:
        # imported here: the process pool module costs every command ~17 ms
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not Python 3.14's default forkserver: a forked worker gets the
        # system as it is, closures and all, where another start would pickle it
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   _keep_system, (system,))
    with pool or contextlib.nullcontext():
        mapped = _run(system, pool, _map_block, _unmapped(
            table, boxset.domain, _lattice_axis(offsets, den), [0, *ends], reuse))
        parts = _run(system, pool, _chunk_edges, _chunk_args(
            boxset, chunks, epsilon, offsets, samples_per_axis, table, mapped))
        # closing the generator on a budget error cancels the pool's pending tasks
        with contextlib.closing(parts):
            for (lo, hi), (src, dst, spread) in zip(chunks, parts):
                if spread is not None:
                    spreads.append(spread[probe[(probe >= lo) & (probe < hi)] - lo])
                if not full:
                    dst = boxset.indices_of(dst)
                    kept = dst >= 0
                    src, dst = src[kept], dst[kept]
                total += len(src)
                if total > edge_budget:
                    raise BudgetError(f"{total} edges exceed budget {edge_budget}")
                keys = (src << _KEY_BITS) | dst
                keys.sort()
                dst_parts.append(_off_heap(len(keys), np.int32))
                np.bitwise_and(keys, _MAX_BOXES - 1, out=dst_parts[-1], casting="unsafe")
                count_parts.append(np.bincount(src, minlength=hi - lo))
    images = table if keep_images else None
    del table
    indices = np.concatenate(dst_parts)
    del dst_parts
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(count_parts), out=indptr[1:])

    # pad recorded for diagnostics and tolerance scaling.  The Lipschitz
    # value rounds as L*h/k here and as L*(h/k) in _chunk_edges; the two can
    # differ in the last bit, and both are kept as they were.  The empirical
    # pad is the median, not the max: a few boxes on a boundary clamp can
    # have much fatter image spreads, and those get their fat pads in the
    # edges themselves, but they should not inflate resolution-scale
    # tolerances derived from the graph.
    if system.lipschitz_hint is not None:
        hmax = boxset.domain.max_box_width(depth)
        pad_used = system.lipschitz_hint * hmax / (2.0 * (samples_per_axis - 1))
    else:
        pad_used = float(np.median(np.concatenate(spreads)) / (2.0 * (samples_per_axis - 1)))
    return TransitionGraph(boxset, epsilon, indptr, indices, pad_used, images)


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
        size = 8 * header["count"]
        payload = fh.read(size)
        if len(payload) != size:
            raise ConfigError(f"{path} holds {len(payload)} of the {size} code bytes its "
                              "header counts")
        codes = np.frombuffer(payload, dtype="<i8").astype(np.int64)
        return BoxSet(Domain.from_dict(header["domain"]), int(header["depth"]), codes)


# ---------------------------------------------------------------------------
# PGM raster output
# ---------------------------------------------------------------------------


def _write_raster(path, domain: Domain, depth: int, layers) -> None:
    """Binary PGM (P5) of the depth grid of a 2-dimensional domain.

    ``layers`` holds (coords, shade) pairs painted in order, so later
    layers overwrite earlier ones, over a background of 0.  Raster rows run
    from the top of the domain (largest second coordinate) downward,
    columns left to right.
    """
    if domain.dim != 2:
        raise ConfigError("PGM export requires a 2-dimensional domain")
    n = 1 << depth
    raster = np.zeros((n, n), dtype=np.uint8)
    for coords, shade in layers:
        raster[n - 1 - coords[:, 1], coords[:, 0]] = shade
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def write_pgm(path, domain: Domain, depth: int, layers) -> None:
    """PGM raster of box-set membership classes: ``layers`` is a list of
    (BoxSet, shade) on the raster's grid, painted in order."""
    def painted():  # checks and unpacks one layer at a time, as it is painted
        for bs, shade in layers:
            if bs.depth != depth or bs.domain != domain:
                raise ConfigError("layer grid does not match raster grid")
            if not (0 <= shade <= 255):
                raise ConfigError("shade must be in [0, 255]")
            yield bs.coords(), np.uint8(shade)

    _write_raster(path, domain, depth, painted())


def write_pgm_heat(path, domain: Domain, depth: int, codes: np.ndarray, counts: np.ndarray) -> None:
    """PGM heat raster: shade proportional to count, 255 at the maximum."""
    layers = []
    if len(codes):
        peak = float(np.max(counts))
        shade = np.maximum(1, np.round(255.0 * np.asarray(counts) / peak)).astype(np.uint8)
        layers.append((unpack_codes(np.asarray(codes, np.int64), depth, 2), shade))
    _write_raster(path, domain, depth, layers)
