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
(box, cell) pair comes out once.  A chunk's sample images are held as
axis-major planes (dim, samples, boxes), so every step runs one axis at a
time on contiguous memory, and a reduction over a box's samples is a few
elementwise steps over rows of boxes.  Edges are enumerated in chunks of
consecutive boxes, and each chunk's edges are sorted, so each chunk's
destinations are copied, once and in order, into the CSR's index array
without a global dedupe.

Samples are points of one lattice shared by neighbouring boxes: a box's
edge and corner samples are also samples of the boxes next to it.  A
box's samples are one integer grid of lattice steps (``_sample_grid``),
and a sample's coordinate comes from its lattice index, cell*den + frac
an axis, so a shared point is the same double in every box.  A graph
build finds the distinct lattice points of its whole box set once, as one
table (``LatticeImages``), maps each of them once, and gives each chunk's
edge step its images gathered from that table.  With 3 samples an axis
that maps 2.2 times fewer points on a 2-D full cover.  Images also move
between rows by one rule: a point takes the image of the row at its index
whose coordinate has its bits (``LatticeImages.rows``).  A scan's stage
asks the previous stage's table at each point's halved index, and a map
that commutes with the quarter turn about the origin has about a quarter
of its table mapped, the rest asking at their turned index.
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
# points one setting may ask for: a graph build's samples, the orbit points
# of a noisy run, a portrait or a trap, or verify's samples
POINT_BUDGET = 2**30
# below 2^31, so a graph's int32 CSR holds every edge offset
EDGE_BUDGET = 2**30

# an edge key packs (source position in its chunk, destination index) as
# src << _KEY_BITS | dst, so no graph may hold more than _MAX_BOXES boxes
_KEY_BITS = 27
_MAX_BOXES = 1 << _KEY_BITS

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

    def subdivide(self) -> "BoxSet":
        """All children of all members, one level deeper."""
        dim = self.domain.dim
        _check_box_count(self.count << dim, BOX_BUDGET)
        coords = self.coords()
        offs = _unit_offsets(dim)
        child = (coords[:, None, :] * 2 + offs[None, :, :]).reshape(-1, dim)
        return BoxSet.from_coords(self.domain, self.depth + 1, child)

    def refine_to(self, depth: int) -> "BoxSet":
        if depth < self.depth:
            raise ConfigError("refine_to cannot coarsen a box set")
        out = self
        while out.depth < depth:
            out = out.subdivide()
        return out

    def dilate(self) -> "BoxSet":
        """Grow by one ring of boxes (periodic-aware)."""
        dim = self.domain.dim
        n = 1 << self.depth
        coords = self.coords()[:, None, :] + (_unit_offsets(dim, 3) - 1)[None, :, :]
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


def _unit_offsets(dim: int, k: int = 2) -> np.ndarray:
    """The k^dim integer offsets in [0, k) per axis, axis 0 slowest."""
    return np.stack(
        np.meshgrid(*([np.arange(k)] * dim), indexing="ij"), axis=-1
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


def check_points(n: int, what: str) -> None:
    """Raise, before they are allocated, when ``n`` points exceed ``POINT_BUDGET``."""
    if n > POINT_BUDGET:
        raise BudgetError(f"{n} {what} exceed budget {POINT_BUDGET}")


def _check_box_count(n: int, budget: int = _MAX_BOXES) -> None:
    if n > budget:
        raise BudgetError(f"{n} boxes exceed budget {budget}")
    if n > _MAX_BOXES:
        raise BudgetError(f"{n} boxes exceed the {_MAX_BOXES} that edge keys can index")


def check_build(domain: Domain, depth: int, epsilon: float, samples_per_axis: int,
                workers: int) -> None:
    """Raise, before anything is allocated, when a graph build over boxes of
    ``domain`` at ``depth`` cannot run: box codes or sample owner cells (a
    bit more an axis) that overflow an int64, an epsilon below 0 or not
    finite, fewer than 2 samples an axis, fewer than 1 worker, a box's
    sample grid beyond ``POINT_BUDGET``, or a largest lattice index an
    axis, den << depth (``_sample_grid``), that overflows an int64."""
    _check_depth(domain, depth)
    if (depth + 1) * domain.dim > 63:
        raise ConfigError(f"depth {depth} too large to sample for dim {domain.dim}")
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise ConfigError(f"epsilon must be >= 0 and finite, got {epsilon!r}")
    if samples_per_axis < 2 or workers < 1:
        raise ConfigError(f"samples must be >= 2 and workers >= 1, "
                          f"got {samples_per_axis} and {workers}")
    check_points(samples_per_axis**domain.dim, "sample points in one box")
    if _sample_grid(domain.dim, samples_per_axis)[1] << depth > np.iinfo(np.int64).max:
        raise ConfigError(f"lattice indices of {samples_per_axis} samples an axis overflow an "
                          f"int64 at depth {depth}")


def check_cover(domain: Domain, depth: int) -> None:
    """Raise, before anything is allocated, when the full cover of the domain
    at ``depth`` cannot be encoded or holds more than ``BOX_BUDGET`` boxes."""
    _check_depth(domain, depth)
    _check_box_count(1 << (depth * domain.dim), BOX_BUDGET)


def initial_cover(domain: Domain, depth: int) -> BoxSet:
    """Full covering of the domain at the given depth, guarded by ``BOX_BUDGET``."""
    check_cover(domain, depth)
    return BoxSet.full_cover(domain, depth)


# ---------------------------------------------------------------------------
# Transition graphs
# ---------------------------------------------------------------------------


class TransitionGraph:
    """Sorted-CSR over-approximation of the map on a box set.

    ``indptr`` and ``indices`` are int32.  That always fits: ``build_graph``
    makes a graph of at most ``_MAX_BOXES`` = 2^27 boxes and ``EDGE_BUDGET``
    = 2^30 edges.  Arrays of another integer type are converted, and a
    value outside int32 raises instead of wrapping.

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

    @functools.cached_property
    def reversed(self) -> TransitionGraph:
        """Every edge turned around, on the same box set, epsilon and pad:
        the symbolic image of the inverse map.  It is built on first use and
        kept, and has no lattice table."""
        return TransitionGraph(self.boxset, self.epsilon, *_transpose_csr(self.indptr, self.indices),
                               self.pad)


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


def _sample_grid(dim: int, samples_per_axis: int):
    """(steps, den, offsets) of a box's grid of k = ``samples_per_axis``
    samples an axis, corners included, and the centre when k is even.  A
    cell is den lattice steps an axis, k-1 for odd k and 2(k-1) for even k,
    so an even grid's centre is a step.  ``steps`` (S, dim) holds each
    sample's steps from its box's corner, axis 0 slowest, then the centre;
    ``offsets`` (den + 1,) each step's offset in a cell: ``np.linspace``'s
    value, 0.5 at the centre, 0 where no sample lies."""
    stride = 1 if samples_per_axis % 2 else 2
    den = (samples_per_axis - 1) * stride
    steps = _unit_offsets(dim, samples_per_axis) * stride
    offsets = np.zeros(den + 1)
    offsets[::stride] = np.linspace(0.0, 1.0, samples_per_axis)
    if stride == 2:
        steps = np.concatenate([steps, np.full((1, dim), den // 2)])
        offsets[den // 2] = 0.5
    return steps, den, offsets


def _owner_codes(domain: Domain, depth: int, codes: np.ndarray) -> np.ndarray:
    """Codes (B, 2^dim) of the cells that own each box's samples: the box
    and its upper neighbours, ``depth + 1`` bits an axis.  They reach 2^depth
    on a non-periodic top face; a periodic axis wraps them to its cell 0."""
    owners = unpack_codes(codes, depth, domain.dim)[:, None, :] + _unit_offsets(domain.dim)
    # modulo 2^depth + 1 leaves a non-periodic owner, at most 2^depth, as it is
    return _pack(owners % ((1 << depth) + np.logical_not(domain.periodic)), depth + 1)


def _sample_keys(domain: Domain, depth: int, codes: np.ndarray, steps: np.ndarray, den: int,
                 cells: np.ndarray) -> np.ndarray:
    """The key (see ``LatticeImages``) of each sample of each box in turn
    (B*S,).  The sample m ``steps`` (S, dim) from box c has the lattice
    index c*den + m per axis: it lies in the owner cell c + (m == den), at
    the fraction m mod den there."""
    dim = domain.dim
    up = steps // den
    rank = np.searchsorted(cells, _owner_codes(domain, depth, codes))
    return (rank[:, np.ravel_multi_index(tuple(up.T), (2,) * dim)] * den**dim
            + np.ravel_multi_index(tuple((steps - up * den).T), (den,) * dim)).ravel()


@dataclass(frozen=True)
class LatticeImages:
    """The distinct sample lattice points of a graph's box set at ``depth``,
    named by their lattice index cell*den + frac an axis, and their images,
    which its chunks gather and later builds look up (``rows``).  A row's
    key is r*den^dim + f, for the rank r of its owner cell among ``cells``,
    the set's sorted owner codes (``_owner_codes``), and its fraction slot
    f, so it fits in int64 at every depth.  ``keys`` is sorted and
    duplicate-free, and ``images`` (P, dim) follows it.  ``steps``, ``den``
    and ``offsets`` are the sample grid it was built with (``_sample_grid``)."""

    domain: Domain
    depth: int
    steps: np.ndarray
    den: int
    offsets: np.ndarray
    cells: np.ndarray
    keys: np.ndarray
    images: np.ndarray

    def index(self, a: int, b: int) -> np.ndarray:
        """The lattice indices (b - a, dim) of rows [a, b)."""
        dim = self.domain.dim
        owner, slot = np.divmod(self.keys[a:b], self.den**dim)
        cell = unpack_codes(self.cells[owner], self.depth + 1, dim)
        return cell * self.den + np.stack(np.unravel_index(slot, (self.den,) * dim), axis=-1)

    def points(self, index: np.ndarray) -> np.ndarray:
        """Coordinates lo + cell*h + offsets[frac]*h of lattice indices (P, dim)
        of this depth, with (cell, frac) = divmod(index, den); every stage
        of a scan computes a point's coordinate with this one formula."""
        cell, frac = np.divmod(index, self.den)
        h = self.domain.box_width(self.depth)
        return (np.asarray(self.domain.lower) + cell * h) + self.offsets[frac] * h

    def rows(self, index: np.ndarray, pts: np.ndarray):
        """(hit, row): the positions among lattice indices ``index`` (P, dim)
        of this depth of the points that take a row's image, and those rows:
        the index is a row whose coordinate has the bits of ``pts``.  Where h
        is not exact in binary, or a 0.0 turns to -0.0, the bits can differ."""
        dim = self.domain.dim
        same = self.points(index).view(np.int64) == pts.view(np.int64)
        hit = np.flatnonzero(np.all(same, axis=1))
        cell, frac = np.divmod(index[hit], self.den)
        owner = _pack(cell, self.depth + 1)
        rank = np.minimum(np.searchsorted(self.cells, owner), len(self.cells) - 1)
        key = rank * self.den**dim + np.ravel_multi_index(tuple(frac.T), (self.den,) * dim)
        row = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        found = (self.cells[rank] == owner) & (self.keys[row] == key)
        return hit[found], row[found]

    def sample_rows(self, codes: np.ndarray) -> np.ndarray:
        """The rows (S, B) of the samples of the boxes ``codes`` (B,) of the
        table's set; every sample is a row."""
        keys = _sample_keys(self.domain, self.depth, codes, self.steps, self.den, self.cells)
        return np.searchsorted(self.keys, keys.reshape(len(codes), -1).T)


def _off_heap(n: int, dtype) -> np.ndarray:
    """A zeroed array of ``n`` items in its own anonymous memory map, for a
    build's lattice images, CSR parts and CSR index array.  Freed, it is
    unmapped, where a freed numpy array that size raises glibc's dynamic
    mmap threshold or leaves heap space that the process keeps: as numpy
    arrays, the first two raised torus_classify's peak RSS by 10%.  Its
    pages become resident only as they are written.  The map is shared, so
    pool workers forked after it was made write their images into the
    parent's table, not into copies of its pages."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(1, n * dtype.itemsize), flags=mmap.MAP_SHARED),
                         dtype=dtype, count=n)


def _lattice_table(boxset: BoxSet, chunks, samples_per_axis: int):
    """(table, ends): the keys of a box set's distinct sample lattice points
    on the grid of ``samples_per_axis`` samples an axis, with room for
    their images, and for each chunk the number of table rows that it and
    the chunks before it need.  Keys follow the owner cells' codes, so the
    rows one chunk adds are little more than the points of its own boxes.
    Samples are marked in den^dim slots an owner, a chunk at a time."""
    domain, depth, codes = boxset.domain, boxset.depth, boxset.codes
    steps, den, offsets = _sample_grid(domain.dim, samples_per_axis)
    cells = _unique(np.concatenate([_unique(_owner_codes(domain, depth, codes[lo:hi]))
                                    for lo, hi in chunks]))
    mark = np.zeros(len(cells) * den**domain.dim, dtype=bool)
    last = []
    for lo, hi in chunks:
        sample = _sample_keys(domain, depth, codes[lo:hi], steps, den, cells)
        mark[sample] = True
        last.append(sample.max())
    keys = np.flatnonzero(mark)
    images = _off_heap(len(keys) * domain.dim, float).reshape(-1, domain.dim)
    ends = np.searchsorted(keys, np.maximum.accumulate(last), side="right")
    return LatticeImages(domain, depth, steps, den, offsets, cells, keys, images), ends


@dataclass(frozen=True)
class _Build:
    """A graph build's inputs and the lattice table its steps fill and read;
    ``turn`` is the system's ``quarter_turn``."""

    system: object
    boxset: BoxSet
    epsilon: float
    samples_per_axis: int
    table: LatticeImages
    reuse: LatticeImages | None
    turn: bool = False


# the signs of R^m(x, y) after its swap, for the quarter turn R(x, y) = (-y, x)
_TURN_SIGNS = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]])


def _rotate(v: np.ndarray, m) -> np.ndarray:
    """Rows (x, y) of ``v`` turned m times by R(x, y) = (-y, x), for one m or
    one a row: a swap and sign flips, exact on integers and floats alike; a
    0.0 that R negates turns to -0.0."""
    m = np.asarray(m)
    return np.where((m % 2 == 1)[..., None], v[:, ::-1], v) * _TURN_SIGNS[m]


def _turn_sources(table: LatticeImages, rows: np.ndarray, index: np.ndarray, pts: np.ndarray):
    """(source, k) of table rows ``rows``, given by lattice index and
    coordinates, on a square centred on the origin: the lowest row whose
    point turned k times has the row's coordinate bits, or the row itself
    and k = 0 when no lower row has.

    A turn of the point turns its index about the lattice centre c, n/2 for
    n lattice steps an axis, and ``LatticeImages.rows`` finds the row there
    that has the turned coordinates' bits.  A 0.0 turns to -0.0, so an axis
    point has no such row for two of its turns, and the origin for any.  A
    source is never the turn of a row below it, so it takes its own image.
    """
    c = (table.den << table.depth) // 2
    owner = _pack(index // table.den, table.depth + 1)
    source, k = rows.copy(), np.zeros(len(rows), dtype=np.int8)
    for m in (1, 2, 3):
        turned = _rotate(index - c, m) + c
        # rows follow their owner cells' codes, so a point turned into a
        # later owner cell is a later row, and is not looked up
        ask = np.flatnonzero(_pack(turned // table.den, table.depth + 1) <= owner)
        hit, pos = table.rows(turned[ask], _rotate(pts[ask], m))
        ask = ask[hit]
        lower = pos < source[ask]
        source[ask[lower]] = pos[lower]
        k[ask[lower]] = 4 - m  # the row's point is its source's turned 4 - m times
    return source, k


def _fill(build: _Build, a: int, b: int):
    """Write the images of table rows [a, b): copied from ``build.reuse``
    where it has a row at the point's index with the point's coordinate
    bits, the others from one ``forward`` call, if any are left.  On a
    build with ``turn``, a row whose point is a lower row's point turned
    (``_turn_sources``), and which ``build.reuse`` lacks, is left for
    ``_turn``: (rows, source, k) of those rows are returned."""
    table = build.table
    index = table.index(a, b)
    pts = table.points(index)
    rows = np.arange(a, b)
    if build.reuse is not None:
        # a point lies on the coarser lattice when its index divides by 2^shift
        shift = table.depth - build.reuse.depth
        on = np.flatnonzero(~np.any(index & ((1 << shift) - 1), axis=1))
        hit, pos = build.reuse.rows(index[on] >> shift, pts[on])
        table.images[rows[on[hit]]] = build.reuse.images[pos]
        rows, index, pts = (np.delete(v, on[hit], axis=0) for v in (rows, index, pts))
    source, k = rows, np.zeros(len(rows), dtype=np.int8)
    if build.turn:
        source, k = _turn_sources(table, rows, index, pts)
    own = source == rows
    if np.any(own):
        table.images[rows[own]] = build.system.forward(pts[own])
    return rows[~own], source[~own], k[~own]


def _turn(build: _Build, rows: np.ndarray, source: np.ndarray, k: np.ndarray) -> None:
    """Write the image of each of ``rows``: its source row's image, already
    written, turned k times (``_rotate``), exact in the bits."""
    if len(rows):
        build.table.images[rows] = _rotate(build.table.images[source], k)


def _edges(build: _Build, lo: int, hi: int):
    """(dst, degrees, spread) of boxes [lo, hi) of the build's set: each
    edge's destination index as int32, sorted by source and then
    destination, each box's out-degree, and ``_chunk_edges``'s spreads.
    The two are apart so that the enumeration's arrays are freed first."""
    boxset = build.boxset
    src, dst, spread = _chunk_edges(build, boxset.codes[lo:hi])
    if boxset.count < 1 << (boxset.depth * boxset.domain.dim):  # a full cover's indices are codes
        dst = boxset.indices_of(dst)
        kept = dst >= 0
        src, dst = src[kept], dst[kept]
    keys = (src << _KEY_BITS) | dst
    keys.sort()
    out = _off_heap(len(keys), np.int32)
    np.bitwise_and(keys, _MAX_BOXES - 1, out=out, casting="unsafe")
    return out, np.bincount(src, minlength=hi - lo), spread


def _chunk_edges(build: _Build, codes: np.ndarray):
    """Edges out of one chunk of the build's boxes, given by their codes,
    from the images of their samples in the table.

    Returns (src, dst, spread): the position of each edge's source box
    inside the chunk, the code of its destination cell, and each box's
    image spread (None under a Lipschitz pad).  Every pair occurs once.

    The samples' images are gathered once into axis-major planes
    (dim, S, B), and every step after works one axis at a time on
    contiguous (S, B) planes.  With the samples before the boxes, a
    reduction over a box's samples runs as S elementwise steps over rows of
    B boxes, several times faster than S-long reductions on (B, S) planes.
    """
    system, table, depth = build.system, build.table, build.boxset.depth
    domain, dim = build.boxset.domain, build.boxset.domain.dim
    B, S = len(codes), len(table.steps)
    rows = table.sample_rows(codes)
    # one gather of whole rows, then one transposing copy: both are faster
    # than a gather from each strided column of the table
    img = np.ascontiguousarray(table.images.take(rows.ravel(), axis=0).T).reshape(dim, S, B)
    n_axis = 1 << depth
    h = domain.box_width(depth)
    lo = np.asarray(domain.lower)

    bad = ~np.isfinite(img).all(axis=(0, 1))
    if np.any(bad):
        raise NumericsError(f"non-finite map image on boxes with codes {codes[bad][:8].tolist()}")

    if system.lipschitz_hint is not None:
        # the sample grid covers the box with radius h/(2(n-1)) in the max
        # metric, so L times that radius is a sound image pad
        cover_r = domain.max_box_width(depth) / (2.0 * (build.samples_per_axis - 1))
        spread = None
        pad = np.full(B, system.lipschitz_hint * cover_r)
    else:
        # covering radius of the image sample grid, estimated per box from the
        # spread of its sampled images
        spread = _image_spread(domain, img)
        pad = spread / (2.0 * (build.samples_per_axis - 1))

    # closed cells c with lo_i <= c <= hi_i meet the ball around a sample image
    rad = build.epsilon + pad
    lo_i = np.empty((dim, S, B), dtype=np.int64)
    hi_i = np.empty_like(lo_i)
    live = np.ones((S, B), dtype=bool)  # the sample's rectangle meets the grid
    for ax, per in enumerate(domain.periodic):
        first, last = lo_i[ax], hi_i[ax]
        x = img[ax] - lo[ax]
        first[...] = np.ceil((x - rad) / h[ax] - 1.0)
        last[...] = np.floor((x + rad) / h[ax])
        if per:
            # move each range by whole periods next to the box's first one,
            # whose start is taken into [0, n); one period covers every cell
            ref = first[0] % n_axis
            shift = (first - ref + n_axis // 2) // n_axis * n_axis
            first -= shift
            last -= shift
            np.minimum(last, first + n_axis - 1, out=last)
        else:
            np.maximum(first, 0, out=first)
            np.minimum(last, n_axis - 1, out=last)
        live &= first <= last
    boxes = np.flatnonzero(live.any(axis=0))
    if len(boxes) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), spread

    # each box's window is the bounding range of its live rectangles; in it
    # a rectangle spans [a, b), and one that misses the grid spans nothing
    unset = 4 * n_axis  # beyond every clipped or moved range
    win_lo = np.where(live, lo_i, unset).min(axis=1)  # (dim, B)
    width = np.where(live, hi_i, -unset).max(axis=1) - win_lo + 1
    a, b = lo_i, hi_i  # in place: the closed ranges are not used again
    a -= win_lo[:, None]
    b += 1 - win_lo[:, None]
    a *= live
    b *= live

    # boxes share a grid with the boxes of the same power-of-two window size
    # per axis, so a few fat-pad boxes do not widen the grid of the others.
    # Ranked one axis at a time, axis 0 first, the classes keep their row
    # order in a small int64, and a 1-D unique sorts where axis=0 is slow
    classes = np.ceil(np.log2(width[:, boxes])).astype(np.int64)  # (dim, boxes)
    base = int(classes.max()) + 1
    size_class = np.zeros(len(boxes), dtype=np.int64)
    for ax in range(dim):
        _, size_class = np.unique(size_class * base + classes[ax], return_inverse=True)
    src_parts, dst_parts = [], []
    for cls in range(size_class.max() + 1):
        sel = boxes[size_class == cls]
        hit = _window_union(a[..., sel], b[..., sel], width[:, sel].max(axis=1))
        # codes of the window cells, wrapped on periodic axes
        code = np.zeros((len(sel),) + (1,) * dim, dtype=np.int64)
        for ax, per in enumerate(domain.periodic):
            if per and hit.shape[ax + 1] > n_axis:
                hit = _fold_axis(hit, ax + 1, n_axis)
            along = [1] * (dim + 1)
            along[ax + 1] = -1
            cells = np.arange(hit.shape[ax + 1]).reshape(along)
            c = win_lo[ax, sel].reshape((-1,) + (1,) * dim) + cells
            code = (code << depth) | (c % n_axis if per else c)
        src_parts.append(np.repeat(sel, hit.reshape(len(sel), -1).sum(axis=1)))
        dst_parts.append(code[hit])
    return np.concatenate(src_parts), np.concatenate(dst_parts), spread


def _window_union(a, b, shape):
    """Union of each box's rectangles [a, b), given as axis-major planes
    (dim, S, G), as a boolean array (G, *shape) over the boxes' windows.

    A difference array gets +1 on each rectangle's corners that take the far
    end on an even number of axes and -1 on the others; its cumulative sums
    along each axis count the rectangles over a cell.  Each rectangle's
    corners sum to 0 along every axis, and still do after the sums along
    the other axes.  So the sum along an axis runs over the whole array,
    with the boxes and the axes before it flattened into one: what it
    carries over from earlier boxes and earlier cells of those axes is 0.
    That is a few long sums, where numpy's sum per box along an axis a few
    cells long is slower.
    """
    dim, S, G = a.shape
    grid = tuple(int(s) + 1 for s in shape)
    cells = int(np.prod(grid))
    strides = np.cumprod((1,) + grid[:0:-1])[::-1]
    pos, neg = [np.tile(np.arange(G, dtype=np.int64) * cells, S)], []
    for ax in range(dim):
        near = a[ax].ravel() * strides[ax]
        far = b[ax].ravel() * strides[ax]
        pos, neg = ([p + near for p in pos] + [q + far for q in neg],
                    [q + near for q in neg] + [p + far for p in pos])
    count = np.bincount(np.concatenate(pos), minlength=G * cells)
    count -= np.bincount(np.concatenate(neg), minlength=G * cells)
    for ax in range(dim):
        rows = count.reshape(G * int(np.prod(grid[: ax + 1])), -1)
        np.cumsum(rows, axis=0, out=rows)
    count = count.reshape((G,) + grid)
    return count[(slice(None),) + tuple(slice(0, int(s)) for s in shape)] > 0


def _fold_axis(hit, axis: int, n_axis: int):
    """Merge the cells of a window wider than one period that coincide
    modulo the period along the given axis."""
    k = -(-hit.shape[axis] // n_axis)
    widths = [(0, 0)] * hit.ndim
    widths[axis] = (0, k * n_axis - hit.shape[axis])
    hit = np.pad(hit, widths)
    return hit.reshape(hit.shape[:axis] + (k, n_axis) + hit.shape[axis + 1 :]).any(axis=axis)


# the build a pool worker was forked with, stored there by _keep_build
_worker_build = None


def _keep_build(build: _Build) -> None:
    """Pool initializer: keep the build for the worker's tasks."""
    global _worker_build
    _worker_build = build


def _call(task):
    """Worker entry: fn(build, a, b) on the build the worker was forked with."""
    fn, a, b = task
    return fn(_worker_build, a, b)


def _parts(build: _Build, chunks, ends, procs: int):
    """Yield each chunk's ``_edges`` in chunk order, after filling and
    turning table rows in the order ``build_graph`` states, in one process
    or in a pool of ``procs``.  Closing the generator cancels the pool's
    pending tasks and drops the build."""
    fills = itertools.pairwise([0, *ends.tolist()])
    if procs == 1:
        for (a, b), (lo, hi) in zip(fills, chunks):
            _turn(build, *_fill(build, a, b))
            yield _edges(build, lo, hi)
        return
    # imported here: the process pool module costs every command ~17 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not Python 3.14's default forkserver: a forked worker gets the
    # build as it is, closures and shared table included, unpickled
    with ProcessPoolExecutor(procs, multiprocessing.get_context("fork"),
                             _keep_build, (build,)) as pool:
        for left in pool.map(_call, [(_fill, a, b) for a, b in fills]):
            _turn(build, *left)
        yield from pool.map(_call, [(_edges, lo, hi) for lo, hi in chunks])


def build_graph(
    system,
    boxset: BoxSet,
    epsilon: float,
    samples_per_axis: int = 4,
    workers: int = 1,
    reuse: LatticeImages | None = None,
    keep_images: bool = False,
) -> TransitionGraph:
    """Build the epsilon-transition graph of a map over a box set on the
    system's own domain, with settings that pass ``check_build``.

    Each box is sampled on the grid of ``_sample_grid``: a uniform grid
    with corners, and the centre when ``samples_per_axis`` is even, given
    as integer lattice steps.  The samples are shared lattice points: the
    build finds the distinct points of the whole set once, as one
    ``LatticeImages`` table that keeps the grid, and maps each of them
    once.  An edge b -> b' is added whenever the
    max-metric ball of radius epsilon + pad around a sampled image point
    meets b'.  pad is lipschitz_hint * max_box_width / 2 when the system
    carries a hint, else the empirical covering radius of the image sample
    grid.

    Images move between rows by one rule: a point takes the image of the
    row at its index whose coordinate has its bits.  A scan passes the
    table of one stage to the next through ``reuse``: the ``lattice_images``
    of a graph of the same system and sample count at the same or a lower
    depth, where a point whose index halves exactly asks at the halved
    index.  The maps are batch-invariant, so a reused image is the one a
    fresh call would give.  ``keep_images`` stores this graph's table in
    ``lattice_images``; else the build drops it.

    A system whose ``quarter_turn`` is set, on a square centred on the
    origin with no periodic axis, has only one point of each orbit of its
    coordinate bits under R(x, y) = (-y, x) mapped: the orbit's lowest table
    row.  Each other row asks at its index turned about the lattice centre,
    and takes the image found there turned back (``_turn_sources``, a chunk
    of rows at a time): a swap and sign flips, exact in the bits.  So the
    graph has the bits of one from a full map wherever ``forward`` commutes
    with R bit for bit, which holds where numpy rounds complex products
    symmetrically (``MapSystem``); tests/test_mapzoo.py checks it for
    nested_rings on the running host.

    The build runs chunk by chunk in one order (``_parts``): a chunk's fill
    maps, in one ``forward`` call, the table rows that no chunk before it
    needed and ``reuse`` lacks; its turn writes the turned images of those
    rows, whose sources are never later rows; its edge step reads its
    samples' images.  In one process each chunk runs all three before the
    next, so the edge total, checked against ``EDGE_BUDGET`` after every
    chunk, stops the mapping.  With ``workers`` > 1 a pool of processes
    forked from the caller, no more than chunks, runs every fill, then
    every edge task, and the caller turns each fill's rows as it comes
    back, in order.  Each worker keeps the build as forked: ``system`` as
    passed, so any system builds in parallel, and the table, whose images
    live in a shared memory map.  So a task is a function and the integer
    bounds of its table rows or boxes.  The generator is closed, and the
    pool shut down, before the CSR is assembled, so the table is freed
    there unless ``keep_images``.

    A box's edges are the union of its samples' cell rectangles, clipped on
    non-periodic axes and wrapped on periodic ones (see the module
    docstring).  Chunks of boxes are disjoint in source box and each one's
    edges come out sorted, so the CSR needs no global dedupe: each chunk
    adds its destinations as int32 and its row lengths.  The index array,
    sized by the edge total and made off the heap, takes each chunk's
    destinations in one copy, and each chunk's part is dropped as soon as
    it is copied.  The array's pages become resident only as they are
    written, so the build holds the graph and about one chunk more, never
    the graph twice, and no other array of whole-graph length is made.
    Output is independent of ``workers`` and of ``reuse``.
    """
    if boxset.domain != system.domain:
        raise ConfigError("the box set lies on another domain than the system's")
    check_build(boxset.domain, boxset.depth, epsilon, samples_per_axis, workers)
    if boxset.count == 0:
        raise ConfigError("cannot build a graph over an empty box set")
    _check_box_count(boxset.count)
    depth, dim = boxset.depth, boxset.domain.dim
    turn = getattr(system, "quarter_turn", False)
    lower, upper = boxset.domain.lower, boxset.domain.upper
    if turn and not (dim == 2 and not any(boxset.domain.periodic)
                     and lower[0] == lower[1] == -upper[0] == -upper[1]):
        raise ConfigError("a system with a quarter turn needs a square domain centred on the "
                          "origin, with no periodic axis")

    n = boxset.count
    chunks = [(lo, min(lo + _CHUNK_BOXES, n)) for lo in range(0, n, _CHUNK_BOXES)]
    check_points(n * samples_per_axis**dim, "sample points")
    table, ends = _lattice_table(boxset, chunks, samples_per_axis)
    if reuse is not None and (reuse.den != table.den or reuse.depth > depth):
        raise ConfigError("lattice images come from another sample count or a deeper grid")

    # the empirical pad is reported from the spreads of up to 256 boxes
    # spaced evenly over the set
    probe = np.linspace(0, n - 1, min(n, 256)).astype(np.int64)
    dst_parts, count_parts, spreads = [], [], []
    total = 0
    build = _Build(system, boxset, epsilon, samples_per_axis, table, reuse, turn)
    parts = _parts(build, chunks, ends, min(workers, len(chunks)))
    with contextlib.closing(parts):
        for (lo, hi), (dst, degrees, spread) in zip(chunks, parts):
            if spread is not None:
                spreads.append(spread[probe[(probe >= lo) & (probe < hi)] - lo])
            total += len(dst)
            if total > EDGE_BUDGET:
                raise BudgetError(f"{total} edges exceed budget {EDGE_BUDGET}")
            dst_parts.append(dst)
            count_parts.append(degrees)
    images = table if keep_images else None
    del table, build, dst
    # each part is dropped once copied, so the pages of the index array
    # become resident as those of the parts are unmapped
    indices = _off_heap(total, np.int32)
    at = 0
    for i in range(len(dst_parts)):
        part, dst_parts[i] = dst_parts[i], None
        indices[at : at + len(part)] = part
        at += len(part)
    indptr = np.zeros(n + 1, dtype=np.int32)
    for (lo, hi), degrees in zip(chunks, count_parts):
        np.cumsum(degrees, out=indptr[lo + 1 : hi + 1])
        indptr[lo + 1 : hi + 1] += indptr[lo]

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
        pad_used = float(_median(np.concatenate(spreads)) / (2.0 * (samples_per_axis - 1)))
    return TransitionGraph(boxset, epsilon, indptr, indices, pad_used, images)


def _median(a: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array with no NaN, with its bits: the
    middle element, or (a + b) / 2 of the middle two.  Its mean sums from
    0.0, so a middle of -0.0 comes out as 0.0 here too.  ``np.median``
    imports ``numpy.ma`` on its first call, about 15 ms a process."""
    k = len(a) // 2
    if len(a) % 2:
        return np.partition(a, k)[k] + 0.0
    part = np.partition(a, [k - 1, k])
    return (part[k - 1] + part[k] + 0.0) / 2


def _image_spread(domain: Domain, img: np.ndarray) -> np.ndarray:
    """Largest per-axis extent of each box's sampled images, given as
    axis-major planes (dim, S, B): on each axis the samples' offsets from
    the box's first sample, the short way round on a periodic one, as
    ``Domain.signed_diff`` takes them, span max - min."""
    w = domain.widths
    spread = np.zeros(img.shape[2])
    for ax, per in enumerate(domain.periodic):
        rel = img[ax] - img[ax, 0]
        if per:
            rel = (rel + w[ax] / 2.0) % w[ax] - w[ax] / 2.0
        np.maximum(spread, rel.max(axis=0) - rel.min(axis=0), out=spread)
    return spread


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
