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
"""

from __future__ import annotations

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
        """Boolean mask of points inside the closed rectangle (after wrap)."""
        pts = self.wrap(np.asarray(pts, dtype=float))
        lo = np.asarray(self.lower) - atol
        hi = np.asarray(self.upper) + atol
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

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
        sample_scheme: dict,
        meta: dict | None = None,
    ):
        self.boxset = boxset
        self.epsilon = float(epsilon)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.pad = float(pad)
        self.sample_scheme = dict(sample_scheme)
        self.meta = dict(meta or {})

    @property
    def n_boxes(self) -> int:
        return self.boxset.count

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def successors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def reverse(self) -> "TransitionGraph":
        """Edge-reversed graph (realizes inverse-map constructions)."""
        indptr, indices = _transpose_csr(self.indptr, self.indices)
        return TransitionGraph(
            self.boxset,
            self.epsilon,
            indptr,
            indices,
            self.pad,
            self.sample_scheme,
            {**self.meta, "reversed": not self.meta.get("reversed", False)},
        )

    def to_csr_matrix(self):
        from scipy.sparse import csr_matrix

        n = self.n_boxes
        data = np.ones(len(self.indices), dtype=np.int8)
        return csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) array of node indices."""
        src = np.repeat(np.arange(self.n_boxes, dtype=np.int64), np.diff(self.indptr))
        return np.stack([src, self.indices], axis=1)


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


def _eval_chunk(system, chunk_coords: np.ndarray, depth: int, offsets: np.ndarray):
    """Map all samples of a chunk of boxes; returns images (B, S, dim)."""
    domain = system.domain
    h = domain.box_width(depth)
    corners = np.asarray(domain.lower) + chunk_coords * h
    pts = corners[:, None, :] + offsets[None, :, :] * h
    B, S, dim = pts.shape
    flat = domain.wrap(pts.reshape(-1, dim))
    img = np.asarray(system.forward(flat), dtype=float).reshape(B, S, dim)
    return img


def _chunk_edges(
    system,
    boxset: BoxSet,
    chunk_lo: int,
    chunk_hi: int,
    epsilon: float,
    offsets: np.ndarray,
    samples_per_axis: int,
):
    """Deterministic edge keys (src_idx << _KEY_BITS | dst_idx) for one box chunk."""
    domain = system.domain
    depth = boxset.depth
    dim = domain.dim
    n_axis = 1 << depth
    h = domain.box_width(depth)
    lo = np.asarray(domain.lower)
    coords = unpack_codes(boxset.codes[chunk_lo:chunk_hi], depth, dim)
    img = _eval_chunk(system, coords, depth, offsets)
    B, S, _ = img.shape

    bad = ~np.isfinite(img).all(axis=(1, 2))
    if np.any(bad):
        which = boxset.codes[chunk_lo:chunk_hi][bad][:8]
        raise NumericsError(f"non-finite map image on boxes with codes {which.tolist()}")

    if system.lipschitz_hint is not None:
        # the sample grid covers the box with radius h/(2(n-1)) in the max
        # metric, so L times that radius is a sound image pad
        cover_r = domain.max_box_width(depth) / (2.0 * (samples_per_axis - 1))
        pad = np.full(B, system.lipschitz_hint * cover_r)
    else:
        # covering radius of the image sample grid, estimated per box from the
        # spread of its sampled images
        pad = _image_spread(domain, img) / (2.0 * (samples_per_axis - 1))

    radius = epsilon + pad  # (B,)
    rad = np.repeat(radius, S)
    flat = img.reshape(B * S, dim)

    lo_f = (flat - lo - rad[:, None]) / h
    hi_f = (flat - lo + rad[:, None]) / h
    lo_i = np.ceil(lo_f - 1.0).astype(np.int64)
    hi_i = np.floor(hi_f).astype(np.int64)

    spans = (hi_i - lo_i + 1).max(axis=0)
    spans = np.minimum(spans, n_axis)
    offs_nd = np.stack(
        np.meshgrid(*[np.arange(int(s)) for s in spans], indexing="ij"), axis=-1
    ).reshape(-1, dim)

    cand = lo_i[:, None, :] + offs_nd[None, :, :]  # (P, K, dim)
    ok = np.all(cand <= hi_i[:, None, :], axis=-1)
    for ax, per in enumerate(domain.periodic):
        col = cand[..., ax]
        if per:
            cand[..., ax] = np.mod(col, n_axis)
        else:
            ok &= (col >= 0) & (col < n_axis)

    P, K, _ = cand.shape
    code = np.zeros((P, K), dtype=np.int64)
    for ax in range(dim):
        code = (code << depth) | cand[..., ax]
    src = np.repeat(np.arange(chunk_lo, chunk_hi, dtype=np.int64), S)
    src = np.repeat(src[:, None], K, axis=1)

    code = code[ok]
    src = src[ok]
    dst = boxset.indices_of(code)
    good = dst >= 0
    keys = (src[good] << _KEY_BITS) | dst[good]
    return np.unique(keys)


def _chunk_edges_by_name(args):
    """Worker entry: rebuild the system from its registry name, then chunk."""
    (name, params, domain_dict, depth, codes, chunk_lo, chunk_hi, epsilon,
     offsets, samples_per_axis) = args
    from . import mapzoo

    system = mapzoo.make_system(name, params)
    boxset = BoxSet(Domain.from_dict(domain_dict), depth, codes)
    return _chunk_edges(system, boxset, chunk_lo, chunk_hi, epsilon, offsets, samples_per_axis)


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
    the empirical covering radius of the image sample grid.  Output is
    independent of ``workers``.
    """
    if epsilon < 0 or not math.isfinite(epsilon):
        raise ConfigError(f"epsilon must be >= 0, got {epsilon!r}")
    if boxset.count == 0:
        raise ConfigError("cannot build a graph over an empty box set")
    if system.dim != boxset.domain.dim:
        raise ConfigError("system and box set dimensions differ")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    _check_box_count(boxset.count)

    dim = boxset.domain.dim
    offsets = _sample_offsets(dim, samples_per_axis)
    n = boxset.count
    chunks = [(lo, min(lo + _CHUNK_BOXES, n)) for lo in range(0, n, _CHUNK_BOXES)]

    key_parts = []
    if workers == 1:
        for lo, hi in chunks:
            key_parts.append(
                _chunk_edges(system, boxset, lo, hi, epsilon, offsets, samples_per_axis)
            )
    else:
        if getattr(system, "registry_name", None) is None:
            raise ConfigError("parallel build requires a registry-buildable system")
        args = [
            (
                system.registry_name,
                system.params,
                boxset.domain.to_dict(),
                boxset.depth,
                boxset.codes,
                lo,
                hi,
                epsilon,
                offsets,
                samples_per_axis,
            )
            for lo, hi in chunks
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_chunk_edges_by_name, args, chunksize=1):
                key_parts.append(part)

    total = sum(len(p) for p in key_parts)
    if total > edge_budget:
        raise BudgetError(f"{total} candidate edges exceed budget {edge_budget}")
    keys = np.unique(np.concatenate(key_parts)) if key_parts else np.empty(0, np.int64)
    if len(keys) > edge_budget:
        raise BudgetError(f"{len(keys)} edges exceed budget {edge_budget}")

    src = keys >> _KEY_BITS
    dst = keys & (_MAX_BOXES - 1)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    # pad recorded for diagnostics: the max over boxes actually used (the
    # Lipschitz value rounds as L*h/k here and as L*(h/k) in _chunk_edges;
    # the two can differ in the last bit, and both are kept as they were)
    if system.lipschitz_hint is not None:
        hmax = boxset.domain.max_box_width(boxset.depth)
        pad_used = system.lipschitz_hint * hmax / (2.0 * (samples_per_axis - 1))
    else:
        pad_used = _empirical_pad_bound(system, boxset, samples_per_axis)

    return TransitionGraph(
        boxset,
        epsilon,
        indptr,
        dst,
        pad_used,
        {"samples_per_axis": samples_per_axis, "corners": True, "center": True},
        meta={"system": getattr(system, "name", "?"), "workers_independent": True},
    )


def _empirical_pad_bound(system, boxset: BoxSet, samples_per_axis: int) -> float:
    """Typical per-box pad, for reporting and tolerance scaling.

    The median over a slice of boxes is reported rather than the max: a few
    boxes on a boundary clamp can have much fatter image spreads, and those
    get their fat pads in the edge construction itself, but they should not
    inflate resolution-scale tolerances derived from the graph.
    """
    take = min(boxset.count, 256)
    idx = np.linspace(0, boxset.count - 1, take).astype(np.int64)
    coords = unpack_codes(boxset.codes[idx], boxset.depth, boxset.domain.dim)
    offsets = _sample_offsets(boxset.domain.dim, samples_per_axis)
    img = _eval_chunk(system, coords, boxset.depth, offsets)
    spread = _image_spread(boxset.domain, img)
    spread = spread[np.isfinite(spread)]
    if len(spread) == 0:
        return 0.0
    return float(np.median(spread) / (2.0 * (samples_per_axis - 1)))


def _image_spread(domain: Domain, img: np.ndarray) -> np.ndarray:
    """Largest per-axis extent of each box's sampled images (B, S, dim)."""
    rel = domain.signed_diff(img, img[:, :1, :])
    return (rel.max(axis=1) - rel.min(axis=1)).max(axis=-1)


def image_of(graph: TransitionGraph, members) -> BoxSet:
    """Union of successors of the given member boxes (BoxSet or indices)."""
    idx = _member_indices(graph, members)
    if len(idx) == 0:
        return BoxSet(graph.boxset.domain, graph.boxset.depth, np.empty(0, np.int64))
    parts = [graph.successors(i) for i in idx]
    succ = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    return BoxSet(graph.boxset.domain, graph.boxset.depth, graph.boxset.codes[succ])


def _member_indices(graph: TransitionGraph, members) -> np.ndarray:
    if isinstance(members, BoxSet):
        members._check_compatible(graph.boxset)
        idx = graph.boxset.indices_of(members.codes)
        return idx[idx >= 0]
    idx = np.asarray(members, dtype=np.int64).reshape(-1)
    if np.any(idx < 0) or np.any(idx >= graph.n_boxes):
        raise ConfigError("node index out of range")
    return idx


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _header_bytes(d: dict) -> bytes:
    return (json.dumps(d, sort_keys=True) + "\n").encode("ascii")


def save_boxset(path, bs: BoxSet, fmt: str = "binary") -> None:
    """Write a box set: a JSON header line plus little-endian codes, or a
    pure-JSON document when fmt="json"."""
    header = {"kind": "boxset", "domain": bs.domain.to_dict(), "depth": bs.depth, "count": bs.count}
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({**header, "codes": bs.codes.tolist()}, fh, sort_keys=True)
        return
    if fmt != "binary":
        raise ConfigError(f"unknown boxset format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(_header_bytes({**header, "encoding": "int64-le"}))
        fh.write(bs.codes.astype("<i8").tobytes())


def load_boxset(path) -> BoxSet:
    with open(path, "rb") as fh:
        first = fh.readline()
        header = json.loads(first)
        if header.get("kind") != "boxset":
            raise ConfigError(f"{path} is not a boxset file")
        domain = Domain.from_dict(header["domain"])
        depth = int(header["depth"])
        if "encoding" in header:
            raw = fh.read(8 * header["count"])
            codes = np.frombuffer(raw, dtype="<i8").astype(np.int64)
        else:
            codes = np.asarray(header["codes"], dtype=np.int64)
        return BoxSet(domain, depth, codes)


def save_graph(path, g: TransitionGraph) -> None:
    header = {
        "kind": "transition_graph",
        "domain": g.boxset.domain.to_dict(),
        "depth": g.boxset.depth,
        "count": g.boxset.count,
        "n_edges": g.n_edges,
        "epsilon": g.epsilon,
        "pad": g.pad,
        "sample_scheme": g.sample_scheme,
        "meta": g.meta,
        "encoding": "int64-le",
    }
    with open(path, "wb") as fh:
        fh.write(_header_bytes(header))
        fh.write(g.boxset.codes.astype("<i8").tobytes())
        fh.write(g.indptr.astype("<i8").tobytes())
        fh.write(g.indices.astype("<i8").tobytes())


def load_graph(path) -> TransitionGraph:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "transition_graph":
            raise ConfigError(f"{path} is not a transition-graph file")
        domain = Domain.from_dict(header["domain"])
        n = int(header["count"])
        e = int(header["n_edges"])
        codes = np.frombuffer(fh.read(8 * n), dtype="<i8").astype(np.int64)
        indptr = np.frombuffer(fh.read(8 * (n + 1)), dtype="<i8").astype(np.int64)
        indices = np.frombuffer(fh.read(8 * e), dtype="<i8").astype(np.int64)
        bs = BoxSet(domain, int(header["depth"]), codes)
        return TransitionGraph(
            bs,
            float(header["epsilon"]),
            indptr,
            indices,
            float(header["pad"]),
            header["sample_scheme"],
            header.get("meta"),
        )


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
