"""Chain-recurrence analysis of transition graphs.

The dictionary between graph structure and dynamics: a strongly connected
component (SCC) that is recurrent (more than one box, or a self-loop) is a
piece of the chain-recurrent set; a terminal SCC of the condensation is an
attractor for epsilon-orbits, an initial SCC a repeller; an attractor with
no incoming condensation edge attracts nothing from outside and is a
candidate reversible core.  ``core_scan`` tracks such a candidate through a
refinement schedule and collects the dissipative attractors/repellers that
split off inside the previous stage's absorbing neighbourhoods.

Reachability is read off the condensation: a box path from a box of SCC s
to a box v exists exactly when a condensation path runs from s to the SCC
of v, so every reach closure is a union of SCCs.  In particular the
prolongations that ``classify`` reports (the ``ruelle_*`` sets) equal the
full attractor and full repeller by construction.  Repellers are computed as
the attractors of the reversed condensation: a repeller is an attractor of
the inverse map, whose symbolic image is the reversed graph (Osipenko,
Dynamical Systems, Graphs, and Algorithms, LNM 1889, 2007).  The reversal
keeps the SCC ids and leaves the box graph as it is.  ``reach_set`` is a
BFS on the box graph itself that no command calls: it is the oracle the
tests hold the condensation closures to, and a hook the benchmark's tracer
wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .boxdyn import (
    BoxSet,
    TransitionGraph,
    _check_depth,
    _transpose_csr,
    build_graph,
    initial_cover,
    point_codes,
)
from .errors import ConfigError

# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass
class ChainDecomposition:
    """SCC partition of a transition graph plus its condensation DAG.

    SCC ids are canonical: components are numbered by their smallest node
    index, so the labelling is independent of library internals.
    """

    graph: TransitionGraph
    scc_id: np.ndarray
    n_scc: int
    scc_sizes: np.ndarray
    recurrent_scc: np.ndarray
    cond_indptr: np.ndarray
    cond_indices: np.ndarray
    terminal: np.ndarray
    initial: np.ndarray

    def scc_boxes(self, s) -> BoxSet:
        s = np.atleast_1d(np.asarray(s, dtype=np.int64))
        mask = np.isin(self.scc_id, s)
        return BoxSet(
            self.graph.boxset.domain,
            self.graph.boxset.depth,
            self.graph.boxset.codes[mask],
        )

    def recurrent_nodes(self) -> np.ndarray:
        return self.recurrent_scc[self.scc_id]

    def cond_successors(self, s: int) -> np.ndarray:
        return self.cond_indices[self.cond_indptr[s] : self.cond_indptr[s + 1]]


def cover_graph(
    system, depth: int, epsilon: float | None = None, samples_per_axis: int = 4, workers: int = 1
) -> TransitionGraph:
    """Transition graph of a system over the full cover of its domain at
    ``depth``; ``epsilon`` defaults to one box diameter."""
    cover = initial_cover(system.domain, depth)
    epsilon = system.domain.max_box_width(depth) if epsilon is None else float(epsilon)
    return build_graph(system, cover, epsilon, samples_per_axis=samples_per_axis, workers=workers)


def decompose(graph: TransitionGraph) -> ChainDecomposition:
    """SCCs, condensation DAG and terminal/initial flags of a graph."""
    n = graph.n_boxes
    mat = csr_matrix((np.ones(graph.n_edges, np.int8), graph.indices, graph.indptr), shape=(n, n))
    _, labels = connected_components(mat, directed=True, connection="strong")

    # canonical ids: order components by first node occurrence
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    scc = rank[labels]
    m = len(first)
    sizes = np.bincount(scc, minlength=m)

    # SCC ids at both ends of every edge
    s_u = np.repeat(scc, np.diff(graph.indptr))
    s_v = scc[graph.indices]
    cross = s_u != s_v
    cu = s_u[cross]
    # an SCC is recurrent when it holds an edge: a larger one has a cycle, and
    # the only edge inside a single box is its self-loop
    recurrent = np.bincount(s_u, minlength=m) > np.bincount(cu, minlength=m)

    keys = np.unique(cu * np.int64(m) + s_v[cross])
    cv = keys % m  # keys are sorted, so rows are sorted too
    cond_outdeg = np.bincount(keys // m, minlength=m)
    cond_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(cond_outdeg, out=cond_indptr[1:])
    indeg = np.bincount(cv, minlength=m)
    return ChainDecomposition(
        graph=graph,
        scc_id=scc,
        n_scc=m,
        scc_sizes=sizes,
        recurrent_scc=recurrent,
        cond_indptr=cond_indptr,
        cond_indices=cv,
        terminal=cond_outdeg == 0,
        initial=indeg == 0,
    )


def chain_recurrent(dec: ChainDecomposition) -> BoxSet:
    """Boxes lying in recurrent SCCs: the combinatorial chain-recurrent set."""
    mask = dec.recurrent_nodes()
    bs = dec.graph.boxset
    return BoxSet(bs.domain, bs.depth, bs.codes[mask])


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def reach_set(graph: TransitionGraph, members, forward: bool = True) -> BoxSet:
    """Closure of the boxes attainable from ``members`` (a ``BoxSet`` or box
    indices) by epsilon-orbits, found by one BFS on the box graph.

    No command calls this: ``classify`` and ``core_scan`` read reachability
    off the condensation.  It is kept as the box-graph oracle the tests check
    those condensation closures against, and because perfbench/traced.py
    wraps ``chain.reach_set`` by name.
    """
    bs = graph.boxset
    if isinstance(members, BoxSet):
        members._check_compatible(bs)
        idx = bs.indices_of(members.codes)
        idx = idx[idx >= 0]
    else:
        idx = np.asarray(members, dtype=np.int64).reshape(-1)
        if np.any(idx < 0) or np.any(idx >= graph.n_boxes):
            raise ConfigError("node index out of range")
    indptr, indices = graph.indptr, graph.indices
    if not forward:
        indptr, indices = _transpose_csr(indptr, indices)
    # a virtual super-source n wired to every member lets a single C-level
    # BFS cover the whole member set at once
    n = graph.n_boxes
    src = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)),
                          np.full(len(idx), n, dtype=np.int64)])
    dst = np.concatenate([indices, idx])
    mat = csr_matrix((np.ones(len(src), np.int8), (src, dst)), shape=(n + 1, n + 1))
    order = breadth_first_order(mat, n, directed=True, return_predecessors=False)
    mask = np.zeros(n + 1, dtype=bool)
    mask[order] = True
    return BoxSet(bs.domain, bs.depth, bs.codes[mask[:n]])


# ---------------------------------------------------------------------------
# attractors and repellers
# ---------------------------------------------------------------------------


@dataclass
class RecurrentSCC:
    """A recurrent terminal (attractor) or initial (repeller) component."""

    scc: int
    boxes: BoxSet
    size: int
    dissipative: bool
    witness: BoxSet | None = None


def _topo_order(dec: ChainDecomposition) -> np.ndarray:
    m = dec.n_scc
    indeg = np.zeros(m, dtype=np.int64)
    np.add.at(indeg, dec.cond_indices, 1)
    order = np.empty(m, dtype=np.int64)
    stack = list(np.nonzero(indeg == 0)[0][::-1])
    k = 0
    while stack:
        s = stack.pop()
        order[k] = s
        k += 1
        for t in dec.cond_successors(s):
            indeg[t] -= 1
            if indeg[t] == 0:
                stack.append(t)
    if k != m:
        raise ConfigError("condensation graph is not acyclic")
    return order


def _reversed(dec: ChainDecomposition) -> ChainDecomposition:
    """The same SCCs, with the same ids, and every condensation edge flipped:
    its attractors are the repellers of ``dec``.  The box graph is kept."""
    indptr, indices = _transpose_csr(dec.cond_indptr, dec.cond_indices)
    return replace(dec, cond_indptr=indptr, cond_indices=indices,
                   terminal=dec.initial, initial=dec.terminal)


def _unique_terminal_dp(dec: ChainDecomposition):
    """For each SCC, the unique sink it must end in, or -1 when mixed."""
    val = np.full(dec.n_scc, -1, dtype=np.int64)
    for s in _topo_order(dec)[::-1]:
        if dec.terminal[s]:
            val[s] = s
            continue
        vals = np.unique(val[dec.cond_successors(s)])
        val[s] = vals[0] if len(vals) == 1 and vals[0] >= 0 else -1
    return val


def attractors(dec: ChainDecomposition, with_basins: bool = False) -> list[RecurrentSCC]:
    """Recurrent terminal SCCs; with ``with_basins`` each carries the boxes
    whose every epsilon-future ends in it (a basin-of-uniqueness witness)."""
    ids = np.nonzero(dec.terminal & dec.recurrent_scc)[0]
    val = _unique_terminal_dp(dec) if with_basins else None
    return [
        RecurrentSCC(
            scc=int(s),
            boxes=dec.scc_boxes(int(s)),
            size=int(dec.scc_sizes[s]),
            dissipative=not bool(dec.initial[s]),
            witness=None if val is None else dec.scc_boxes(np.nonzero(val == s)[0]),
        )
        for s in ids
    ]


def repellers(dec: ChainDecomposition, with_basins: bool = False) -> list[RecurrentSCC]:
    """Recurrent initial SCCs: attractors of the reversed graph."""
    return attractors(_reversed(dec), with_basins)


def full_attractor(dec: ChainDecomposition) -> BoxSet:
    """Union of all attractor boxes."""
    ids = np.nonzero(dec.terminal & dec.recurrent_scc)[0]
    return dec.scc_boxes(ids)


def full_repeller(dec: ChainDecomposition) -> BoxSet:
    return full_attractor(_reversed(dec))


@dataclass
class ClassifyReport:
    """Trichotomy verdict for one graph, with the sets that witness it."""

    classification: str
    n_scc: int
    n_boxes: int
    epsilon: float
    depth: int
    attractors: list[RecurrentSCC]
    repellers: list[RecurrentSCC]
    full_attractor: BoxSet
    full_repeller: BoxSet
    ruelle_attractor: BoxSet
    ruelle_repeller: BoxSet
    overlap_jaccard: float


def classify(graph: TransitionGraph, dec: ChainDecomposition | None = None) -> ClassifyReport:
    """Conservative / Dissipative / Mixed verdict for a transition graph.

    Conservative: a single recurrent SCC covering every box.  Dissipative:
    the prolongations of the full attractor and full repeller are disjoint.
    Mixed: everything else (they intersect without global chain transitivity).

    The prolongations (the ``ruelle_*`` sets) equal the full sets: a
    terminal SCC has no outgoing condensation edge, so the forward closure
    of the full attractor is itself, and an initial SCC has no incoming one,
    so the backward closure of the full repeller is itself.
    """
    dec = dec or decompose(graph)
    att = attractors(dec)
    rep = repellers(dec)
    f_att = full_attractor(dec)
    f_rep = full_repeller(dec)
    inter = f_att.intersection(f_rep)
    union = f_att.union(f_rep)
    jac = inter.count / union.count if union.count else 0.0
    if dec.n_scc == 1 and bool(dec.recurrent_scc[0]):
        verdict = "Conservative"
    elif inter.count == 0:
        verdict = "Dissipative"
    else:
        verdict = "Mixed"
    return ClassifyReport(
        classification=verdict,
        n_scc=dec.n_scc,
        n_boxes=graph.n_boxes,
        epsilon=graph.epsilon,
        depth=graph.boxset.depth,
        attractors=att,
        repellers=rep,
        full_attractor=f_att,
        full_repeller=f_rep,
        ruelle_attractor=f_att,
        ruelle_repeller=f_rep,
        overlap_jaccard=jac,
    )


# ---------------------------------------------------------------------------
# core scan
# ---------------------------------------------------------------------------


@dataclass
class StageResult:
    """Verdict and extracted sets for one (depth, epsilon) stage."""

    depth: int
    epsilon: float
    pad: float
    n_boxes: int
    n_edges: int
    target_code: int
    target_scc_size: int
    recurrent: bool
    terminal: bool
    initial: bool
    gap: float
    gap_tol: float
    ok: bool
    reason: str
    core_boxes: BoxSet
    fwd_absorbing: BoxSet
    bwd_absorbing: BoxSet
    nested_fwd: bool
    nested_bwd: bool
    new_attractors: list[BoxSet] = field(default_factory=list)
    new_repellers: list[BoxSet] = field(default_factory=list)


@dataclass
class CoreCertificate:
    """Outcome of a refinement scan around a single target point."""

    system: str
    params: dict
    target: tuple
    schedule: list[tuple[int, float]]
    gap_factor: float
    stages: list[StageResult]
    core_persistent: bool
    attractor_witnesses: list[tuple[int, BoxSet]]
    repeller_witnesses: list[tuple[int, BoxSet]]

    @property
    def n_attractor_witnesses(self) -> int:
        return len(self.attractor_witnesses)

    @property
    def n_repeller_witnesses(self) -> int:
        return len(self.repeller_witnesses)


def _min_gap(domain, a: BoxSet, b: BoxSet) -> float:
    """Smallest max-metric distance between box centers of two sets."""
    if a.count == 0 or b.count == 0:
        return math.inf
    if a.intersection(b).count:
        return 0.0
    ca = a.centers()
    cb = b.centers()
    best = math.inf
    chunk = max(1, int(2**22 / max(len(cb), 1)))
    for lo in range(0, len(ca), chunk):
        d = domain.distance(ca[lo : lo + chunk, None, :], cb[None, :, :])
        best = min(best, float(d.min()))
    return best


def _disjoint_at_common_depth(a_depth: int, a: BoxSet, b_depth: int, b: BoxSet) -> bool:
    if a_depth < b_depth:
        a = a.refine_to(b_depth)
    elif b_depth < a_depth:
        b = b.refine_to(a_depth)
    return a.intersection(b).count == 0


def _contained_with_slack(inner: BoxSet, outer_depth: int, outer: BoxSet) -> bool:
    """inner (deeper grid) inside outer refined to inner's depth, plus one
    box ring of slack for quantization."""
    grown = outer.refine_to(inner.depth).dilate(1) if outer_depth < inner.depth else outer.dilate(1)
    return inner.issubset(grown)


def _reached_sccs(dec: ChainDecomposition, s: int) -> np.ndarray:
    """Ids of the SCCs that SCC ``s`` reaches in the condensation, ``s``
    included; their boxes are the reach closure of any box of ``s``."""
    cond = csr_matrix(
        (np.ones(len(dec.cond_indices), np.int8), dec.cond_indices, dec.cond_indptr),
        shape=(dec.n_scc, dec.n_scc),
    )
    return breadth_first_order(cond, s, directed=True, return_predecessors=False)


def _new_witnesses(
    dec: ChainDecomposition, s: int, depth: int, prev_depth: int, prev_abs: BoxSet, known: list
) -> list[BoxSet]:
    """Dissipative attractors other than SCC ``s`` that lie in the previous
    stage's absorbing set and are disjoint from every ``known`` witness; they
    are appended to ``known`` and returned."""
    new = []
    for cand in attractors(dec):
        if cand.scc == s or not cand.dissipative:
            continue
        if not _contained_with_slack(cand.boxes, prev_depth, prev_abs):
            continue
        if all(_disjoint_at_common_depth(depth, cand.boxes, d0, w0) for d0, w0 in known):
            known.append((depth, cand.boxes))
            new.append(cand.boxes)
    return new


def core_scan(
    system,
    target,
    schedule,
    samples_per_axis: int = 4,
    gap_factor: float = 4.0,
    workers: int = 1,
) -> CoreCertificate:
    """Track a candidate reversible core through a refinement schedule.

    A stage passes when the target's SCC is recurrent and either is both
    terminal and initial (attracts and repels nothing from outside), or the
    attractors reachable from it and the repellers reaching it have not
    separated: their minimal distance stays below
    ``gap_factor * (epsilon + pad + box width)``, the resolution at which
    one-way transport between them is distinguishable from noise.  The core
    is persistent when every stage passes.

    Each stage also extracts forward/backward absorbing box sets around the
    target (its epsilon-reach closures) and records the dissipative
    attractor/repeller SCCs that appear inside the *previous* stage's
    absorbing sets, deduplicated across stages by geometric disjointness.
    """
    target = np.asarray(target, dtype=float).reshape(1, -1)
    if target.shape[1] != system.dim:
        raise ConfigError("target dimension does not match the system")
    schedule = [(int(d), float(e)) for d, e in schedule]
    if not schedule:
        raise ConfigError("schedule must contain at least one stage")

    stages: list[StageResult] = []
    att_wit: list[tuple[int, BoxSet]] = []
    rep_wit: list[tuple[int, BoxSet]] = []

    for depth, eps in schedule:
        g = cover_graph(system, depth, eps, samples_per_axis, workers)
        dec = decompose(g)
        rev = _reversed(dec)
        t_code = int(point_codes(system.domain, depth, target)[0])
        t_idx = int(g.boxset.indices_of(np.array([t_code]))[0])
        if t_idx < 0:
            raise ConfigError("target box is outside the covering")
        s = int(dec.scc_id[t_idx])
        recurrent = bool(dec.recurrent_scc[s])
        terminal = bool(dec.terminal[s])
        init = bool(dec.initial[s])

        # SCCs the target reaches, and SCCs that reach it
        fwd, bwd = _reached_sccs(dec, s), _reached_sccs(rev, s)
        gap_tol = gap_factor * (eps + g.pad + system.domain.max_box_width(depth))
        if terminal and init:
            gap = 0.0
        else:
            # attractors the target can reach, repellers that can reach it
            is_att = dec.terminal & dec.recurrent_scc
            is_rep = dec.initial & dec.recurrent_scc
            gap = _min_gap(system.domain, dec.scc_boxes(fwd[is_att[fwd]]),
                           dec.scc_boxes(bwd[is_rep[bwd]]))

        if not recurrent:
            ok, reason = False, "target box is not chain-recurrent"
        elif terminal and init:
            ok, reason = True, "terminal and initial"
        elif gap <= gap_tol:
            ok, reason = True, "attractor and repeller sides have not separated"
        else:
            ok = False
            reason = f"attractor/repeller separation {gap:.3g} exceeds {gap_tol:.3g}"

        fwd_abs = dec.scc_boxes(fwd)
        bwd_abs = dec.scc_boxes(bwd)
        prev = stages[-1] if stages else None
        nested_fwd = prev is None or _contained_with_slack(fwd_abs, prev.depth, prev.fwd_absorbing)
        nested_bwd = prev is None or _contained_with_slack(bwd_abs, prev.depth, prev.bwd_absorbing)
        new_att: list[BoxSet] = []
        new_rep: list[BoxSet] = []
        if prev is not None:
            new_att = _new_witnesses(dec, s, depth, prev.depth, prev.fwd_absorbing, att_wit)
            new_rep = _new_witnesses(rev, s, depth, prev.depth, prev.bwd_absorbing, rep_wit)

        stages.append(
            StageResult(
                depth=depth,
                epsilon=eps,
                pad=g.pad,
                n_boxes=g.n_boxes,
                n_edges=g.n_edges,
                target_code=t_code,
                target_scc_size=int(dec.scc_sizes[s]),
                recurrent=recurrent,
                terminal=terminal,
                initial=init,
                gap=gap,
                gap_tol=gap_tol,
                ok=ok,
                reason=reason,
                core_boxes=dec.scc_boxes(s),
                fwd_absorbing=fwd_abs,
                bwd_absorbing=bwd_abs,
                nested_fwd=nested_fwd,
                nested_bwd=nested_bwd,
                new_attractors=new_att,
                new_repellers=new_rep,
            )
        )

    return CoreCertificate(
        system=getattr(system, "name", "?"),
        params=dict(getattr(system, "params", {})),
        target=tuple(float(x) for x in target[0]),
        schedule=schedule,
        gap_factor=gap_factor,
        stages=stages,
        core_persistent=all(st.ok for st in stages),
        attractor_witnesses=att_wit,
        repeller_witnesses=rep_wit,
    )


# ---------------------------------------------------------------------------
# orbit-based verifiers
# ---------------------------------------------------------------------------


@dataclass
class NoisyOrbitReport:
    """Visit statistics of noisy orbits on the depth grid."""

    codes: np.ndarray
    counts: np.ndarray
    n_exits: int
    n_trials: int
    n_steps: int
    burn_in: int
    boxset: BoxSet


def noisy_attractor(
    system,
    x0,
    noise: float,
    n_steps: int,
    n_trials: int,
    depth: int,
    seed: int = 0,
    burn_in: float = 0.1,
) -> NoisyOrbitReport:
    """Visited-box histogram of orbits with uniform bounded noise.

    The trials run as one batch: each step maps all orbits still in the
    domain with a single ``forward`` call.  Each trial still draws its own
    kicks from a stream seeded (seed, trial), and every operation acts on
    each point alone, so the histogram is reproducible and does not depend
    on the batching.  Orbits leaving the domain on a non-periodic axis are
    counted as exits and stop contributing; they are not mapped again.
    """
    for name, n in (("n_steps", n_steps), ("n_trials", n_trials)):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigError(f"{name} must be a non-negative integer, got {n!r}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ConfigError(f"noise amplitude must be finite and >= 0, got {noise!r}")
    if not (0 <= burn_in < 1):
        raise ConfigError("burn_in must lie in [0, 1)")
    domain = system.domain
    _check_depth(domain, depth)
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    skip = int(burn_in * n_steps)
    kicks = np.empty((n_steps, n_trials, system.dim))
    for trial in range(n_trials):
        rng = np.random.default_rng((seed, trial))
        kicks[:, trial] = rng.uniform(-noise, noise, size=(n_steps, system.dim))

    states = np.empty_like(kicks)
    exit_step = np.full(n_trials, n_steps)
    live = np.arange(n_trials)
    x = np.repeat(x0, n_trials, axis=0)
    for k in range(n_steps):
        if live.size == 0:
            break
        x = domain.wrap(system.forward(x) + kicks[k, live])
        inside = domain.contains(x, atol=0.0)
        if not inside.all():
            exit_step[live[~inside]] = k
            live = live[inside]
            x = x[inside]
        states[k, live] = x
    # states at and after a trial's exit step are never written; kept skips them
    steps = np.arange(n_steps)[:, None]
    kept = (steps >= skip) & (steps < exit_step)
    codes, counts = np.unique(point_codes(domain, depth, states[kept]), return_counts=True)
    return NoisyOrbitReport(
        codes=codes,
        counts=counts,
        n_exits=int(np.count_nonzero(exit_step < n_steps)),
        n_trials=n_trials,
        n_steps=n_steps,
        burn_in=skip,
        boxset=BoxSet(domain, depth, codes),
    )


@dataclass
class TrapReport:
    """Empirical absorbing-domain certificate from direct orbit iteration."""

    direction: str
    center: tuple
    seed_radius: float
    bound_radius: float
    max_radius: float
    bounded: bool
    n_orbits: int
    n_steps: int
    boxset: BoxSet

    @property
    def contains_center(self) -> bool:
        c = point_codes(self.boxset.domain, self.boxset.depth,
                        np.asarray(self.center, dtype=float).reshape(1, -1))
        return bool(self.boxset.contains_codes(c)[0])


def trapped_absorbing_domain(
    system,
    center,
    seed_radius: float,
    bound_radius: float,
    n_orbits: int,
    n_steps: int,
    depth: int,
    seed: int = 0,
    direction: str = "forward",
) -> TrapReport:
    """Check that orbits from a Euclidean ball stay inside a larger ball.

    Iterates ``n_orbits`` seeds (plus the center itself) for ``n_steps``
    under the forward map, or the inverse map when direction="backward",
    recording every visited box at the given depth.  When ``bounded`` holds,
    the visited box set is an empirical absorbing domain for the sampled
    orbits: they never leave it again by construction.
    """
    if direction not in ("forward", "backward"):
        raise ConfigError(f"direction must be forward or backward, got {direction!r}")
    if not (0 < seed_radius < bound_radius):
        raise ConfigError("need 0 < seed_radius < bound_radius")
    center = np.asarray(center, dtype=float).reshape(1, -1)
    rng = np.random.default_rng(seed)
    # uniform in the ball: direction times radius with the right density
    vec = rng.normal(size=(n_orbits, system.dim))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    rad = seed_radius * rng.random(n_orbits) ** (1.0 / system.dim)
    pts = np.concatenate([center, center + vec * rad[:, None]], axis=0)

    step = system.forward if direction == "forward" else system.inverse
    if step is None:
        raise ConfigError(f"system {system.name!r} has no inverse")

    visited = [point_codes(system.domain, depth, pts)]
    max_r = float(np.max(np.linalg.norm(pts - center, axis=1)))
    for _ in range(n_steps):
        pts = step(pts)
        r = np.linalg.norm(pts - center, axis=1)
        max_r = max(max_r, float(np.max(r)))
        visited.append(point_codes(system.domain, depth, pts))
    codes = np.unique(np.concatenate(visited))
    return TrapReport(
        direction=direction,
        center=tuple(float(c) for c in center[0]),
        seed_radius=float(seed_radius),
        bound_radius=float(bound_radius),
        max_radius=max_r,
        bounded=max_r < bound_radius,
        n_orbits=n_orbits + 1,
        n_steps=n_steps,
        boxset=BoxSet(system.domain, depth, codes),
    )
