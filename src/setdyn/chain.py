"""Chain-recurrence analysis of transition graphs.

The dictionary between graph structure and dynamics: a strongly connected
component (SCC) that is recurrent (more than one box, or a self-loop) is a
piece of the chain-recurrent set; a terminal SCC of the condensation (no
edge leaves it) is an attractor for epsilon-orbits, an initial SCC (no edge
enters it) a repeller; an attractor that is also initial attracts nothing
from outside and is a candidate reversible core.  ``core_scan`` tracks such
a candidate through a refinement schedule and collects the dissipative
attractors/repellers that split off inside the previous stage's absorbing
neighbourhoods.  Every box
set carries its own depth, so sets from two stages are compared on the
deeper stage's grid.

The condensation is kept as per-SCC flags only (recurrent, terminal,
initial), all found in one pass over the edges; no condensation edge list
is built.  Reach closures are BFS on the box graph itself (``reach_set``),
which ``core_scan`` runs from its target on the graph and on
``graph.reversed``.  A graph transposes its CSR once, on first use, and
keeps the result for the SCC kernel's backward searches and the backward
closures.  A box path from a box of SCC s reaches every box of each SCC it
enters, so every closure is a union of SCCs, and the closure of a terminal
SCC is itself: the prolongations of the full attractor and full repeller
are those sets.
Repellers are the attractors of the reversed graph, a repeller being an
attractor of the inverse map, whose symbolic image is the reversed graph
(Osipenko, Dynamical Systems, Graphs, and Algorithms, LNM 1889, 2007).  On
a decomposition the reversal keeps the SCC ids and swaps the terminal and
initial flags.

The SCCs come from forward-backward search with trimming (FW-BW-Trim:
Fleischer, Hendrickson & Pinar, IPDPS workshops 2000; McLendon et al.,
JPDC 65, 2005), written as whole-array numpy passes over the graph's int32
CSR.  Every search, there and in the reach closures, is one level-
synchronous BFS (``_search``) that handles its frontier's edges in bounded
slabs, so the analysis needs no library beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boxdyn import (
    BoxSet,
    LatticeImages,
    TransitionGraph,
    _check_depth,
    _out_edges,
    _unique,
    build_graph,
    check_build,
    check_cover,
    check_points,
    initial_cover,
    point_codes,
)
from .errors import ConfigError

# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass
class ChainDecomposition:
    """SCC partition of a transition graph's box set, with per-SCC flags for
    the condensation: ``terminal`` when no edge leaves the SCC, ``initial``
    when none enters it.

    SCC ids are canonical: components are numbered by their smallest node
    index, so the labelling is independent of library internals.
    """

    boxset: BoxSet
    scc_id: np.ndarray
    n_scc: int
    recurrent_scc: np.ndarray
    terminal: np.ndarray
    initial: np.ndarray

    def scc_boxes(self, s) -> BoxSet:
        s = np.atleast_1d(np.asarray(s, dtype=np.int64))
        mask = np.isin(self.scc_id, s)
        return BoxSet(self.boxset.domain, self.boxset.depth, self.boxset.codes[mask])


def cover_graph(
    system, depth: int, epsilon: float | None = None, samples_per_axis: int = 4, workers: int = 1,
    reuse: LatticeImages | None = None, keep_images: bool = False,
) -> TransitionGraph:
    """Transition graph of a system over the full cover of its domain at
    ``depth``; ``epsilon`` defaults to one box diameter.  The settings are
    checked (``check_build``) before the cover is allocated, and the pool
    is capped as in ``build_graph``.  ``reuse`` and ``keep_images`` pass a
    scan's lattice table on (see ``build_graph``)."""
    check_build(system.domain, depth, 0.0 if epsilon is None else epsilon, samples_per_axis,
                workers)
    cover = initial_cover(system.domain, depth)
    epsilon = system.domain.max_box_width(depth) if epsilon is None else float(epsilon)
    return build_graph(system, cover, epsilon, samples_per_axis=samples_per_axis, workers=workers,
                       reuse=reuse, keep_images=keep_images)


def _search(indptr: np.ndarray, indices: np.ndarray, seeds, seen: np.ndarray,
            part: np.ndarray | None = None) -> None:
    """Mark in ``seen`` every node that ``seeds`` reach through nodes not
    yet seen: a level-synchronous BFS whose frontier's edges come in
    ``_out_edges`` slabs.  With ``part`` a step only follows an edge whose
    ends lie in the same partition."""
    frontier = _unique(seeds)
    seen[frontier] = True
    while frontier.size:
        new = []
        for rows, lens, dst in _out_edges(indptr, indices, frontier):
            keep = ~seen[dst]
            if part is not None:
                keep &= part[dst] == np.repeat(part[rows], lens)
            dst = dst[keep]
            seen[dst] = True
            new.append(dst)
        frontier = _unique(np.concatenate(new)) if new else frontier[:0]


def _scc_roots(graph: TransitionGraph) -> np.ndarray:
    """The smallest node of each graph node's strongly connected component.

    FW-BW-Trim on all partitions at once.  The unlabelled nodes fall into
    partitions, each a union of whole SCCs; at first there is one.  Trim: a
    node with no in-edge or no out-edge from another node of its partition
    is an SCC by itself, and labelling it may leave a neighbour without
    one, so trimming runs as a worklist.  Then each partition takes one
    pivot, and a forward and a backward search from all pivots at once,
    each kept inside its partition, find what every pivot reaches and is
    reached from.  Their intersection is the pivot's SCC; the rest of a
    partition splits into forward-only, backward-only and neither, and the
    rounds repeat until every node is labelled.

    The pivot is the partition's node with the smallest key
    ``node * 0x9E3779B1 mod 2^32``, a fixed scramble of the node order, so
    it falls at a pseudo-random place in the partition and splits it evenly
    on average, as FW-BW's expected-time analysis assumes.  A pivot chosen
    by node order or by degree can sit at one end of a chain of small SCCs
    in every round, which costs one round per SCC and a search along the
    whole chain in each.

    The in-degrees and the backward searches walk ``graph.reversed``.
    """
    n = graph.n_boxes
    indptr, indices = graph.indptr, graph.indices
    t_ptr, t_idx = graph.reversed.indptr, graph.reversed.indices
    root = np.full(n, -1, dtype=np.int32)
    part = np.zeros(n, dtype=np.int32)  # -1 once a node is labelled
    # degrees inside the partitions, self-loops aside: at first every edge
    # but the self-loops counts
    loop = np.zeros(n, dtype=bool)
    for rows, lens, dst in _out_edges(indptr, indices):
        loop[dst[np.repeat(rows, lens) == dst]] = True
    degree = tuple(np.diff(ptr).astype(np.int64) - loop for ptr in (indptr, t_ptr))
    while True:
        work = np.flatnonzero((part >= 0) & ((degree[0] == 0) | (degree[1] == 0)))
        while work.size:
            # a node without in-edges only lowers its successors' in-degrees,
            # one without out-edges its predecessors' out-degrees
            zeroed = []
            sides = ((indptr, indices, degree[1], work[degree[1][work] == 0]),
                     (t_ptr, t_idx, degree[0], work[degree[0][work] == 0]))
            for ptr, idx, deg, sources in sides:
                for rows, lens, dst in _out_edges(ptr, idx, sources):
                    dst = dst[part[dst] == np.repeat(part[rows], lens)]
                    np.subtract.at(deg, dst, 1)
                    zeroed.append(dst[deg[dst] == 0])
            root[work] = work
            part[work] = -1
            work = _unique(np.concatenate(zeroed)) if zeroed else work[:0]
            work = work[part[work] >= 0]

        alive = np.flatnonzero(part >= 0)
        if not alive.size:
            return root
        order = np.lexsort((alive.astype(np.uint32) * np.uint32(0x9E3779B1), part[alive]))
        firsts = np.flatnonzero(np.diff(part[alive][order], prepend=-1))
        pivots = alive[order[firsts]]
        inside = part if len(pivots) > 1 else None
        fw, bw = part < 0, part < 0
        _search(indptr, indices, pivots, fw, inside)
        _search(t_ptr, t_idx, pivots, bw, inside)
        fw, bw = fw[alive], bw[alive]
        # alive is sorted, so a partition's first SCC node is its smallest
        scc = alive[fw & bw]
        _, first, which = np.unique(part[scc], return_index=True, return_inverse=True)
        root[scc] = scc[first][which]
        part[scc] = -1
        rest = ~(fw & bw)
        alive = alive[rest]
        _, part[alive] = np.unique(part[alive] * 4 + fw[rest] + 2 * bw[rest], return_inverse=True)

        degree = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        for rows, lens, dst in _out_edges(indptr, indices, alive):
            src = np.repeat(rows, lens)
            inner = (part[dst] == part[src]) & (dst != src)
            np.add.at(degree[0], src[inner], 1)
            np.add.at(degree[1], dst[inner], 1)


def decompose(graph: TransitionGraph) -> ChainDecomposition:
    """SCCs and their recurrent/terminal/initial flags of a graph.

    The SCCs come from ``_scc_roots``, which names each by its smallest
    node; numbering those in node order gives the canonical ids.  No
    array spans the whole edge list but ``graph.reversed``, the transposed
    int32 CSR that the backward searches walk, which the graph keeps for
    later backward closures.  The flags come from one pass over
    ``_out_edges`` slabs: an edge inside an SCC makes it recurrent, and an
    edge between two SCCs makes its source's SCC not terminal and its
    target's not initial.
    """
    roots = _scc_roots(graph)
    is_root = roots == np.arange(graph.n_boxes)
    m = int(np.count_nonzero(is_root))
    scc = (np.cumsum(is_root, dtype=np.int32) - 1)[roots]

    # an SCC is recurrent when it holds an edge: a larger one has a cycle, and
    # the only edge inside a single box is its self-loop
    recurrent, leaves, entered = (np.zeros(m, dtype=bool) for _ in range(3))
    for rows, lens, dst in _out_edges(graph.indptr, graph.indices):
        s_u, s_v = np.repeat(scc[rows], lens), scc[dst]
        cross = s_u != s_v
        recurrent[s_u[~cross]] = True
        leaves[s_u[cross]] = True
        entered[s_v[cross]] = True
    return ChainDecomposition(
        boxset=graph.boxset,
        scc_id=scc,
        n_scc=m,
        recurrent_scc=recurrent,
        terminal=~leaves,
        initial=~entered,
    )


def chain_recurrent(dec: ChainDecomposition) -> BoxSet:
    """Boxes lying in recurrent SCCs: the combinatorial chain-recurrent set."""
    bs = dec.boxset
    return BoxSet(bs.domain, bs.depth, bs.codes[dec.recurrent_scc[dec.scc_id]])


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def reach_set(graph: TransitionGraph, members) -> BoxSet:
    """Closure of the boxes attainable from ``members`` (a ``BoxSet`` or box
    indices) by epsilon-orbits, found by one BFS on the box graph.  On
    ``graph.reversed`` it is the closure of the boxes that attain them.
    ``core_scan`` takes its absorbing sets from it.
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
    seen = np.zeros(graph.n_boxes, dtype=bool)
    _search(graph.indptr, graph.indices, idx, seen)
    return BoxSet(bs.domain, bs.depth, bs.codes[seen])


# ---------------------------------------------------------------------------
# attractors and repellers
# ---------------------------------------------------------------------------


@dataclass
class RecurrentSCC:
    """A recurrent terminal (attractor) or initial (repeller) component."""

    scc: int
    boxes: BoxSet
    dissipative: bool


def _reversed(dec: ChainDecomposition) -> ChainDecomposition:
    """The same SCCs, with the same ids, as SCCs of the reversed graph: the
    terminal and initial flags swap, so its attractors are the repellers of
    ``dec``.  The box set is kept."""
    return replace(dec, terminal=dec.initial, initial=dec.terminal)


def attractors(dec: ChainDecomposition) -> list[RecurrentSCC]:
    """Recurrent terminal SCCs, in id order; one is dissipative when it is
    not also initial, that is when it attracts boxes from outside."""
    ids = np.nonzero(dec.terminal & dec.recurrent_scc)[0]
    return [RecurrentSCC(int(s), dec.scc_boxes(int(s)), not bool(dec.initial[s])) for s in ids]


def repellers(dec: ChainDecomposition) -> list[RecurrentSCC]:
    """Recurrent initial SCCs: the attractors of the reversed graph, with
    the same SCC ids."""
    return attractors(_reversed(dec))


def full_attractor(dec: ChainDecomposition) -> BoxSet:
    """Union of all attractor boxes."""
    ids = np.nonzero(dec.terminal & dec.recurrent_scc)[0]
    return dec.scc_boxes(ids)


def full_repeller(dec: ChainDecomposition) -> BoxSet:
    return full_attractor(_reversed(dec))


@dataclass
class ClassifyReport:
    """Trichotomy verdict for one graph, with the sets that witness it; the
    graph's epsilon and depth are read off the graph itself."""

    classification: str
    n_scc: int
    n_boxes: int
    attractors: list[RecurrentSCC]
    repellers: list[RecurrentSCC]
    full_attractor: BoxSet
    full_repeller: BoxSet
    overlap_jaccard: float


def classify(graph: TransitionGraph) -> ClassifyReport:
    """Conservative / Dissipative / Mixed verdict for a transition graph.

    Conservative: a single recurrent SCC covering every box.  Dissipative:
    the prolongations of the full attractor and full repeller are disjoint.
    Mixed: everything else (they intersect without global chain transitivity).

    The prolongations equal the full sets: no edge leaves a terminal SCC,
    so the forward closure of the full attractor is itself, and none enters
    an initial SCC, so the backward closure of the full repeller is itself.
    """
    dec = decompose(graph)
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
        attractors=att,
        repellers=rep,
        full_attractor=f_att,
        full_repeller=f_rep,
        overlap_jaccard=jac,
    )


# ---------------------------------------------------------------------------
# core scan
# ---------------------------------------------------------------------------

# a stage's attractor and repeller sides have separated once their gap
# exceeds GAP_FACTOR * (epsilon + pad + box width); see core_scan
GAP_FACTOR = 4.0


@dataclass
class StageResult:
    """Verdict and extracted sets for one (depth, epsilon) stage."""

    depth: int
    epsilon: float
    pad: float
    n_boxes: int
    n_edges: int
    target_code: int
    recurrent: bool
    terminal: bool
    initial: bool
    gap: float
    gap_tol: float
    ok: bool
    reason: str
    core: BoxSet
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
    stages: list[StageResult]
    core_persistent: bool
    attractor_witnesses: list[BoxSet]
    repeller_witnesses: list[BoxSet]

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


def _disjoint_at_common_depth(a: BoxSet, b: BoxSet) -> bool:
    depth = max(a.depth, b.depth)
    return a.refine_to(depth).intersection(b.refine_to(depth)).count == 0


def _contained_with_slack(inner: BoxSet, outer: BoxSet) -> bool:
    """inner (at least as deep) inside outer refined to inner's depth, plus
    one box ring of slack for quantization."""
    return inner.issubset(outer.refine_to(inner.depth).dilate())


def _new_witnesses(dec: ChainDecomposition, s: int, prev_abs: BoxSet, known: list) -> list[BoxSet]:
    """Dissipative attractors other than SCC ``s`` that lie in the previous
    stage's absorbing set and are disjoint from every ``known`` witness; they
    are appended to ``known`` and returned."""
    new = []
    for cand in attractors(dec):
        if cand.scc == s or not cand.dissipative:
            continue
        if not _contained_with_slack(cand.boxes, prev_abs):
            continue
        if all(_disjoint_at_common_depth(cand.boxes, w) for w in known):
            known.append(cand.boxes)
            new.append(cand.boxes)
    return new


def check_schedule(domain, schedule, samples_per_axis: int, workers: int) -> None:
    """Reject a schedule before any graph is built: a stage whose build
    ``check_build`` rejects, depths that decrease, since a stage's absorbing
    sets are checked against the previous stage's refined to its own depth,
    or a depth whose full cover of ``domain`` exceeds the box budget or
    whose samples exceed the point budget."""
    for depth, eps in schedule:
        check_build(domain, depth, eps, samples_per_axis, workers)
    depths = [d for d, _ in schedule]
    if any(b < a for a, b in zip(depths, depths[1:])):
        raise ConfigError(f"schedule depths {depths} decrease; each stage must be "
                          "at least as deep as the one before")
    for depth in depths:
        check_cover(domain, depth)
        check_points(samples_per_axis**domain.dim << depth * domain.dim, "sample points")


def core_scan(
    system,
    target,
    schedule,
    samples_per_axis: int = 4,
    workers: int = 1,
) -> CoreCertificate:
    """Track a candidate reversible core through a refinement schedule.

    A stage passes when the target's SCC is recurrent and either is both
    terminal and initial (attracts and repels nothing from outside), or the
    attractors reachable from it and the repellers reaching it have not
    separated: their minimal distance stays below
    ``GAP_FACTOR * (epsilon + pad + box width)``, the resolution at which
    one-way transport between them is distinguishable from noise.  The core
    is persistent when every stage passes.

    Each stage also extracts forward/backward absorbing box sets around the
    target (its epsilon-reach closures) and records the dissipative
    attractor/repeller SCCs that appear inside the *previous* stage's
    absorbing sets, deduplicated across stages by geometric disjointness.

    Each stage maps every distinct sample lattice point of its cover once,
    as one table, which it hands to the next stage, so a point that two
    stages share with the same coordinate bits is mapped once in the scan
    (see ``build_graph``); the graphs are the ones ``cover_graph`` builds.
    """
    target = np.asarray(target, dtype=float).reshape(1, -1)
    if target.shape[1] != system.dim:
        raise ConfigError("target dimension does not match the system")
    if not system.domain.contains(target)[0]:
        raise ConfigError(f"target {tuple(target[0])} lies outside the domain")
    schedule = [(int(d), float(e)) for d, e in schedule]
    if not schedule:
        raise ConfigError("schedule must contain at least one stage")
    check_schedule(system.domain, schedule, samples_per_axis, workers)

    stages: list[StageResult] = []
    att_wit: list[BoxSet] = []
    rep_wit: list[BoxSet] = []

    images = None
    for i, (depth, eps) in enumerate(schedule):
        # a stage maps only the lattice points that the one before lacks
        g = cover_graph(system, depth, eps, samples_per_axis, workers,
                        reuse=images, keep_images=i + 1 < len(schedule))
        images = g.lattice_images
        dec = decompose(g)
        rev = _reversed(dec)
        t_code = int(point_codes(system.domain, depth, target)[0])
        t_idx = int(g.boxset.indices_of(np.array([t_code]))[0])
        s = int(dec.scc_id[t_idx])
        core = dec.scc_boxes(s)
        recurrent = bool(dec.recurrent_scc[s])
        terminal = bool(dec.terminal[s])
        init = bool(dec.initial[s])

        # boxes the target reaches, and boxes that reach it; reach_set is
        # looked up at call time, so a wrapper on chain.reach_set sees these
        fwd_abs, bwd_abs = reach_set(g, [t_idx]), reach_set(g.reversed, [t_idx])
        pad, n_boxes, n_edges = g.pad, g.n_boxes, g.n_edges
        # the graph and its reverse are not kept through _min_gap's blocks
        del g
        gap_tol = GAP_FACTOR * (eps + pad + system.domain.max_box_width(depth))
        if terminal and init:
            gap = 0.0
        else:
            # attractors the target can reach, repellers that can reach it
            gap = _min_gap(system.domain, fwd_abs.intersection(full_attractor(dec)),
                           bwd_abs.intersection(full_repeller(dec)))

        if not recurrent:
            ok, reason = False, "target box is not chain-recurrent"
        elif terminal and init:
            ok, reason = True, "terminal and initial"
        elif gap <= gap_tol:
            ok, reason = True, "attractor and repeller sides have not separated"
        else:
            ok = False
            reason = f"attractor/repeller separation {gap:.3g} exceeds {gap_tol:.3g}"

        prev = stages[-1] if stages else None
        nested_fwd = prev is None or _contained_with_slack(fwd_abs, prev.fwd_absorbing)
        nested_bwd = prev is None or _contained_with_slack(bwd_abs, prev.bwd_absorbing)
        new_att: list[BoxSet] = []
        new_rep: list[BoxSet] = []
        if prev is not None:
            new_att = _new_witnesses(dec, s, prev.fwd_absorbing, att_wit)
            new_rep = _new_witnesses(rev, s, prev.bwd_absorbing, rep_wit)

        stages.append(
            StageResult(
                depth=depth,
                epsilon=eps,
                pad=pad,
                n_boxes=n_boxes,
                n_edges=n_edges,
                target_code=t_code,
                recurrent=recurrent,
                terminal=terminal,
                initial=init,
                gap=gap,
                gap_tol=gap_tol,
                ok=ok,
                reason=reason,
                core=core,
                fwd_absorbing=fwd_abs,
                bwd_absorbing=bwd_abs,
                nested_fwd=nested_fwd,
                nested_bwd=nested_bwd,
                new_attractors=new_att,
                new_repellers=new_rep,
            )
        )
        # the next stage's graph is built without this one's SCCs alongside
        del dec, rev

    return CoreCertificate(
        system=getattr(system, "name", "?"),
        params=dict(getattr(system, "params", {})),
        target=tuple(float(x) for x in target[0]),
        schedule=schedule,
        stages=stages,
        core_persistent=all(st.ok for st in stages),
        attractor_witnesses=att_wit,
        repeller_witnesses=rep_wit,
    )


# ---------------------------------------------------------------------------
# orbit-based verifiers
# ---------------------------------------------------------------------------

# a noisy orbit's first int(BURN_IN * n_steps) states are not counted
BURN_IN = 0.1


@dataclass
class NoisyOrbitReport:
    """Visit statistics of noisy orbits on the depth grid."""

    codes: np.ndarray
    counts: np.ndarray
    n_exits: int
    boxset: BoxSet


def noisy_attractor(
    system,
    x0,
    noise: float,
    n_steps: int,
    n_trials: int,
    depth: int,
    seed: int = 0,
) -> NoisyOrbitReport:
    """Visited-box histogram of orbits with uniform bounded noise.

    The trials run as one batch: each step maps all orbits still in the
    domain with a single ``forward`` call.  Each trial still draws its own
    kicks from a stream seeded (seed, trial), and every operation acts on
    each point alone, so the histogram is reproducible and does not depend
    on the batching.  Orbits leaving the domain on a non-periodic axis, or
    turning non-finite, are counted as exits and stop contributing; they
    are not mapped again.

    A step costs a few whole-batch numpy calls: until the first exit the
    kicks are read and the states written by basic indexing, and only from
    then on through the index array of the trials still live.
    """
    for name, n in (("n_steps", n_steps), ("n_trials", n_trials)):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigError(f"{name} must be a non-negative integer, got {n!r}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ConfigError(f"noise amplitude must be finite and >= 0, got {noise!r}")
    domain = system.domain
    _check_depth(domain, depth)
    check_points(n_steps * n_trials, "orbit points")
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    skip = int(BURN_IN * n_steps)
    kicks = np.empty((n_steps, n_trials, system.dim))
    for trial in range(n_trials):
        rng = np.random.default_rng((seed, trial))
        kicks[:, trial] = rng.uniform(-noise, noise, size=(n_steps, system.dim))

    states = np.empty_like(kicks)
    exit_step = np.full(n_trials, n_steps)
    # a slice, so that steps index by view, until a trial leaves the domain
    live = slice(None)
    x = np.repeat(x0, n_trials, axis=0)
    for k in range(n_steps):
        if not len(x):
            break
        x = domain.wrap(system.forward(x) + kicks[k, live])
        inside = domain.contains(x)
        if not inside.all():
            live = np.arange(n_trials)[live]
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


def check_trap(system, seed_radius: float, bound_radius: float, n_orbits: int, n_steps: int,
               depth: int) -> None:
    """Reject a trap setting before any orbit runs: radii other than
    0 < seed_radius < bound_radius, n_orbits below 0, n_steps below 1, a
    depth the domain cannot encode, orbit points past the point budget, or
    a system without an inverse."""
    if not (0 < seed_radius < bound_radius):
        raise ConfigError("need 0 < seed_radius < bound_radius")
    if n_orbits < 0:
        raise ConfigError(f"n_orbits must be >= 0, got {n_orbits}")
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    _check_depth(system.domain, depth)
    # each way records every orbit's box at every step
    check_points(2 * (n_orbits + 1) * (n_steps + 1), "trap orbit points")
    if system.inverse is None:
        raise ConfigError(f"system {system.name!r} has no inverse")


def trapped_absorbing_domain(
    system,
    center,
    seed_radius: float,
    bound_radius: float,
    n_orbits: int,
    n_steps: int,
    depth: int,
    seed: int = 0,
) -> tuple[TrapReport, TrapReport]:
    """Check that orbits from a Euclidean ball stay inside a larger ball,
    under the forward map and under the inverse map.

    Iterates ``n_orbits`` seeds (plus the center itself) for ``n_steps``
    both ways, recording every visited box at the given depth, and returns
    the (forward, backward) reports.  When ``bounded`` holds, the visited
    box set is an empirical absorbing domain for the sampled orbits: they
    never leave it again by construction.

    An orbit with a point outside the domain (non-finite points included)
    has escaped: its boxes from that point on are not recorded, since a box
    code would clamp it onto the boundary, and its direction is not
    ``bounded``.  ``max_radius`` still counts it, and is NaN once any orbit
    point is.

    Each step advances both orbit sets with one ``system.forward_inverse``
    call when the system has one, else with ``forward`` and ``inverse``;
    the orbits are the same bits either way.
    """
    check_trap(system, seed_radius, bound_radius, n_orbits, n_steps, depth)
    center = np.asarray(center, dtype=float).reshape(1, -1)
    rng = np.random.default_rng(seed)
    # uniform in the ball: direction times radius with the right density
    vec = rng.normal(size=(n_orbits, system.dim))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    rad = seed_radius * rng.random(n_orbits) ** (1.0 / system.dim)
    pts = np.concatenate([center, center + vec * rad[:, None]], axis=0)

    domain = system.domain
    advance = system.forward_inverse or (lambda a, b: (system.forward(a), system.inverse(b)))
    orbits = (pts, pts)
    inside = domain.contains(pts)
    codes = point_codes(domain, depth, pts[inside])
    visited = ([codes], [codes])
    stayed = [inside, inside]
    r = float(np.max(np.linalg.norm(pts - center, axis=1)))
    max_r = [r, r]
    for _ in range(n_steps):
        orbits = advance(*orbits)
        for side, p in enumerate(orbits):
            stayed[side] = stayed[side] & domain.contains(p)
            visited[side].append(point_codes(domain, depth, p[stayed[side]]))
            # np.maximum keeps a NaN, where Python's max(r, nan) drops it
            max_r[side] = float(np.maximum(max_r[side], np.max(np.linalg.norm(p - center, axis=1))))
    return tuple(
        TrapReport(
            direction=direction,
            center=tuple(float(c) for c in center[0]),
            seed_radius=float(seed_radius),
            bound_radius=float(bound_radius),
            max_radius=max_r[side],
            bounded=bool(stayed[side].all()) and max_r[side] < bound_radius,
            n_orbits=n_orbits + 1,
            n_steps=n_steps,
            boxset=BoxSet(system.domain, depth, np.concatenate(visited[side])),
        )
        for side, direction in enumerate(("forward", "backward"))
    )
