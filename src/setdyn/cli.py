"""Command-line interface.

Subcommands map onto the library layers: ``classify`` builds one transition
graph and reports the Conservative/Dissipative/Mixed verdict, ``core-scan``
runs a refinement schedule around a target point, ``merge-scan`` sweeps a
system parameter and tracks attractor/repeller overlap, ``portrait`` dumps
the slow-system phase portrait, ``verify`` runs the reversibility tool set
and ``noisy`` the bounded-noise orbit histogram.

All options can come from a JSON config file (--config); explicit flags win
over the file.  Outputs are deterministic byte-for-byte for a fixed config
and seed, independent of --workers.

Exit codes: 0 success, 2 invalid configuration, 3 budget exceeded,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import chain, flows, mapzoo
# build_graph is unused here but stays a module attribute: perfbench/traced.py
# wraps cli.build_graph by name
from .boxdyn import BoxSet, _check_depth, build_graph, save_boxset, write_pgm, write_pgm_heat  # noqa: F401
from .errors import BudgetError, ConfigError, NumericsError, SetdynError

ATTRACTOR_SHADE = 64
REPELLER_SHADE = 160
OVERLAP_SHADE = 255


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _setting(args, cfg: dict, key: str, default=None, kind=None):
    """Flag beats config file beats default; ``kind`` (int or float)
    converts the value through ``_number``."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = cfg.get(key, default)
    return val if kind is None else _number(kind, val, key)


def _number(kind, raw, what: str):
    """``kind(raw)`` for a setting, with a configuration error where the
    conversion fails; a seed must also be >= 0, as numpy's generators
    require."""
    try:
        val = kind(raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {raw!r}") from e
    if what == "seed" and val < 0:
        raise ConfigError(f"seed must be >= 0, got {val}")
    return val


def _parse_params(pairs, cfg: dict) -> dict:
    params = dict(cfg.get("params", {}))
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            params[key] = float(raw)
        except ValueError as e:
            raise ConfigError(f"parameter {key!r} has non-numeric value {raw!r}") from e
    return params


def _parse_schedule(raw, domain) -> list[tuple[int, float]]:
    if isinstance(raw, str):
        stages = []
        for part in raw.split(","):
            if ":" not in part:
                raise ConfigError(f"schedule stage {part!r} must look like depth:epsilon")
            stages.append(part.split(":", 1))
        raw = stages
    if not isinstance(raw, list):
        raise ConfigError(f"cannot parse schedule {raw!r}")
    for stage in raw:
        if not (isinstance(stage, list) and len(stage) == 2):
            raise ConfigError(f"schedule stage {stage!r} must be a [depth, epsilon] pair")
    schedule = [(_number(int, d, "schedule depth"), _number(float, e, "schedule epsilon"))
                for d, e in raw]
    chain.check_schedule(domain, schedule)
    return schedule


def _parse_point(raw, dim: int) -> tuple:
    parts = raw.split(",") if isinstance(raw, str) else raw
    try:
        vals = [float(v) for v in parts]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"cannot parse point {raw!r}: {e}") from e
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"point {raw!r} has a non-finite coordinate")
    if len(vals) != dim:
        raise ConfigError(f"expected {dim} coordinates, got {len(vals)}")
    return tuple(vals)


def _domain_point(raw, system: mapzoo.MapSystem, what: str) -> tuple:
    """A point parsed by :func:`_parse_point` that lies in the system's domain."""
    point = _parse_point(raw, system.dim)
    if not system.domain.contains(np.array(point)):
        raise ConfigError(f"{what} {point} lies outside the domain")
    return point


def _make_system(args, cfg: dict) -> mapzoo.MapSystem:
    name = _setting(args, cfg, "system")
    if not name:
        raise ConfigError("no system given (use --system or the config file)")
    return mapzoo.make_system(name, _parse_params(getattr(args, "param", None), cfg))


def _graph_settings(args, cfg: dict, default_samples: int) -> tuple[int, int]:
    """Sample points per box axis and worker count of a graph build,
    checked before any output directory is made."""
    samples = _setting(args, cfg, "samples", default_samples, int)
    workers = _setting(args, cfg, "workers", 1, int)
    if samples < 2 or workers < 1:
        raise ConfigError(f"samples must be >= 2 and workers >= 1, got {samples} and {workers}")
    return samples, workers


def _cover_settings(args, cfg: dict, domain) -> tuple[int, float | None]:
    """Depth and epsilon (None: one box diameter) of a full cover of
    ``domain``, checked like a schedule stage before any output directory
    is made."""
    depth, epsilon = _setting(args, cfg, "depth", 7, int), _setting(args, cfg, "epsilon")
    epsilon = None if epsilon is None else _number(float, epsilon, "epsilon")
    chain.check_schedule(domain, [(depth, 0.0 if epsilon is None else epsilon)])
    return depth, epsilon


def _out_dir(args, cfg: dict) -> str:
    out = _setting(args, cfg, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path: str, header: list, rows) -> None:
    """Write ``rows`` under ``header``; the csv module writes a Python float
    as its repr and an int in decimal, so rows built from ``ndarray.tolist()``
    need no per-element formatting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _boxset_summary(bs: BoxSet) -> dict:
    if bs.count == 0:
        return {"depth": bs.depth, "count": 0, "volume_fraction": 0.0, "bbox": None}
    corners = bs.lower_corners()
    h = bs.domain.box_width(bs.depth)
    return {
        "depth": bs.depth,
        "count": bs.count,
        "volume_fraction": bs.volume_fraction(),
        "bbox": [
            [float(v) for v in corners.min(axis=0)],
            [float(v) for v in (corners.max(axis=0) + h)],
        ],
    }


def _scc_summary(item: chain.RecurrentSCC) -> dict:
    return {
        "scc": item.scc,
        "size": item.boxes.count,
        "dissipative": item.dissipative,
        "boxes": _boxset_summary(item.boxes),
    }


def _finite_or_none(x: float):
    return float(x) if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    system = _make_system(args, cfg)
    depth, epsilon = _cover_settings(args, cfg, system.domain)
    samples, workers = _graph_settings(args, cfg, 4)
    out = _out_dir(args, cfg)

    graph = chain.cover_graph(system, depth, epsilon, samples, workers)
    report = chain.classify(graph)

    doc = {
        "command": "classify",
        "system": system.name,
        "params": system.params,
        "depth": depth,
        "epsilon": graph.epsilon,
        "samples_per_axis": samples,
        "n_boxes": report.n_boxes,
        "n_edges": graph.n_edges,
        "n_scc": report.n_scc,
        "pad": graph.pad,
        "classification": report.classification,
        "overlap_jaccard": report.overlap_jaccard,
        "attractors": [_scc_summary(a) for a in report.attractors],
        "repellers": [_scc_summary(r) for r in report.repellers],
        "full_attractor": _boxset_summary(report.full_attractor),
        "full_repeller": _boxset_summary(report.full_repeller),
        "ruelle_attractor": _boxset_summary(report.ruelle_attractor),
        "ruelle_repeller": _boxset_summary(report.ruelle_repeller),
    }
    _write_json(os.path.join(out, "report.json"), doc)

    if system.dim == 2:
        inter = report.ruelle_attractor.intersection(report.ruelle_repeller)
        write_pgm(
            os.path.join(out, "classify.pgm"),
            system.domain,
            depth,
            [
                (report.ruelle_attractor, ATTRACTOR_SHADE),
                (report.ruelle_repeller, REPELLER_SHADE),
                (inter, OVERLAP_SHADE),
            ],
        )
    print(f"{system.name}: {report.classification} "
          f"({report.n_scc} SCCs over {report.n_boxes} boxes)")
    return 0


def _stage_doc(st: chain.StageResult) -> dict:
    return {
        "depth": st.depth,
        "epsilon": st.epsilon,
        "pad": st.pad,
        "n_boxes": st.n_boxes,
        "n_edges": st.n_edges,
        "target_code": st.target_code,
        "target_scc_size": st.target_scc_size,
        "recurrent": st.recurrent,
        "terminal": st.terminal,
        "initial": st.initial,
        "gap": _finite_or_none(st.gap),
        "gap_tol": st.gap_tol,
        "ok": st.ok,
        "reason": st.reason,
        "nested_fwd": st.nested_fwd,
        "nested_bwd": st.nested_bwd,
        "core": _boxset_summary(st.core_boxes),
        "fwd_absorbing": _boxset_summary(st.fwd_absorbing),
        "bwd_absorbing": _boxset_summary(st.bwd_absorbing),
        "new_attractors": [_boxset_summary(b) for b in st.new_attractors],
        "new_repellers": [_boxset_summary(b) for b in st.new_repellers],
    }


def _trap_doc(rep: chain.TrapReport) -> dict:
    return {
        "direction": rep.direction,
        "center": list(rep.center),
        "seed_radius": rep.seed_radius,
        "bound_radius": rep.bound_radius,
        "max_radius": rep.max_radius,
        "bounded": rep.bounded,
        "contains_center": rep.contains_center,
        "n_orbits": rep.n_orbits,
        "n_steps": rep.n_steps,
        "boxes": _boxset_summary(rep.boxset),
    }


def cmd_core_scan(args) -> int:
    cfg = _load_config(args.config)
    system = _make_system(args, cfg)
    sched_raw = _setting(args, cfg, "schedule")
    if sched_raw is None:
        raise ConfigError("core-scan requires a schedule (--schedule depth:eps,...)")
    schedule = _parse_schedule(sched_raw, system.domain)
    target = _domain_point(_setting(args, cfg, "target", [0.0] * system.dim), system, "target")
    samples, workers = _graph_settings(args, cfg, 3)
    trap_cfg = cfg.get("trap")
    if trap_cfg:
        trap = dict(
            center=_domain_point(trap_cfg.get("center", target), system, "trap center"),
            seed_radius=_number(float, trap_cfg.get("seed_radius"), "trap seed_radius"),
            bound_radius=_number(float, trap_cfg.get("bound_radius"), "trap bound_radius"),
            n_orbits=_number(int, trap_cfg.get("n_orbits", 48), "trap n_orbits"),
            n_steps=_number(int, trap_cfg.get("n_steps", 500), "trap n_steps"),
            depth=_number(int, trap_cfg.get("depth", schedule[-1][0]), "trap depth"),
            seed=_setting(args, cfg, "seed", 0, int),
        )
        _check_depth(system.domain, trap["depth"])
    out = _out_dir(args, cfg)

    cert = chain.core_scan(system, target, schedule, samples_per_axis=samples, workers=workers)
    doc = {
        "command": "core_scan",
        "system": cert.system,
        "params": cert.params,
        "target": list(cert.target),
        "schedule": [[d, e] for d, e in cert.schedule],
        "gap_factor": chain.GAP_FACTOR,
        "core_persistent": cert.core_persistent,
        "n_attractor_witnesses": cert.n_attractor_witnesses,
        "n_repeller_witnesses": cert.n_repeller_witnesses,
        "attractor_witnesses": [
            {"depth": b.depth, "boxes": _boxset_summary(b)} for b in cert.attractor_witnesses
        ],
        "repeller_witnesses": [
            {"depth": b.depth, "boxes": _boxset_summary(b)} for b in cert.repeller_witnesses
        ],
        "stages": [_stage_doc(st) for st in cert.stages],
    }

    if trap_cfg:
        fwd, bwd = chain.trapped_absorbing_domain(system, **trap)
        doc["trap"] = {"forward": _trap_doc(fwd), "backward": _trap_doc(bwd)}

    _write_json(os.path.join(out, "certificate.json"), doc)
    for side, wits in (("att", cert.attractor_witnesses), ("rep", cert.repeller_witnesses)):
        for i, bs in enumerate(wits):
            save_boxset(os.path.join(out, f"witness_{side}_{i}.boxes"), bs)
    print(f"{cert.system}: core_persistent={cert.core_persistent} "
          f"witnesses={cert.n_attractor_witnesses}+{cert.n_repeller_witnesses}")
    return 0


def cmd_merge_scan(args) -> int:
    cfg = _load_config(args.config)
    name = _setting(args, cfg, "system")
    if not name:
        raise ConfigError("no system given")
    pname = _setting(args, cfg, "sweep_param")
    values = _setting(args, cfg, "values")
    if not pname or values is None:
        raise ConfigError("merge-scan needs --sweep-param and --values")
    if isinstance(values, str):
        values = [_number(float, v, "values") for v in values.split(",")]
    base = _parse_params(getattr(args, "param", None), cfg)
    # the cover's checks need only the domain's dimension, which no
    # parameter value changes
    depth, epsilon = _cover_settings(args, cfg, mapzoo.make_system(name).domain)
    samples, workers = _graph_settings(args, cfg, 4)
    out = _out_dir(args, cfg)

    rows = []
    for v in values:
        params = dict(base)
        params[pname] = v
        try:
            system = mapzoo.make_system(name, params)
            rep = chain.classify(chain.cover_graph(system, depth, epsilon, samples, workers))
            rows.append([
                repr(float(v)), "ok", rep.classification, str(rep.n_scc),
                str(len(rep.attractors)), str(len(rep.repellers)),
                repr(float(rep.overlap_jaccard)), "",
            ])
        except SetdynError as e:
            rows.append([repr(float(v)), "error", "", "", "", "", "", f"{type(e).__name__}: {e}"])
    _write_csv(os.path.join(out, "sweep.csv"), [pname, "status", "classification", "n_scc",
               "n_attractors", "n_repellers", "overlap_jaccard", "detail"], rows)
    print(f"swept {pname} over {len(values)} values")
    return 0


def cmd_portrait(args) -> int:
    cfg = _load_config(args.config)
    D = _setting(args, cfg, "D", 0.0, float)
    beta = _setting(args, cfg, "beta", 1.0, float)
    T = _setting(args, cfg, "T", 20.0, float)
    step = _setting(args, cfg, "step", flows.DEFAULT_STEP, float)
    n_orbits = _setting(args, cfg, "orbits", 12, int)
    seed = _setting(args, cfg, "seed", 0, int)
    if n_orbits < 0:
        raise ConfigError(f"orbits must be >= 0, got {n_orbits}")

    # everything is computed before --out is made, so a bad setting leaves
    # no partial output behind
    equilibria = []
    for eq in flows.equilibria(D, beta):
        e1, e2 = eq.eigenvalues
        equilibria.append([eq.name, repr(eq.V), repr(eq.phi), eq.kind,
                           repr(e1.real), repr(e1.imag), repr(e2.real), repr(e2.imag)])
    rng = np.random.default_rng(seed)
    x0 = np.array([[rng.uniform(-2.5, 2.5), rng.uniform(0, 2 * math.pi)]
                   for _ in range(n_orbits)]).reshape(n_orbits, 2)
    # one batch: all orbits step together, each truncated on its own
    traj = flows.integrate(flows.limit_rhs(D, beta), x0, T=T, step=step)
    orbits = []
    for k, m in enumerate(traj.lengths.tolist()):
        stride = max(1, m // 400)
        rows = np.column_stack([traj.times[:m:stride], traj.states[:m:stride, k]])
        orbits += [[k, *row] for row in rows.tolist()]
    Pg = np.linspace(0.0, 2 * math.pi, 101)
    levels = []
    for V in np.linspace(-2.5, 2.5, 101).tolist():
        K = flows.first_integral_K(np.full_like(Pg, V), Pg, D, beta)
        levels += [[V, *row] for row in np.column_stack([Pg, K]).tolist()]

    out = _out_dir(args, cfg)
    _write_csv(os.path.join(out, "equilibria.csv"),
               ["name", "V", "phi", "kind", "eig1_re", "eig1_im", "eig2_re", "eig2_im"], equilibria)
    _write_csv(os.path.join(out, "orbits.csv"), ["orbit", "t", "V", "phi"], orbits)
    _write_csv(os.path.join(out, "levels.csv"), ["V", "phi", "K"], levels)
    print(f"portrait for D={D} beta={beta} written")
    return 0


def cmd_verify(args) -> int:
    # only verify needs revcore, and with it fractions and decimal: about
    # 0.35 MiB that the other commands' peak RSS need not carry
    from . import revcore

    cfg = _load_config(args.config)
    system = _make_system(args, cfg)
    n_samples = _setting(args, cfg, "samples", 100, int)
    if n_samples < 1:
        raise ConfigError(f"samples must be >= 1, got {n_samples}")
    seed = _setting(args, cfg, "seed", 0, int)
    out = _out_dir(args, cfg)

    doc: dict = {
        "command": "verify",
        "system": system.name,
        "params": system.params,
        "n_samples": n_samples,
    }

    if system.involution is not None and system.inverse is not None:
        rep = revcore.verify_reversibility(system, n_samples=n_samples, seed=seed)
        doc["reversibility"] = {
            "max_residual": rep.max_residual,
            "involution_residual": rep.involution_residual,
            "tol": rep.tol,
            "passed": rep.passed,
        }
    else:
        doc["reversibility"] = None

    if system.inverse is not None:
        inv = mapzoo.check_inverse_consistency(system, n_samples=n_samples, seed=seed)
        doc["inverse_roundtrip"] = {
            "max_error": inv.max_error,
            "tol": inv.tol,
            "passed": inv.passed,
        }
    else:
        doc["inverse_roundtrip"] = None

    if system.dim == 1:
        doc["fixed_points"] = [
            {
                "location": list(fp.location),
                "residual": fp.residual,
                "kind": fp.multipliers.kind,
                "eigenvalues": [[e.real, e.imag] for e in fp.multipliers.eigenvalues],
            }
            for fp in revcore.find_fixed_points(system)
        ]

    if system.involution is not None and system.involution_fixed is not None:
        scan = revcore.find_symmetric_fixed_points(system)
        doc["symmetric_points"] = [
            {
                "location": list(p.location),
                "period": p.period,
                "residual": p.residual,
                "kind": p.multipliers.kind,
                "eigenvalues": [[e.real, e.imag] for e in p.multipliers.eigenvalues],
                "max_pairing_error": p.multipliers.max_pairing_error,
            }
            for p in scan.points
        ]
        doc["degenerate_scan"] = scan.degenerate

    if system.name == "periodic_spot":
        q = int(system.params["q"])
        eps = float(system.params["epsilon"])
        theta = math.acos(1.0 - q * eps)
        try:
            spot = revcore.periodic_spot_check(q, theta, n_samples=n_samples, seed=seed)
            doc["spot_check"] = {
                "q": spot.q,
                "theta": spot.theta,
                "epsilon": spot.epsilon,
                "k": spot.k,
                "det_is_exactly_one": spot.det_is_exactly_one,
                "power_residual": spot.power_residual,
                "max_return_error": spot.max_return_error,
            }
        except ConfigError as e:
            doc["spot_check"] = {"skipped": str(e)}

    _write_json(os.path.join(out, "verify.json"), doc)
    print(f"{system.name}: verification report written")
    return 0


def cmd_noisy(args) -> int:
    cfg = _load_config(args.config)
    system = _make_system(args, cfg)
    x0 = _parse_point(_setting(args, cfg, "x0", [0.0] * system.dim), system.dim)
    noise = _setting(args, cfg, "noise", 1e-3, float)
    steps = _setting(args, cfg, "steps", 2000, int)
    trials = _setting(args, cfg, "trials", 8, int)
    depth = _setting(args, cfg, "depth", 7, int)
    seed = _setting(args, cfg, "seed", 0, int)

    # noisy_attractor checks the settings, so --out is made only after it
    rep = chain.noisy_attractor(
        system, x0, noise, n_steps=steps, n_trials=trials, depth=depth, seed=seed
    )
    out = _out_dir(args, cfg)
    centers = rep.boxset.centers() if rep.boxset.count else np.empty((0, system.dim))
    _write_csv(os.path.join(out, "noisy.csv"), ["code", *[f"x{i}" for i in range(system.dim)], "count"],
               ([code, *cen, cnt] for code, cen, cnt in
                zip(rep.codes.tolist(), centers.tolist(), rep.counts.tolist())))
    if system.dim == 2:
        write_pgm_heat(os.path.join(out, "noisy.pgm"), system.domain, depth, rep.codes, rep.counts)
    print(f"{system.name}: {rep.boxset.count} boxes visited, {rep.n_exits} exits")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--system", help="builtin system name")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="system parameter override (repeatable)")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--workers", type=int,
                   help="graph-build processes, forked with the system (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setdyn",
        description="Set-oriented attractor/repeller/core analysis of dynamical systems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="trichotomy verdict for one graph")
    _add_common(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--epsilon", type=float, help="chain noise (default: one box diameter)")
    p.add_argument("--samples", type=int, help="sample grid points per axis")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("core-scan", help="refinement scan around a target point (separation "
                       f"tolerance {chain.GAP_FACTOR:g} x (epsilon + pad + box width))")
    _add_common(p)
    p.add_argument("--schedule", help="comma list of depth:epsilon stages")
    p.add_argument("--target", help="comma-separated coordinates")
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_core_scan)

    p = sub.add_parser("merge-scan", help="parameter sweep of the classification")
    _add_common(p)
    p.add_argument("--sweep-param", dest="sweep_param")
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--depth", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_merge_scan)

    p = sub.add_parser("portrait", help="slow-system phase portrait data")
    _add_common(p)
    p.add_argument("--D", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--orbits", type=int)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("verify", help="reversibility and symmetric-point report")
    _add_common(p)
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("noisy", help="bounded-noise orbit histogram")
    _add_common(p)
    p.add_argument("--x0", help="comma-separated start point")
    p.add_argument("--noise", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_noisy)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
