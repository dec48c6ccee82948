"""Command-line interface.

Subcommands map onto the library layers: ``classify`` builds one transition
graph and reports the Conservative/Dissipative/Mixed verdict, ``core-scan``
runs a refinement schedule around a target point, ``merge-scan`` sweeps a
system parameter and tracks attractor/repeller overlap, ``portrait`` dumps
the slow-system phase portrait, ``verify`` runs the reversibility tool set
and ``noisy`` the bounded-noise orbit histogram.

A JSON config file (--config) stands for the flags its keys name (see
``_flags``), read before the command line's own by the same parser, so a
flag on the command line wins and a key that names no flag of the command
is a configuration error.  Outputs are deterministic byte-for-byte for a
fixed config and seed, independent of --workers.

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
from .boxdyn import (BoxSet, _check_depth, build_graph, check_points, save_boxset,  # noqa: F401
                     write_pgm, write_pgm_heat)
from .errors import BudgetError, ConfigError, NumericsError, SetdynError

ATTRACTOR_SHADE = 64
REPELLER_SHADE = 160
OVERLAP_SHADE = 255


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are configuration errors (exit 2),
    whether the bad flag came from the command line or a config file."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _table(val, what: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{what} must be a JSON object, got {val!r}")
    return val


def _flags(table: dict) -> list[str]:
    """The flags a config table stands for: each key ``k`` becomes
    ``--k=value`` with ``_`` written as ``-``, a list is comma-joined (a
    schedule's [depth, epsilon] stages as ``depth:epsilon``), ``params``
    becomes one ``--param key=value`` per key, and a null value leaves the
    setting unset."""
    flags = []
    for key, val in table.items():
        if val is None:
            continue
        if key == "params":
            flags += [f"--param={k}={v}" for k, v in _table(val, "params").items()]
            continue
        if isinstance(val, list):
            val = ",".join(":".join(map(str, v)) if isinstance(v, list) else str(v) for v in val)
        flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def _config_flags(path: str, cmd: str, trap_parser) -> tuple[list[str], argparse.Namespace | None]:
    """The flags of config file ``path``, and its ``trap`` table parsed by
    ``trap_parser``: only ``core-scan`` reads one, and no flag sets it."""
    try:
        with open(path) as fh:
            cfg = _table(json.load(fh), f"config {path}")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    trap = cfg.pop("trap", None)
    if "config" in cfg:
        raise ConfigError(f"config {path} names another config file")
    if trap is not None:
        if cmd != "core-scan":
            raise ConfigError(f"config {path}: only core-scan reads a trap table")
        trap = trap_parser.parse_args(_flags(_table(trap, "trap")))
    return _flags(cfg), trap


def _point(vals: tuple, dim: int) -> tuple:
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"point {vals} has a non-finite coordinate")
    if len(vals) != dim:
        raise ConfigError(f"expected {dim} coordinates, got {len(vals)}")
    return vals


def _domain_point(vals: tuple, system: mapzoo.MapSystem, what: str) -> tuple:
    """A point checked by :func:`_point` that lies in the system's domain."""
    point = _point(vals, system.dim)
    if not system.domain.contains(np.array(point)):
        raise ConfigError(f"{what} {point} lies outside the domain")
    return point


def _system_name(args) -> str:
    if not args.system:
        raise ConfigError("no system given (use --system or the config file)")
    return args.system


def _make_system(args) -> mapzoo.MapSystem:
    return mapzoo.make_system(_system_name(args), dict(args.param))


def _check_cover(args, domain) -> None:
    """A full-cover graph build of ``domain`` at the given depth, epsilon
    (None: one box diameter), samples and workers, checked like a one-stage
    schedule before any output directory is made."""
    chain.check_schedule(domain, [(args.depth, 0.0 if args.epsilon is None else args.epsilon)],
                         args.samples, args.workers)


def _out_dir(args) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {args.out}: {e}") from e
    return args.out


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
    system = _make_system(args)
    _check_cover(args, system.domain)
    out = _out_dir(args)
    depth, samples = args.depth, args.samples

    graph = chain.cover_graph(system, depth, args.epsilon, samples, args.workers)
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
        # the prolongations equal the full sets (see chain.classify)
        "ruelle_attractor": _boxset_summary(report.full_attractor),
        "ruelle_repeller": _boxset_summary(report.full_repeller),
    }
    _write_json(os.path.join(out, "report.json"), doc)

    if system.dim == 2:
        inter = report.full_attractor.intersection(report.full_repeller)
        write_pgm(
            os.path.join(out, "classify.pgm"),
            system.domain,
            depth,
            [
                (report.full_attractor, ATTRACTOR_SHADE),
                (report.full_repeller, REPELLER_SHADE),
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
        "target_scc_size": st.core_boxes.count,
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
    system = _make_system(args)
    schedule = args.schedule
    if schedule is None:
        raise ConfigError("core-scan requires a schedule (--schedule depth:eps,...)")
    chain.check_schedule(system.domain, schedule, args.samples, args.workers)
    target = _domain_point(args.target or (0.0,) * system.dim, system, "target")
    if args.trap:
        # the trap table's keys are trapped_absorbing_domain's arguments
        trap = {**vars(args.trap), "seed": args.seed,
                "center": _domain_point(args.trap.center or target, system, "trap center")}
        if trap["depth"] is None:
            trap["depth"] = schedule[-1][0]
        _check_depth(system.domain, trap["depth"])
        # each way records every orbit's box at every step
        check_points(2 * (trap["n_orbits"] + 1) * (trap["n_steps"] + 1), "trap orbit points")
    out = _out_dir(args)

    cert = chain.core_scan(system, target, schedule, samples_per_axis=args.samples,
                           workers=args.workers)
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

    if args.trap:
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
    name, pname, values = _system_name(args), args.sweep_param, args.values
    if not pname or values is None:
        raise ConfigError("merge-scan needs --sweep-param and --values")
    # the cover's checks need only the domain's dimension, which no
    # parameter value changes
    _check_cover(args, mapzoo.make_system(name).domain)
    out = _out_dir(args)

    rows = []
    for v in values:
        try:
            system = mapzoo.make_system(name, {**dict(args.param), pname: v})
            rep = chain.classify(chain.cover_graph(system, args.depth, args.epsilon,
                                                   args.samples, args.workers))
            rows.append([
                repr(v), "ok", rep.classification, str(rep.n_scc),
                str(len(rep.attractors)), str(len(rep.repellers)),
                repr(float(rep.overlap_jaccard)), "",
            ])
        except SetdynError as e:
            rows.append([repr(v), "error", "", "", "", "", "", f"{type(e).__name__}: {e}"])
    _write_csv(os.path.join(out, "sweep.csv"), [pname, "status", "classification", "n_scc",
               "n_attractors", "n_repellers", "overlap_jaccard", "detail"], rows)
    print(f"swept {pname} over {len(values)} values")
    return 0


def cmd_portrait(args) -> int:
    D, beta, n_orbits = args.D, args.beta, args.orbits
    if n_orbits < 0:
        raise ConfigError(f"orbits must be >= 0, got {n_orbits}")
    check_points(n_orbits * (flows._step_grid(args.T, args.step)[0] + 1), "orbit points")

    # everything is computed before --out is made, so a bad setting leaves
    # no partial output behind
    equilibria = []
    for eq in flows.equilibria(D, beta):
        e1, e2 = eq.eigenvalues
        equilibria.append([eq.name, repr(eq.V), repr(eq.phi), eq.kind,
                           repr(e1.real), repr(e1.imag), repr(e2.real), repr(e2.imag)])
    rng = np.random.default_rng(args.seed)
    x0 = np.array([[rng.uniform(-2.5, 2.5), rng.uniform(0, 2 * math.pi)]
                   for _ in range(n_orbits)]).reshape(n_orbits, 2)
    # one batch: all orbits step together, each truncated on its own
    traj = flows.integrate(flows.limit_rhs(D, beta), x0, T=args.T, step=args.step)
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

    out = _out_dir(args)
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

    system = _make_system(args)
    n_samples, seed = args.samples, args.seed
    if n_samples < 1:
        raise ConfigError(f"samples must be >= 1, got {n_samples}")
    check_points(n_samples, "sample points")
    out = _out_dir(args)

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
                "period": 1,
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
    system = _make_system(args)
    x0 = _point(args.x0 or (0.0,) * system.dim, system.dim)
    depth = args.depth

    # noisy_attractor checks the settings, so --out is made only after it
    rep = chain.noisy_attractor(
        system, x0, args.noise, n_steps=args.steps, n_trials=args.trials, depth=depth,
        seed=args.seed,
    )
    out = _out_dir(args)
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


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The one parser of every setting, from the command line or a config
    file, in which each command takes only the flags it reads; and the
    parser of core-scan's config-only ``trap`` table."""

    # argparse names a value it rejects by the name of the type function
    def numbers(raw: str) -> tuple:
        return tuple(float(v) for v in raw.split(","))

    def param(raw: str) -> tuple[str, float]:
        key, _, val = raw.partition("=")
        return key, float(val)

    def schedule(raw: str) -> list[tuple[int, float]]:
        return [(int(d), float(e)) for d, e in (stage.split(":") for stage in raw.split(","))]

    def seed(raw: str) -> int:
        if int(raw) < 0:  # numpy's generators take no negative seed
            raise ValueError(raw)
        return int(raw)

    parser = _Parser(
        prog="setdyn", allow_abbrev=False,
        description="Set-oriented attractor/repeller/core analysis of dynamical systems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, func, help, *, system=True, seeded=True, workers=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file: each key is a flag of this command, "
                       "and flags on the command line beat it")
        p.add_argument("--out", default=".", help="output directory (default .)")
        if system:
            p.add_argument("--system", help="builtin system name")
            p.add_argument("--param", action="append", type=param, default=[],
                           metavar="KEY=VALUE", help="system parameter override (repeatable)")
        if seeded:
            p.add_argument("--seed", type=seed, default=0, help="random seed (default 0)")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="graph-build processes, forked with the system (default 1)")
        return p

    p = command("classify", cmd_classify, "trichotomy verdict for one graph", seeded=False)
    p.add_argument("--depth", type=int, default=7)
    p.add_argument("--epsilon", type=float, help="chain noise (default: one box diameter)")
    p.add_argument("--samples", type=int, default=4, help="sample grid points per axis")

    p = command("core-scan", cmd_core_scan, "refinement scan around a target point (separation "
                f"tolerance {chain.GAP_FACTOR:g} x (epsilon + pad + box width))")
    p.add_argument("--schedule", type=schedule, help="comma list of depth:epsilon stages")
    p.add_argument("--target", type=numbers, help="comma-separated coordinates (default origin)")
    p.add_argument("--samples", type=int, default=3)

    p = command("merge-scan", cmd_merge_scan, "parameter sweep of the classification",
                seeded=False)
    p.add_argument("--sweep-param")
    p.add_argument("--values", type=numbers, help="comma-separated parameter values")
    p.add_argument("--depth", type=int, default=7)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--samples", type=int, default=4)

    p = command("portrait", cmd_portrait, "slow-system phase portrait data",
                system=False, workers=False)
    p.add_argument("--D", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--step", type=float, default=flows.DEFAULT_STEP)
    p.add_argument("--orbits", type=int, default=12)

    p = command("verify", cmd_verify, "reversibility and symmetric-point report", workers=False)
    p.add_argument("--samples", type=int, default=100)

    # noisy builds no graph; it keeps --workers so that every command of a
    # benchmark can be given the same --workers 1
    p = command("noisy", cmd_noisy, "bounded-noise orbit histogram")
    p.add_argument("--x0", type=numbers, help="comma-separated start point (default origin)")
    p.add_argument("--noise", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--depth", type=int, default=7)

    trap = _Parser(prog="trap", allow_abbrev=False, add_help=False)
    trap.add_argument("--center", type=numbers)  # default: the target
    trap.add_argument("--seed-radius", type=float, required=True)
    trap.add_argument("--bound-radius", type=float, required=True)
    trap.add_argument("--n-orbits", type=int, default=48)
    trap.add_argument("--n-steps", type=int, default=500)
    trap.add_argument("--depth", type=int)  # default: the last stage's depth
    return parser, trap


def _parse_args(argv: list) -> argparse.Namespace:
    parser, trap_parser = _build_parser()
    args = parser.parse_args(argv)
    trap = None
    if args.config is not None:
        # the file's flags go between the command name and the command
        # line's own flags, so that a flag on the command line wins
        flags, trap = _config_flags(args.config, args.cmd, trap_parser)
        at = argv.index(args.cmd) + 1
        args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
    args.trap = trap
    return args


def main(argv=None) -> int:
    try:
        # the parsers are freed before the command runs
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
