"""The benchmark's workloads: the CLI job each one runs and its answer check.

Every job is one ``setdyn`` invocation with ``--workers 1``.  The graph
workloads have no randomness; ``nf_core`` and ``torus_noisy`` take the
benchmark seed as the CLI ``--seed``, and their answer checks hold for every
seed.  README.md in this directory records why each workload was chosen and
which layer metric should move it.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable[[int], list]  # seed -> CLI arguments, without --out
    system: str  # what a set-up probe builds
    params: dict
    check: Callable[[Path, str], list]  # (output dir, stdout) -> problems
    # the traced run rebuilds this graph with workers=2: (depth, epsilon, samples)
    rebuild: tuple | None = None
    seeded: bool = False
    files: tuple = ()  # output files every job must write


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_torus_classify(out: Path, stdout: str) -> list:
    rep = json.loads((out / "report.json").read_text())
    problems: list = []
    _expect(problems, "classification", rep["classification"], "Conservative")
    _expect(problems, "n_scc", rep["n_scc"], 1)
    _expect(problems, "n_boxes", rep["n_boxes"], 65536)
    _expect(problems, "n_edges", rep["n_edges"], 2359296)
    return problems


def _check_rings_scan(out: Path, stdout: str) -> list:
    cert = json.loads((out / "certificate.json").read_text())
    problems: list = []
    _expect(problems, "core_persistent", cert["core_persistent"], True)
    _expect(problems, "witnesses",
            (cert["n_attractor_witnesses"], cert["n_repeller_witnesses"]), (2, 1))
    _expect(problems, "stage edges", [s["n_edges"] for s in cert["stages"]],
            [103824, 475700, 2104448])
    _expect(problems, "stage boxes", [s["n_boxes"] for s in cert["stages"]],
            [4096, 16384, 65536])
    return problems


def _check_nf_core(out: Path, stdout: str) -> list:
    cert = json.loads((out / "certificate.json").read_text())
    problems: list = []
    _expect(problems, "core_persistent", cert["core_persistent"], False)
    _expect(problems, "stage boxes", [s["n_boxes"] for s in cert["stages"]], [4096])
    _expect(problems, "stage edges", [s["n_edges"] for s in cert["stages"]], [88807])
    for side in ("forward", "backward"):
        trap = cert["trap"][side]
        _expect(problems, f"{side} trap bounded", trap["bounded"], True)
        _expect(problems, f"{side} trap contains centre", trap["contains_center"], True)
    return problems


def _check_torus_noisy(out: Path, stdout: str) -> list:
    problems: list = []
    m = re.search(r"(\d+) exits", stdout)
    _expect(problems, "exits", int(m.group(1)) if m else None, 0)
    with open(out / "noisy.csv", newline="") as fh:
        total = sum(int(row["count"]) for row in csv.DictReader(fh))
    # 8 trials of 20000 steps, the first 10% of each discarded as burn-in
    _expect(problems, "histogram total", total, 8 * (20000 - 2000))
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="torus_classify",
            args=lambda seed: ["classify", "--system", "cat_map", "--depth", "8"],
            system="cat_map",
            params={},
            check=_check_torus_classify,
            files=("report.json", "classify.pgm"),
        ),
        Workload(
            name="rings_scan",
            args=lambda seed: [
                "core-scan", "--system", "nested_rings", "--param", "step=0.02",
                "--schedule", "6:0.03125,7:0.015625,8:0.0078125",
                "--target", "0,0", "--samples", "3",
            ],
            system="nested_rings",
            params={"step": 0.02},
            check=_check_rings_scan,
            rebuild=(8, 0.0078125, 3),
            files=("certificate.json", "witness_att_0.boxes", "witness_att_1.boxes",
                   "witness_rep_0.boxes"),
        ),
        Workload(
            name="nf_core",
            args=lambda seed: ["core-scan", "--config", str(HERE / "nf_core.json"),
                               "--seed", str(seed)],
            system="nf_timeq",
            params={},
            check=_check_nf_core,
            seeded=True,
            files=("certificate.json",),
        ),
        Workload(
            name="torus_noisy",
            args=lambda seed: [
                "noisy", "--system", "cat_map", "--x0", "0.2,0.7", "--noise", "0.01",
                "--steps", "20000", "--trials", "8", "--depth", "7", "--seed", str(seed),
            ],
            system="cat_map",
            params={},
            check=_check_torus_noisy,
            seeded=True,
            files=("noisy.csv", "noisy.pgm"),
        ),
    )
}


def job_argv(workload: Workload, seed: int, out: Path) -> list:
    return [*workload.args(seed), "--workers", "1", "--out", str(out)]
