#!/usr/bin/env python3
"""setdyn benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh ``setdyn`` CLI process over the sources in ``src/`` of
this checkout; nothing is installed.  Jobs run back to back, one at a time,
for about S seconds (at least one job), and every job's answer is checked.

--trace 0 prints the end-to-end metrics: the median wall time and peak RSS
of a job, and ``setup_s``, the median wall time of a fresh process that
imports ``setdyn.cli`` and builds the workload's system.

--trace 1 runs one job untraced and then one traced job (perfbench/traced.py)
and prints the per-layer self times and counters.  For a workload with a
rebuild graph it also times that graph built with two workers.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record of the run, output digests included, is
written to .perfbench_work/.  Exits non-zero without a result when the
program's sources are missing or cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from traced import COUNT_METRICS, SELF_METRICS, layer_times
from workloads import WORKLOADS, job_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_digests.json"

CLI_CODE = "import sys; from setdyn.cli import main; sys.exit(main())"
SETUP_CODE = ("import json, sys; from setdyn import cli; "
              "cli.mapzoo.make_system(sys.argv[1], json.loads(sys.argv[2]))")
N_SETUP = 5  # set-up probes per run, after one unmeasured warm-up
JOB_LIMIT_S = 170.0  # a job still running after this is killed and fails
REBUILD_WORKERS = 2


@dataclass
class Proc:
    wall: float
    rss_mb: float
    code: int


@dataclass
class Job:
    proc: Proc
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(work: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC),
                TMPDIR=str(work))


def spawn(argv: list, cwd: Path, log: Path, env: dict) -> Proc:
    """Run one child to completion; wall time and peak RSS are its own."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(JOB_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def sha256_files(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run_job(workload, seed: int, run_dir: Path, k: int, env: dict, prefix: list) -> Job:
    out = run_dir / f"job{k}"
    out.mkdir()
    log = run_dir / f"job{k}.log"
    proc = spawn([*prefix, *job_argv(workload, seed, out)], out, log, env)
    job = Job(proc)
    if proc.code != 0:
        job.problems.append(f"exit code {proc.code}")
        return job
    job.digests = sha256_files(out)
    missing = [f for f in workload.files if f not in job.digests]
    if missing:
        job.problems.append(f"missing outputs {missing}")
        return job
    try:
        job.problems += workload.check(out, log.read_text())
    except (KeyError, ValueError, TypeError) as e:
        job.problems.append(f"unreadable output: {type(e).__name__}: {e}")
    return job


def probe(argv: list, run_dir: Path, env: dict) -> float:
    """Wall time of one set-up probe; a failing probe ends the run without a result."""
    log = run_dir / "setup.log"
    proc = spawn(argv, run_dir, log, env)
    if proc.code != 0:
        sys.stderr.write(log.read_text())
        raise SystemExit(f"set-up probe exited with code {proc.code}")
    return proc.wall


def setup_argv(workload) -> list:
    return [sys.executable, "-c", SETUP_CODE, workload.system, json.dumps(workload.params)]


def setup_times(workload, run_dir: Path, env: dict) -> list:
    probe(setup_argv(workload), run_dir, env)  # warm-up: .pyc files, page cache
    return [probe(setup_argv(workload), run_dir, env) for _ in range(N_SETUP)]


def reference_digests(workload, seed: int):
    ref = json.loads(REFERENCE.read_text()).get(workload.name, {})
    return ref.get(str(seed) if workload.seeded else "any")


def mark_nondeterminism(jobs: list) -> None:
    """Jobs of one run share their inputs, so their outputs must be equal."""
    first = next((j for j in jobs if j.ok), None)
    for job in jobs:
        if job.ok and job.digests != first.digests:
            job.problems.append(f"outputs differ from job {jobs.index(first)} of this run")


def end_to_end(workload, seed: int, seconds: float, run_dir: Path, env: dict, record: dict):
    prefix = [sys.executable, "-c", CLI_CODE]
    setup = setup_times(workload, run_dir, env)
    jobs: list = []
    t0 = time.perf_counter()
    while True:
        jobs.append(run_job(workload, seed, run_dir, len(jobs), env, prefix))
        walls = [j.proc.wall for j in jobs]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    mark_nondeterminism(jobs)
    record["setup_s"] = setup
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(j.proc.rss_mb for j in jobs),
                        "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return jobs, metrics


def traced_run(workload, seed: int, run_dir: Path, env: dict, record: dict):
    probe(setup_argv(workload), run_dir, env)  # warm-up, as in setup_times
    plain = run_job(workload, seed, run_dir, 0, env, [sys.executable, "-c", CLI_CODE])
    spans_path = run_dir / "spans.json"
    keep_depth = workload.rebuild[0] if workload.rebuild else -1
    traced = run_job(workload, seed, run_dir, 1, env,
                     [sys.executable, str(HERE / "traced.py"), str(spans_path),
                      str(keep_depth), "--"])
    jobs = [plain, traced]
    mark_nondeterminism(jobs)

    values = dict.fromkeys(SELF_METRICS, 0.0)
    values.update(dict.fromkeys(COUNT_METRICS, 0))
    values.update({"cli.process_s": 0.0, "trace.wall_s": traced.proc.wall,
                   "trace.overhead_s": traced.proc.wall - plain.proc.wall,
                   "boxdyn.build_graph_workers1_s": 0.0,
                   "boxdyn.build_graph_workers2_s": 0.0})
    if traced.proc.code == 0 and spans_path.is_file():
        doc = json.loads(spans_path.read_text())
        spans = doc["spans"]
        values.update(layer_times(spans))
        values.update(doc["counts"])
        root = spans[0]
        values["cli.process_s"] = traced.proc.wall - (root[3] - root[2])
        record["trace_sum_check"] = {
            "self_plus_process_s": sum(values[m] for m in SELF_METRICS) + values["cli.process_s"],
            "trace_wall_s": traced.proc.wall,
        }
        kept = doc["kept_graph"]
        if workload.rebuild:
            if kept is None:
                traced.problems.append(f"no graph built at depth {keep_depth}")
            else:
                span = spans[kept["span"]]
                values["boxdyn.build_graph_workers1_s"] = span[3] - span[2]
                rebuilt = rebuild_graph(workload, run_dir, env, kept, record)
                if rebuilt is not None:
                    values["boxdyn.build_graph_workers2_s"] = rebuilt
                else:
                    traced.problems.append("workers=2 rebuild failed or differs")
    elif traced.ok:
        traced.problems.append("traced job wrote no spans")
    metrics = {}
    for name, value in sorted(values.items()):
        unit = "count" if name in COUNT_METRICS else "s"
        metrics[name] = {"value": value, "unit": unit}
    return jobs, metrics


def rebuild_graph(workload, run_dir: Path, env: dict, kept: dict, record: dict):
    """Seconds of a workers=2 build of the kept graph, or None if it differs."""
    depth, epsilon, samples = workload.rebuild
    log = run_dir / "rebuild.log"
    proc = spawn([sys.executable, str(HERE / "rebuild.py"), workload.system,
                  json.dumps(workload.params), str(depth), str(epsilon), str(samples),
                  str(REBUILD_WORKERS)], run_dir, log, env)
    if proc.code != 0:
        return None
    result = json.loads(log.read_text().splitlines()[-1])
    record["rebuild"] = result
    if result["sha256"] != kept["sha256"]:
        return None
    return result["seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "setdyn" / "cli.py").is_file():
        print(f"no setdyn sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(run_dir)

    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        jobs, metrics = traced_run(workload, args.seed, run_dir, env, record)
    else:
        jobs, metrics = end_to_end(workload, args.seed, args.seconds, run_dir, env, record)

    ref = reference_digests(workload, args.seed)
    record["jobs"] = [
        {"wall_s": j.proc.wall, "peak_rss_mb": j.proc.rss_mb, "exit": j.proc.code,
         "problems": j.problems, "sha256": j.digests}
        for j in jobs
    ]
    for k, j in enumerate(jobs):
        verdict = "ok" if j.ok else "FAILED: " + "; ".join(j.problems)
        print(f"{workload.name} job {k}: {j.proc.wall:.3f} s, {j.proc.rss_mb:.1f} MiB, {verdict}")
    if ref is None:
        print("outputs vs reference digests: no reference for this workload and seed")
    else:
        # every job that exited 0, whether or not its answer check passed
        same = [j.digests == ref for j in jobs if j.digests]
        print(f"outputs vs reference digests: {'identical' if same and all(same) else 'DIFFERENT'}")
        record["matches_reference"] = same
    failed = sum(not j.ok for j in jobs)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": metrics}
    record["result"] = result
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
