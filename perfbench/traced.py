"""Outside-in tracing of one setdyn CLI job, and the layer split of its spans.

Run as a script, this wraps the library's public functions at the names their
callers resolve, runs ``setdyn.cli.main`` once inside a root span, and writes
the spans (name, parent, start, end) plus counters to a JSON file:

    python3 perfbench/traced.py SPANS.json KEEP_DEPTH -- CLI-ARGS...

KEEP_DEPTH >= 0 also records a digest of the last graph built at that depth,
so a rebuild with more workers can be compared against it.  Nothing inside
the program changes; the wrappers sit on module attributes only.

Imported, it gives ``layer_times``, which turns a spans file into self times
per layer.  Start and end come from ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux), so they compare with timestamps taken in the parent process.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

# span name -> per-layer self-time metric; forward/inverse are split by
# whether a build_graph span encloses them
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "build_graph": "boxdyn.edges_s",
    "write_pgm": "boxdyn.write_s",
    "write_pgm_heat": "boxdyn.write_s",
    "save_boxset": "boxdyn.write_s",
    "decompose": "chain.decompose_s",
    "reach_set": "chain.reach_s",
    "classify": "chain.classify_s",
    "core_scan": "chain.core_scan_s",
    "trapped_absorbing_domain": "chain.trap_s",
    "noisy_attractor": "chain.noisy_s",
}
MAP_SPANS = ("forward", "inverse")
SELF_METRICS = sorted(set(SELF_METRIC.values())
                      | {"mapzoo.graph_forward_s", "mapzoo.orbit_forward_s"})
COUNT_METRICS = ("boxdyn.n_boxes", "boxdyn.n_edges", "mapzoo.calls", "mapzoo.points",
                 "chain.n_scc")


def graph_digest(graph) -> str:
    h = hashlib.sha256()
    h.update(graph.indptr.astype("<i8").tobytes())
    h.update(graph.indices.astype("<i8").tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder for one single-threaded job."""

    def __init__(self, keep_depth: int = -1):
        self.spans: list = []  # [name, parent index, start, end]
        self.stack: list = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.keep_depth = keep_depth
        self.kept = None  # (span index, graph)

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.spans)
            span = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
            self.spans.append(span)
            self.stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(i, out)
            return out

        return traced

    def _on_map(self, i, out):
        self.counts["mapzoo.calls"] += 1
        shape = getattr(out, "shape", ())
        self.counts["mapzoo.points"] += int(shape[0]) if len(shape) > 1 else 1

    def _on_graph(self, i, graph):
        self.counts["boxdyn.n_boxes"] += graph.n_boxes
        self.counts["boxdyn.n_edges"] += graph.n_edges
        if graph.boxset.depth == self.keep_depth:
            self.kept = (i, graph)

    def _on_decompose(self, i, dec):
        self.counts["chain.n_scc"] += dec.n_scc

    def _make_system(self, make_system):
        def make(*args, **kwargs):
            system = make_system(*args, **kwargs)
            for name in MAP_SPANS:
                fn = getattr(system, name)
                if fn is not None:
                    setattr(system, name, self.wrap(name, fn, self._on_map))
            return system

        return make

    def install(self) -> None:
        from setdyn import chain, cli, mapzoo

        cli.build_graph = self.wrap("build_graph", cli.build_graph, self._on_graph)
        chain.build_graph = self.wrap("build_graph", chain.build_graph, self._on_graph)
        chain.decompose = self.wrap("decompose", chain.decompose, self._on_decompose)
        for name in ("reach_set", "classify", "core_scan", "trapped_absorbing_domain",
                     "noisy_attractor"):
            setattr(chain, name, self.wrap(name, getattr(chain, name)))
        for name in ("write_pgm", "write_pgm_heat", "save_boxset"):
            setattr(cli, name, self.wrap(name, getattr(cli, name)))
        mapzoo.make_system = self._make_system(mapzoo.make_system)

    def run(self, argv: list) -> int:
        from setdyn import cli

        return self.wrap("cli.main", cli.main)(argv)

    def dump(self, path: str) -> None:
        doc = {"spans": self.spans, "counts": self.counts, "kept_graph": None}
        if self.kept is not None:
            i, graph = self.kept
            doc["kept_graph"] = {"span": i, "sha256": graph_digest(graph)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_times(spans: list) -> dict:
    """Self time per layer metric; they sum to the root span's duration."""
    out = dict.fromkeys(SELF_METRICS, 0.0)
    covered = [0.0] * len(spans)
    in_build = [False] * len(spans)
    for i, (name, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            covered[parent] += t1 - t0
            in_build[i] = in_build[parent]
        in_build[i] = in_build[i] or name == "build_graph"
    for i, (name, parent, t0, t1) in enumerate(spans):
        if name in MAP_SPANS:
            key = "mapzoo.graph_forward_s" if in_build[i] else "mapzoo.orbit_forward_s"
        else:
            key = SELF_METRIC[name]
        out[key] += (t1 - t0) - covered[i]
    return out


def main(argv: list) -> int:
    spans_path, keep_depth, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json KEEP_DEPTH -- CLI-ARGS...")
    tracer = Tracer(int(keep_depth))
    tracer.install()
    code = tracer.run(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
