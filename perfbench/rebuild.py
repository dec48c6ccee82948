"""Time one ``build_graph`` call on a full cover with a given worker count.

    python3 perfbench/rebuild.py SYSTEM PARAMS_JSON DEPTH EPSILON SAMPLES WORKERS

Prints one JSON line: the build's seconds, edge count and the digest of its
CSR arrays, which must equal the single-worker graph's.
"""

from __future__ import annotations

import json
import sys
import time

from traced import graph_digest


def main(argv: list) -> int:
    from setdyn import boxdyn, mapzoo

    name, params, depth, epsilon, samples, workers = argv
    system = mapzoo.make_system(name, json.loads(params))
    cover = boxdyn.initial_cover(system.domain, int(depth))
    t0 = time.perf_counter()
    graph = boxdyn.build_graph(system, cover, float(epsilon),
                               samples_per_axis=int(samples), workers=int(workers))
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "n_edges": graph.n_edges,
                      "sha256": graph_digest(graph)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
