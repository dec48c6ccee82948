"""The benchmark's outside-in tracer must still see the library's layers.

perfbench/traced.py wraps public functions at the module attributes their
callers resolve.  These run small CLI jobs under that tracer and check that
graph building, decomposition, classification and the reach closures each
show up as a span, so a refactor that moves ``build_graph`` or
``reach_set`` out of the wrapped names fails here rather than silently
zeroing the benchmark's layer split.
"""

import importlib.util
from pathlib import Path

from setdyn import chain, cli, mapzoo

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(traced, argv):
    """(exit code, tracer) of one CLI job under the tracer; the wrapped
    module attributes are restored afterwards."""
    saved = {mod: dict(vars(mod)) for mod in (chain, cli, mapzoo)}
    try:
        tracer = traced.Tracer()
        tracer.install()
        code = tracer.run(argv)
    finally:
        for mod, attrs in saved.items():
            vars(mod).update(attrs)
    return code, tracer


def test_tracer_sees_graph_build_and_analysis(tmp_path):
    traced = _load_traced()
    code, tracer = _traced_run(traced, ["classify", "--system", "cubic_interval", "--depth", "6",
                                        "--out", str(tmp_path)])
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"build_graph", "decompose", "classify"} <= names
    times = traced.layer_times(tracer.spans)
    assert times["boxdyn.edges_s"] > 0
    assert times["mapzoo.graph_forward_s"] > 0


def test_tracer_sees_core_scan_reach_closures(tmp_path):
    # core_scan looks reach_set up on the chain module at call time, so the
    # tracer's wrapper times its forward and backward closures
    traced = _load_traced()
    code, tracer = _traced_run(traced, ["core-scan", "--system", "cubic_interval",
                                        "--schedule", "5:0.0625", "--target", "0",
                                        "--out", str(tmp_path)])
    assert code == 0
    reach = [span for span in tracer.spans if span[0] == "reach_set"]
    assert len(reach) == 2
    assert all(tracer.spans[span[1]][0] == "core_scan" for span in reach)
    assert traced.layer_times(tracer.spans)["chain.reach_s"] > 0
