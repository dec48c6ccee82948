"""The benchmark's outside-in tracer must still see the library's layers.

perfbench/traced.py wraps public functions at the module attributes their
callers resolve.  This runs one small CLI job under that tracer and checks
that graph building, decomposition and classification each show up as a
span, so a refactor that moves ``build_graph`` out of the wrapped names
fails here rather than silently zeroing the benchmark's layer split.
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


def test_tracer_sees_graph_build_and_analysis(tmp_path):
    traced = _load_traced()
    saved = {mod: dict(vars(mod)) for mod in (chain, cli, mapzoo)}
    try:
        tracer = traced.Tracer()
        tracer.install()
        code = tracer.run(["classify", "--system", "cubic_interval", "--depth", "6",
                           "--out", str(tmp_path)])
    finally:
        for mod, attrs in saved.items():
            vars(mod).update(attrs)
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"build_graph", "decompose", "classify"} <= names
    times = traced.layer_times(tracer.spans)
    assert times["boxdyn.edges_s"] > 0
    assert times["mapzoo.graph_forward_s"] > 0
