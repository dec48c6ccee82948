import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import setdyn
from setdyn import cli, flows
from setdyn.errors import NumericsError


def _schema(name):
    return json.loads(resources.files("setdyn.schemas").joinpath(name).read_text())


def _run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_writes_valid_report(tmp_path):
    code = _run("classify", "--system", "cubic_interval", "--depth", "6",
                "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(doc, _schema("classify_report.schema.json"))
    assert doc["classification"] == "Dissipative"
    assert doc["depth"] == 6
    assert not (tmp_path / "classify.pgm").exists()  # 1-d domain has no raster


def test_classify_2d_writes_pgm(tmp_path):
    code = _run("classify", "--system", "cat_map", "--depth", "5",
                "--out", str(tmp_path))
    assert code == 0
    raster = (tmp_path / "classify.pgm").read_bytes()
    assert raster.startswith(b"P5\n32 32\n255\n")


def test_param_override_reaches_the_map(tmp_path):
    _run("classify", "--system", "cubic_interval", "--depth", "5",
         "--param", "a=0.3", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["params"]["a"] == 0.3


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "cubic_interval", "depth": 5}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run("classify", "--config", str(cfg), "--out", str(out_a)) == 0
    assert json.loads((out_a / "report.json").read_text())["depth"] == 5
    assert _run("classify", "--config", str(cfg), "--depth", "4",
                "--out", str(out_b)) == 0
    assert json.loads((out_b / "report.json").read_text())["depth"] == 4


# each command's flags; a config file's keys are these names with - or _
_FLAGS = {
    "classify": "config out system param workers depth epsilon samples",
    "core-scan": "config out system param seed workers schedule target samples",
    "merge-scan": "config out system param workers sweep-param values depth epsilon samples",
    "portrait": "config out seed D beta T step orbits",
    "verify": "config out system param seed samples",
    "noisy": "config out system param seed workers x0 noise steps trials depth",
}


def test_each_command_takes_only_the_flags_it_reads():
    parser, trap = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def flags(p):
        return {opt[2:] for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")}

    assert {name: flags(p) for name, p in commands.items()} == {
        name: set(names.split()) for name, names in _FLAGS.items()}
    assert sum(len(names.split()) for names in _FLAGS.values()) == 52
    assert flags(trap) == {"center", "seed-radius", "bound-radius", "n-orbits", "n-steps", "depth"}


@pytest.mark.parametrize("argv, cfg", [
    (["classify", "--system", "cubic_interval", "--param", "a=0.3", "--depth", "5",
      "--epsilon", "0.01", "--samples", "3", "--workers", "1"],
     {"system": "cubic_interval", "params": {"a": 0.3}, "depth": 5, "epsilon": 0.01,
      "samples": 3, "workers": 1}),
    (["core-scan", "--system", "cat_map", "--schedule", "3:0.1,4:0.05", "--target", "0.5,0.5",
      "--samples", "3", "--seed", "2"],
     {"system": "cat_map", "schedule": [[3, 0.1], [4, 0.05]], "target": [0.5, 0.5],
      "samples": 3, "seed": 2}),
    (["merge-scan", "--system", "cubic_interval", "--sweep-param", "a", "--values", "0.1,0.7",
      "--depth", "4", "--samples", "3"],
     {"system": "cubic_interval", "sweep_param": "a", "values": [0.1, 0.7], "depth": 4,
      "samples": 3}),
    (["portrait", "--D", "0.5", "--beta", "1.5", "--T", "1", "--step", "0.01", "--orbits", "2",
      "--seed", "4"],
     {"D": 0.5, "beta": 1.5, "T": 1, "step": 0.01, "orbits": 2, "seed": 4}),
    (["verify", "--system", "periodic_spot", "--param", "q=4", "--samples", "10", "--seed", "1"],
     {"system": "periodic_spot", "params": {"q": 4}, "samples": 10, "seed": 1}),
    (["noisy", "--system", "cat_map", "--x0", "0.2,0.7", "--noise", "0.01", "--steps", "50",
      "--trials", "2", "--depth", "4", "--seed", "3"],
     {"system": "cat_map", "x0": [0.2, 0.7], "noise": 0.01, "steps": 50, "trials": 2,
      "depth": 4, "seed": 3}),
], ids=list(_FLAGS))
def test_config_file_and_flags_give_the_same_bytes(argv, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runs = {"flags": argv, "config": [argv[0], "--config", str(path)]}
    outputs = {}
    for tag, args in runs.items():
        assert _run(*args, "--out", str(tmp_path / tag)) == 0
        files = sorted((tmp_path / tag).iterdir())
        outputs[tag] = ([f.name for f in files], [f.read_bytes() for f in files],
                        capsys.readouterr().out)
    assert outputs["config"] == outputs["flags"]
    assert outputs["flags"][0]


def test_null_config_value_leaves_the_setting_unset(tmp_path):
    # "epsilon": null is one box diameter, as with no epsilon at all
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": "cubic_interval", "depth": 5, "epsilon": None}))
    assert _run("classify", "--config", str(path), "--out", str(tmp_path / "a")) == 0
    assert _run("classify", "--system", "cubic_interval", "--depth", "5",
                "--out", str(tmp_path / "b")) == 0
    report = (tmp_path / "a" / "report.json").read_bytes()
    assert report == (tmp_path / "b" / "report.json").read_bytes()
    assert json.loads(report)["epsilon"] > 0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_system_exits_2(capsys):
    assert _run("classify", "--system", "does_not_exist") == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_param_value_exits_2(tmp_path):
    assert _run("classify", "--system", "cubic_interval",
                "--param", "a=oops", "--out", str(tmp_path)) == 2


def test_missing_schedule_exits_2(tmp_path):
    assert _run("core-scan", "--system", "cat_map", "--out", str(tmp_path)) == 2


def test_box_budget_exit_3(tmp_path):
    # depth 14 on a 2-d domain wants 2^28 boxes, past the global budget
    assert _run("classify", "--system", "cat_map", "--depth", "14",
                "--out", str(tmp_path)) == 3


def test_numerics_exit_4(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cli.chain, "classify", boom)
    assert _run("classify", "--system", "cubic_interval", "--depth", "4",
                "--out", str(tmp_path)) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_bad_config_json_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    assert _run("classify", "--config", str(cfg)) == 2


_NOISY = ("noisy", "--system", "cat_map", "--steps", "50", "--trials", "2", "--depth", "5")
_CORE_SCAN = ("core-scan", "--system", "cat_map", "--schedule", "3:0.1")


@pytest.mark.parametrize("argv", [
    (*_NOISY, "--steps", "-1"),
    (*_NOISY, "--trials", "-2"),
    (*_NOISY, "--depth", "-1"),
    (*_NOISY, "--noise", "nan"),
    (*_NOISY, "--x0", "0.2,abc"),
    (*_NOISY, "--x0", "nan,0.5"),
    (*_CORE_SCAN, "--target", "0.2,abc"),
    (*_CORE_SCAN, "--target", "0.5,inf"),
], ids=lambda argv: f"{argv[0]} {' '.join(argv[-2:])}")
def test_bad_noisy_inputs_and_points_exit_2(argv, tmp_path, capsys):
    assert _run(*argv, "--out", str(tmp_path)) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_TRAP_SCAN = {"system": "cat_map", "schedule": [[3, 0.1]],
              "trap": {"seed_radius": 0.1, "bound_radius": 2.0, "n_orbits": 2,
                       "n_steps": 2, "depth": 3}}


_MERGE = ("--system", "nested_rings", "--sweep-param", "step", "--values", "0.02,0.03")


@pytest.mark.parametrize("argv, cfg", [
    (("noisy",), {"system": "cat_map", "steps": "abc"}),
    ((*_NOISY, "--seed", "-1"), None),
    (("verify", "--system", "cat_map", "--samples", "5", "--seed", "-1"), None),
    (("portrait", "--T", "1", "--orbits", "1", "--seed", "-1"), None),
    (("core-scan", "--seed", "-1"), _TRAP_SCAN),
    (("core-scan",), {**_TRAP_SCAN, "trap": {"bound_radius": 2.0}}),
    (("core-scan",), {**_TRAP_SCAN, "trap": {**_TRAP_SCAN["trap"], "center": [math.nan, 0.0]}}),
    (("core-scan",), {**_TRAP_SCAN, "trap": {**_TRAP_SCAN["trap"], "center": [0.0, 0.0, 0.0]}}),
    (("core-scan", "--system", "cat_map", "--schedule", "4:abc"), None),
    (("merge-scan", "--system", "cubic_interval", "--sweep-param", "a",
      "--values", "0.1,x", "--depth", "3"), None),
    (("core-scan",), {"system": "cat_map", "schedule": [[3]]}),
    (("core-scan",), {"system": "cat_map", "schedule": [3, 4]}),
    (("core-scan",), {"system": "cat_map", "schedule": [[3, 0.1, 9]]}),
    (("verify", "--system", "cat_map", "--samples", "0"), None),
    (("verify", "--system", "nf_timeq", "--samples", "-1"), None),
    (("classify", "--system", "cat_map", "--depth", "3", "--samples", "1"), None),
    (("core-scan", "--system", "cat_map", "--schedule", "3:0.1", "--samples", "1"), None),
    (("merge-scan", "--system", "cubic_interval", "--sweep-param", "a",
      "--values", "0.1", "--depth", "3", "--samples", "1"), None),
    (("core-scan", "--system", "cubic_interval", "--schedule", "4:0.1", "--target", "5",
      "--samples", "3"), None),
    (("core-scan",), {"system": "cubic_interval", "schedule": [[3, 0.1]], "target": [0.0],
                      "trap": {**_TRAP_SCAN["trap"], "center": [-1.5]}}),
    (("core-scan", "--system", "cat_map", "--schedule", "5:0.05,4:0.1", "--target", "0.3,0.3",
      "--samples", "3"), None),
    (("core-scan",), {"system": "cat_map", "schedule": [[4, 0.1], [5, 0.05], [3, 0.1]]}),
    (("merge-scan", *_MERGE, "--workers", "0"), None),
    (("merge-scan", *_MERGE, "--depth", "-1"), None),
    (("merge-scan", *_MERGE, "--epsilon", "-1"), None),
    (("classify", "--system", "cat_map", "--depth", "3", "--workers", "0"), None),
    (("classify", "--system", "cat_map", "--depth", "-1"), None),
    (("classify", "--system", "cat_map", "--depth", "3", "--epsilon", "-1"), None),
    (("core-scan", "--system", "cat_map", "--schedule", "3:0.1", "--workers", "0"), None),
    (("core-scan", "--system", "cat_map", "--schedule=-1:0.1"), None),
    (("core-scan", "--system", "cat_map", "--schedule", "3:-1"), None),
    (("core-scan",), {"system": "cat_map", "schedule": [[3, 0.1], [4, "nan"]]}),
    (("classify", "--system", "cat_map", "--depth", "40"), None),
    (("core-scan", "--system", "cat_map", "--schedule", "3:0.1,40:0.01"), None),
    (("merge-scan", *_MERGE, "--depth", "40"), None),
    (("core-scan",), {**_TRAP_SCAN, "trap": {**_TRAP_SCAN["trap"], "depth": 40}}),
    ((*_NOISY, "--depth", "40"), None),
    ((*_NOISY, "--noise", "-1"), None),
    ((*_NOISY, "--steps", "-3"), None),
    (("portrait", "--T", "1", "--orbits", "1", "--step", "0"), None),
    (("portrait", "--T", "0", "--orbits", "1"), None),
    (("portrait", "--T", "1", "--orbits", "-2"), None),
    (("portrait", "--T", "0", "--orbits", "0"), None),
    (("portrait", "--T", "1", "--orbits", "0", "--step", "0"), None),
    (("portrait",), {"orbits": 0, "T": "nan"}),
    (("classify", "--system", "cubic_interval", "--depth", "3"), {"params": [1, 2]}),
    (("classify", "--system", "cubic_interval", "--depth", "3"), {"params": {"a": "x"}}),
    (("classify", "--system", "cubic_interval", "--depth", "3"), {"params": {"a": None}}),
    (("classify", "--system", "cat_map", "--depth", "3", "--seed", "1"), None),
    (("merge-scan", *_MERGE, "--depth", "3", "--seed", "1"), None),
    (("portrait", "--T", "1", "--system", "cat_map"), None),
    (("portrait", "--T", "1", "--param", "a=1"), None),
    (("portrait", "--T", "1", "--workers", "1"), None),
    (("verify", "--system", "cat_map", "--samples", "5", "--workers", "1"), None),
    (("classify", "--system", "cat_map", "--dep", "3"), None),
    (("classify",), {"system": "cat_map", "depth": 3, "smaples": 5}),
    (("classify",), {"system": "cat_map", "dep": 3}),
    (("classify",), {"system": "cat_map", "depth": 3.0}),
    (("classify",), {"system": "cat_map", "depth": 3, "seed": 1}),
    (("classify",), {"system": "cat_map", "depth": 3, "config": "other.json"}),
    (("classify",), {"system": "cat_map", "depth": 3, "trap": _TRAP_SCAN["trap"]}),
    (("core-scan",), {**_TRAP_SCAN, "trap": {**_TRAP_SCAN["trap"], "n_step": 3}}),
    (("core-scan",), {**_TRAP_SCAN, "trap": [0.1, 2.0]}),
], ids=["config steps abc", "noisy seed -1", "verify seed -1", "portrait seed -1",
        "core-scan trap seed -1", "core-scan trap without seed_radius",
        "core-scan trap center [NaN, 0]", "core-scan trap center [0, 0, 0]", "core-scan schedule 4:abc", "merge-scan values 0.1,x",
        "core-scan schedule [[3]]", "core-scan schedule [3, 4]", "core-scan schedule [[3, 0.1, 9]]",
        "verify samples 0", "verify samples -1",
        "classify samples 1", "core-scan samples 1", "merge-scan samples 1",
        "core-scan target 5 outside [-1, 1]", "core-scan trap center -1.5 outside [-1, 1]",
        "core-scan schedule 5:0.05,4:0.1", "core-scan schedule [[4, 0.1], [5, 0.05], [3, 0.1]]",
        "merge-scan workers 0", "merge-scan depth -1", "merge-scan epsilon -1",
        "classify workers 0", "classify depth -1", "classify epsilon -1",
        "core-scan workers 0", "core-scan schedule -1:0.1", "core-scan schedule 3:-1",
        "core-scan schedule epsilon nan", "classify depth 40", "core-scan schedule 3:0.1,40:0.01",
        "merge-scan depth 40", "core-scan trap depth 40", "noisy depth 40", "noisy noise -1",
        "noisy steps -3", "portrait step 0", "portrait T 0", "portrait orbits -2",
        "portrait orbits 0 T 0", "portrait orbits 0 step 0", "config portrait orbits 0 T nan",
        "config params [1, 2]", "config params a x", "config params a null",
        "classify seed", "merge-scan seed", "portrait system", "portrait param",
        "portrait workers", "verify workers", "classify dep", "config smaples", "config dep",
        "config depth 3.0", "config classify seed", "config config", "config classify trap",
        "core-scan trap n_step", "core-scan trap list"])
def test_bad_settings_exit_2(argv, cfg, tmp_path, capsys):
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = (*argv, "--config", str(path))
    out = tmp_path / "out"
    assert _run(*argv, "--out", str(out)) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("classify", "--system", "cat_map", "--depth", "14"),
    ("core-scan", "--system", "cat_map", "--schedule", "14:0.01"),
    ("merge-scan", *_MERGE, "--depth", "14"),
], ids=lambda argv: argv[0])
def test_box_budget_exit_3_before_any_output(argv, tmp_path, capsys):
    # a 2-d full cover at depth 14 holds 2^28 boxes, past the global budget
    out = tmp_path / "out"
    assert _run(*argv, "--out", str(out)) == 3
    assert "budget exceeded:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------


def test_core_scan_certificate_validates(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "cat_map",
        "schedule": [[5, 0.04]],
        "target": [0.5, 0.5],
        "samples": 3,
        "trap": {"seed_radius": 0.1, "bound_radius": 2.0,
                 "n_orbits": 8, "n_steps": 40, "depth": 5},
    }))
    assert _run("core-scan", "--config", str(cfg), "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    jsonschema.validate(doc, _schema("core_certificate.schema.json"))
    assert doc["core_persistent"] is True
    assert doc["trap"]["forward"]["bounded"] is True
    assert doc["trap"]["backward"]["contains_center"] is True


def test_zero_epsilon_reports_validate(tmp_path):
    # epsilon 0 is a valid chain noise: the pad still covers the image
    assert _run("classify", "--system", "cubic_interval", "--depth", "5", "--epsilon", "0",
                "--out", str(tmp_path / "c")) == 0
    doc = json.loads((tmp_path / "c" / "report.json").read_text())
    assert doc["epsilon"] == 0.0
    jsonschema.validate(doc, _schema("classify_report.schema.json"))
    assert _run("core-scan", "--system", "cubic_interval", "--schedule", "4:0,5:0",
                "--target", "0", "--samples", "3", "--out", str(tmp_path / "s")) == 0
    doc = json.loads((tmp_path / "s" / "certificate.json").read_text())
    assert [st["epsilon"] for st in doc["stages"]] == [0.0, 0.0]
    jsonschema.validate(doc, _schema("core_certificate.schema.json"))


def test_verify_report_validates(tmp_path):
    eps = (1 - math.cos(2 * math.pi / 5)) / 3  # theta = 2*pi/5
    assert _run("verify", "--system", "periodic_spot", "--samples", "30",
                "--param", f"epsilon={eps!r}", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    jsonschema.validate(doc, _schema("verify_report.schema.json"))
    assert doc["reversibility"]["passed"] is True
    assert doc["inverse_roundtrip"]["passed"] is True
    assert doc["spot_check"]["det_is_exactly_one"] is True
    assert doc["spot_check"]["k"] == 5


def test_verify_spot_with_irrational_angle_skips_return_check(tmp_path):
    assert _run("verify", "--system", "periodic_spot", "--samples", "10",
                "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert "skipped" in doc["spot_check"]


def test_verify_without_involution_reports_null(tmp_path):
    assert _run("verify", "--system", "cat_map", "--samples", "20",
                "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["reversibility"] is None
    assert doc["inverse_roundtrip"]["passed"] is True


def test_portrait_writes_three_csvs(tmp_path):
    assert _run("portrait", "--D", "0", "--beta", "1", "--T", "1",
                "--orbits", "2", "--out", str(tmp_path)) == 0
    eq = (tmp_path / "equilibria.csv").read_text().strip().splitlines()
    assert eq[0].startswith("name,")
    assert len(eq) == 5  # four equilibria for |D| < 1
    assert (tmp_path / "orbits.csv").exists()
    assert (tmp_path / "levels.csv").read_text().startswith("V,phi,K")


def _reference_portrait_orbits(D, beta, T, step, n_orbits, seed):
    """orbits.csv as the earlier ``portrait`` wrote it: one ``integrate``
    call per orbit, with that call's list-building loop, kept as the oracle
    of the batched run."""
    rng = np.random.default_rng(seed)
    rhs = flows.limit_rhs(D, beta)
    n, h = flows._step_grid(T, step)
    rows = []
    for k in range(n_orbits):
        x0 = np.array([rng.uniform(-2.5, 2.5), rng.uniform(0, 2 * math.pi)])
        times, states = [0.0], [x0]
        for i, y in enumerate(flows._rk4_steps(rhs, x0, n, h)):
            if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > flows.BLOWUP_NORM:
                break
            times.append((i + 1) * h)
            states.append(y)
        stride = max(1, len(times) // 400)
        rows += [[str(k), repr(float(t)), repr(float(V)), repr(float(phi))]
                 for t, (V, phi) in zip(times[::stride], states[::stride])]
    text = io.StringIO(newline="")
    csv.writer(text).writerows([["orbit", "t", "V", "phi"], *rows])
    return text.getvalue().encode()


def test_readme_portrait_orbits_match_the_per_orbit_loop(tmp_path):
    # the README example: 12 orbits of 20,000 steps from seed 0
    assert _run("portrait", "--D", "0", "--beta", "1", "--T", "20", "--out", str(tmp_path)) == 0
    want = _reference_portrait_orbits(0.0, 1.0, 20.0, flows.DEFAULT_STEP, 12, 0)
    assert (tmp_path / "orbits.csv").read_bytes() == want


def test_portrait_orbits_cut_by_the_norm_guard_match_the_per_orbit_loop(tmp_path, monkeypatch):
    # V' = V^2 blows up at t = 1/V0: inside T = 2 for the starts with V0 > 0.5,
    # so those orbits are cut at their own lengths and strided by them
    monkeypatch.setattr(flows, "limit_rhs", lambda D, beta: lambda y: y * y * np.array([1.0, 0.0]))
    assert _run("portrait", "--T", "2", "--orbits", "8", "--seed", "3", "--out", str(tmp_path)) == 0
    got = (tmp_path / "orbits.csv").read_bytes()
    assert got == _reference_portrait_orbits(0.0, 1.0, 2.0, flows.DEFAULT_STEP, 8, 3)
    ends = {}
    for row in csv.DictReader(io.StringIO(got.decode())):
        ends[row["orbit"]] = float(row["t"])
    assert len(ends) == 8 and min(ends.values()) < 1.0 and max(ends.values()) == 2.0


def test_noisy_histogram_and_heatmap(tmp_path):
    assert _run("noisy", "--system", "cat_map", "--x0", "0.2,0.7",
                "--noise", "0.01", "--steps", "200", "--trials", "2",
                "--depth", "5", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "noisy.csv").read_text().strip().splitlines()
    assert rows[0] == "code,x0,x1,count"
    assert len(rows) > 10
    assert (tmp_path / "noisy.pgm").read_bytes().startswith(b"P5\n32 32\n")


def test_import_and_noisy_run_leave_scipy_unloaded(tmp_path):
    # the graph analysis is numpy only; importing scipy would cost about a
    # third of a second and 30 MiB, which no command should pay
    cfg = tmp_path / "trap.json"
    cfg.write_text(json.dumps(_TRAP_SCAN))
    runs = [
        ["noisy", "--system", "cat_map", "--steps", "20", "--trials", "2", "--depth", "4"],
        ["classify", "--system", "cat_map", "--depth", "4", "--samples", "3"],
        ["core-scan", "--config", str(cfg)],
        ["merge-scan", "--system", "cubic_interval", "--sweep-param", "a",
         "--values", "0.25", "--depth", "4"],
    ]
    # with one worker no command needs the process pool or multiprocessing either
    unloaded = ("for m in ('scipy', 'concurrent.futures.process', 'multiprocessing'):"
                " assert m not in sys.modules, m\n")
    code = "import sys; from setdyn import cli\n" + unloaded
    for argv in runs:
        code += f"assert cli.main({argv + ['--out', str(tmp_path / argv[0])]!r}) == 0\n" + unloaded
    src = os.path.dirname(os.path.dirname(setdyn.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "noisy" / "noisy.csv").exists()
    assert "trap" in json.loads((tmp_path / "core-scan" / "certificate.json").read_text())
    assert ",ok," in (tmp_path / "merge-scan" / "sweep.csv").read_text()


def test_only_verify_imports_revcore(tmp_path):
    # revcore brings fractions and decimal along, which no other command needs
    classify = ["classify", "--system", "cat_map", "--depth", "3", "--out", str(tmp_path)]
    verify = ["verify", "--system", "cat_map", "--samples", "5", "--out", str(tmp_path)]
    code = (f"import sys; from setdyn import cli; assert cli.main({classify!r}) == 0\n"
            "assert 'setdyn.revcore' not in sys.modules and 'fractions' not in sys.modules\n"
            f"assert cli.main({verify!r}) == 0; assert 'setdyn.revcore' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(setdyn.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_merge_scan_keeps_going_past_errors(tmp_path):
    assert _run("merge-scan", "--system", "cubic_interval",
                "--sweep-param", "a", "--values", "0.25,0.7",
                "--depth", "5", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert ",ok," in rows[1] and "Dissipative" in rows[1]
    assert ",error," in rows[2] and "ConfigError" in rows[2]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_runs_are_byte_identical(tmp_path):
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    for out, workers in ((out1, "1"), (out2, "1"), (out3, "2")):
        assert _run("classify", "--system", "cat_map", "--depth", "5",
                    "--samples", "3", "--workers", workers,
                    "--out", str(out)) == 0
    ref = (out1 / "report.json").read_bytes()
    assert (out2 / "report.json").read_bytes() == ref
    assert (out3 / "report.json").read_bytes() == ref
    ref_pgm = (out1 / "classify.pgm").read_bytes()
    assert (out2 / "classify.pgm").read_bytes() == ref_pgm
    assert (out3 / "classify.pgm").read_bytes() == ref_pgm


def test_noisy_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "n1", tmp_path / "n2"
    for out in (out1, out2):
        assert _run("noisy", "--system", "cat_map", "--x0", "0.1,0.4",
                    "--noise", "0.02", "--steps", "150", "--trials", "3",
                    "--depth", "5", "--seed", "7", "--out", str(out)) == 0
    assert (out1 / "noisy.csv").read_bytes() == (out2 / "noisy.csv").read_bytes()
    assert (out1 / "noisy.pgm").read_bytes() == (out2 / "noisy.pgm").read_bytes()
