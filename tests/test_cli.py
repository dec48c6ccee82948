import json
import math
from importlib import resources

import jsonschema
import pytest

from setdyn import cli
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


@pytest.mark.parametrize("argv, cfg", [
    (("noisy",), {"system": "cat_map", "steps": "abc"}),
    ((*_NOISY, "--seed", "-1"), None),
    (("verify", "--system", "cat_map", "--samples", "5", "--seed", "-1"), None),
    (("portrait", "--T", "1", "--orbits", "1", "--seed", "-1"), None),
    (("core-scan", "--seed", "-1"), _TRAP_SCAN),
    (("core-scan",), {**_TRAP_SCAN, "trap": {"bound_radius": 2.0}}),
    (("core-scan", "--system", "cat_map", "--schedule", "4:abc"), None),
    (("merge-scan", "--system", "cubic_interval", "--sweep-param", "a",
      "--values", "0.1,x", "--depth", "3"), None),
    (("core-scan",), {"system": "cat_map", "schedule": [[3]]}),
    (("core-scan",), {"system": "cat_map", "schedule": [3, 4]}),
    (("core-scan",), {"system": "cat_map", "schedule": [[3, 0.1, 9]]}),
    (("verify", "--system", "cat_map", "--samples", "0"), None),
    (("verify", "--system", "nf_timeq", "--samples", "-1"), None),
], ids=["config steps abc", "noisy seed -1", "verify seed -1", "portrait seed -1",
        "core-scan trap seed -1", "core-scan trap without seed_radius", "core-scan schedule 4:abc", "merge-scan values 0.1,x",
        "core-scan schedule [[3]]", "core-scan schedule [3, 4]", "core-scan schedule [[3, 0.1, 9]]",
        "verify samples 0", "verify samples -1"])
def test_bad_settings_exit_2(argv, cfg, tmp_path, capsys):
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = (*argv, "--config", str(path))
    out = tmp_path / "out"
    assert _run(*argv, "--out", str(out)) == 2
    assert "configuration error:" in capsys.readouterr().err
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


def test_noisy_histogram_and_heatmap(tmp_path):
    assert _run("noisy", "--system", "cat_map", "--x0", "0.2,0.7",
                "--noise", "0.01", "--steps", "200", "--trials", "2",
                "--depth", "5", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "noisy.csv").read_text().strip().splitlines()
    assert rows[0] == "code,x0,x1,count"
    assert len(rows) > 10
    assert (tmp_path / "noisy.pgm").read_bytes().startswith(b"P5\n32 32\n")


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
