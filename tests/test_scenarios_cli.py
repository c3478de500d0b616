"""Scenario configs, manifest determinism, and the command-line surface.

CLI tests drive ``qbmlab.cli.main`` in-process with argv lists; nothing
here shells out.
"""
import hashlib
import json

import numpy as np
import pytest

from qbmlab import cli
from qbmlab.coefficients import alpha_theory
from qbmlab.params import BathParams, SystemParams
from qbmlab.scenarios import (SCENARIOS, ScenarioConfig, load_config,
                              run_scenario)
from references import save_config

SYS = SystemParams()
BATH = BathParams(gamma=0.05, cutoff=200.0, kT=0.0)


# ----------------------------------------------------------------- config

def test_config_roundtrip_is_byte_identical(tmp_path):
    cfg = ScenarioConfig(scenario="zero_temperature",
                         params={"gamma": 0.07, "separation": 1.5},
                         output_dir="someplace")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_config(cfg, p1)
    back = load_config(p1)
    assert back == cfg
    save_config(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_config_rejects_unknown_top_level_key(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"scenario": "zero_temperature",
                             "tempratur": 5.0}))
    with pytest.raises(ValueError, match="tempratur"):
        load_config(p)


def test_load_config_requires_scenario(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"params": {}}))
    with pytest.raises(ValueError, match="scenario"):
        load_config(p)


def test_config_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="options"):
        ScenarioConfig(scenario="warm_temperature")


def test_config_rejects_param_not_in_scenario():
    # grid_n belongs to full_vs_dephasing, not the closed-form scenario
    with pytest.raises(ValueError, match="grid_n"):
        ScenarioConfig(scenario="zero_temperature", params={"grid_n": 64})


def test_config_rejects_non_numeric_param():
    with pytest.raises(ValueError, match="must be a number"):
        ScenarioConfig(scenario="zero_temperature",
                       params={"gamma": True})


def test_config_rejects_bad_separations():
    with pytest.raises(ValueError, match="separations"):
        ScenarioConfig(scenario="separation_sweep",
                       params={"separations": []})


# -------------------------------------------------------------- scenarios

def test_scenario_reruns_are_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    m1 = run_scenario(ScenarioConfig(scenario="high_temperature",
                                     output_dir=str(out1)))
    m2 = run_scenario(ScenarioConfig(scenario="high_temperature",
                                     output_dir=str(out2)))
    assert m1 == m2
    assert (out1 / "manifest.json").read_bytes() \
        == (out2 / "manifest.json").read_bytes()
    for entry in m1["files"]:
        assert (out1 / entry["path"]).read_bytes() \
            == (out2 / entry["path"]).read_bytes()


def test_manifest_echoes_config_and_hashes_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = ScenarioConfig(scenario="high_temperature",
                         params={"kT": 60.0}, output_dir=str(out))
    manifest = run_scenario(cfg)
    echo = manifest["config_echo"]
    assert echo["scenario"] == "high_temperature"
    assert echo["params"]["kT"] == 60.0
    assert "output_dir" not in echo
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes())
        assert digest.hexdigest() == entry["sha256"]


# full_vs_dephasing on a coarser grid: a fast run that still covers the
# fit window, so it writes all three of its files
_SMALL = {"full_vs_dephasing": {"grid_n": 128, "grid_extent": 6.0,
                                "separation": 1.0, "record_every": 50}}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_manifest_sha256_matches_each_file_on_disk(tmp_path, scenario):
    # the writers hash the bytes they write; the manifest lists exactly
    # the files written, each with the sha256 of what is on disk
    out = tmp_path / scenario
    manifest = run_scenario(ScenarioConfig(
        scenario=scenario, params=_SMALL.get(scenario, {}),
        output_dir=str(out)))
    written = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file()}
    assert {e["path"] for e in manifest["files"]} == written - {
        "manifest.json"}
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes())
        assert digest.hexdigest() == entry["sha256"], entry["path"]


def test_full_scenario_warns_when_separation_under_coherence_length(tmp_path):
    # gamma = 25 puts the coherence length at 0.2; separation 0.3 sits
    # inside 3x that, which the dephasing-dominated reading cannot cover
    out = tmp_path / "warn"
    # dt is left to suggest_timestep
    cfg = ScenarioConfig(scenario="full_vs_dephasing",
                         params={"separation": 0.3, "grid_n": 128,
                                 "grid_extent": 6.0,
                                 "t_end": 0.01, "record_every": 50},
                         output_dir=str(out))
    manifest = run_scenario(cfg)
    assert any("approximation regime violated" in w
               for w in manifest["warnings"])
    by_name = {c["name"]: c for c in manifest["checks"]}
    assert by_name["trace_drift_max"]["pass"]
    assert by_name["hermiticity_residual_max"]["pass"]
    assert by_name["dephasing_match_max_norm"]["pass"]


# ------------------------------------------------------------ cli: basics

def test_cli_alpha_writes_prediction(tmp_path, capsys):
    out = tmp_path / "a"
    assert cli.main(["alpha", "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "alpha.json").read_text())
    assert doc["alpha"] == pytest.approx(alpha_theory(SYS, BATH, 2.0))
    assert doc["lambda_q"] == pytest.approx(np.sqrt(1.0 / 0.05))
    lo, hi = doc["regime_window_suggestion"]
    assert lo == pytest.approx(50.0)
    assert hi == pytest.approx(2000.0)
    assert capsys.readouterr().out == ""


def test_cli_reused_parser_parses_each_call_afresh(tmp_path):
    # the parser is built once; no call's arguments leak into the next
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["alpha", "--out", str(a), "--quiet", "--gamma", "0.1",
                     "--separation", "3"]) == 0
    assert cli.main(["alpha", "--out", str(b), "--quiet"]) == 0
    doc_a = json.loads((a / "alpha.json").read_text())
    doc_b = json.loads((b / "alpha.json").read_text())
    assert doc_a["alpha"] == pytest.approx(
        alpha_theory(SYS, BathParams(gamma=0.1, cutoff=200.0), 3.0))
    assert doc_b["alpha"] == pytest.approx(alpha_theory(SYS, BATH, 2.0))
    assert cli._build_parser() is cli._build_parser()


def test_cli_kernel_csv_and_oracle_sidecar(tmp_path):
    out = tmp_path / "k"
    assert cli.main(["kernel", "--out", str(out), "--quiet",
                     "--n", "32"]) == 0
    lines = (out / "kernel.csv").read_text().strip().splitlines()
    assert lines[0] == "s,nu,method"
    assert len(lines) == 33
    assert lines[1].endswith("closed_zero_T")
    doc = json.loads((out / "kernel.json").read_text())
    assert doc["max_rel_err_vs_oracle"] is not None
    assert doc["max_rel_err_vs_oracle"] <= 10 * doc["tolerance"]


def test_cli_kernel_high_temperature_oracle(tmp_path):
    # deep high-T: the closed form should sit within a percent of the
    # quadrature over the default s range
    out = tmp_path / "k"
    assert cli.main(["kernel", "--out", str(out), "--quiet", "--n", "16",
                     "--kT", "4000", "--method", "closed_high_T"]) == 0
    doc = json.loads((out / "kernel.json").read_text())
    assert doc["max_rel_err_vs_oracle"] < 1e-2


def test_cli_kernel_validates_range(tmp_path, capsys):
    assert cli.main(["kernel", "--out", str(tmp_path), "--s-min", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_coeffs_table(tmp_path):
    out = tmp_path / "c"
    assert cli.main(["coeffs", "--out", str(out), "--quiet", "--t-min",
                     "0.05", "--t-max", "5", "--n", "8",
                     "--frequency", "0"]) == 0
    rows = (out / "coeffs.csv").read_text().strip().splitlines()
    assert rows[0] == "t,D,theta,method"
    assert len(rows) == 9
    theta = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.all(np.diff(theta) > 0)   # exponent accumulates monotonically


def test_cli_coeffs_numerical_error_exits_2(tmp_path, capsys):
    # at t = 1e6 the Bose term's panelization needs ~6.4e7 panels, past
    # the quadrature's cap: a numerical error, not a failed check
    assert cli.main(["coeffs", "--out", str(tmp_path), "--kT", "50",
                     "--t-min", "1", "--t-max", "1e6", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial panelization needs")
    assert len(err.strip().splitlines()) == 1


# ------------------------------------------------------------ cli: evolve

def test_cli_evolve_and_fit_on_its_output(tmp_path):
    out = tmp_path / "e"
    assert cli.main(["evolve", "--out", str(out), "--quiet",
                     "--frequency", "0", "--separation", "1",
                     "--width", "0.5", "--grid-n", "128",
                     "--grid-extent", "7", "--dt", "2e-4",
                     "--t-end", "0.01", "--record-every", "5",
                     "--snapshots"]) == 0
    rows = (out / "evolve.csv").read_text().strip().splitlines()
    assert rows[0] == "t,visibility,trace,herm_residual,purity"
    assert len(rows) >= 3
    vis = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(vis > 0) and np.all(vis <= 1.0 + 1e-9)
    snaps = sorted(out.glob("rho_*.bin"))
    assert len(snaps) >= 2
    # the evolve CSV doubles as fit input (visibility column)
    assert cli.main(["fit", str(out / "evolve.csv"), "--out",
                     str(tmp_path / "f"), "--quiet"]) == 0


# --------------------------------------------------------------- cli: fit

def _write_trace(path, t, v):
    lines = ["t,coherence"] + [f"{a:.12e},{b:.12e}" for a, b in zip(t, v)]
    path.write_text("\n".join(lines) + "\n")


def test_cli_fit_power_law_roundtrip(tmp_path):
    t = np.geomspace(1.0, 500.0, 40)
    _write_trace(tmp_path / "trace.csv", t, t ** -0.3)
    out = tmp_path / "fit"
    assert cli.main(["fit", str(tmp_path / "trace.csv"), "--out", str(out),
                     "--quiet"]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["model"] == "power_law"
    assert doc["alpha_fit"] == pytest.approx(0.3, abs=1e-10)
    assert doc["rel_err"] == pytest.approx(
        abs(0.3 - doc["alpha_theory"]) / doc["alpha_theory"])


def test_cli_fit_exponential_reports_rate_theory(tmp_path):
    t = np.linspace(0.01, 1.0, 40)
    _write_trace(tmp_path / "trace.csv", t, np.exp(-3.0 * t))
    out = tmp_path / "fit"
    assert cli.main(["fit", str(tmp_path / "trace.csv"), "--out", str(out),
                     "--quiet", "--kT", "50"]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["model"] == "exponential"
    assert doc["rate"] == pytest.approx(3.0, abs=1e-10)
    assert "rate_theory" in doc


def test_cli_fit_honors_window(tmp_path):
    t = np.geomspace(1.0, 1000.0, 60)
    v = np.where(t < 30.0, t ** -0.2, 30.0 ** 0.7 * t ** -0.9)
    _write_trace(tmp_path / "trace.csv", t, v)
    out = tmp_path / "fit"
    assert cli.main(["fit", str(tmp_path / "trace.csv"), "--out", str(out),
                     "--quiet", "--window", "31", "1000"]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["alpha_fit"] == pytest.approx(0.9, abs=1e-9)


def test_cli_fit_rejects_headerless_csv(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,0.5\n2.0,0.4\n")
    assert cli.main(["fit", str(p), "--out", str(tmp_path)]) == 2
    assert "header" in capsys.readouterr().err


# ---------------------------------------------------------- cli: scenario

def test_cli_scenario_prints_check_lines(tmp_path, capsys):
    out = tmp_path / "s"
    rc = cli.main(["scenario", "high_temperature", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "PASS rate_rel_err" in captured.out
    assert "manifest.json" in captured.out


def test_cli_scenario_quiet_silences_stdout(tmp_path, capsys):
    out = tmp_path / "s"
    rc = cli.main(["scenario", "high_temperature", "--out", str(out),
                   "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_cli_scenario_name_config_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    save_config(ScenarioConfig(scenario="high_temperature"), cfg_path)
    rc = cli.main(["scenario", "zero_temperature", "--config",
                   str(cfg_path), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_scenario_malformed_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["scenario", "high_temperature", "--config",
                     str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_scenario_missing_config_file(tmp_path, capsys):
    assert cli.main(["scenario", "high_temperature", "--config",
                     str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
