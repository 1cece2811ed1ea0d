"""Command-line interface tests: config validation, run artifacts, exit codes.

Everything runs through the public entry points (`parse_config`,
`serialize_config`, `run`, `main`) against temporary output directories;
determinism is checked byte-for-byte on the emitted CSV files.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qphelm import cli, lattice
from qphelm.errors import ConfigError

LATTICE = {"q_diag": [1.0, 1.0], "eta": [0.4, 0.7]}

GREEN_CFG = {
    "lattice": LATTICE,
    "wave": {"k_re": 1.3},
    "grid": {"n": 12, "exclusion_radius": 0.12},
}

DIRICHLET_CFG = {
    "lattice": LATTICE,
    "wave": {"k_re": 1.3},
    "geometry": {"shape": "circle", "params": {"radius": 0.35,
                                               "center": [0.5, 0.5]}, "N": 96},
    "problem": {"kind": "dirichlet", "a_flag": 0},
    "data": {"source": [0.5, 0.5]},
    "probes": [[0.08, 0.1], [0.9, 0.85], [0.5, 0.02], [0.06, 0.55], [0.93, 0.4]],
}

NEUMANN_CFG = {
    "lattice": LATTICE,
    "wave": {"k_re": 1.3},
    "geometry": {"shape": "ellipse", "params": {"a": 0.3, "b": 0.2,
                                                "center": [0.5, 0.5]}, "N": 64},
    "problem": {"kind": "neumann"},
    "data": {"coefficients": [[1.0, 0.0], [0.2, -0.1], [0.0, 0.5]]},
}

ROBIN_CFG = {
    "lattice": LATTICE,
    "wave": {"k_re": 1.3},
    "geometry": {"shape": "circle", "params": {"radius": 1.0},
                 "center": [0.5, 0.5], "epsilon": 0.05, "N": 96},
    "problem": {"kind": "robin",
                "nonlinearity": {"kind": "poly2",
                                 "params": {"offset": 1.0, "gamma": 0.5}}},
    "probes": [[1.65, 1.35], [1.6, 1.45]],
}

SWEEP_CFG = {
    "lattice": LATTICE,
    "wave": {"k_re": 1.3},
    "geometry": {"shape": "circle", "params": {"radius": 1.0},
                 "center": [0.5, 0.5],
                 "epsilon_sweep": [0.06, 0.03, 0.015], "N": 96},
    "problem": {"kind": "robin",
                "nonlinearity": {"kind": "poly2",
                                 "params": {"offset": 1.0, "gamma": 0.5}}},
    "probes": [[1.65, 1.35], [1.6, 1.45]],
}

RESCALING_CFG = {
    "lattice": LATTICE,
    "wave": {"k_re": 1.3},
    "geometry": {"shape": "kite", "params": {}, "center": [0.5, 0.5],
                 "epsilon_sweep": [0.1, 0.05], "N": 96},
    "problem": {"kind": "check-rescaling"},
    "probes": [[1.7, 1.3]],
}

ALL_CONFIGS = (GREEN_CFG, DIRICHLET_CFG, NEUMANN_CFG, ROBIN_CFG, SWEEP_CFG,
               RESCALING_CFG)


def _manifest(out_dir):
    return json.loads((Path(out_dir) / "run_manifest.json").read_text())


def test_config_round_trip():
    for obj in ALL_CONFIGS:
        cfg = cli.parse_config(json.dumps(obj))
        first = cli.serialize_config(cfg)
        second = cli.serialize_config(cli.parse_config(first))
        assert first == second


def test_serialize_then_parse_gives_the_same_config(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from qpbench import workloads

    bare = {"wave": {"k_re": 1.3}, "geometry": {"epsilon": 0.05, "N": 64}}
    sweep = workloads.sweep_config(
        workloads.sweep_probes(np.random.default_rng(0)))
    for obj in ALL_CONFIGS + (bare, sweep):
        cfg = cli.parse_config(json.dumps(obj))
        assert cli.parse_config(cli.serialize_config(cfg)) == cfg
    echo = cli.serialize_config(cli.parse_config(bare))
    assert echo["geometry"]["epsilon"] == 0.05 and echo["geometry"]["N"] == 64


def test_field_table_states_each_config_field_once():
    names = [name for _, _, name, _ in cli._FIELDS]
    assert len(names) == len(set(names))
    assert set(names) == {f.name for f in dataclasses.fields(cli.RunConfig)}


@pytest.mark.parametrize("section, key, value", [
    ("wave", "k_re", "fast"),
    ("tolerances", "solve", None),
    ("geometry", "N", 64.9),
    ("geometry", "center", [0.5]),
    ("geometry", "epsilon_sweep", []),
    ("data", "coefficients", [[1.0]]),
    ("problem", "fit_max_epsilon", -0.1),
    ("tolerances", "resonance", -1.0),
    ("tolerances", "solve", 0.0),
    ("tolerances", "newton", -1e-12),
])
def test_malformed_values_exit_2_without_traceback(tmp_path, capsys, section,
                                                   key, value):
    bad = copy.deepcopy(GREEN_CFG)
    bad.setdefault(section, {})[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exc:
        cli.main(["green-eval", "--config", str(p), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and f"{section}.{key}" in err


def test_config_rejects_unknown_keys():
    bad = copy.deepcopy(GREEN_CFG)
    bad["physics"] = {}
    with pytest.raises(ConfigError):
        cli.parse_config(bad)
    bad = copy.deepcopy(GREEN_CFG)
    bad["lattice"] = dict(LATTICE, tilt=0.1)
    with pytest.raises(ConfigError):
        cli.parse_config(bad)
    bad = copy.deepcopy(GREEN_CFG)
    bad["tolerances"] = {"sharpness": 1e-3}
    with pytest.raises(ConfigError):
        cli.parse_config(bad)


def test_config_validates_fields():
    bad = copy.deepcopy(DIRICHLET_CFG)
    bad["geometry"]["shape"] = "triangle"
    with pytest.raises(ConfigError):
        cli.parse_config(bad)
    bad = copy.deepcopy(DIRICHLET_CFG)
    bad["geometry"]["N"] = 63
    with pytest.raises(ConfigError):
        cli.parse_config(bad)
    bad = copy.deepcopy(DIRICHLET_CFG)
    bad["geometry"]["N"] = 8  # discretize needs at least 16 nodes
    with pytest.raises(ConfigError):
        cli.parse_config(bad)
    bad = copy.deepcopy(DIRICHLET_CFG)
    bad["problem"]["a_flag"] = 2
    with pytest.raises(ConfigError):
        cli.parse_config(bad)
    with pytest.raises(ConfigError):
        cli.parse_config("not json {")
    bad = copy.deepcopy(GREEN_CFG)
    del bad["wave"]
    with pytest.raises(ConfigError):
        cli.parse_config(bad)


def test_green_eval_run_is_deterministic(tmp_path):
    cfg = cli.parse_config(json.dumps(GREEN_CFG))
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / name
        assert cli.run("green-eval", cfg, out, threads=threads) == 0
        man = _manifest(out)
        assert man["status"] == "complete"
        assert "grid.csv" in man["outputs"]
        outs.append((out / "grid.csv").read_bytes())
    assert outs[0] == outs[1]  # rerun reproduces bytes
    assert outs[0] == outs[2]  # thread count does not change results

    header = outs[0].decode().splitlines()[0]
    assert header == "x,y,ReG,ImG"
    rows = outs[0].decode().splitlines()[1:]
    assert 0 < len(rows) < 144  # exclusion dropped the corner points
    assert _manifest(tmp_path / "a")["results"]["spectrum_distance"] > 0


def test_a_green_eval_run_builds_one_wave(tmp_path, monkeypatch):
    # the evaluator is built on the run's wave context: the spectrum is scanned
    # for resonances once, and its distance is taken once, for that wave,
    # whose value the manifest's results report
    counts = {"resonance_set": 0, "spectrum_distance": 0}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qphelm"]
    for name in counts:
        original = getattr(lattice, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    assert cli.run("green-eval", cli.parse_config(json.dumps(GREEN_CFG)), tmp_path) == 0
    assert counts == {"resonance_set": 1, "spectrum_distance": 1}


def test_solve_dirichlet_run(tmp_path):
    cfg = cli.parse_config(json.dumps(DIRICHLET_CFG))
    assert cli.run("solve-dirichlet", cfg, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["status"] == "complete"
    assert set(man["outputs"]) == {"density.csv", "probes.csv"}
    res = man["results"]
    assert res["a_flag"] == 0
    assert res["condition_estimate"] < 1e3
    assert res["boundary_residual"] < 1e-10
    # manufactured data: probes carry reference values and a sup error
    assert res["sup_probe_error"] < 1e-8
    header = (tmp_path / "probes.csv").read_text().splitlines()[0]
    assert "ref_re" in header and "abs_err" in header
    dens_header = (tmp_path / "density.csv").read_text().splitlines()[0]
    assert dens_header == "t,mu_re,mu_im"


def test_solve_robin_run(tmp_path):
    cfg = cli.parse_config(json.dumps(ROBIN_CFG))
    assert cli.run("solve-robin", cfg, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["status"] == "complete"
    assert man["results"]["bc_defect"] < 1e-6
    assert "density.csv" in man["outputs"]


def test_check_rescaling_run(tmp_path):
    cfg = cli.parse_config(json.dumps(RESCALING_CFG))
    assert cli.run("check-rescaling", cfg, tmp_path) == 0
    text = (tmp_path / "rescaling.csv").read_text().splitlines()
    assert text[0] == "kind,epsilon,residual"
    body = [line.split(",") for line in text[1:]]
    # five kinds (probes given) at two epsilons
    assert len(body) == 10
    assert all(float(row[2]) < 1e-8 for row in body)


def test_far_identity_without_probes_exits_2(tmp_path):
    bad = copy.deepcopy(RESCALING_CFG)
    bad["problem"]["identity_kinds"] = ["far-single"]
    del bad["probes"]
    cfg = cli.parse_config(json.dumps(bad))
    assert cli.run("check-rescaling", cfg, tmp_path) == 2
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert "probe" in man["error"]
    assert not (tmp_path / "rescaling.csv").exists()


def test_a_family_argument_past_the_series_radius_exits_4(tmp_path):
    # |k| eps max|d| = 16 * 0.45 * 2 = 14.4: beyond the radius the families'
    # power series are trusted to
    big = copy.deepcopy(RESCALING_CFG)
    big["wave"]["k_re"] = 16.0
    big["geometry"].update(shape="circle", params={"radius": 1.0},
                           epsilon_sweep=[0.45], N=64)
    assert cli.run("check-rescaling", cli.parse_config(json.dumps(big)), tmp_path) == 4
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert "series radius" in man["error"]


def test_resonant_wavenumber_exits_3(tmp_path):
    res = copy.deepcopy(GREEN_CFG)
    res["wave"]["k_re"] = float(np.hypot(0.4, 0.7))  # dual point at index 0
    cfg = cli.parse_config(json.dumps(res))
    assert cli.run("green-eval", cfg, tmp_path) == 3
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert man["outputs"] == []
    assert "error" in man


def test_resonance_tolerance_applies_to_every_subcommand(tmp_path):
    # k^2 sits 5e-9 from the dual point at index 0: resonant at the configured
    # tolerance 1e-8, not at the library default 1e-9
    k = float(np.sqrt(0.4 ** 2 + 0.7 ** 2 + 5e-9))
    for sub, obj in (("green-eval", GREEN_CFG), ("solve-robin", ROBIN_CFG),
                     ("sweep-epsilon", SWEEP_CFG)):
        res = copy.deepcopy(obj)
        res["wave"]["k_re"] = k
        res["tolerances"] = {"resonance": 1e-8}
        out = tmp_path / sub
        assert cli.run(sub, cli.parse_config(json.dumps(res)), out) == 3, sub
        assert _manifest(out)["status"] == "failed"


def test_missing_config_is_a_config_error(tmp_path):
    for sub in cli.SUBCOMMANDS:
        if sub == "selftest":
            continue
        out = tmp_path / sub
        assert cli.run(sub, None, out) == 2, sub
        man = _manifest(out)
        assert man["status"] == "failed"
        assert "config" in man["error"]


def test_unknown_nonlinearity_parameter_exits_2(tmp_path):
    bad = copy.deepcopy(ROBIN_CFG)
    bad["problem"]["nonlinearity"]["params"] = {"ofset": 2.0}
    cfg = cli.parse_config(json.dumps(bad))
    assert cli.run("solve-robin", cfg, tmp_path) == 2
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert "ofset" in man["error"]


def test_oversized_epsilon_exits_2(tmp_path):
    bad = copy.deepcopy(ROBIN_CFG)
    bad["geometry"]["epsilon"] = 0.3  # beyond the validated radius 0.25
    cfg = cli.parse_config(json.dumps(bad))
    assert cli.run("solve-robin", cfg, tmp_path) == 2
    assert _manifest(tmp_path)["status"] == "failed"


def test_main_rejects_mismatched_problem_kind(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DIRICHLET_CFG))
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-neumann", "--config", str(p),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_main_requires_config(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-dirichlet", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_refuses_a_mismatched_kind_or_a_missing_config(tmp_path):
    cfg = cli.parse_config(json.dumps(DIRICHLET_CFG))
    assert cli.run("solve-neumann", cfg, tmp_path / "run") == 2
    man = _manifest(tmp_path / "run")
    assert man["status"] == "failed" and "problem.kind" in man["error"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-dirichlet", "--out", str(tmp_path / "main")])
    assert exc.value.code == 2
    assert _manifest(tmp_path / "main")["status"] == "failed"


@pytest.mark.parametrize("case", ["unreadable", "malformed"])
def test_main_writes_a_failed_manifest_for_a_bad_config_file(tmp_path, case):
    p = tmp_path / "cfg.json"
    if case == "malformed":
        bad = copy.deepcopy(GREEN_CFG)
        bad["wave"]["k_re"] = "fast"
        p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exc:
        cli.main(["green-eval", "--config", str(p), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    man = _manifest(tmp_path / "out")
    assert man["status"] == "failed" and man["subcommand"] == "green-eval"
    assert ("wave.k_re" if case == "malformed" else "cfg.json") in man["error"]


def test_every_subcommand_kind_parses_and_an_unknown_kind_exits_2(tmp_path, capsys):
    kinds = {kind for kind, _ in cli._COMMANDS.values() if kind is not None}
    for kind in kinds:
        assert cli.parse_config({**GREEN_CFG, "problem": {"kind": kind}}).problem == kind
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**GREEN_CFG, "problem": {"kind": "helmholtz"}}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["green-eval", "--config", str(p), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "problem.kind" in capsys.readouterr().err


def test_sweep_csv_reports_the_newton_step_norms(tmp_path):
    cfg = cli.parse_config(json.dumps(SWEEP_CFG))
    with pytest.warns(UserWarning, match="sweep is short"):
        assert cli.run("sweep-epsilon", cfg, tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["final_step_norm", "max_step_norm"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == len(SWEEP_CFG["geometry"]["epsilon_sweep"])
    for row in rows:
        final, largest = float(row["final_step_norm"]), float(row["max_step_norm"])
        assert int(row["newton_iterations"]) > 0 and 0.0 < final <= largest


@pytest.mark.parametrize("fit_max_epsilon, kept", [(1e-3, 0), (0.03, 2)])
def test_a_far_field_window_under_3_states_exits_2(tmp_path, fit_max_epsilon, kept):
    cfg = copy.deepcopy(SWEEP_CFG)
    cfg["problem"]["fit_max_epsilon"] = fit_max_epsilon
    assert cli.run("sweep-epsilon", cli.parse_config(json.dumps(cfg)), tmp_path) == 2
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert f"fit_max_epsilon={fit_max_epsilon} keeps {kept}" in man["error"]


def test_a_probe_inside_a_fitted_hole_exits_2(tmp_path, monkeypatch):
    # the benchmark's sweep with a probe 0.02 from the hole's centre: the
    # holes at eps = 0.0625 and 0.03125 cover it, so their S[theta] there is
    # not the solution, though its c0 would pass the 0.02 mismatch gate
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from qpbench import workloads

    probes = np.array([[0.5, 0.52], [1.0, 1.0], [0.9, 0.9]])
    cfg = cli.parse_config(json.dumps(workloads.sweep_config(probes)))
    assert cli.run("sweep-epsilon", cfg, tmp_path) == 2
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert "probe [0.5, 0.52] lies inside the hole" in man["error"]
    assert "epsilon=0.03125" in man["error"]
    assert not (tmp_path / "farfield.csv").exists()


def test_a_bvp_probe_inside_the_hole_or_an_image_exits_2(tmp_path):
    # the README's solve-dirichlet example with one probe inside the hole and
    # one inside an image of it, where the representation is not the solution
    cfg = copy.deepcopy(DIRICHLET_CFG)
    cfg["geometry"]["N"] = 128
    cfg["probes"] = [[0.6, 0.55], [1.6, 0.5]]
    assert cli.run("solve-dirichlet", cli.parse_config(json.dumps(cfg)), tmp_path) == 2
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert "target [0.6, 0.55] lies inside the hole" in man["error"]
    assert not (tmp_path / "probes.csv").exists()
    cfg["probes"] = [[1.6, 0.5]]
    assert cli.run("solve-dirichlet", cli.parse_config(json.dumps(cfg)), tmp_path / "b") == 2
    assert "target [1.6, 0.5] lies inside the hole" in _manifest(tmp_path / "b")["error"]


def test_a_hole_that_meets_its_own_images_exits_2(tmp_path):
    # a radius-0.6 disk in the unit cell overlaps its copies one period away
    cfg = copy.deepcopy(DIRICHLET_CFG)
    cfg["geometry"] = {"shape": "circle", "params": {"radius": 0.6, "center": [0.5, 0.5]},
                       "N": 64}
    cfg["probes"] = [[0.0, 0.0]]
    assert cli.run("solve-dirichlet", cli.parse_config(json.dumps(cfg)), tmp_path) == 2
    man = _manifest(tmp_path)
    assert man["status"] == "failed"
    assert "hole spans" in man["error"] and "(1.0, 1.0)" in man["error"]
    assert not (tmp_path / "probes.csv").exists()


def test_main_green_eval_end_to_end(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(GREEN_CFG))
    with pytest.raises(SystemExit) as exc:
        cli.main(["green-eval", "--config", str(p), "--out",
                  str(tmp_path / "out"), "--threads", "2", "--seed", "5"])
    assert exc.value.code == 0
    assert (tmp_path / "out" / "grid.csv").exists()


def test_selftest_passes(tmp_path):
    assert cli.run("selftest", None, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["status"] == "complete"
    report = (tmp_path / "selftest.txt").read_text()
    assert "PASS" in report and "FAIL" not in report


def test_manifest_records_the_evaluator_parameters(tmp_path):
    keys = {"spectral_distance", "ewald_split", "jmax", "spectral_truncation",
            "spatial_truncation", "expansion_terms", "expansion_radius",
            "lattice_sum_radii", "lattice_sum_points"}
    assert cli.run("green-eval", cli.parse_config(json.dumps(GREEN_CFG)),
                   tmp_path / "g") == 0
    man = _manifest(tmp_path / "g")
    params = man["green_evaluator"]
    assert set(params) == keys
    assert params["spectral_distance"] == man["results"]["spectrum_distance"] > 0
    # green-eval never evaluates the regular part, so no expansion is fitted
    assert params["expansion_terms"] is None and params["expansion_radius"] is None
    assert cli.run("solve-neumann", cli.parse_config(json.dumps(NEUMANN_CFG)),
                   tmp_path / "n") == 0
    params = _manifest(tmp_path / "n")["green_evaluator"]
    assert set(params) == keys
    assert params["expansion_terms"] > 0 and params["expansion_radius"] > 0
    assert params["ewald_split"] > 0 and params["jmax"] >= 4
    assert min(params["lattice_sum_radii"]) > 0 and min(params["lattice_sum_points"]) > 0


def test_manifest_reports_the_separable_order(tmp_path):
    # a circle inside the expansion disk reports its basis order, and the
    # benchmark's kite (r0 = 0.570 > 0.36), on the pointwise path, null
    assert cli.run("solve-dirichlet", cli.parse_config(json.dumps(DIRICHLET_CFG)),
                   tmp_path / "circle") == 0
    order = _manifest(tmp_path / "circle")["results"]["separable_order"]
    assert isinstance(order, int) and order > 0
    kite = copy.deepcopy(NEUMANN_CFG)
    kite["geometry"] = {"shape": "kite", "params": {"scale": 0.3, "center": [0.5, 0.5]},
                        "N": 64}
    assert cli.run("solve-neumann", cli.parse_config(json.dumps(kite)),
                   tmp_path / "kite") == 0
    assert _manifest(tmp_path / "kite")["results"]["separable_order"] is None


def test_manifest_records_the_solve_notes(tmp_path):
    # a radius-0.499 hole comes within 0.002 of its image, below the node
    # spacing 0.0245: the solve's note reaches the manifest, not stderr only
    near = copy.deepcopy(DIRICHLET_CFG)
    near["geometry"] = {"shape": "circle", "params": {"radius": 0.499,
                                                      "center": [0.5, 0.5]}, "N": 128}
    del near["probes"]
    with pytest.warns(UserWarning, match="periodic image"):
        assert cli.run("solve-dirichlet", cli.parse_config(json.dumps(near)),
                       tmp_path / "near") == 0
    notes = _manifest(tmp_path / "near")["results"]["notes"]
    assert len(notes) == 1 and "within 0.002 of its periodic image" in notes[0]
    assert cli.run("solve-neumann", cli.parse_config(json.dumps(NEUMANN_CFG)),
                   tmp_path / "n") == 0
    assert _manifest(tmp_path / "n")["results"]["notes"] == []
