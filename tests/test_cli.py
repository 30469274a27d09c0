import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twistlab
from twistlab.cli import main
from twistlab.grids import SampledField


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def product_config(tmp_path):
    return _write(tmp_path / "job.json", {
        "schema_version": 1,
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "theta": [[0.0]],
        "left": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        "right": {"kind": "gaussian", "mu": 0.5, "sigma": 1.2},
    })


def test_product_roundtrip(tmp_path, product_config):
    out = tmp_path / "out"
    assert main(["product", "--config", product_config, "--out", str(out)]) == 0
    field = SampledField.from_json((out / "product_field.json").read_text())
    assert field.grid.N == 32
    run = json.loads((out / "product_run.json").read_text())
    assert run["resolved_config"]["op"] == "product"
    assert "timestamp" in run


def test_reruns_are_byte_identical(tmp_path, product_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["product", "--config", product_config, "--out", str(a)]) == 0
    assert main(["product", "--config", product_config, "--out", str(b)]) == 0
    assert (a / "product_field.json").read_bytes() == (b / "product_field.json").read_bytes()


def test_star_subcommand_sets_op(tmp_path, product_config):
    out = tmp_path / "out"
    assert main(["star", "--config", product_config, "--out", str(out)]) == 0
    run = json.loads((out / "star_run.json").read_text())
    assert run["resolved_config"]["op"] == "star"


def test_pointwise_op_override(tmp_path):
    cfg = _write(tmp_path / "job.json", {
        "schema_version": 1,
        "op": "pointwise",
        "grid": {"n": 1, "N": 32, "L": 6.0},
        "left": {"kind": "planewave", "a": 0.5},
        "right": {"kind": "planewave", "a": -0.5},
    })
    out = tmp_path / "out"
    assert main(["product", "--config", cfg, "--out", str(out)]) == 0
    field = SampledField.from_json((out / "product_field.json").read_text())
    np.testing.assert_allclose(field.values, 1.0, rtol=1e-12)


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["product", "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,\n  "grid": {,}\n}')
    assert main(["product", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_non_antisymmetric_theta_exit_2(tmp_path):
    cfg = _write(tmp_path / "job.json", {
        "schema_version": 1,
        "grid": {"n": 2, "N": 8, "L": 4.0},
        "theta": [[0.0, 1.0], [1.0, 0.0]],
        "left": {"kind": "delta", "a": [0.0, 0.0]},
        "right": {"kind": "delta", "a": [0.0, 0.0]},
    })
    assert main(["star", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["product", "star"])
def test_product_theta_rationals_match_floats(tmp_path, command):
    # theta entries read as in `cone`: [num, den] pairs and "p/q" strings
    # give the bytes of the equal floats
    def run(theta, name):
        cfg = _write(tmp_path / f"{name}.json", {
            "schema_version": 1,
            "grid": {"n": 2, "N": 8, "L": 4.0},
            "theta": theta,
            "left": {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": 1.0},
            "right": {"kind": "gaussian", "mu": [0.5, 0.0], "sigma": 1.2},
        })
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        return (out / f"{command}_field.json").read_bytes()

    floats = run([[0.0, 0.5], [-0.5, 0.0]], "floats")
    assert run([[[0, 1], [1, 2]], [[-1, 2], [0, 1]]], "pairs") == floats
    assert run([["0", "1/2"], ["-1/2", "0"]], "strings") == floats


@pytest.mark.parametrize("theta", [[[0, [1, 0]], [[-1, 1], 0]], [[0, "x"], ["y", 0]], 5])
def test_product_bad_theta_entry_exit_2(tmp_path, capsys, theta):
    cfg = _write(tmp_path / "job.json", {
        "schema_version": 1,
        "grid": {"n": 2, "N": 8, "L": 4.0},
        "theta": theta,
        "left": {"kind": "delta", "a": [0.0, 0.0]},
        "right": {"kind": "delta", "a": [0.0, 0.0]},
    })
    assert main(["product", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "theta: " in err and "Traceback" not in err


def test_unknown_schema_version(tmp_path):
    cfg = _write(tmp_path / "job.json", {"schema_version": 99, "grid": {"n": 1, "N": 8, "L": 1.0}})
    assert main(["product", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_wf_outputs(tmp_path):
    cfg = _write(tmp_path / "wf.json", {
        "schema_version": 1,
        "grid": {"n": 1, "N": 64, "L": 8.0},
        "field": {"kind": "delta", "a": 0.0},
        "params": {"k_test": 0.05},
    })
    out = tmp_path / "out"
    assert main(["wf", "--config", cfg, "--out", str(out)]) == 0
    est = json.loads((out / "wf_estimate.json").read_text())
    assert len(est["k_hat"]) == 360
    csv = (out / "wf_directions.csv").read_text().splitlines()
    assert len(csv) == 361
    run = json.loads((out / "wf_run.json").read_text())
    assert run["resolved_config"]["params"]["k_test"] == 0.05


def test_wf_seed_flag_overrides_config_seed(tmp_path):
    cfg = _write(tmp_path / "wf.json", {
        "schema_version": 1,
        "grid": {"n": 1, "N": 64, "L": 8.0},
        "field": {"kind": "delta", "a": 0.0},
        "params": {"k_test": 0.05, "seed": 5},
    })
    out = tmp_path / "out"
    assert main(["wf", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    run = json.loads((out / "wf_run.json").read_text())
    assert run["resolved_config"]["params"]["seed"] == 3


@pytest.mark.parametrize("params, key", [
    ({"params": {"radii": "12"}}, "params.radii"),
    ({"params": {"r_min_frac": 2.0}}, "params.r_min_frac"),
    ({"params": {"r_max_frac": 1.5}}, "params.r_max_frac"),
    ({"params": {"direction_count": "many"}}, "params.direction_count"),
    ({"params": {"direction_count": 7}}, "params.direction_count"),
    ({"params": {"seed": "x"}}, "params.seed"),
    ({"params": [1]}, "params"),
    ({"window": "hann"}, "window"),
    ({"window": {"kind": "hann", "half_width": "wide"}}, "window.half_width"),
    ({"window": {"kind": "hann", "half_width": None}}, "window.half_width"),
    ({"params": {"k_test": None}}, "params.k_test"),
    ({"grid": {"n": 2, "N": 16, "L": 7.0}, "field": {"kind": "delta", "a": [0.0, 0.0]},
      "params": {"direction_count": 100}}, "params.direction_count"),
])
def test_wf_bad_params_exit_2(tmp_path, capsys, params, key):
    # each case is a top-level config fragment: params, window, ...
    cfg = _write(tmp_path / "wf.json", {
        "schema_version": 1,
        "grid": {"n": 1, "N": 64, "L": 8.0},
        "field": {"kind": "delta", "a": 0.0},
        **params,
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["wf", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


def test_cone_and_product_jobs_load_no_scipy(tmp_path, product_config):
    # scipy serves the 4-D Sobol grid and nnls only: importing the package
    # and running a cone job and an n=1 product job must not load it
    from twistlab.cones import full_space, product_set, set_to_obj

    cone_cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "predict_product",
        "theta": [[0]],
        "u": set_to_obj(product_set(None, full_space(1))),
        "v": set_to_obj(product_set(full_space(1), None)),
    })
    jobs = [["cone", "--config", cone_cfg, "--out", str(tmp_path / "c")],
            ["product", "--config", product_config, "--out", str(tmp_path / "p")]]
    script = (
        "import json, sys\n"
        "import twistlab, twistlab.cli\n"
        f"codes = [twistlab.cli.main(job) for job in {jobs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    path = [str(Path(twistlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[0, 0], []]


def test_cone_existence_failure_exit_1(tmp_path):
    from twistlab.cones import full_space, product_set, set_to_obj

    delta_set = set_to_obj(product_set(None, full_space(1)))
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "existence",
        "theta": [[0]],
        "u": delta_set,
        "v": delta_set,
    })
    out = tmp_path / "out"
    assert main(["cone", "--config", cfg, "--out", str(out)]) == 1
    doc = json.loads((out / "cone_report.json").read_text())
    assert doc["holds"] is False and doc["witness"] is not None


def test_cone_prediction_exit_0(tmp_path):
    from twistlab.cones import full_space, product_set, set_from_obj, set_to_obj, conic_equal

    delta_set = set_to_obj(product_set(None, full_space(1)))
    osc_set = set_to_obj(product_set(full_space(1), None))
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "predict_product",
        "theta": [[0]],
        "u": delta_set,
        "v": osc_set,
    })
    out = tmp_path / "out"
    assert main(["cone", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "cone_report.json").read_text())
    got = set_from_obj(doc["predicted"])
    assert conic_equal(got, set_from_obj(delta_set))


def test_cone_rational_theta_pairs(tmp_path):
    from twistlab.cones import full_space, product_set, set_to_obj

    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "existence",
        "theta": [[[0, 1], [1, 2]], [[-1, 2], [0, 1]]],
        "u": set_to_obj(product_set(full_space(2), None)),
        "v": set_to_obj(product_set(None, full_space(2))),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


_RAY_1 = {"dim": 1, "components": [{"kind": "ray", "v": [1]}]}
_RAY_2 = {"dim": 2, "components": [{"kind": "ray", "v": [1, 0]}]}


@pytest.mark.parametrize("fragment, key, message", [
    ({"theta": [[0, [1, 0]], [[-1, 1], 0]]}, "theta", "zero denominator"),
    ({"theta": [[0, "x"], ["y", 0]]}, "theta", "'x'"),
    ({"theta": [[0, True], [False, 0]]}, "theta", "bool"),
    ({"theta": 5}, "theta", "not iterable"),
    ({"u": {"dim": 2, "components": [{"kind": "ray", "v": [[1, 0], [0, 1]]}]}},
     "u", "zero denominator"),
    ({"op": "pullback", "set": _RAY_2, "map": [[[1, 0]]]}, "map", "zero denominator"),
    ({"op": "pullback", "set": _RAY_2, "map": [["one"]]}, "map", "'one'"),
    # sets the constructors refuse
    ({"v": {"dim": 2, "components": [{"kind": "ray", "v": [0, 0]}]}},
     "v", "ray direction must be nonzero"),
    ({"u": {"dim": 2, "components": [{"kind": "graph", "A": [[1, 0]]}]}},
     "u", "graph matrix must be square"),
    ({"u": {"dim": 2, "components": [{"kind": "product", "x": None, "xi": None}]}},
     "u", "product of {0} with {0} is empty"),
    ({"v": {"dim": 2, "components": [{"kind": "product", "x": {"set": _RAY_2}, "xi": None}]}},
     "v", "component dimension 4 != set dimension 2"),
    ({"u": {"dim": 2, "components": [{"kind": "product", "x": None,
                                      "xi": {"set": {"dim": 2, "components": []}}}]}},
     "u", "component dimension 4 != set dimension 2"),
    ({"v": {"dim": 4, "components": [{"kind": "product", "x": {"set": _RAY_2},
                                      "xi": {"set": _RAY_1}}]}},
     "v", "product parts must share the same dimension"),
    # empty, zero-width and ragged matrices
    ({"op": "pullback", "set": _RAY_2, "map": []}, "map", "at least one row and one column"),
    ({"op": "pullback", "set": _RAY_2, "map": [[]]}, "map", "at least one row and one column"),
    ({"op": "pullback", "set": _RAY_2, "map": [[1], [1, 0]]}, "map", "ragged matrix"),
    ({"theta": [[0, 1], [-1]]}, "theta", "ragged matrix"),
])
def test_cone_bad_rationals_exit_2(tmp_path, capsys, fragment, key, message):
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1, "op": "existence", "theta": [[0]], "u": _RAY_2, "v": _RAY_2,
        **fragment,
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err and message in err and "Traceback" not in err


def test_cone_theta_number_strings(tmp_path):
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1, "op": "existence", "theta": [["0", "1/2"], ["-1/2", "0"]],
        "u": {"dim": 4, "components": [{"kind": "ray", "v": [1, 0, 0, 0]}]},
        "v": {"dim": 4, "components": [{"kind": "ray", "v": [0, 1, 0, 0]}]},
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_cone_past_enumeration_budget_exit_2(tmp_path, capsys):
    import random

    from twistlab.cones import polyhedral, set_to_obj

    rng = random.Random(3)
    big = polyhedral([[rng.randint(-3, 3) for _ in range(4)] for _ in range(24)])
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "existence",
        "theta": [[0, 1], [-1, 0]],
        "u": set_to_obj(big),
        "v": set_to_obj(polyhedral([[1, 0, 0, 0], [0, 0, 1, 0]])),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "op existence" in err and "candidate supports" in err
    assert "Traceback" not in err


def test_cone_shift_algebra_past_salience_budget_exit_2(tmp_path, capsys):
    # salience searches pairs of a cone's generators, 2k columns: in R^4
    # eleven generators are past rational.MAX_SUPPORTS
    import random

    from twistlab.cones import polyhedral, set_to_obj

    rng = random.Random(5)
    gens = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(11)]
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "shift_algebra",
        "theta": [[0] * 4 for _ in range(4)],
        "gamma1": set_to_obj(polyhedral([[1, 0, 0, 0]])),
        "gamma2": set_to_obj(polyhedral(gens)),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "op shift_algebra" in err and "candidate supports" in err
    assert "Traceback" not in err


def test_cone_sampled_set_exit_2(tmp_path, capsys):
    # the exact layer has no sampled-caps kind: such a set is bad input
    from twistlab.cones import full_space, product_set, set_to_obj

    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "existence",
        "theta": [[0]],
        "u": {"dim": 2, "components": [
            {"kind": "caps", "directions": [[1.0, 0.0]], "radius_deg": 5.0}]},
        "v": set_to_obj(product_set(None, full_space(1))),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "u:" in err and "'caps'" in err and "Traceback" not in err


def test_parser_reused_without_leaking_values(tmp_path, monkeypatch):
    from twistlab import cli

    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(vars(args)) or 0)
    assert main(["wf", "--config", "a.json", "--seed", "5"]) == 0
    assert main(["cone", "--config", "b.json", "--out", str(tmp_path)]) == 0
    assert main(["verify", "calculus"]) == 0
    assert cli._build_parser() is cli._build_parser()
    assert seen == [
        {"command": "wf", "config": "a.json", "out": ".", "seed": 5},
        {"command": "cone", "config": "b.json", "out": str(tmp_path), "seed": None},
        {"command": "verify", "suite": "calculus", "config": None, "out": ".", "seed": None},
    ]


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "bridge", "--out", str(out)]) == 0
    doc = json.loads((out / "verify_bridge.json").read_text())
    assert doc["passed"] is True and doc["suite"] == "bridge"
    assert main(["verify", "not-a-suite", "--out", str(out)]) == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "twistlab" in capsys.readouterr().out
