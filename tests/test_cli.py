import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twistlab
from twistlab.cli import _field_csv, main
from twistlab.grids import SampledField, make_grid


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
    wf_config = _write(tmp_path / "wf.json", {
        "schema_version": 1,
        "grid": {"n": 1, "N": 64, "L": 8.0},
        "field": {"kind": "chirp", "matrix": [[0.5]]},
        "params": {"direction_count": 180},
    })
    for cmd, cfg, files in (("product", product_config, ["product_field.json"]),
                            ("star", product_config, ["star_field.json"]),
                            ("wf", wf_config, ["wf_estimate.json", "wf_directions.csv"])):
        a, b = tmp_path / cmd / "a", tmp_path / cmd / "b"
        assert main([cmd, "--config", cfg, "--out", str(a)]) == 0
        assert main([cmd, "--config", cfg, "--out", str(b)]) == 0
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (cmd, name)


def _rerun_jobs(tmp_path, product_config):
    """Per subcommand: the argv of a first and a second run into one
    directory (without --out), and the data products they write."""
    product_csv = json.loads(Path(product_config).read_text())
    product_csv["csv"] = True
    wf = {"schema_version": 1, "grid": {"n": 1, "N": 64, "L": 8.0},
          "field": {"kind": "chirp", "matrix": [[0.5]]}}
    wf_720 = _write(tmp_path / "wf720.json", {**wf, "params": {"direction_count": 720}})
    wf_180 = _write(tmp_path / "wf180.json", {**wf, "params": {"direction_count": 180}})
    cone = _write(tmp_path / "cone.json", {
        "schema_version": 1, "op": "existence", "theta": [[0]],
        "u": _RAY_2, "v": {"dim": 2, "components": [{"kind": "ray", "v": [0, 1]}]},
    })
    csv_cfg = ["--config", _write(tmp_path / "csv.json", product_csv)]
    return {
        "product": (["product", *csv_cfg], ["product", *csv_cfg],
                    ["product_field.json", "product_field.csv"]),
        "star": (["star", "--config", product_config], ["star", "--config", product_config],
                 ["star_field.json"]),
        "wf": (["wf", "--config", wf_720], ["wf", "--config", wf_180],
               ["wf_estimate.json", "wf_directions.csv"]),
        "cone": (["cone", "--config", cone], ["cone", "--config", cone], ["cone_report.json"]),
        "verify": (["verify", "calculus"], ["verify", "calculus"], ["verify_calculus.json"]),
    }


def _comparable(path):
    """A data product's bytes; for a verification report, its JSON
    without the timestamp and the per-check seconds."""
    if not path.name.startswith("verify_"):
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("timestamp")
    for check in doc["checks"]:
        check.pop("seconds")
    return doc


@pytest.mark.parametrize("command", ["product", "star", "wf", "cone", "verify"])
def test_rerun_rewrites_outputs_in_place(tmp_path, product_config, command):
    # a second run into the same directory, here one that shrinks the wf
    # outputs from 720 to 180 directions, leaves the bytes a fresh run
    # writes, in the same files, and writes through a symlinked output
    first, second, products = _rerun_jobs(tmp_path, product_config)[command]
    out, fresh, elsewhere = tmp_path / "out", tmp_path / "fresh", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    linked = elsewhere / products[-1]
    linked.write_text("stale\n" * 100_000)
    (out / products[-1]).symlink_to(linked)
    rc = main([*first, "--out", str(out)])
    assert rc in (0, 1)
    outputs = sorted(out.iterdir())
    inodes = [p.stat().st_ino for p in outputs]
    assert main([*second, "--out", str(out)]) == rc
    assert main([*second, "--out", str(fresh)]) == rc
    assert sorted(out.iterdir()) == outputs
    assert [p.stat().st_ino for p in outputs] == inodes
    assert (out / products[-1]).is_symlink() and (out / products[-1]).resolve() == linked
    for name in products:
        assert _comparable(out / name) == _comparable(fresh / name), name
    for path in out.glob("*_run.json"):
        assert json.loads(path.read_text())["outputs"]


@pytest.mark.parametrize("command", ["product", "star", "wf", "cone", "verify"])
def test_rerun_opens_no_output_with_truncation(tmp_path, product_config, monkeypatch, command):
    # a truncating open of a file that was just written waits for its
    # writeback on ext4; every CLI output goes through cli._write instead
    import io

    first, second, _ = _rerun_jobs(tmp_path, product_config)[command]
    out = tmp_path / "out"
    rc = main([*first, "--out", str(out)])
    assert rc in (0, 1)
    truncated = []

    def os_open(path, flags, *args, **kwargs):
        if flags & os.O_TRUNC and os.path.exists(path):
            truncated.append(path)
        return real_os_open(path, flags, *args, **kwargs)

    def io_open(file, mode="r", *args, **kwargs):
        if "w" in mode and isinstance(file, (str, os.PathLike)) and os.path.exists(file):
            truncated.append(file)
        return real_io_open(file, mode, *args, **kwargs)

    def write_text(self, *args, **kwargs):
        raise AssertionError(f"Path.write_text({self})")

    real_os_open, real_io_open = os.open, io.open
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(io, "open", io_open)
    monkeypatch.setattr("builtins.open", io_open)
    monkeypatch.setattr(Path, "write_text", write_text)
    assert main([*second, "--out", str(out)]) == rc
    assert truncated == []


def test_output_symlinked_to_a_device(tmp_path, product_config):
    # a device's size reads 0: it is written to, never cut
    out = tmp_path / "out"
    out.mkdir()
    (out / "star_field.json").symlink_to(os.devnull)
    assert main(["star", "--config", product_config, "--out", str(out)]) == 0
    assert os.readlink(out / "star_field.json") == os.devnull
    assert json.loads((out / "star_run.json").read_text())["outputs"] == {
        "field": "star_field.json"}


def test_unwritable_output_exit_2(tmp_path, capsys, product_config):
    out = tmp_path / "out"
    (out / "star_field.json").mkdir(parents=True)
    assert main(["star", "--config", product_config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "star_field.json" in err and "Traceback" not in err


def test_field_csv_matches_per_value_format():
    # one % per row over Python floats writes what per-value f-strings
    # write, abs() of each complex value included
    rng = np.random.default_rng(3)
    g = make_grid(2, 32, 3.0)
    mag = 10.0 ** rng.uniform(-300, 300, (2, 32, 32))
    vals = rng.standard_normal((32, 32)) * mag[0] + 1j * rng.standard_normal((32, 32)) * mag[1]
    vals[0, :5] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 1e300 + 1e300j]
    vals[1] = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    # values whose |.|, taken by np.abs over an array, printed differently
    vals[2, :3] = [0.6707692265601385 + 0.6867570128335649j,
                   0.013969252984534476 + 0.3650455927795283j,
                   -0.8111239157809338 - 1.1943980996917247j]
    f = SampledField(g, vals)
    want = ["x1,x2,re,im,abs"]
    for x, v in zip(g.points(), f.values.reshape(-1)):
        want.append(",".join([f"{c:.12g}" for c in x]
                             + [f"{v.real:.12g}", f"{v.imag:.12g}", f"{abs(v):.12g}"]))
    assert _field_csv(f) == "\n".join(want) + "\n"


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


@pytest.mark.parametrize("fragment, key", [
    ({"wrap": "false"}, "wrap"),
    ({"wrap": 0}, "wrap"),
    ({"csv": "no"}, "csv"),
    ({"csv": None}, "csv"),
    ({"right": {"kind": "chirp", "matrix": [[0.5]], "envelope": "false"}}, "right.envelope"),
    ({"left": {"kind": "chirp", "matrix": [[0.5]], "envelope": 1}}, "left.envelope"),
])
def test_product_non_boolean_flag_exit_2(tmp_path, capsys, fragment, key):
    # bool("false") is True: only JSON true and false are flags
    cfg = _write(tmp_path / "job.json", {
        "schema_version": 1,
        "grid": {"n": 1, "N": 16, "L": 4.0},
        "left": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        "right": {"kind": "gaussian", "mu": 0.5, "sigma": 1.2},
        **fragment,
    })
    out = tmp_path / "o"
    assert main(["star", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected true or false" in err and "Traceback" not in err
    assert not (out / "star_field.json").exists()


@pytest.mark.parametrize("grid,message", [
    ({"n": 1, "N": 8.9, "L": 2.0}, "grid: N: expected an integer, got 8.9"),
    ({"n": True, "N": 8, "L": 2.0}, "grid: n: expected an integer, got True"),
    ({"n": 1, "N": 8, "L": "2"}, "grid: L: expected a number, got '2'"),
    ({"n": 1, "L": 2.0}, "grid: N: expected an integer, got None"),
    ({"n": 1, "N": 8, "L": 10**400},
     "grid: L: expected a finite number, got an integer beyond float range"),
])
def test_config_grid_is_typed_exit_2(tmp_path, capsys, grid, message):
    # int(8.9) used to read N as 8 and run
    job = _write(tmp_path / "job.json", {"schema_version": 1, "grid": grid,
                                         "left": {"kind": "delta"}, "right": {"kind": "delta"}})
    assert main(["product", "--config", job, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o" / "product_field.json").exists()


_FIELD8 = {"n": 1, "N": 8, "L": 2.0, "re": [0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0],
           "im": [0.0] * 8}


@pytest.mark.parametrize("patch,message", [
    ({"N": 8.9}, "N: expected an integer, got 8.9"),
    ({"n": True}, "n: expected an integer, got True"),
    ({"N": "8"}, "N: expected an integer, got '8'"),
    ({"L": "2"}, "L: expected a number, got '2'"),
    ({"re": [0.0] * 7}, "re: expected a list of 8 numbers, got 7 entries"),
    ({"im": None}, "im: expected a list of 8 numbers, got None"),
    ({"re": [0.0] * 7 + ["1"]}, "re: expected a list of 8 numbers, got entries of type str"),
    ({"im": [True] + [0.0] * 7}, "im: expected a list of 8 numbers, got entries of type bool"),
    ({"L": 10**400}, "L: expected a finite number, got an integer beyond float range"),
    ({"re": [0.0] * 7 + [10**400]}, "re: expected a finite number, got an integer beyond float range"),
    ({"im": [float("nan")] + [0.0] * 7}, "im: expected a finite number, got nan"),
])
def test_field_file_with_ill_typed_grid_exit_2(tmp_path, capsys, patch, message):
    # int(8.9) read N as 8, a short `re` failed inside numpy's broadcast,
    # and a null `im` was reported as a non-finite value
    path = _write(tmp_path / "f.json", {**_FIELD8, **patch})
    grid, ref = {"n": 1, "N": 8, "L": 2.0}, {"kind": "file", "path": path}
    for command, cfg, key in (
            ("product", {"left": ref, "right": {"kind": "delta"}}, "left"),
            ("star", {"left": {"kind": "delta"}, "right": ref}, "right"),
            ("wf", {"field": ref}, "field")):
        job = _write(tmp_path / "job.json", {"schema_version": 1, "grid": grid, **cfg})
        assert main([command, "--config", job, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key}: {message}" in err and "Traceback" not in err, (command, err)


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
    ({"field": {"kind": "gaussian", "sigma": 1e-300}}, "field: sigma: expected a positive number"),
    ({"field": {"kind": "gaussian", "sigma": 10**400}}, "field: int too large to convert"),
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


def test_jobs_and_angles_load_no_scipy(tmp_path, product_config):
    # scipy is a test dependency only: importing the package, a cone job,
    # an n=1 product job, an n=2 wf job (the 4-D Sobol grid) and an angle
    # to a cone with facets (nnls) must not load it
    from twistlab.cones import full_space, product_set, set_to_obj

    cone_cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "predict_product",
        "theta": [[0]],
        "u": set_to_obj(product_set(None, full_space(1))),
        "v": set_to_obj(product_set(full_space(1), None)),
    })
    wf_cfg = _write(tmp_path / "wf.json", {
        "schema_version": 1,
        "grid": {"n": 2, "N": 16, "L": 5.0},
        "field": {"kind": "delta", "a": [0.0, 0.0]},
    })
    jobs = [["cone", "--config", cone_cfg, "--out", str(tmp_path / "c")],
            ["product", "--config", product_config, "--out", str(tmp_path / "p")],
            ["wf", "--config", wf_cfg, "--out", str(tmp_path / "w")]]
    script = (
        "import json, sys\n"
        "import twistlab, twistlab.cli\n"
        f"codes = [twistlab.cli.main(job) for job in {jobs!r}]\n"
        "angle = twistlab.angular_distance_deg(twistlab.cones.polyhedral([(1, 0), (1, 1)]), (0, 1))\n"
        "print(json.dumps([codes, angle, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    path = [str(Path(twistlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    codes, angle, scipy_modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0] and scipy_modules == []
    assert angle == pytest.approx(45.0, rel=1e-12)


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


@pytest.mark.parametrize("key, value, message", [
    ("u", {"dim": 2, "components": [{"kind": "ray", "v": [1, 0], "both": "false"}]},
     "u: both: expected true or false, got 'false'"),
    ("v", {"dim": 2, "components": [{"kind": "product", "x": {"set": _RAY_1, "zero": "no"},
                                     "xi": None}]},
     "v: zero: expected true or false, got 'no'"),
    ("u", {"dim": 2.9, "components": [{"kind": "ray", "v": [1, 0]}]},
     "u: dim: expected an integer, got 2.9"),
])
def test_cone_set_flags_and_dim_are_typed_exit_2(tmp_path, capsys, key, value, message):
    # "false" and "no" would read as true, and 2.9 as 2
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1, "op": "existence", "theta": [[0]], "u": _RAY_2, "v": _RAY_2,
        key: value,
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


_SET_JOBS = {
    "u": {"op": "existence", "theta": [[0]], "u": None, "v": _RAY_2},
    "v": {"op": "existence", "theta": [[0]], "u": _RAY_2, "v": None},
    "gamma": {"op": "pair_condition", "gamma": None},
    "gamma1": {"op": "shift_algebra", "theta": [[0, 1], [-1, 0]], "gamma1": None,
               "gamma2": _RAY_2},
    "gamma2": {"op": "shift_algebra", "theta": [[0, 1], [-1, 0]], "gamma1": _RAY_2,
               "gamma2": None},
    "set": {"op": "pullback", "set": None, "map": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("problem, message", [
    ("missing", "No such file or directory"),
    ("malformed", "Expecting property name"),
])
@pytest.mark.parametrize("key", sorted(_SET_JOBS))
def test_cone_bad_set_file_names_its_key(tmp_path, capsys, key, problem, message):
    path = tmp_path / "set.json"
    if problem == "malformed":
        path.write_text("{dim: 2}")
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1, **_SET_JOBS[key], key: {"path": str(path)},
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and message in err
    assert "Traceback" not in err


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
    big = polyhedral([[rng.randint(-3, 3) for _ in range(4)] for _ in range(28)])
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "existence",
        "theta": [[0, 1], [-1, 0]],
        "u": set_to_obj(big),
        "v": set_to_obj(polyhedral([[1, 0, 0, 0], [0, 0, 1, 0]])),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "op existence" in err and "k=30 columns of rank 6 hold more than 4096 rays" in err
    assert "Traceback" not in err


def test_cone_shift_algebra_past_salience_budget_exit_2(tmp_path, capsys):
    # salience searches pairs of a cone's generators, 2k columns: in R^4
    # twenty generators pass rational.MAX_RAYS in the third cut
    import random

    from twistlab.cones import polyhedral, set_to_obj

    rng = random.Random(5)
    gens = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(20)]
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "shift_algebra",
        "theta": [[0] * 4 for _ in range(4)],
        "gamma1": set_to_obj(polyhedral([[1, 0, 0, 0]])),
        "gamma2": set_to_obj(polyhedral(gens)),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "op shift_algebra" in err
    assert "k=40 columns of rank 4 hold more than 4096 rays in cut 3" in err
    assert "Traceback" not in err


def test_cone_shift_algebra_of_60_generators(tmp_path, capsys):
    # the facets of gamma1 are the rays of its 60-column dependency cone;
    # the witness is the one the (r - 1)-subset scan finds
    import random

    from twistlab.cones import polyhedral, set_to_obj

    rng = random.Random(7)
    gens = [[rng.randint(-3, 3) for _ in range(3)] + [1] for _ in range(60)]
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1,
        "op": "shift_algebra",
        "theta": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        "gamma1": set_to_obj(polyhedral(gens)),
        "gamma2": set_to_obj(polyhedral([[1, 0, 0, 0]])),
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "cone_report.json").read_text())
    assert [c["passed"] for c in report["conditions"]] == [True, True, False]
    x0, xi, pt = ([x for x, _ in v] for v in report["conditions"][2]["witness"])
    assert (x0, xi, pt) == ([-58, -40, -23, 236], [1674, 0, 0, 0], [-58, -877, -23, 236])
    assert "Traceback" not in capsys.readouterr().err


def test_cone_shift_algebra_past_union_search_budget_exit_2(tmp_path, capsys, monkeypatch):
    # closure of two adjacent wedges needs the depth-first search over one
    # complement piece per wedge; with a budget of one choice it is refused
    from twistlab import calculus

    monkeypatch.setattr(calculus, "MAX_PIECE_SEARCHES", 1)
    wedges = {"dim": 2, "components": [{"kind": "polyhedral", "generators": [[1, 0], [1, 1]]},
                                       {"kind": "polyhedral", "generators": [[1, 1], [0, 1]]}]}
    cfg = _write(tmp_path / "cone.json", {
        "schema_version": 1, "op": "shift_algebra", "theta": [[0, 1], [-1, 0]],
        "gamma1": wedges, "gamma2": wedges,
    })
    assert main(["cone", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "op shift_algebra" in err and "complement search past its budget" in err
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
        {"command": "cone", "config": "b.json", "out": str(tmp_path)},
        {"command": "verify", "suite": "calculus", "config": None, "out": "."},
    ]


def test_wf_seed_error_names_its_source(tmp_path, capsys):
    # a seed from the flag is named as the flag, one from the config as its key
    for params, flag, key in (({}, ["--seed", "-1"], "--seed"),
                              ({"seed": -1}, [], "params.seed"),
                              ({"seed": 5}, ["--seed", "-2"], "--seed")):
        cfg = _write(tmp_path / "wf.json", {"schema_version": 1,
                                            "grid": {"n": 1, "N": 64, "L": 8.0},
                                            "field": {"kind": "delta"}, "params": params})
        assert main(["wf", "--config", cfg, "--out", str(tmp_path / "o"), *flag]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: expected a nonnegative integer, got -" in err, err


@pytest.mark.parametrize("argv", [["product", "--config", "a.json"], ["star", "--config", "a.json"],
                                  ["cone", "--config", "a.json"], ["verify", "calculus"]])
def test_seed_only_on_wf_exit_2(argv, capsys, monkeypatch):
    # only wf reads a seed: elsewhere it used to be accepted and ignored
    from twistlab import cli

    monkeypatch.setattr(cli, "_dispatch", lambda args: pytest.fail("dispatched"))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "bridge", "--out", str(out)]) == 0
    doc = json.loads((out / "verify_bridge.json").read_text())
    assert doc["passed"] is True and doc["suite"] == "bridge"
    assert main(["verify", "not-a-suite", "--out", str(out)]) == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "twistlab" in capsys.readouterr().out
