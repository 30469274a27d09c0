"""Command-line front end: field products, singularity estimation,
exact cone checks, and verification suites.

Every product, star, wf and cone run writes a `*_run.json` record
embedding the fully resolved configuration; data products themselves are
timestamp-free so reruns with the same config and seed are
byte-identical.  Outputs are rewritten in place (`_write`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path


_SCHEMA = 1


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each `parse_args`
    call starts from a fresh namespace, so no value carries over."""
    from .wavefront import _SPHERE_SEED

    p = argparse.ArgumentParser(
        prog="twistlab",
        description="Twisted products, spectrogram singularity estimation, "
                    "and the exact cone calculus that predicts them.",
    )
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", help="JSON job configuration file")
        sp.add_argument("--out", default=".", help="output directory (default: cwd)")

    for name, doc in (
        ("product", "frequency-side twisted product of two fields"),
        ("star", "twisted convolution of two fields"),
        ("wf", "estimate phase space singular directions of a field"),
        ("cone", "exact conic-set checks and predictions"),
    ):
        sp = sub.add_parser(name, help=doc)
        common(sp)
        if name == "wf":
            # only wf samples a sphere; elsewhere a seed would be ignored
            sp.add_argument("--seed", type=int, default=None,
                            help=f"sphere-sampling seed (default {_SPHERE_SEED})")
    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", help="products | wavefront | calculus | bridge | all")
    common(vp)
    return p


def _dispatch(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.command in ("product", "star"):
        return _cmd_product(args, out)
    if args.command == "wf":
        return _cmd_wf(args, out)
    if args.command == "cone":
        return _cmd_cone(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    raise ConfigError(f"unknown command {args.command!r}")


# ---------------------------------------------------------------------------
# configuration plumbing

def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("--config FILE is required for this command")
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: top level must be an object")
    version = cfg.get("schema_version", _SCHEMA)
    if version != _SCHEMA:
        raise ConfigError(f"unsupported schema_version {version} (expected {_SCHEMA})")
    return cfg


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing {where}.{key}")
    return cfg[key]


def _flag(cfg: dict, key: str, where: str) -> bool:
    """`cfg[key]` as a JSON boolean, False when absent; a string such as
    "false" would read as True, so anything else is refused."""
    value = cfg.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _grid_from(cfg: dict):
    from .grids import grid_from_obj

    try:
        return grid_from_obj(_need(cfg, "grid"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _field_from(spec, grid, key: str):
    from .catalog import Chirp, Delta, GaussianPacket, PlaneWave, sample_analytic
    from .grids import SampledField

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{key}: expected an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "delta":
            return sample_analytic(Delta(_num_or_vec(spec.get("a", 0.0))), grid)
        if kind == "planewave":
            return sample_analytic(PlaneWave(_num_or_vec(spec.get("a", 0.0))), grid)
        if kind == "chirp":
            envelope = _flag(spec, "envelope", f"{key}.envelope")
            return sample_analytic(Chirp(spec.get("matrix", [[0.0]]), envelope=envelope), grid)
        if kind == "gaussian":
            return sample_analytic(
                GaussianPacket(
                    _num_or_vec(spec.get("mu", 0.0)),
                    float(spec.get("sigma", 1.0)),
                    _num_or_vec(spec["b"]) if "b" in spec else None,
                ),
                grid,
            )
        if kind == "file":
            f = SampledField.from_json(Path(_need(spec, "path", key)).read_text())
            if not f.grid.compatible(grid):
                raise ConfigError(f"{key}: field grid does not match config grid")
            return f
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.kind: unknown field kind {kind!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _num_or_vec(x):
    if isinstance(x, (list, tuple)):
        return tuple(float(v) for v in x)
    return float(x)


def _rational_matrix(rows, key: str):
    from .rational import mat

    try:
        m = mat(rows)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if not m or not m[0]:
        raise ConfigError(f"{key}: expected a matrix with at least one row and one column")
    return m


def _write(path: Path, text: str) -> None:
    """Write `text` to `path` in place, with no stale tail.

    An existing file keeps its inode and mode, and a symlink is written
    through, as with `Path.write_text`.  The file is not opened with
    O_TRUNC: on ext4 a close after truncating a file to zero starts a
    flush of its data (auto_da_alloc), and the next truncate waits for
    it, which made every rewrite wait tens of milliseconds.  The file is
    cut to the new length after the write instead; devices and pipes,
    whose size reads 0, are never cut.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _run_record(out: Path, name: str, cfg: dict, outputs: dict) -> None:
    doc = {
        "schema_version": _SCHEMA,
        "command": name,
        "resolved_config": cfg,
        "outputs": outputs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write(out / f"{name}_run.json", json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_product(args, out: Path) -> int:
    from .products import (
        pointwise_product,
        twisted_convolution,
        twisted_convolution_product,
    )

    cfg = _load_config(args)
    grid = _grid_from(cfg)
    op = cfg.get("op", "star" if args.command == "star" else "product")
    if op not in ("star", "product", "pointwise"):
        raise ConfigError(f"op: expected star|product|pointwise, got {op!r}")
    wrap, csv = _flag(cfg, "wrap", "wrap"), _flag(cfg, "csv", "csv")
    theta = [[float(x) for x in row]
             for row in _rational_matrix(cfg.get("theta", [[0] * grid.n] * grid.n), "theta")]
    left = _field_from(_need(cfg, "left"), grid, "left")
    right = _field_from(_need(cfg, "right"), grid, "right")
    if op == "star":
        result = twisted_convolution(left, right, theta, wrap=wrap)
    elif op == "product":
        result = twisted_convolution_product(left, right, theta)
    else:
        result = pointwise_product(left, right)
    field_path = out / f"{args.command}_field.json"
    _write(field_path, result.to_json())
    outputs = {"field": field_path.name}
    if csv:
        csv_path = out / f"{args.command}_field.csv"
        _write(csv_path, _field_csv(result))
        outputs["csv"] = csv_path.name
    resolved = dict(cfg)
    resolved.update({"op": op, "theta": theta})
    _run_record(out, args.command, resolved, outputs)
    return 0


def _field_csv(f) -> str:
    import numpy as np

    n = f.grid.n
    flat = f.values.reshape(-1)
    head = ",".join([f"x{i+1}" for i in range(n)] + ["re", "im", "abs"])
    row = ",".join(["%.12g"] * (n + 3)) + "\n"
    # np.hypot rounds as abs() of each complex value does; np.abs on a
    # complex array does not always
    rows = zip(f.grid.points().tolist(), flat.real.tolist(), flat.imag.tolist(),
               np.hypot(flat.real, flat.imag).tolist())
    return head + "\n" + "".join(row % (*x, re, im, a) for x, re, im, a in rows)


def _cmd_wf(args, out: Path) -> int:
    from .spectral import _HANN_HALF_WIDTH, gaussian_window, hann_window
    from .wavefront import _SPHERE_SEED, WavefrontParams, direction_grid, estimate_wf

    cfg = _load_config(args)
    grid = _grid_from(cfg)
    u = _field_from(_need(cfg, "field"), grid, "field")
    if grid.n > 2:
        raise ConfigError(f"grid.n: direction grids exist for n = 1 and 2, got {grid.n}")
    wspec = cfg.get("window", {"kind": "gaussian"})
    if not isinstance(wspec, dict):
        raise ConfigError(f"window: expected an object with a 'kind' field, got {wspec!r}")
    wkind = wspec.get("kind", "gaussian")
    if wkind == "gaussian":
        window = gaussian_window(grid)
    elif wkind == "hann":
        half_width = wspec.get("half_width", _HANN_HALF_WIDTH)
        if not _is_number(half_width) or not 0.0 < half_width < float("inf"):
            raise ConfigError(f"window.half_width: expected a positive number, got {half_width!r}")
        window = hann_window(grid, float(half_width))
    else:
        raise ConfigError(f"window.kind: unknown window {wkind!r}")
    pspec = cfg.get("params", {})
    if not isinstance(pspec, dict):
        raise ConfigError(f"params: expected an object, got {pspec!r}")
    pspec = dict(pspec)
    seed = pspec.pop("seed", _SPHERE_SEED)
    if args.seed is not None:
        seed = args.seed
    count = pspec.pop("direction_count", None)
    for key, val in (("--seed" if args.seed is not None else "params.seed", seed),
                     ("params.direction_count", count)):
        if val is not None and (not _is_int(val) or val < 0):
            raise ConfigError(f"{key}: expected a nonnegative integer, got {val!r}")
    try:
        dirs = direction_grid(2 * grid.n, count, seed)
    except ValueError as exc:
        raise ConfigError(f"params.direction_count: {exc}") from exc
    try:
        params = WavefrontParams(directions=dirs, **pspec)
    except TypeError as exc:
        raise ConfigError(f"params: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"params.{exc}") from exc
    est = estimate_wf(u, window, params)
    _write(out / "wf_estimate.json", est.to_json())
    _write(out / "wf_directions.csv", est.to_csv())
    resolved = dict(cfg)
    resolved["params"] = {
        "k_test": est.k_test, "r_min": est.r_min, "r_max": est.r_max,
        "radii": est.radii, "seed": seed,
        "direction_count": est.directions.count,
    }
    _run_record(out, "wf", resolved, {"estimate": "wf_estimate.json",
                                      "directions": "wf_directions.csv"})
    flagged = int(est.flagged.sum())
    print(f"{flagged} of {est.directions.count} directions flagged "
          f"(k_test {est.k_test:g}, r in [{est.r_min:.3g}, {est.r_max:.3g}])")
    return 0


def _cone_set(spec, key: str):
    from .cones import set_from_json, set_from_obj

    if not isinstance(spec, dict):
        raise ConfigError(f"{key}: expected a conic-set object or {{path: ...}}")
    try:
        if "path" in spec:
            return set_from_json(Path(spec["path"]).read_text())
        return set_from_obj(spec)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _cmd_cone(args, out: Path) -> int:
    cfg = _load_config(args)
    op = _need(cfg, "op")
    theta = _rational_matrix(cfg["theta"], "theta") if "theta" in cfg else None
    doc: dict = {"schema_version": _SCHEMA, "kind": "cone_report", "op": op}
    try:
        failed = _cone_op(op, cfg, theta, doc)
    except ValueError as exc:
        # bad set data or a cone past the enumeration budget
        raise ConfigError(f"op {op}: {exc}") from exc
    report = json.dumps(doc, indent=2)
    _write(out / "cone_report.json", report + "\n")
    _run_record(out, "cone", cfg, {"report": "cone_report.json"})
    print(report)
    return 1 if failed else 0


def _cone_op(op: str, cfg: dict, theta, doc: dict) -> bool:
    """Run one cone operation into `doc`; True when its verdict fails."""
    from .calculus import (
        shift_algebra_check,
        existence_condition,
        existence_condition_theta_inv,
        pair_condition,
        predicted_product_wf,
        predicted_star_wf,
        wf_pullback,
    )
    from .cones import _vec_obj, set_to_obj
    from .rational import zeros

    failed = False
    if op in ("existence", "existence_theta_inv"):
        u = _cone_set(_need(cfg, "u"), "u")
        v = _cone_set(_need(cfg, "v"), "v")
        fn = existence_condition if op == "existence" else existence_condition_theta_inv
        res = fn(u, v, theta if theta is not None else zeros(u.dim // 2, u.dim // 2))
        doc["holds"] = bool(res)
        doc["witness"] = None if res.holds else [_vec_obj(p) for p in res.witness]
        failed = not bool(res)
    elif op == "shift_algebra":
        g1 = _cone_set(_need(cfg, "gamma1"), "gamma1")
        g2 = _cone_set(_need(cfg, "gamma2"), "gamma2")
        rep = shift_algebra_check(g1, g2, theta if theta is not None
                                   else zeros(g1.dim, g1.dim))
        doc["passed"] = rep.passed
        doc["verdict"] = rep.verdict
        doc["conditions"] = [
            {"name": c.name, "passed": c.passed, "exact": c.exact,
             "witness": None if c.witness is None else [_vec_obj(p) for p in c.witness],
             "note": c.note}
            for c in rep.conditions
        ]
        failed = not rep.passed
    elif op == "pair_condition":
        g = _cone_set(_need(cfg, "gamma"), "gamma")
        res = pair_condition(g)
        doc["holds"] = bool(res)
        doc["witness"] = None if res.holds else [_vec_obj(p) for p in res.witness]
        failed = not bool(res)
    elif op in ("predict_product", "predict_star"):
        u = _cone_set(_need(cfg, "u"), "u")
        v = _cone_set(_need(cfg, "v"), "v")
        fn = predicted_product_wf if op == "predict_product" else predicted_star_wf
        got = fn(u, v, theta if theta is not None else zeros(u.dim // 2, u.dim // 2))
        doc["predicted"] = set_to_obj(got)
    elif op == "pullback":
        s = _cone_set(_need(cfg, "set"), "set")
        amap = _rational_matrix(_need(cfg, "map"), "map")
        res = wf_pullback(s, amap)
        doc["defined"] = res.defined
        doc["wavefront"] = set_to_obj(res.wavefront) if res.defined else None
        doc["witness"] = None if res.defined else _vec_obj(res.undefined_witness)
        failed = not res.defined
    else:
        raise ConfigError(f"op: unknown cone operation {op!r}")
    return failed


def _cmd_verify(args, out: Path) -> int:
    from .suites import run_suite

    try:
        report = run_suite(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    stamp = datetime.now(timezone.utc).isoformat()
    _write(out / f"verify_{args.suite}.json", report.to_json(timestamp=stamp) + "\n")
    print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
