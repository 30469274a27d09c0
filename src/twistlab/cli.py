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

from ._read import ReadError, flag, integer, matrix, need, number, show


_SCHEMA = 1


class ConfigError(Exception):
    """A refusal that is not one value's, such as an unreadable file or
    a set the calculus refuses; `main` writes it as `config error: …`."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _dispatch(args)
    except (ConfigError, ReadError) as exc:
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
        raise ReadError("schema_version", str(_SCHEMA), show(version))
    return cfg


def _field_from(spec, grid, key: str):
    """The field at `key`; a refusal from the readers, the catalog or
    the field file is named under `key`."""
    from .catalog import Chirp, Delta, GaussianPacket, PlaneWave, sample_analytic
    from .grids import SampledField

    kind = need(spec, "kind", key)
    try:
        def reals(name, default):
            def read(x):
                return tuple(map(read, x)) if isinstance(x, list) else number(x, name)
            return read(spec.get(name, default))

        if kind == "delta":
            return sample_analytic(Delta(reals("a", 0.0)), grid)
        if kind == "planewave":
            return sample_analytic(PlaneWave(reals("a", 0.0)), grid)
        if kind == "chirp":
            return sample_analytic(Chirp(reals("matrix", [[0.0]]), flag(spec, "envelope")), grid)
        if kind == "gaussian":
            b = reals("b", None) if "b" in spec else None
            return sample_analytic(GaussianPacket(reals("mu", 0.0), reals("sigma", 1.0), b), grid)
        if kind == "file":
            f = SampledField.from_json(Path(need(spec, "path")).read_text())
            if not f.grid.compatible(grid):
                raise ReadError("path", "a field on the config grid", f"one on {f.grid}")
            return f
    except ReadError as exc:
        raise exc.within(key) from None
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ReadError(f"{key}.kind", "delta, planewave, chirp, gaussian or file", show(kind))


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
    from .grids import grid_from_obj
    from .matrices import AntisymmetricMatrix
    from .products import (
        pointwise_product,
        twisted_convolution,
        twisted_convolution_product,
    )

    cfg = _load_config(args)
    grid = grid_from_obj(need(cfg, "grid"), "grid")
    op = cfg.get("op", "star" if args.command == "star" else "product")
    if op not in ("star", "product", "pointwise"):
        raise ReadError("op", "star|product|pointwise", show(op))
    wrap, csv = flag(cfg, "wrap"), flag(cfg, "csv")
    raw = cfg.get("theta", [[0] * grid.n] * grid.n)
    rows = matrix(raw, "theta")
    try:
        theta = [[float(x) for x in row] for row in rows]
        square = AntisymmetricMatrix.from_matrix(theta).n == grid.n
    except (OverflowError, ValueError):
        square = False
    if not square:
        raise ReadError("theta", f"an antisymmetric {grid.n}×{grid.n} matrix", show(raw))
    left = _field_from(need(cfg, "left"), grid, "left")
    right = _field_from(need(cfg, "right"), grid, "right")
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


# the keys of a wf job's `params`
_WF_PARAMS = ("k_test", "r_min_frac", "r_max_frac", "radii", "seed", "direction_count")


def _cmd_wf(args, out: Path) -> int:
    from .grids import grid_from_obj
    from .spectral import _HANN_HALF_WIDTH, gaussian_window, hann_window
    from .wavefront import _SPHERE_SEED, WavefrontParams, direction_grid, estimate_wf

    cfg = _load_config(args)
    grid = grid_from_obj(need(cfg, "grid"), "grid")
    u = _field_from(need(cfg, "field"), grid, "field")
    if grid.n > 2:
        raise ReadError("grid.n", "1 or 2, where direction grids exist", show(grid.n))
    wspec = cfg.get("window", {"kind": "gaussian"})
    if not isinstance(wspec, dict):
        raise ReadError("window", "an object", show(wspec))
    wkind = wspec.get("kind", "gaussian")
    if wkind not in ("gaussian", "hann"):
        raise ReadError("window.kind", "gaussian or hann", show(wkind))
    try:
        window = gaussian_window(grid) if wkind == "gaussian" else \
            hann_window(grid, wspec.get("half_width", _HANN_HALF_WIDTH))
    except ReadError as exc:
        raise exc.within("window") from None
    pspec = cfg.get("params", {})
    if not isinstance(pspec, dict):
        raise ReadError("params", "an object", show(pspec))
    for key in pspec:
        if key not in _WF_PARAMS:
            raise ReadError(f"params.{key}", f"one of {', '.join(_WF_PARAMS[:-1])} or "
                                             f"{_WF_PARAMS[-1]}", "an unknown key")
    pspec = dict(pspec)
    seed = pspec.pop("seed", _SPHERE_SEED)
    if args.seed is None:
        seed = integer(seed, "params.seed", least=0)
    else:
        seed = integer(args.seed, "--seed", least=0)
    try:
        dirs = direction_grid(2 * grid.n, pspec.pop("direction_count", None), seed)
    except ReadError as exc:
        raise ReadError("params.direction_count", exc.want, exc.got) from None
    try:
        params = WavefrontParams(directions=dirs, **pspec)
    except ReadError as exc:
        raise exc.within("params") from None
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
    """The conic set at `key`, given inline or as {"path": ...}."""
    from .cones import set_from_json, set_from_obj

    try:
        if isinstance(spec, dict) and "path" in spec:
            return set_from_json(Path(spec["path"]).read_text(), key)
        return set_from_obj(spec, key)
    except ReadError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _cmd_cone(args, out: Path) -> int:
    cfg = _load_config(args)
    op = need(cfg, "op")
    theta = matrix(cfg["theta"], "theta") if "theta" in cfg else None
    doc: dict = {"schema_version": _SCHEMA, "kind": "cone_report", "op": op}
    try:
        failed = _cone_op(op, cfg, theta, doc)
    except ReadError:
        raise
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
        as_rational_antisym,
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

    def theta_of(n: int):
        """The job's theta, 0 when absent, refused unless n×n antisymmetric."""
        if theta is None:
            return zeros(n, n)
        try:
            return as_rational_antisym(theta, n)
        except ValueError:
            raise ReadError("theta", f"an antisymmetric {n}×{n} matrix",
                            show(cfg["theta"])) from None

    failed = False
    if op in ("existence", "existence_theta_inv"):
        u = _cone_set(need(cfg, "u"), "u")
        v = _cone_set(need(cfg, "v"), "v")
        fn = existence_condition if op == "existence" else existence_condition_theta_inv
        res = fn(u, v, theta_of(u.dim // 2))
        doc["holds"] = bool(res)
        doc["witness"] = None if res.holds else [_vec_obj(p) for p in res.witness]
        failed = not bool(res)
    elif op == "shift_algebra":
        g1 = _cone_set(need(cfg, "gamma1"), "gamma1")
        g2 = _cone_set(need(cfg, "gamma2"), "gamma2")
        rep = shift_algebra_check(g1, g2, theta_of(g1.dim))
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
        g = _cone_set(need(cfg, "gamma"), "gamma")
        res = pair_condition(g)
        doc["holds"] = bool(res)
        doc["witness"] = None if res.holds else [_vec_obj(p) for p in res.witness]
        failed = not bool(res)
    elif op in ("predict_product", "predict_star"):
        u = _cone_set(need(cfg, "u"), "u")
        v = _cone_set(need(cfg, "v"), "v")
        fn = predicted_product_wf if op == "predict_product" else predicted_star_wf
        got = fn(u, v, theta_of(u.dim // 2))
        doc["predicted"] = set_to_obj(got)
    elif op == "pullback":
        s = _cone_set(need(cfg, "set"), "set")
        amap = matrix(need(cfg, "map"), "map")
        res = wf_pullback(s, amap)
        doc["defined"] = res.defined
        doc["wavefront"] = set_to_obj(res.wavefront) if res.defined else None
        doc["witness"] = None if res.defined else _vec_obj(res.undefined_witness)
        failed = not res.defined
    else:
        raise ReadError("op", "existence, existence_theta_inv, shift_algebra, pair_condition, "
                              "predict_product, predict_star or pullback", show(op))
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
