"""The three benchmark workloads.

Each workload is one round of operations built from the seed.  A run
repeats the round, so every run times the same mix.  `check` judges the
outputs of the first round against the oracles in `oracles`; every later
round must reproduce the first round's outputs bit for bit (`fingerprint`).

`check` returns one status per operation: None when the output is right,
a `Failed` when the operation failed, and a string naming what is wrong
otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as O


class Failed(str):
    """An operation that failed (counted in `failed`, not a wrong answer)."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]


def late(attr: str, *args, **kwargs) -> Callable[[], Any]:
    """Call twistlab.<attr> looked up at call time, so that a traced run
    reaches the wrapper installed in its place."""
    import twistlab

    return lambda: getattr(twistlab, attr)(*args, **kwargs)


class Workload:
    ops: list[Op]

    def check(self, outputs: list) -> list:
        raise NotImplementedError

    def fingerprint(self, i: int, out) -> Any:
        raise NotImplementedError


def _status(problems: list[str]):
    return "; ".join(problems) if problems else None


# ---------------------------------------------------------------------------
# products-n2: the O(N^4) twisted quadratures at n=2, N=32

class ProductsN2(Workload):
    """twisted_convolution (both wrap modes), twisted_convolution_product
    and star_via_product at n=2, L=8, on seeded Gaussian packets
    (|mu_i|, |b_i| <= 0.5, sigma in [0.7, 1]) with theta = t J.  The twelve
    operations of a round run at N = 20, 22, ..., 42, the four functions
    in turn; t = 0 for the product at N=32, else seeded in [0.5, 1.5]."""

    # Each operation has its own cost (0.15x to 3x of N=32).  When every
    # operation costs the same, the median latency jumps between the
    # machine's fast and slow phases instead of following them.
    SIZES, L, PROBES = tuple(range(20, 43, 2)), 8.0, 32
    KINDS = ("twisted_convolution", "twisted_convolution_wrap",
             "twisted_convolution_product", "star_via_product")
    TOL_DIRECT = 1e-10    # same sum as the oracle, another summation order
    TOL_ROUTE = 1e-6      # product route against the direct sum

    def __init__(self, seed: int, scratch: Path):
        from twistlab import GaussianPacket, make_grid, sample_analytic

        rng = np.random.default_rng(seed)

        # The direct sum pads with zeros and the product route is periodic, so
        # they agree to TOL_ROUTE only while the output decays well inside
        # the box: with sigma up to 1.2 the route error reached 1.5e-5.
        def packet(grid):
            return sample_analytic(GaussianPacket(
                tuple(rng.uniform(-0.5, 0.5, 2)), float(rng.uniform(0.7, 1.0)),
                tuple(rng.uniform(-0.5, 0.5, 2))), grid)

        self.ops, self.cases = [], []
        for i, N in enumerate(self.SIZES):
            name = self.KINDS[i % 4]
            grid = make_grid(2, N, self.L)
            t = 0.0 if N == 32 else float(rng.uniform(0.5, 1.5))
            f, g = packet(grid), packet(grid)
            theta = np.array([[0.0, t], [-t, 0.0]])
            probes = rng.choice(grid.M, self.PROBES, replace=False)
            fn = "twisted_convolution" if name == "twisted_convolution_wrap" else name
            kw = {"wrap": True} if name == "twisted_convolution_wrap" else {}
            self.ops.append(Op(f"{name}/N{N}", late(fn, f, g, theta, **kw)))
            self.cases.append((name, f.values, g.values, theta, probes))

    def check(self, outputs):
        statuses = []
        for (name, f, g, theta, probes), out in zip(self.cases, outputs):
            got = out.values
            if name == "twisted_convolution_product":
                want = O.twisted_product(f, g, theta, self.L)
                err, tol = O.rel_error(got, want), self.TOL_DIRECT
                if not theta.any():
                    err = max(err, O.rel_error(got, f * g))
            else:
                want = O.twisted_sum(f, g, theta, self.L, probes,
                                     wrap=name == "twisted_convolution_wrap")
                err = O.rel_error(got.reshape(-1)[probes], want)
                tol = self.TOL_ROUTE if name == "star_via_product" else self.TOL_DIRECT
            statuses.append(None if err <= tol else f"{name}: relative error {err:.3g} > {tol:g}")
        return statuses

    def fingerprint(self, i, out):
        return out.values.tobytes()


# ---------------------------------------------------------------------------
# wavefront-n2: STFT + direction grid + ray regression at n=2, N=32

class WavefrontN2(Workload):
    """sample_analytic + estimate_wf at n=2, L=7 with the default
    2048-direction grid, with k_test = 0.05, on seeded catalog members at
    N = 28, 30, ..., 42: an impulse and a plane wave at every other size,
    a chirp and a Gaussian packet at the others.  Impulses sit on lattice
    points with |a_i| <= 0.45, plane waves have |a_i| <= 0.3, chirps
    |A_ij| <= 0.5 (less where the grid band requires).  One more
    operation, the centred impulse at N=32 with default parameters, fails
    on every run: the calibrated k_test (fitted at n=1) flags none of its
    directions."""

    SIZES, L, K_TEST = tuple(range(28, 43, 2)), 7.0, 0.05   # sizes spread costs, as in ProductsN2
    TOL_FACTOR = 1.5    # allowed angle, in covering radii of the direction grid

    def __init__(self, seed: int, scratch: Path):
        import twistlab
        from twistlab import Chirp, Delta, GaussianPacket, PlaneWave, WavefrontParams, make_grid

        rng = np.random.default_rng(seed)
        x_dirs = [[1, 0, 0, 0], [0, 1, 0, 0]]
        xi_dirs = [[0, 0, 1, 0], [0, 0, 0, 1]]
        members = []
        for i, N in enumerate(self.SIZES):
            grid = make_grid(2, N, self.L)
            if i % 2 == 0:
                reach = int(0.45 // grid.spacing)
                members += [
                    ("impulse", grid, Delta(tuple(
                        rng.integers(-reach, reach + 1, 2) * grid.spacing)), xi_dirs),
                    ("planewave", grid, PlaneWave(tuple(rng.uniform(-0.3, 0.3, 2))), x_dirs),
                ]
                continue
            c = rng.uniform(-1.0, 1.0, 3) * min(0.5, 0.95 * grid.nyquist / (2.0 * grid.L))
            a = np.array([[c[0], c[1]], [c[1], c[2]]])
            members += [
                ("chirp", grid, Chirp(a), np.hstack([np.eye(2), a]).tolist()),
                ("gaussian", grid, GaussianPacket(
                    tuple(rng.uniform(-1.0, 1.0, 2)), float(rng.uniform(0.8, 1.4)),
                    tuple(rng.uniform(-1.0, 1.0, 2))), None),
            ]
        # independent of the seed: the calibrated default threshold at n=2
        members.append(("impulse_default_k_test", make_grid(2, 32, self.L), Delta((0.0, 0.0)),
                        xi_dirs))

        def estimate(dist, grid, params):
            return twistlab.estimate_wf(twistlab.sample_analytic(dist, grid), params=params)

        self.ops, self.cases = [], []
        for kind, grid, dist, span in members:
            params = None if kind == "impulse_default_k_test" else WavefrontParams(k_test=self.K_TEST)
            self.ops.append(Op(f"{kind}/N{grid.N}", partial(estimate, dist, grid, params)))
            self.cases.append((kind, span))

    def check(self, outputs):
        statuses = []
        for (kind, span), est in zip(self.cases, outputs):
            flagged = est.flagged_directions()
            if span is None:
                statuses.append(None if len(flagged) == 0
                                else f"{kind}: {len(flagged)} directions flagged, want none")
                continue
            if len(flagged) == 0:
                msg = f"{kind}: no direction flagged (k_test {est.k_test:g})"
                statuses.append(Failed(msg) if kind == "impulse_default_k_test" else msg)
                continue
            tol = self.TOL_FACTOR * est.directions.resolution_deg
            worst = max(O.angle_to_span_deg(w, span) for w in flagged)
            statuses.append(None if worst <= tol
                            else f"{kind}: flagged direction {worst:.2f} deg from the exact set > {tol:.2f}")
        return statuses

    def fingerprint(self, i, est):
        return est.k_hat.tobytes() + est.value_at_rmax.tobytes()


# ---------------------------------------------------------------------------
# random rational cones in R^4 for the cone jobs, and their exact checks

def _rand_gen(rng: random.Random) -> tuple[Fraction, ...]:
    while True:
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
        if any(v):
            return v


def _rand_xi(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        xi = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if any(xi):
            return xi


def _half_theta_xi(t: Fraction, xi) -> tuple[Fraction, Fraction]:
    """(1/2) theta xi for theta = t J, J = [[0, 1], [-1, 0]]."""
    return (t * xi[1] / 2, -t * xi[0] / 2)


def _conic(hulls):
    from twistlab import ConicSet, polyhedral

    return ConicSet(4, tuple(polyhedral(h).components[0] for h in hulls))


T_CHOICES = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def witness_problems(witness, t: Fraction, hu, hv) -> list[str]:
    """A failing-existence witness (p, q) checked in exact arithmetic."""
    p, q = witness
    out = []
    if not any(p):
        out.append("p = 0")
    x, xi = tuple(p[:2]), tuple(p[2:])
    if x != _half_theta_xi(t, xi):
        out.append(f"x_p != theta xi_p / 2 for p={p}")
    if tuple(q) != x + (-xi[0], -xi[1]):
        out.append(f"q != (x_p, -xi_p) for p={p}, q={q}")
    if not O.in_union(hu, p):
        out.append(f"p={p} not in wfu")
    if not O.in_union(hv, q):
        out.append(f"q={q} not in wfv")
    return out


def shift_problems(conditions, h1, h2) -> list[str]:
    """Exact shift-algebra witnesses checked against the generators:
    (v, -v) in gamma2, a sum that leaves gamma2, or a shifted point that
    leaves gamma1.  `conditions` are (name, passed, exact, witness)."""
    out = []
    for name, passed, exact, w in conditions:
        if passed or not exact or w is None:
            continue
        if name == "additive-salient" and len(w) == 2:
            if not (O.in_union(h2, w[0]) and O.in_union(h2, w[1])
                    and tuple(w[1]) == tuple(-x for x in w[0])):
                out.append(f"additive-salient witness {w} is not v, -v in gamma2")
        elif name == "additive-salient":
            if not (O.in_union(h2, w[0]) and O.in_union(h2, w[1])) or O.in_union(h2, w[2]):
                out.append(f"additive-salient witness {w}: sum does not escape gamma2")
        elif name == "shift-stability":
            if not (O.in_union(h1, w[0]) and O.in_union(h2, w[1])) or O.in_union(h1, w[2]):
                out.append(f"shift-stability witness {w}: shifted point does not leave gamma1")
    return out


# ---------------------------------------------------------------------------
# cli-jobs: twistlab.cli.main in process on small n=1 jobs and cone jobs

class CliJobs(Workload):
    """star/product jobs at n=1 (N=128-512), wf jobs at n=1, N=128 (360,
    720 and 180 directions, so their costs differ) and cone jobs.  Jobs 3,
    4 and 6 read back a field an earlier job of the same round wrote,
    through {"kind": "file"}.  Jobs 9 and 10 run on a planted violating
    pair, so their verdicts fail and the command exits 1, which is the
    expected outcome.  Job 13 runs the shift-algebra check on the random
    pair.  Random pairs fail shift stability with an exact witness, so it
    exits 1 too; the witness is checked against the generators."""

    def __init__(self, seed: int, scratch: Path):
        from twistlab import set_to_json

        rng = np.random.default_rng(seed)
        crng = random.Random(seed)
        self.inputs = scratch / "inputs"
        self.jobs_dir = scratch / "jobs"
        self.inputs.mkdir(parents=True)

        def u(lo, hi):
            return float(rng.uniform(lo, hi))

        def gauss():
            return {"kind": "gaussian", "mu": u(-1, 1), "sigma": u(0.8, 1.3), "b": u(-1, 1)}

        def out_of(j, name):
            return str(self.jobs_dir / f"j{j}" / name)

        zero = [[0.0]]
        t = crng.choice(T_CHOICES)
        theta_frac = [[[0, 1], [t.numerator, t.denominator]],
                      [[-t.numerator, t.denominator], [0, 1]]]
        # t [[0, I], [-I, 0]] on R^4, for the shift-algebra job
        theta4_frac = [[[t.numerator, t.denominator] if j == i + 2 else
                        [-t.numerator, t.denominator] if i == j + 2 else [0, 1]
                        for j in range(4)] for i in range(4)]
        xi = _rand_xi(crng)
        x = _half_theta_xi(t, xi)
        hu = [[_rand_gen(crng) for _ in range(2)] + [x + xi]]
        hv = [[_rand_gen(crng) for _ in range(2)] + [x + (-xi[0], -xi[1])]]
        ru = [[_rand_gen(crng) for _ in range(3)]]
        rv = [[_rand_gen(crng) for _ in range(3)]]
        self.hulls = {"planted_u": hu, "planted_v": hv, "rand_u": ru, "rand_v": rv}
        for name, hulls in self.hulls.items():
            (self.inputs / f"{name}.json").write_text(set_to_json(_conic(hulls)))

        def setref(name):
            return {"path": str(self.inputs / f"{name}.json")}

        def grid(N, L):
            return {"n": 1, "N": N, "L": L}

        lat = 24.0 / 128
        jobs = [
            ("star", {"grid": grid(128, 12.0), "theta": zero, "left": gauss(), "right": gauss()}),
            ("product", {"grid": grid(256, 12.0), "theta": zero, "left": gauss(),
                         "right": {"kind": "planewave", "a": u(-2, 2)}, "csv": True}),
            ("star", {"grid": grid(512, 16.0), "theta": zero, "left": gauss(),
                      "right": {"kind": "chirp", "matrix": [[u(-0.5, 0.5)]], "envelope": True}}),
            ("product", {"grid": grid(128, 12.0), "theta": zero,
                         "left": {"kind": "file", "path": out_of(0, "star_field.json")},
                         "right": gauss()}),
            ("star", {"grid": grid(512, 16.0), "theta": zero, "wrap": True,
                      "left": {"kind": "file", "path": out_of(2, "star_field.json")},
                      "right": gauss()}),
            ("wf", {"grid": grid(128, 12.0),
                    "field": {"kind": "delta", "a": lat * int(rng.integers(-4, 5))},
                    "params": {"k_test": 0.05, "direction_count": 360}}),
            ("wf", {"grid": grid(128, 12.0),
                    "field": {"kind": "file", "path": out_of(0, "star_field.json")},
                    "window": {"kind": "hann"},
                    "params": {"k_test": 0.05, "direction_count": 720}}),
            ("wf", {"grid": grid(128, 12.0),
                    "field": {"kind": "chirp", "matrix": [[u(-0.4, 0.4)]]},
                    "params": {"k_test": 0.05, "direction_count": 180}}),
            ("cone", {"op": "existence", "theta": theta_frac,
                      "u": setref("rand_u"), "v": setref("rand_v")}),
            ("cone", {"op": "existence", "theta": theta_frac,
                      "u": setref("planted_u"), "v": setref("planted_v")}),
            ("cone", {"op": "existence_theta_inv", "theta": theta_frac,
                      "u": setref("planted_u"), "v": setref("planted_v")}),
            ("cone", {"op": "predict_product", "theta": theta_frac,
                      "u": setref("rand_u"), "v": setref("rand_v")}),
            ("cone", {"op": "pair_condition", "gamma": setref("rand_u")}),
            ("cone", {"op": "shift_algebra", "theta": theta4_frac,
                      "gamma1": setref("rand_u"), "gamma2": setref("rand_v")}),
        ]
        self.jobs, self.ops = [], []
        self.t = t
        for j, (cmd, cfg) in enumerate(jobs):
            path = self.inputs / f"job{j}.json"
            path.write_text(json.dumps({"schema_version": 1, **cfg}))
            argv = [cmd, "--config", str(path), "--out", str(self.jobs_dir / f"j{j}")]
            self.jobs.append((cmd, cfg))
            self.ops.append(Op(f"{cmd}:{cfg.get('op', cmd)}", partial(self._main, argv)))

    @staticmethod
    def _main(argv):
        from twistlab import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def products(self, j) -> list[Path]:
        cmd, cfg = self.jobs[j]
        d = self.jobs_dir / f"j{j}"
        if cmd in ("star", "product"):
            names = [f"{cmd}_field.json"] + ([f"{cmd}_field.csv"] if cfg.get("csv") else [])
        elif cmd == "wf":
            names = ["wf_estimate.json", "wf_directions.csv"]
        else:
            names = ["cone_report.json"]
        return [d / name for name in names]

    def fingerprint(self, j, rc):
        return (rc, tuple(p.read_bytes() for p in self.products(j)))

    def check(self, outputs):
        memo: dict[int, Any] = {}
        return [_status(self._job_problems(j, rc, memo)) for j, rc in enumerate(outputs)]

    def _field(self, spec, grid, memo):
        """The in-memory field a job's config names; file inputs resolve
        to the in-memory result of the job that wrote them."""
        from twistlab import Chirp, GaussianPacket, PlaneWave, Delta, sample_analytic

        kind = spec["kind"]
        if kind == "file":
            return memo[int(Path(spec["path"]).parent.name[1:])]
        if kind == "gaussian":
            return sample_analytic(GaussianPacket(spec["mu"], spec["sigma"], spec["b"]), grid)
        if kind == "planewave":
            return sample_analytic(PlaneWave(spec["a"]), grid)
        if kind == "delta":
            return sample_analytic(Delta(spec["a"]), grid)
        return sample_analytic(Chirp(spec["matrix"], envelope=spec.get("envelope", False)), grid)

    def _job_problems(self, j, rc, memo) -> list[str]:
        from twistlab import (SampledField, WavefrontParams, direction_grid, estimate_wf,
                              existence_condition, gaussian_window, hann_window, make_grid,
                              pair_condition, predicted_product_wf, set_from_json,
                              shift_algebra_check,
                              twisted_convolution, twisted_convolution_product)
        from twistlab.cones import set_to_obj

        cmd, cfg = self.jobs[j]
        files = self.products(j)
        if cmd == "cone":
            doc = json.loads(files[0].read_text())
            sets = {k: set_from_json(Path(v["path"]).read_text())
                    for k, v in cfg.items() if isinstance(v, dict)}
            theta = tuple(tuple(Fraction(*e) for e in row) for row in cfg["theta"]) \
                if "theta" in cfg else None
            op = cfg["op"]
            if op.startswith("existence"):
                want = bool(existence_condition(sets["u"], sets["v"], theta))
                probs = [] if doc["holds"] == want else [f"job {j}: verdict {doc['holds']} != {want}"]
                if cfg["u"]["path"].endswith("planted_u.json") and doc["holds"]:
                    probs.append(f"job {j}: planted violating pair not found")
                if not doc["holds"]:
                    w = [tuple(Fraction(a, b) for a, b in v) for v in doc["witness"]]
                    hu, hv = (self.hulls[Path(cfg[k]["path"]).stem] for k in ("u", "v"))
                    probs += [f"job {j}: {p}" for p in
                              witness_problems(w, self.t, hu, hv)]
            elif op == "predict_product":
                got = doc["predicted"]
                want = set_to_obj(predicted_product_wf(sets["u"], sets["v"], theta))
                probs = [] if got == want else [f"job {j}: prediction differs from the library call"]
            elif op == "shift_algebra":
                want = shift_algebra_check(sets["gamma1"], sets["gamma2"], theta)
                got = [(c["name"], c["passed"], c["exact"]) for c in doc["conditions"]]
                probs = [] if doc["passed"] == want.passed and \
                    got == [(c.name, c.passed, c.exact) for c in want.conditions] \
                    else [f"job {j}: shift-algebra report differs from the library call"]
                if doc["passed"] != all(c["passed"] for c in doc["conditions"]):
                    probs.append(f"job {j}: verdict disagrees with its conditions")
                conditions = [(c["name"], c["passed"], c["exact"],
                               [tuple(Fraction(a, b) for a, b in v) for v in c["witness"]]
                               if c["exact"] and c["witness"] else None)
                              for c in doc["conditions"]]
                probs += [f"job {j}: {p}" for p in shift_problems(
                    conditions, self.hulls["rand_u"], self.hulls["rand_v"])]
            else:
                want = bool(pair_condition(sets["gamma"]))
                probs = [] if doc["holds"] == want else [f"job {j}: verdict {doc['holds']} != {want}"]
            want_rc = 0 if doc.get("holds", doc.get("passed", True)) else 1
            if rc != want_rc:
                probs.append(f"job {j}: exit {rc}, want {want_rc}")
            return probs
        if rc != 0:
            return [f"job {j}: exit {rc}, want 0"]
        g = cfg["grid"]
        grid = make_grid(g["n"], g["N"], g["L"])
        if cmd == "wf":
            u = self._field(cfg["field"], grid, memo)
            win = hann_window(grid) if cfg.get("window", {}).get("kind") == "hann" \
                else gaussian_window(grid)
            est = estimate_wf(u, win, WavefrontParams(
                k_test=0.05, directions=direction_grid(2, cfg["params"]["direction_count"])))
            doc = json.loads(files[0].read_text())
            with files[1].open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            probs = []
            if doc["flagged"] != est.flagged.tolist():
                probs.append(f"job {j}: flagged set differs from the in-memory estimate")
            if [r["flagged"] == "True" for r in rows] != est.flagged.tolist():
                probs.append(f"job {j}: CSV flags differ from the in-memory estimate")
            return probs
        left = self._field(cfg["left"], grid, memo)
        right = self._field(cfg["right"], grid, memo)
        if cmd == "star":
            want = twisted_convolution(left, right, cfg["theta"], wrap=cfg.get("wrap", False))
        else:
            want = twisted_convolution_product(left, right, cfg["theta"])
        memo[j] = want
        got = SampledField.from_json(files[0].read_text())
        probs = [] if np.array_equal(got.values, want.values) else \
            [f"job {j}: field file does not parse back to the in-memory result"]
        if len(files) > 1:
            with files[1].open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            vals = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
            err = O.rel_error(vals, want.values.reshape(-1))
            if err > 1e-11:
                probs.append(f"job {j}: CSV values off by {err:.3g}")
        return probs


WORKLOADS = {
    "products-n2": ProductsN2,
    "wavefront-n2": WavefrontN2,
        "cli-jobs": CliJobs,
}
