#!/usr/bin/env python3
"""Write BENCH_<label>.json: two commits of this repository compared on one machine.

    python3 tools/bench.py --base REV --head REV --label NAME --workdir DIR \\
        [--pairs WORKLOAD:SEED,SEED,...]... [--hash-seeds SEED...] [--repeats K]
        [--tier1 K] [--rss-rounds R] [--products-calls C] [--serialize-calls C]

Both revisions are exported with `git archive` into DIR (outside the
repository).  For every `--pairs` entry, `perfbench/run.py --workload W
--seed S --seconds 25` runs once in each checkout per seed, the first
checkout alternating from pair to pair; the file keeps every run's
metrics, each side's median and quartiles, and per metric the number of
pairs in which head read lower than base.

Fresh-interpreter probes, K times per checkout, alternating:
- the first `direction_grid(4)` after `import twistlab`: wall and CPU
  time, peak RSS before and after, and a hash of the grid's bytes;
- one `twistlab wf` job at n=2 on the centred impulse with k_test =
  0.05, at N=32, L=7 and at N=128, L=14: wall and CPU time, the job's
  own max RSS, and a hash of `wf_estimate.json` and `wf_directions.csv`;
- `twistlab verify all`: wall and CPU time, the passed and total check
  counts, and a hash of `verify_all.json` without its timestamp and
  per-check seconds;
- the exact layer: `rational.extreme_rays` on seeded integer generator
  sets in R^4 of k = 6, 10, 14, 18, 24 and 30, and the uncached
  `cones._hform` of cones over 20, 40 and 60 seeded integer points at
  height 1 in R^4 (median process CPU of three calls, ray or facet count
  and a hash of the result with every number written as its reduced
  fraction, so that both sides hash the same values alike; inputs pass
  `rational.mat` and `cones.polyhedral`; where a budget refuses, the CPU
  time to the refusal and its message), and the cli-jobs rounds
  of seeds 1-12, three per seed with the first left out: each cone job's
  median process CPU, the round's CPU, the CPU and calls of
  `extreme_rays` through every module's reference to it, and a hash of
  every round's fingerprints, and per round (medians) the round's CPU and
  wall time and the CPU and wall time spent writing outputs, inside
  `cli._write` (in a commit without it, `Path.write_text`).

The spectrogram ladder runs in one interpreter that loads both
checkouts' packages side by side: for n=1 at N=128, 256, 512 and n=2 at
N=32, 64, 128 (L=7, a Gaussian packet, the Gaussian window, k_test
0.05), after one warm-up call per side, SPECTROGRAM_CALLS alternating
pairs of each side's spectrogram entry and of `estimate_wf_from_stft`
on its result.  The entry is `stft_magnitude(u, window, reach)` with
the reach `estimate_wf` uses in a package with `spectral._reach_set`,
and `stft_magnitude(u, window, plan)` with the plan of the estimate's
geometry in one without.  Per case and side it records the FFT lines
the entry transforms along each axis y_1, ..., y_n, the median and
quartiles of process CPU per call of each, the pairs in
which head was faster, a hash of k_hat, value_at_rmax and `flagged`, how
far head's estimate moved (the largest |k_hat| difference over the
entries finite on both sides, null when a k_hat is finite on one side
only; whether every flag is equal; whether value_at_rmax keeps its
bytes), and the two sides' |V| compared on the rows of head's plan: a
box is read at those rows, a (rows, F) line array as it is.  It records
whether both plans have the same rows, the cells each side's magnitude
holds and how many of them are nonzero, whether the lines are equal
byte for byte, and their largest |V| difference.

With `--rss-rounds R`, each checkout runs R cli-jobs rounds of seed 102
in one interpreter, fingerprinting every output as perfbench does, and
records after rounds 1, 10, 25, 50, 100, 150, 200, 300, ... and R its
RssAnon and RssFile (from /proc/self/status), `sys.getallocatedblocks()`
and its max RSS, so that RSS can be read against rounds completed.

With `--products-calls C`, the products ladder runs: one interpreter
loads both checkouts' packages side by side and times C calls per side,
alternating which side goes first, of `twisted_convolution` in both
modes at n=1, N=512 and at n=2, N=32, 64 and 128, and of
`twisted_convolution_product` and `star_via_product` at n=2, N=64 (L=8,
Gaussian packets, theta = J at n=2).  Per case and side it records the
median and quartiles of process CPU per call, minor page faults per call
(`getrusage`), the pairs in which head was faster, and the largest
difference of the two sides' outputs relative to base's peak.  Then, K
times per checkout alternating, a fresh interpreter runs 40 products-n2
rounds of seed 7 after one warm-up round, as perfbench's loop does, and
records the median round's CPU and the minor faults per operation.

With `--serialize-calls C`, the serialization ladder runs in one
interpreter that loads both checkouts side by side and alternates C
calls per side of `WavefrontEstimate.to_json` and `to_csv` (n=1, N=128,
L=12 with 180, 360 and 720 directions, and n=2, N=32, L=7 with 2048; the
centred impulse, k_test 0.05), of `SampledField.to_json` and `from_json`
at n=1, N=512 and n=2, N=64, of `cli._field_csv` at n=1, N=256 (L=8,
a Gaussian packet), and of `cones.set_from_json` on a set file shaped as
cli-jobs writes them (three cones of three seeded half-integer
generators in R^4, as `set_to_json`'s [num, den] pairs; its output is
compared by repr).  Per case and side it records the median and
quartiles of process CPU per call, the pairs in which head was faster,
the output's length and whether both sides' outputs are equal byte for
byte; for the estimate methods also the median CPU of the first call on
a freshly built direction grid, five per side, which is what a one-shot
CLI job pays.

With either of the two, each checkout also runs one cli-jobs round of
seeds 1-12 into its own directory, whose star and product fields are
compared (largest difference relative to base's peak) and whose `wf`
outputs are compared byte for byte (`cli_jobs_fields`).

With `--tier1 K`, the tier-1 suite (`python -m pytest -q` with `src` on
the path) runs K times per checkout, alternating: wall and CPU time and
pytest's summary line.

With `--hash-seeds`, each checkout hashes every wavefront-n2 estimate
(k_hat, residual, value_at_rmax, directions) of each seed, and
separately its `flagged` masks, so that a change that only moves
rounding shows its verdicts unchanged; per seed, the file also records
how far head's estimates moved from base's, as the spectrogram ladder
does, from the arrays each checkout leaves under DIR.  BLAS and OpenMP
run on one thread throughout, as in perfbench.  The file also records
the machine, core count, Python and numpy versions and the commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WF_CONFIG = {"schema_version": 1, "grid": {"n": 2, "N": 32, "L": 7.0},
             "field": {"kind": "delta", "a": [0.0, 0.0]}, "params": {"k_test": 0.05}}
WF_CONFIG_N128 = dict(WF_CONFIG, grid={"n": 2, "N": 128, "L": 14.0})

GRID_PROBE = """
import hashlib, json, resource, time
import twistlab
from twistlab.wavefront import direction_grid
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
w, c = time.perf_counter(), time.process_time()
g = direction_grid(4)
w, c = time.perf_counter() - w, time.process_time() - c
h = hashlib.sha256(g.directions.tobytes() + repr(g.resolution_deg).encode()).hexdigest()
print(json.dumps({"wall_s": w, "cpu_s": c, "peak_rss_mb_before": before,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "sha256": h}))
"""

# how far head's estimates moved from base's, each given as (k_hat,
# flagged, value_at_rmax): the largest |k_hat difference| where both are
# finite (null when a k_hat is finite on one side only), whether every
# flag is equal, and whether value_at_rmax keeps its bytes
ESTIMATE_DIFF = """
import numpy as np
ESTIMATE_ARRAYS = ("k_hat", "flagged", "value_at_rmax")
def estimate_diff(base, head):
    (kb, fb, vb), (kh, fh, vh) = base, head
    live = np.isfinite(kb)
    same = np.array_equal(live, np.isfinite(kh))
    return {"max_abs_dk_hat": float(np.abs(kh - kb)[live].max(initial=0.0)) if same else None,
            "flagged_equal": bool(np.array_equal(fb, fh)),
            "value_at_rmax_bytes_equal": vb.tobytes() == vh.tobytes()}
"""

# argv: a directory for each seed's (k_hat, flagged, value_at_rmax), then the seeds
ESTIMATE_HASHES = ESTIMATE_DIFF + """
import hashlib, json, sys, tempfile
from pathlib import Path
from workloads import WORKLOADS
out = {}
for seed in map(int, sys.argv[2:]):
    h, flagged, arrays = hashlib.sha256(), hashlib.sha256(), []
    with tempfile.TemporaryDirectory() as scratch:
        for op in WORKLOADS["wavefront-n2"](seed, Path(scratch)).ops:
            est = op.call()
            for a in (est.k_hat, est.residual, est.value_at_rmax, est.directions.directions):
                h.update(a.tobytes())
            flagged.update(est.flagged.tobytes())
            arrays.append([getattr(est, k) for k in ESTIMATE_ARRAYS])
    np.savez(Path(sys.argv[1]) / f"{seed}.npz",
             **{k: np.concatenate(a) for k, a in zip(ESTIMATE_ARRAYS, zip(*arrays))})
    out[seed] = {"estimate": h.hexdigest(), "flagged": flagged.hexdigest()}
print(json.dumps(out))
"""

# argv: base's and head's directories of ESTIMATE_HASHES arrays, then the seeds
ESTIMATE_COMPARE = ESTIMATE_DIFF + """
import json, sys
from pathlib import Path
def arrays(side, seed):
    npz = np.load(Path(side) / f"{seed}.npz")
    return [npz[k] for k in ESTIMATE_ARRAYS]
print(json.dumps({seed: estimate_diff(arrays(sys.argv[1], seed), arrays(sys.argv[2], seed))
                  for seed in sys.argv[3:]}))
"""

EXACT_PROBE = """
import hashlib, json, random, statistics, tempfile, time
from pathlib import Path
from twistlab import calculus, cli, cones, rational
from workloads import WORKLOADS
out = {}
def exact(x):
    # str(Fraction(3)) == str(3): one text for a value, whatever its type
    return [exact(v) for v in x] if isinstance(x, (list, tuple)) else str(x)
def probe(name, fn, unit, size):
    # a cone past the budget records its refusal and the time it took
    cpu = []
    try:
        for _ in range(3):
            c = time.process_time()
            got = fn()
            cpu.append(time.process_time() - c)
    except ValueError as exc:
        out[f"{name}_cpu_s"] = time.process_time() - c
        out[f"{name}_refused"] = str(exc)
        return
    out[f"{name}_cpu_s"] = statistics.median(cpu)
    out[f"{name}_{unit}"] = size(got)
    out[f"{name}_sha256"] = hashlib.sha256(json.dumps(exact(got)).encode()).hexdigest()
# inputs pass the public parse boundary, so each side gets its own representation
for k in (6, 10, 14, 18, 24, 30):
    rng = random.Random(2)
    a = rational.mat(zip(*[[rng.randint(-3, 3) for _ in range(4)] for _ in range(k)]))
    probe(f"extreme_rays_k{k}", lambda: rational.extreme_rays(a, k), "rays", len)
# facets of a cone over k integer points of [-3, 3]^3 at height 1, uncached
for k in (20, 40, 60):
    rng = random.Random(7)
    g = cones.polyhedral([[rng.randint(-3, 3) for _ in range(3)] + [1]
                          for _ in range(k)]).components[0].generators
    probe(f"hform_g{k}", lambda: cones._hform.__wrapped__(g), "facets", lambda h: len(h[1]))
spent = {"rays": [0.0, 0.0, 0], "write": [0.0, 0.0, 0]}
def timed(fn, key):
    def wrapper(*args):
        c, w = time.process_time(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[key][0] += time.process_time() - c
            spent[key][1] += time.perf_counter() - w
            spent[key][2] += 1
    return wrapper
# calculus and cones call the kernel through their own imported names
for mod in (rational, calculus, cones):
    mod.extreme_rays = timed(mod.extreme_rays, "rays")
# every CLI output goes through cli._write; before it existed, through Path.write_text
if hasattr(cli, "_write"):
    cli._write = timed(cli._write, "write")
else:
    Path.write_text = timed(Path.write_text, "write")
h, cone_cpu, rounds = hashlib.sha256(), {}, []
for seed in range(1, 13):
    with tempfile.TemporaryDirectory() as scratch:
        wl = WORKLOADS["cli-jobs"](seed, Path(scratch))
        for r in range(3):
            for v in spent.values():
                v[:] = [0.0, 0.0, 0]
            cpu = wall = 0.0
            for j, op in enumerate(wl.ops):
                c, w = time.process_time(), time.perf_counter()
                rc = op.call()
                c, w = time.process_time() - c, time.perf_counter() - w
                cpu += c
                wall += w
                h.update(repr(wl.fingerprint(j, rc)).encode())
                if r and op.name.startswith("cone:"):
                    cone_cpu.setdefault(f"cone_{j}_{op.name[5:]}_cpu_s", []).append(c)
            if r:
                rounds.append({"round_cpu_s": cpu, "round_wall_s": wall,
                               "extreme_rays_cpu_s": spent["rays"][0],
                               "extreme_rays_calls": spent["rays"][2],
                               "write_cpu_s": spent["write"][0],
                               "write_wall_s": spent["write"][1],
                               "writes": spent["write"][2]})
out.update({k: statistics.median(v) for k, v in cone_cpu.items()})
for key in rounds[0]:
    out[f"cli_jobs_{key}"] = statistics.median(r[key] for r in rounds)
out["cli_jobs_extreme_rays_share"] = (sum(r["extreme_rays_cpu_s"] for r in rounds)
                                      / sum(r["round_cpu_s"] for r in rounds))
out["cli_jobs_fingerprints_sha256"] = h.hexdigest()
print(json.dumps(out))
"""

RSS_PROBE = """
import json, resource, sys, tempfile
from pathlib import Path
from workloads import WORKLOADS
seed, rounds = map(int, sys.argv[1:])
marks = {1, 10, 25, 50, 100, 150, 200, 300, 400, 600, 800, rounds}
def status():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {f"{k}_mb": int(fields[k].split()[0]) / 1024.0 for k in ("RssAnon", "RssFile")}
out = []
with tempfile.TemporaryDirectory() as scratch:
    wl = WORKLOADS["cli-jobs"](seed, Path(scratch))
    for r in range(1, rounds + 1):
        for j, op in enumerate(wl.ops):
            wl.fingerprint(j, op.call())
        if r in marks:
            out.append({"round": r, **status(), "allocated_blocks": sys.getallocatedblocks(),
                        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
print(json.dumps(out))
"""
RSS_SEED = 102

# both checkouts' packages in one interpreter: argv is C, base src, head src
SIDES = """
import importlib.util, json, resource, statistics, sys, time
import numpy as np
def load(name, src):
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/twistlab/__init__.py", submodule_search_locations=[f"{src}/twistlab"])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod
calls = int(sys.argv[1])
sides = {"base": load("twistlab_base", sys.argv[2]), "head": load("twistlab_head", sys.argv[3])}
def orders(calls):
    return [("base", "head") if i % 2 == 0 else ("head", "base") for i in range(calls)]
def cpu_summary(times):
    q1, med, q3 = statistics.quantiles(times, n=4)
    return {"cpu_ms_median": 1e3 * med, "cpu_ms_q1": 1e3 * q1, "cpu_ms_q3": 1e3 * q3}
"""

PRODUCTS_LADDER = SIDES + """
cases = [("twisted_convolution", 1, 512, wrap) for wrap in (False, True)]
cases += [("twisted_convolution", 2, N, wrap) for N in (32, 64, 128) for wrap in (False, True)]
cases += [(fn, 2, 64, None) for fn in ("twisted_convolution_product", "star_via_product")]
def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
out = {}
for fn, n, N, wrap in cases:
    run, values = {}, {}
    for side, tl in sides.items():
        g = tl.make_grid(n, N, 8.0)
        f = tl.sample_analytic(tl.GaussianPacket((0.3,) * n, 1.0, (0.4,) * n), g)
        h = tl.sample_analytic(tl.GaussianPacket((-0.2,) * n, 0.9), g)
        theta = [[0.0, 1.0], [-1.0, 0.0]] if n == 2 else [[0.0]]
        kw = {} if wrap is None else {"wrap": wrap}
        run[side] = lambda tl=tl, f=f, h=h, theta=theta, kw=kw: getattr(tl, fn)(f, h, theta, **kw)
        values[side] = run[side]().values
    cpu, faults = {s: [] for s in sides}, {s: 0 for s in sides}
    for order in orders(calls):
        for side in order:
            m, c = minflt(), time.process_time()
            run[side]()
            cpu[side].append(time.process_time() - c)
            faults[side] += minflt() - m
    row = {side: {**cpu_summary(times), "minor_faults_per_call": faults[side] / calls}
           for side, times in cpu.items()}
    row["head_faster_in_pairs"] = sum(h < b for b, h in zip(cpu["base"], cpu["head"]))
    row["calls_per_side"] = calls
    row["max_abs_diff_over_base_peak"] = float(
        np.abs(values["head"] - values["base"]).max() / np.abs(values["base"]).max())
    out[f"{fn}{'_wrap' if wrap else ''}_n{n}_N{N}"] = row
print(json.dumps(out))
"""

SERIALIZE_LADDER = SIDES + """
import dataclasses, importlib, random
from fractions import Fraction
FIRST_CALLS = 5
def estimate(tl, n, N, count):
    grid = tl.make_grid(n, N, 12.0 if n == 1 else 7.0)
    params = tl.WavefrontParams(k_test=0.05, directions=tl.direction_grid(2 * n, count))
    return tl.estimate_wf(tl.sample_analytic(tl.Delta((0.0,) * n), grid), params=params)
def field(tl, n, N):
    g = tl.make_grid(n, N, 8.0)
    return tl.sample_analytic(tl.GaussianPacket((0.3,) * n, 1.0, (0.4,) * n), g)
def comparable(x):
    if isinstance(x, str):
        return x
    if hasattr(x, "components"):
        return repr(x)
    return (x.grid.n, x.grid.N, x.grid.L, x.values.tobytes())
# name -> per side: (the timed call, a maker of that call on a fresh grid, or None)
cases = {}
for n, N, counts in ((1, 128, (180, 360, 720)), (2, 32, (2048,))):
    for count in counts:
        ests = {side: estimate(tl, n, N, count) for side, tl in sides.items()}
        for meth in ("to_json", "to_csv"):
            cases[f"wf_{meth}_n{n}_N{N}_d{count}"] = {side: (
                getattr(ests[side], meth),
                lambda tl=tl, e=ests[side], dim=2 * n, count=count, meth=meth: getattr(
                    dataclasses.replace(e, directions=tl.wavefront._direction_grid.__wrapped__(
                        dim, count, tl.wavefront._SPHERE_SEED)), meth))
                for side, tl in sides.items()}
for n, N in ((1, 512), (2, 64)):
    fields = {side: field(tl, n, N) for side, tl in sides.items()}
    text = fields["base"].to_json()
    cases[f"field_to_json_n{n}_N{N}"] = {side: (f.to_json, None) for side, f in fields.items()}
    cases[f"field_from_json_n{n}_N{N}"] = {
        side: (lambda tl=tl, text=text: tl.SampledField.from_json(text), None)
        for side, tl in sides.items()}
fields = {side: field(tl, 1, 256) for side, tl in sides.items()}
cases["cli_field_csv_n1_N256"] = {
    side: (lambda tl=tl, f=fields[side]: importlib.import_module(f"{tl.__name__}.cli")._field_csv(f),
           None) for side, tl in sides.items()}
rng = random.Random(7)
hulls = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)] for _ in range(3)]
         for _ in range(3)]
hulls = [[g for g in h if any(g)] for h in hulls]
tl = sides["base"]
text = tl.set_to_json(tl.ConicSet(4, tuple(tl.polyhedral(h).components[0] for h in hulls)))
cases["cones_set_from_json_d4_k9"] = {
    side: (lambda tl=tl: tl.set_from_json(text), None) for side, tl in sides.items()}
out = {}
for name, case in cases.items():
    outs = {side: case[side][0]() for side in sides}
    row = {"bytes": len(outs["base"]) if isinstance(outs["base"], str) else None,
           "bytes_equal": comparable(outs["base"]) == comparable(outs["head"])}
    cpu = {side: [] for side in sides}
    for order in orders(calls):
        for side in order:
            c = time.process_time()
            case[side][0]()
            cpu[side].append(time.process_time() - c)
    for side, times in cpu.items():
        row[side] = cpu_summary(times)
    row["head_faster_in_pairs"] = sum(h < b for b, h in zip(cpu["base"], cpu["head"]))
    row["calls_per_side"] = calls
    # the one-shot CLI cost: the first call on a grid no estimate has written yet
    if case["base"][1] is not None:
        first = {side: [] for side in sides}
        for order in orders(FIRST_CALLS):
            for side in order:
                call = case[side][1]()
                c = time.process_time()
                call()
                first[side].append(time.process_time() - c)
        for side, times in first.items():
            row[side]["first_call_cpu_ms"] = 1e3 * statistics.median(times)
    out[name] = row
print(json.dumps(out))
"""

SPECTROGRAM_CALLS = 20
SPECTROGRAM_LADDER = SIDES + ESTIMATE_DIFF + """
import hashlib
out = {}
for n, sizes in ((1, (128, 256, 512)), (2, (32, 64, 128))):
    for N in sizes:
        run, mags, ests, fft_lines, plans = {}, {}, {}, {}, {}
        for side, tl in sides.items():
            g = tl.make_grid(n, N, 7.0)
            u = tl.sample_analytic(tl.GaussianPacket((0.3,) * n, 0.9, (-0.5,) * n), g)
            win, params = tl.spectral.gaussian_window(g), tl.WavefrontParams(k_test=0.05)
            if hasattr(tl.spectral, "_reach_set"):     # the reach, then its lines
                arg = tl.estimate_wf(u, win, params).r_max * (1.0 + 1e-9)
                x0s, rows = tl.spectral._reach_set(n, N, g.L, arg)
            else:                                       # the geometry's plan of lines
                arg = tl.wavefront._geometry_of(g, win.sigma_x, win.sigma_xi, params).plan
                x0s, rows = arg.x0s, arg.lines
                plans[side] = arg
            if not hasattr(arg, "bounds"):              # per x_1 (levels, destination rows)
                rows = [levels for levels, _ in rows]
            # y_1 for the range of x_1 and every later axis; y_(a+2) on each line of level a + 1
            fft_lines[side] = [int(x0s[-1] - x0s[0] + 1) * N ** (n - 1)] + [
                sum(len(levels[a][0]) for levels in rows) * N ** (n - 2 - a) for a in range(n - 1)]
            run[side] = (lambda tl=tl, u=u, win=win, arg=arg: tl.spectral.stft_magnitude(u, win, arg),
                         lambda mag, tl=tl, params=params: tl.wavefront.estimate_wf_from_stft(mag, params))
            mags[side] = run[side][0]()     # also the warm-up call
            ests[side] = run[side][1](mags[side])
        cpu = {side: {"stft_magnitude": [], "fit": []} for side in sides}
        for order in orders(calls):
            for side in order:
                c = time.process_time()
                mag = run[side][0]()
                cpu[side]["stft_magnitude"].append(time.process_time() - c)
                c = time.process_time()
                run[side][1](mag)
                cpu[side]["fit"].append(time.process_time() - c)
                del mag
        row = {side: {layer: cpu_summary(t) for layer, t in cpu[side].items()} for side in sides}
        row["head_faster_in_pairs"] = {layer: sum(h < b for b, h in zip(
            cpu["base"][layer], cpu["head"][layer])) for layer in cpu["base"]}
        row["calls_per_side"] = calls
        row["fft_lines"] = fft_lines
        row["estimate_sha256"] = {side: hashlib.sha256(b"".join(
            a.tobytes() for a in (e.k_hat, e.value_at_rmax, e.flagged))).hexdigest()
            for side, e in ests.items()}
        row["estimate_bytes_equal"] = len(set(row["estimate_sha256"].values())) == 1
        row.update(estimate_diff(*([getattr(e, k) for k in ESTIMATE_ARRAYS]
                                   for e in (ests["base"], ests["head"]))))
        # a side's |V| on the head plan's rows: its (rows, F) line array as it
        # is, or the rows of its box
        plan = plans["head"]
        width = plan.fs.stop - plan.fs.start
        lines = {side: m.values if m.values.shape == (len(plan.rows), width)
                 else m.values.reshape(-1, width)[plan.rows] for side, m in mags.items()}
        row["plan_rows_equal"] = "base" in plans and np.array_equal(plans["base"].rows, plan.rows)
        row["cells_held"] = {side: int(m.values.size) for side, m in mags.items()}
        row["nonzero_cells"] = {side: int(np.count_nonzero(m.values)) for side, m in mags.items()}
        row["lines_bytes_equal"] = lines["base"].tobytes() == lines["head"].tobytes()
        row["max_abs_diff_on_lines"] = float(np.abs(lines["head"] - lines["base"]).max(initial=0.0))
        out[f"n{n}_N{N}"] = row
        del mags, ests, run, lines
print(json.dumps(out))
"""

PRODUCTS_ROUNDS = """
import json, resource, statistics, tempfile, time
from pathlib import Path
from workloads import WORKLOADS
with tempfile.TemporaryDirectory() as scratch:
    wl = WORKLOADS["products-n2"](7, Path(scratch))
    for op in wl.ops:
        op.call()
    rounds, start = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(40):
        c = time.process_time()
        for op in wl.ops:
            op.call()
        rounds.append(time.process_time() - c)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
print(json.dumps({"round_cpu_ms": 1e3 * statistics.median(rounds),
                  "minor_faults_per_op": faults / (40 * len(wl.ops))}))
"""

CLI_FIELDS_RUN = """
import sys
from pathlib import Path
from workloads import WORKLOADS
for seed in range(1, 13):
    for op in WORKLOADS["cli-jobs"](seed, Path(sys.argv[1]) / f"s{seed}").ops:
        op.call()
print("{}")
"""

CLI_FIELDS_COMPARE = """
import json, sys
from pathlib import Path
import numpy as np
from twistlab.grids import SampledField
base, head = Path(sys.argv[1]), Path(sys.argv[2])
diff, wf = {}, {"files": 0, "bytes_equal": 0, "flagged_equal": 0}
for path in sorted(base.rglob("*")):
    other = head / path.relative_to(base)
    if path.name.endswith("_field.json"):
        a = SampledField.from_json(path.read_text()).values
        b = SampledField.from_json(other.read_text()).values
        key = f"{path.parent.name}_{path.name[:-len('_field.json')]}"
        diff[key] = max(diff.get(key, 0.0), float(np.abs(b - a).max() / np.abs(a).max()))
    elif path.name in ("wf_estimate.json", "wf_directions.csv"):
        wf["files"] += 1
        wf["bytes_equal"] += path.read_bytes() == other.read_bytes()
        if path.name == "wf_estimate.json":
            flags = [json.loads(p.read_text())["flagged"] for p in (path, other)]
            wf["flagged_equal"] += flags[0] == flags[1]
print(json.dumps({"field_max_abs_diff_over_base_peak_by_job": diff,
                  "field_max_abs_diff_over_base_peak": max(diff.values()), "wf": wf}))
"""


def env_for(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]),
               PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def export(rev: str, workdir: Path) -> tuple[str, Path]:
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    tree = workdir / commit[:12]
    if not tree.is_dir():
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return commit, tree


def last_json(cmd, tree: Path) -> dict:
    run = subprocess.run(cmd, cwd=tree, env=env_for(tree), capture_output=True, text=True,
                         check=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


def timed(cmd, tree: Path) -> tuple[dict, str]:
    """Run `cmd` in `tree`: its wall time, its own CPU time and max RSS,
    and its standard output.  A nonzero exit raises."""
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env_for(tree), stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited with {proc.returncode} in {tree}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024.0}, out


def oneshot_wf(tree: Path, workdir: Path, config: dict = WF_CONFIG) -> dict:
    cfg, out = workdir / "wf_n2.json", workdir / f"wf-{tree.name}"
    cfg.write_text(json.dumps(config))
    res, _ = timed([sys.executable, "-m", "twistlab.cli", "wf", "--config", str(cfg),
                    "--out", str(out)], tree)
    digest = subprocess.run(["sha256sum", "wf_estimate.json", "wf_directions.csv"], cwd=out,
                            check=True, capture_output=True, text=True).stdout
    return {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"], "max_rss_mb": res["max_rss_mb"],
            "sha256": " ".join(line.split()[0] for line in digest.splitlines())}


def verify_all(tree: Path, workdir: Path) -> dict:
    out = workdir / f"verify-{tree.name}"
    res, _ = timed([sys.executable, "-m", "twistlab.cli", "verify", "all", "--out", str(out)],
                   tree)
    doc = json.loads((out / "verify_all.json").read_text())
    doc.pop("timestamp")
    for check in doc["checks"]:
        check.pop("seconds")
    res["passed"] = sum(c["status"] == "pass" for c in doc["checks"])
    res["checks"] = len(doc["checks"])
    res["sha256"] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return res


def tier1(tree: Path) -> dict:
    res, out = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "--continue-on-collection-errors"], tree)
    res["summary"] = next(line for line in reversed(out.splitlines())
                          if " passed" in line or " failed" in line)
    return res


def products(trees: dict, workdir: Path, calls: int, repeats: int, log) -> dict:
    """The products ladder and products-n2 rounds (module docstring)."""
    result = {"ladder": last_json([sys.executable, "-c", PRODUCTS_LADDER, str(calls),
                                   str(trees["base"] / "src"), str(trees["head"] / "src")],
                                  trees["head"])}
    log(f"products ladder: {json.dumps(result['ladder'])}")
    rounds = {side: [] for side in trees}
    for i in range(repeats):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            rounds[side].append(last_json([sys.executable, "-c", PRODUCTS_ROUNDS], trees[side]))
            log(f"products-n2 rounds {i} {side}: {rounds[side][-1]}")
    result["products_n2_rounds"] = {side: {"median": medians(rounds[side]), "runs": rounds[side]}
                                    for side in trees}
    return result


def cli_fields(trees: dict, workdir: Path) -> dict:
    """One cli-jobs round of seeds 1-12 per checkout, their fields and `wf`
    outputs compared (module docstring)."""
    dirs = {side: workdir / f"cli-fields-{side}" for side in trees}
    for side, tree in trees.items():
        shutil.rmtree(dirs[side], ignore_errors=True)
        last_json([sys.executable, "-c", CLI_FIELDS_RUN, str(dirs[side])], tree)
    return last_json([sys.executable, "-c", CLI_FIELDS_COMPARE,
                      str(dirs["base"]), str(dirs["head"])], trees["head"])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k, v in rows[0].items()
            if isinstance(v, (int, float))}


def run_pairs(workload: str, seeds: list[int], trees: dict, log) -> dict:
    runs = []
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            res = last_json([sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", str(seed), "--seconds", "25"], trees[side])
            pair[side] = {"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
            log(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}")
        runs.append(pair)
    metrics = runs[0]["base"]["metrics"]
    return {
        "seeds": seeds,
        "runs": runs,
        "base": {k: summary([r["base"]["metrics"][k] for r in runs]) for k in metrics},
        "head": {k: summary([r["head"]["metrics"][k] for r in runs]) for k in metrics},
        "head_lower_in_pairs": {k: sum(r["head"]["metrics"][k] < r["base"]["metrics"][k]
                                       for r in runs) for k in metrics},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEED,...")
    p.add_argument("--hash-seeds", nargs="*", type=int, default=[])
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--tier1", type=int, default=0, metavar="K")
    p.add_argument("--rss-rounds", type=int, default=0, metavar="R")
    p.add_argument("--products-calls", type=int, default=0, metavar="C")
    p.add_argument("--serialize-calls", type=int, default=0, metavar="C")
    args = p.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    args.workdir.mkdir(parents=True, exist_ok=True)
    commits, trees = {}, {}
    for side in ("base", "head"):
        commits[side], trees[side] = export(getattr(args, side), args.workdir)
    numpy_version = last_json([sys.executable, "-c", "import json, numpy; print(json.dumps(numpy.__version__))"],
                              trees["head"])
    result = {
        "label": args.label,
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy_version, "blas_threads": 1},
        "commits": commits,
    }
    probes = {side: {"grid": [], "wf": [], "wf128": [], "verify": [], "exact": []}
              for side in trees}
    for i in range(args.repeats):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            probes[side]["grid"].append(
                last_json([sys.executable, "-c", GRID_PROBE], trees[side]))
            probes[side]["wf"].append(oneshot_wf(trees[side], args.workdir))
            probes[side]["wf128"].append(oneshot_wf(trees[side], args.workdir, WF_CONFIG_N128))
            probes[side]["verify"].append(verify_all(trees[side], args.workdir))
            probes[side]["exact"].append(last_json([sys.executable, "-c", EXACT_PROBE],
                                                   trees[side]))
            log(f"probe {i} {side}: " + " ".join(str(probes[side][k][-1]) for k in probes[side]))
    for key, name in (("grid", "first_direction_grid_4"), ("wf", "oneshot_wf_n2"),
                      ("wf128", "oneshot_wf_n2_N128"), ("verify", "verify_all"),
                      ("exact", "exact_layer")):
        result[name] = {side: {"median": medians(probes[side][key]), "runs": probes[side][key]}
                        for side in probes}
        # a hash one side lacks was refused there: None makes it unequal
        equal = {h: len({r.get(h) for s in probes.values() for r in s[key]}) == 1
                 for h in probes["base"][key][0] if h.endswith("sha256")}
        result[name]["bytes_equal"] = all(equal.values())
        if len(equal) > 1:
            result[name]["bytes_equal_by_hash"] = equal
    result["oneshot_wf_n2"]["config"] = WF_CONFIG
    result["oneshot_wf_n2_N128"]["config"] = WF_CONFIG_N128
    result["spectrogram_ladder"] = last_json(
        [sys.executable, "-c", SPECTROGRAM_LADDER, str(SPECTROGRAM_CALLS),
         str(trees["base"] / "src"), str(trees["head"] / "src")], trees["head"])
    log(f"spectrogram ladder: {json.dumps(result['spectrogram_ladder'])}")
    if args.tier1:
        runs = {side: [] for side in trees}
        for i in range(args.tier1):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                runs[side].append(tier1(trees[side]))
                log(f"tier-1 {i} {side}: {runs[side][-1]}")
        result["tier1"] = {side: {"median": medians(runs[side]), "runs": runs[side]}
                           for side in runs}
    if args.hash_seeds:
        seeds = [str(s) for s in args.hash_seeds]
        dirs = {side: args.workdir / f"estimates-{side}" for side in trees}
        for d in dirs.values():
            d.mkdir(exist_ok=True)
        hashes = {side: last_json([sys.executable, "-c", ESTIMATE_HASHES, str(dirs[side]), *seeds],
                                  trees[side]) for side in trees}
        result["wavefront_n2_estimate_sha256"] = hashes
        result["wavefront_n2_equal"] = {
            part: all(hashes["base"][s][part] == hashes["head"][s][part] for s in hashes["base"])
            for part in ("estimate", "flagged")}
        moved = last_json([sys.executable, "-c", ESTIMATE_COMPARE, str(dirs["base"]),
                           str(dirs["head"]), *seeds], trees["head"])
        result["wavefront_n2_moved"] = moved
        log(f"wavefront-n2 estimates moved: {json.dumps(moved)}")
    if args.rss_rounds:
        result["cli_jobs_rss_by_round"] = {"seed": RSS_SEED, **{
            side: last_json([sys.executable, "-c", RSS_PROBE, str(RSS_SEED),
                             str(args.rss_rounds)], trees[side]) for side in trees}}
    if args.products_calls:
        result["products"] = products(trees, args.workdir, args.products_calls, args.repeats, log)
    if args.serialize_calls:
        result["serialize_ladder"] = last_json(
            [sys.executable, "-c", SERIALIZE_LADDER, str(args.serialize_calls),
             str(trees["base"] / "src"), str(trees["head"] / "src")], trees["head"])
        log(f"serialize ladder: {json.dumps(result['serialize_ladder'])}")
    if args.products_calls or args.serialize_calls:
        result["cli_jobs_fields"] = cli_fields(trees, args.workdir)
    result["pairs"] = {}
    for spec in args.pairs:
        workload, seeds = spec.split(":")
        result["pairs"][workload] = run_pairs(workload, [int(s) for s in seeds.split(",")],
                                              trees, log)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
