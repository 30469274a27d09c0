#!/usr/bin/env python3
"""Per-call timings of each layer over the size ladder: n=1 up to N=512,
n=2 at N=32, 64 and 128 where a call fits the time and memory caps.

    python3 perfbench/ladder.py > ladder.jsonl

Prints one JSON object per line: layer, n, N, seconds (best of the
repeats) or the reason it was skipped.  A call whose time, extrapolated
from the previous size, exceeds CAP_SECONDS is skipped.  The figures in
README.md were made with this script once; the benchmark itself does not
run it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CAP_SECONDS = 40.0
STFT_BYTES_CAP = 128 * 2**20   # one STFT array is N^(2n) complex values


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    import numpy as np
    from fractions import Fraction
    import random

    from twistlab import (GaussianPacket, fourier_forward, gaussian_window, make_grid,
                          sample_analytic, stft, twisted_convolution,
                          twisted_convolution_product)
    from twistlab.rational import nonneg_solve
    from twistlab.wavefront import WavefrontParams, estimate_wf_from_stft

    def emit(**row):
        print(json.dumps(row), flush=True)

    last: dict[str, tuple[int, float]] = {}   # layer -> (M, seconds) at the previous size
    for n, sizes in ((1, (64, 128, 256, 512)), (2, (32, 64, 128))):
        for N in sizes:
            grid = make_grid(n, N, 8.0 if n == 1 else 7.0)
            M = grid.M
            theta = np.zeros((1, 1)) if n == 1 else np.array([[0.0, 1.0], [-1.0, 0.0]])
            f = sample_analytic(GaussianPacket([0.3] * n, 1.0, [0.2] * n), grid)
            g = sample_analytic(GaussianPacket([-0.2] * n, 0.9, [0.0] * n), grid)
            layers = {
                "catalog.sample_analytic": (lambda: sample_analytic(GaussianPacket([0.3] * n), grid), 1),
                "spectral.fourier_forward": (lambda: fourier_forward(f), 1),
                "grids.to_json": (lambda: f.to_json(), 1),
                "products.twisted_convolution": (lambda: twisted_convolution(f, g, theta), 2),
                "products.twisted_convolution_product":
                    (lambda: twisted_convolution_product(f, g, theta), 2),
                "spectral.stft": (lambda: stft(f, gaussian_window(grid)), 1),
            }
            for layer, (fn, power) in layers.items():
                if layer == "spectral.stft" and 16 * M * M > STFT_BYTES_CAP:
                    emit(layer=layer, n=n, N=N, skipped=f"STFT array needs {16 * M * M / 2**20:.0f} MB")
                    continue
                if layer in last:
                    m0, s0 = last[layer]
                    predicted = s0 * (M / m0) ** power
                    if predicted > CAP_SECONDS:
                        emit(layer=layer, n=n, N=N, skipped=f"predicted {predicted:.0f} s")
                        continue
                seconds = best_of(fn, 3 if M <= 4096 else 1)
                last[layer] = (M, seconds)
                emit(layer=layer, n=n, N=N, seconds=seconds)
            if 16 * M * M <= STFT_BYTES_CAP:
                v = stft(f, gaussian_window(grid))
                params = WavefrontParams(k_test=0.05)
                emit(layer="wavefront.estimate_wf_from_stft", n=n, N=N,
                     seconds=best_of(lambda: estimate_wf_from_stft(v, params), 3))
                del v

    rng = random.Random(1)
    for k in (6, 9, 12, 18):
        gens = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
                for _ in range(k)]
        target = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        emit(layer="rational.nonneg_solve", generators=k, dim=4,
             seconds=best_of(lambda: nonneg_solve(gens, target), 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
