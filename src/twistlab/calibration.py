"""Frozen numeric conventions that tie the two product routes and the
wavefront estimator together.

The checked-in `calibration.json` records every constant that was fixed
by measurement rather than by definition: the route-bridging constant
c(n), the lattice Parseval factor, and the estimator's decay threshold.
`recalibrate()` regenerates the file from scratch; tests lock the
stored values thereafter.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=1)
def _table() -> dict:
    with resources.files(__package__).joinpath("calibration.json").open() as fh:
        return json.load(fh)


def star_product_constant(n: int) -> float:
    """c(n) relating the direct twisted convolution to its
    transform-multiply-transform route: c(n) = (2 pi)^{n/2}."""
    exp = _table()["star_product_constant"]["exponent_per_dim"]
    return (2.0 * math.pi) ** (exp * n)


def default_k_test() -> float:
    """Decay-order threshold separating singular from regular rays."""
    return float(_table()["wavefront"]["k_test"])


def wavefront_defaults() -> dict:
    return dict(_table()["wavefront"])


def hann_half_width() -> float:
    return float(_table()["window"]["hann_half_width"])


def recalibrate() -> dict:
    """Re-measure every stored constant and return a fresh table.

    The route constant is fit on Gaussian pairs at n=1 and n=2 (zero and
    symplectic coupling); the Parseval factor is verified against its
    closed form; the decay threshold is rechecked against the analytic
    catalog at the pinned estimator grid.
    """
    import numpy as np

    from .catalog import Delta, GaussianPacket, PlaneWave, Chirp, exact_wf, sample_analytic
    from .grids import make_grid, field_l2_distance
    from .spectral import gaussian_window, parseval_constant, stft
    from . import products as P

    table: dict = {"schema_version": 1, "generated_by": "calibrate"}

    # c(n): ratio of the direct route to the uncalibrated product route
    star_meas = {}
    for n, theta in ((1, [[0.0]]), (2, [[0.0, 1.0], [-1.0, 0.0]])):
        g = make_grid(n, 32 if n == 2 else 64, 6.0 if n == 2 else 8.0)
        f = sample_analytic(GaussianPacket([0.3] * n, 1.0, [0.5] * n), g)
        h = sample_analytic(GaussianPacket([-0.2] * n, 0.8, [0.0] * n), g)
        direct = P.twisted_convolution(f, h, theta)
        fb = P.fourier_inverse(f)
        hb = P.fourier_inverse(h)
        raw = P.fourier_forward(P.twisted_convolution_product(fb, hb, theta))
        num = np.vdot(raw.values, direct.values)
        den = np.vdot(raw.values, raw.values)
        c_fit = num / den
        star_meas[str(n)] = {
            "fit": [float(c_fit.real), float(c_fit.imag)],
            "closed_form": (2.0 * math.pi) ** (n / 2.0),
            "relative_error": float(
                abs(c_fit - (2.0 * math.pi) ** (n / 2.0)) / (2.0 * math.pi) ** (n / 2.0)
            ),
        }
    table["star_product_constant"] = {
        "exponent_per_dim": 0.5,
        "base": "2*pi",
        "measured": star_meas,
    }

    # Parseval factor on a band-limited member
    g1 = make_grid(1, 64, 8.0)
    u = sample_analytic(GaussianPacket(0.5, 1.3, 1.0), g1)
    psi = gaussian_window(g1)
    v = stft(u, psi)
    lhs = float(g1.spacing ** (2 * g1.n) * np.sum(np.abs(v.values) ** 2))
    ratio = lhs / float(u.norm() ** 2)
    table["parseval"] = {
        "formula": "(2 L^2 / (pi N))^n",
        "value_at_1_64_8": parseval_constant(g1),
        "measured_ratio": ratio,
        "relative_error": abs(ratio - parseval_constant(g1)) / parseval_constant(g1),
    }

    # decay threshold: margin between the slowest singular ray and the
    # fastest regular one across the analytic catalog
    from .wavefront import WavefrontParams, estimate_wf

    from .cones import angular_distance_deg
    from .wavefront import direction_grid

    grid = make_grid(1, 128, 12.0)
    win = gaussian_window(grid)
    dirs = direction_grid(2)
    must_flag_max = 0.0        # rays on the true set: k_test must exceed these
    must_miss_min = math.inf   # rays past the score tolerance: k_test must stay below
    for dist in (Delta(0.0), PlaneWave(0.1), Chirp([[1.0]]), GaussianPacket(0.0, 1.0, 0.0)):
        est = estimate_wf(
            sample_analytic(dist, grid), win, WavefrontParams(k_test=math.inf)
        )
        truth = exact_wf(dist)
        for k_hat, ray in zip(est.k_hat, est.directions.directions):
            if not math.isfinite(k_hat):
                continue
            dist_deg = angular_distance_deg(truth, ray)
            if dist_deg <= dirs.resolution_deg:
                must_flag_max = max(must_flag_max, k_hat)
            elif dist_deg > 5.0:
                must_miss_min = min(must_miss_min, k_hat)
    proposal = math.sqrt(max(must_flag_max, 1e-3) * must_miss_min)
    table["wavefront"] = {
        "k_test": float(f"{proposal:.2g}"),
        "catalog_on_set_max": must_flag_max,
        "catalog_off_set_min": must_miss_min,
        "r_max_frac": 0.8,
        "r_min_frac": 0.2,
        "radii": 12,
        "dead_floor": 1e-13,
    }
    table["window"] = {"hann_half_width": 2.5}
    return table
