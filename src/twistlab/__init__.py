"""Twisted convolution products on sampled grids, spectrogram-based
singularity direction estimation, and an exact rational cone calculus
that predicts which directions survive a product.

The numerical layer (grids, products, spectral, wavefront) works on
`SampledField` values; the exact layer (rational, matrices, cones,
calculus) takes rational data (ints, `Fraction`s, floats, "p/q" strings
or [p, q] pairs) and `ConicSet` values, computes on Python integers,
and its verdicts use no floating point.  `suites` ties the two together with named
verification checks, runnable from the `twistlab` command line.
"""

from .calculus import (
    ExistenceResult,
    PairConditionResult,
    PullbackResult,
    ShiftAlgebraReport,
    shift_algebra_check,
    existence_condition,
    existence_condition_theta_inv,
    pair_condition,
    predicted_product_wf,
    predicted_star_wf,
    wf_pullback,
)
from .catalog import Chirp, Delta, GaussianPacket, PlaneWave, exact_wf, sample_analytic
from .matrices import AntisymmetricMatrix
from .cones import (
    ConicSet,
    angular_containment,
    angular_distance_deg,
    conic_equal,
    empty_set,
    full_space,
    graph_set,
    linear_image,
    member,
    polyhedral,
    product_set,
    ray_set,
    set_from_json,
    set_to_json,
    subspace_set,
    wf_chirp_shear,
    wf_fourier_rotate,
)
from .grids import Grid, SampledField, field_l2_distance, make_grid
from .products import (
    pointwise_product,
    star_via_product,
    twisted_convolution,
    twisted_convolution_product,
)
from .reports import CheckResult, VerificationReport
from .spectral import (
    STFTData,
    WindowFunction,
    fourier_forward,
    fourier_inverse,
    gaussian_window,
    hann_window,
    parseval_constant,
    stft,
)
from .suites import criterion_checks, run_suite, suite_checks
from .wavefront import (
    DirectionGrid,
    WavefrontEstimate,
    WavefrontParams,
    check_chirp_shear,
    check_fourier_symmetry,
    direction_grid,
    estimate_wf,
    hausdorff_deg,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymmetricMatrix",
    "Chirp",
    "CheckResult",
    "ConicSet",
    "Delta",
    "DirectionGrid",
    "ExistenceResult",
    "GaussianPacket",
    "Grid",
    "PairConditionResult",
    "PlaneWave",
    "PullbackResult",
    "SampledField",
    "ShiftAlgebraReport",
    "VerificationReport",
    "WavefrontEstimate",
    "WavefrontParams",
    "shift_algebra_check",
    "angular_containment",
    "angular_distance_deg",
    "check_chirp_shear",
    "check_fourier_symmetry",
    "conic_equal",
    "criterion_checks",
    "direction_grid",
    "empty_set",
    "estimate_wf",
    "exact_wf",
    "existence_condition",
    "existence_condition_theta_inv",
    "field_l2_distance",
    "STFTData",
    "WindowFunction",
    "fourier_forward",
    "fourier_inverse",
    "full_space",
    "gaussian_window",
    "graph_set",
    "hann_window",
    "hausdorff_deg",
    "linear_image",
    "make_grid",
    "member",
    "pair_condition",
    "parseval_constant",
    "pointwise_product",
    "polyhedral",
    "predicted_product_wf",
    "predicted_star_wf",
    "product_set",
    "ray_set",
    "run_suite",
    "sample_analytic",
    "set_from_json",
    "set_to_json",
    "star_via_product",
    "stft",
    "subspace_set",
    "suite_checks",
    "twisted_convolution",
    "twisted_convolution_product",
    "wf_chirp_shear",
    "wf_fourier_rotate",
    "wf_pullback",
]
