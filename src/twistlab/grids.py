"""Uniform box grids and sampled complex fields.

A Grid discretizes the box [-L, L)^n with N points per axis, spacing
Delta = 2L/N, placing x_j = (j - N/2) * Delta on each axis so that 0 is
always a grid point (N must be even).  The DFT-induced frequency grid
covers [-pi/Delta, pi/Delta) with spacing pi/L; it is itself a Grid with
half-width pi*N/(2L), which makes forward/inverse transform plumbing
symmetric.

Fields are stored as complex arrays of shape (N,)*n in row-major axis
order; serialization flattens in that same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._read import ReadError, integer, need, number, show

# tolerance for treating two float half-widths as the same grid
_L_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L)^n with N samples per axis (N even)."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        n, N = integer(self.n, "n", least=1), integer(self.N, "N", least=4)
        if N % 2:
            raise ReadError("N", "an even integer", show(N))
        L = number(self.L, "L", "a positive finite number", lambda x: 0 < x < math.inf)
        for key, value in (("n", n), ("N", N), ("L", L)):
            object.__setattr__(self, key, value)

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def M(self) -> int:
        """Total number of samples N^n."""
        return self.N ** self.n

    def axis(self) -> np.ndarray:
        """1-D coordinates (j - N/2) * spacing, j = 0..N-1."""
        return (np.arange(self.N) - self.N // 2) * self.spacing

    def points(self) -> np.ndarray:
        """All grid points as an (M, n) array in row-major order."""
        ax = self.axis()
        mesh = np.meshgrid(*([ax] * self.n), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def dual(self) -> "Grid":
        """The DFT-induced frequency grid: spacing pi/L on [-pi/spacing, pi/spacing)."""
        return Grid(self.n, self.N, math.pi * self.N / (2.0 * self.L))

    @property
    def nyquist(self) -> float:
        """Largest frequency magnitude representable per axis, pi/spacing."""
        return math.pi / self.spacing

    def compatible(self, other: "Grid") -> bool:
        """True when the two grids describe the same discretization.

        Half-widths are compared with a relative tolerance so that
        dual().dual() round-trips (which differ by float rounding only)
        still count as the same grid.
        """
        return (
            self.n == other.n
            and self.N == other.N
            and math.isclose(self.L, other.L, rel_tol=_L_RTOL)
        )


make_grid = Grid  # the package's name for the constructor, which reads n, N and L


@dataclass(frozen=True, eq=False)
class SampledField:
    """Complex samples of a function on a Grid, shape (N,)*n row-major."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = (self.grid.N,) * self.grid.n
        if vals.shape != expected:
            if vals.size == self.grid.M:
                vals = vals.reshape(expected)
            else:
                raise ValueError(
                    f"values shape {vals.shape} incompatible with grid {expected}"
                )
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("field values must be finite (no NaN/Inf)")
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        """Quadrature L2 norm, sqrt(spacing^n * sum |f|^2)."""
        d = self.grid.spacing
        return math.sqrt(d ** self.grid.n * float(np.sum(np.abs(self.values) ** 2)))

    def to_json(self) -> str:
        g = self.grid
        flat = self.values.reshape(-1)
        obj = {
            "n": g.n,
            "N": g.N,
            "L": g.L,
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "SampledField":
        """Read a field written by `to_json`: its grid as `grid_from_obj`
        reads it, and `re` and `im` lists of N^n finite numbers; otherwise
        a ReadError names the key."""
        obj = json.loads(text)
        grid = grid_from_obj(obj)
        re, im = (_samples(obj, key, grid.M) for key in ("re", "im"))
        return cls(grid, (re + 1j * im).reshape((grid.N,) * grid.n))


def grid_from_obj(obj, where: str = "") -> Grid:
    """The grid of the JSON object at `where`: its `n`, `N` and `L`, as
    `Grid` reads them."""
    try:
        return Grid(*(need(obj, key) for key in ("n", "N", "L")))
    except ReadError as exc:
        raise exc.within(where) from None


def _samples(obj: dict, key: str, m: int) -> np.ndarray:
    """`obj[key]` as a float array, when it is a list of `m` finite JSON
    numbers, checked without a Python-level loop over the samples (by
    `set(map(type, ...))` and `isfinite`) unless one is refused."""
    value = need(obj, key)
    if not isinstance(value, list):
        got = show(value)
    elif len(value) != m:
        got = f"{len(value)} entries"
    else:
        odd = set(map(type, value)) - {int, float}
        if not odd:
            try:
                arr = np.asarray(value, dtype=float)
                if np.isfinite(arr).all():
                    return arr
            except OverflowError:
                pass
            for x in value:
                number(x, key)
        got = "entries of type " + ", ".join(sorted(t.__name__ for t in odd))
    raise ReadError(key, f"a list of {m} numbers", got)


def _check_same_grid(f: SampledField, g: SampledField) -> None:
    if not f.grid.compatible(g.grid):
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def field_l2_distance(f: SampledField, g: SampledField) -> float:
    """Relative L2 distance ||f - g|| / max(||f||, eps)."""
    _check_same_grid(f, g)
    d = f.grid.spacing ** f.grid.n
    diff = math.sqrt(d * float(np.sum(np.abs(f.values - g.values) ** 2)))
    ref = max(f.norm(), np.finfo(float).eps)
    return diff / ref
