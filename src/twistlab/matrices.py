"""Antisymmetric deformation matrices and the doubled chirp matrix.

Antisymmetry is enforced by construction: only the strict upper triangle
of the input is kept and the matrix is rebuilt as U - U^T, so
entries + entries^T == 0 holds exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class AntisymmetricMatrix:
    """Real n x n matrix with A^T = -A, rebuilt from its strict upper triangle."""

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"expected shape ({self.n}, {self.n}), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        upper = np.triu(a, k=1)
        object.__setattr__(self, "entries", upper - upper.T)

    @classmethod
    def from_matrix(cls, a) -> "AntisymmetricMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.allclose(a, -a.T, rtol=0.0, atol=1e-12):
            raise ValueError("matrix is not antisymmetric")
        return cls(a.shape[0], a)

    @classmethod
    def zero(cls, n: int) -> "AntisymmetricMatrix":
        return cls(n, np.zeros((n, n)))

    @classmethod
    def symplectic(cls, n: int) -> "AntisymmetricMatrix":
        """The canonical block matrix [[0, I], [-I, 0]] on R^n, n = 2m."""
        if n % 2 != 0:
            raise ValueError("symplectic form needs even dimension")
        m = n // 2
        a = np.zeros((n, n))
        a[:m, m:] = np.eye(m)
        a[m:, :m] = -np.eye(m)
        return cls(n, a)

    @property
    def matrix(self) -> np.ndarray:
        return self.entries

    def is_invertible(self) -> bool:
        return abs(np.linalg.det(self.entries)) > 1e-12


@dataclass(frozen=True, eq=False)
class ChirpMatrix:
    """The deformation matrix theta together with its symmetric double.

    The doubled matrix acts on stacked pairs K = (k, p) in R^{2n} and
    satisfies K^T (Theta K) = k^T theta p; symmetry Theta^T = Theta is
    exact by construction.
    """

    theta: AntisymmetricMatrix
    Theta: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        n = self.theta.n
        th = self.theta.matrix
        big = np.zeros((2 * n, 2 * n))
        big[:n, n:] = 0.5 * th
        big[n:, :n] = -0.5 * th
        # -(1/2) theta^T = +(1/2) theta, so the lower-left block equals
        # the transpose of the upper-right one and Theta is symmetric.
        object.__setattr__(self, "Theta", big)

    @property
    def n(self) -> int:
        return self.theta.n
