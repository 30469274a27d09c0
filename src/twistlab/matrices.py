"""Antisymmetric deformation matrices.

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
        if np.isfinite(a).all():
            # a sum past float range comes from a pair that is not antisymmetric
            with np.errstate(over="ignore"):
                antisymmetric = (np.abs(a + a.T) <= 1e-12).all()
        else:
            # an infinite pair a_ij = -a_ji passes, and the constructor
            # refuses it as not finite; a nan fails
            with np.errstate(invalid="ignore"):
                antisymmetric = ((np.abs(a + a.T) <= 1e-12) | (a == -a.T)).all()
        if not antisymmetric:
            raise ValueError("matrix is not antisymmetric")
        return cls(a.shape[0], a)

    @property
    def matrix(self) -> np.ndarray:
        return self.entries
