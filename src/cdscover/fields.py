"""Prime fields and dense exact matrices over them.

Entries are always stored as canonical residues in [0, p), so two matrices
are equal iff their integer payloads are equal and file round-trips are
bit-exact. All arithmetic is int64 numpy, so a sum of k products of
residues is exact only while (p-1)^2 * k < 2^63; ``scheme.check_field_size``
refuses larger moduli for scheme files and searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class FieldError(ValueError):
    """Invalid field element or field construction."""


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime modulus p."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise FieldError(f"modulus {self.p} is not prime")

    def reduce(self, a: int) -> int:
        return int(a) % self.p

    def inverse(self, a: int) -> int:
        a = self.reduce(a)
        if a == 0:
            raise FieldError("non-invertible element: 0 has no inverse")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class FieldMatrix:
    """Immutable dense matrix over a prime field.

    Wraps an int64 numpy array of canonical residues, which the package
    reads directly. Matmul, subtraction and row selection serve
    ``scripts/build_fixtures.py`` and the tests.
    """

    __slots__ = ("field", "_a")

    def __init__(self, entries, field: PrimeField):
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise FieldError(f"matrix must be 2-dimensional, got shape {a.shape}")
        a = np.mod(a, field.p)
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], field: PrimeField, cols: int | None = None) -> "FieldMatrix":
        if len(rows) == 0:
            if cols is None:
                raise FieldError("empty matrix needs an explicit column count")
            return FieldMatrix(np.zeros((0, cols), dtype=np.int64), field)
        return FieldMatrix(np.asarray(rows, dtype=np.int64), field)

    # -- views -------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 array of canonical residues."""
        return self._a

    def to_lists(self) -> list[list[int]]:
        return self._a.tolist()

    def take_rows(self, idx: Iterable[int]) -> "FieldMatrix":
        return FieldMatrix(self._a[list(idx), :], self.field)

    # -- arithmetic --------------------------------------------------------

    def _check_same_field(self, other: "FieldMatrix") -> None:
        if self.field != other.field:
            raise FieldError(f"field mismatch: F_{self.field.p} vs F_{other.field.p}")

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise FieldError(f"shape mismatch for matmul: {self.shape} @ {other.shape}")
        return FieldMatrix(np.mod(self._a @ other._a, self.field.p), self.field)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        return FieldMatrix(np.mod(self._a - other._a, self.field.p), self.field)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.to_lists()}, F_{self.field.p})"
