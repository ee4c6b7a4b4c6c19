"""Exact linear algebra over prime fields.

Everything here rests on one Gauss-Jordan kernel, ``batch_rref``, which
reduces a stack of int64 matrices mod p; a single matrix is reduced as a
stack of one. The verifiers call it directly, the search calls
``residue_rank``, and synthesis builds on Cauchy matrices (every square
submatrix invertible). RREF with pivots or a carried transform, the null
space and row-space intersection with explicit coefficient matrices serve
``scripts/build_fixtures.py`` and the tests; the package does not call them.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .fields import FieldError, FieldMatrix, PrimeField


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of nonzero residues, x^(p-2) by square and multiply.

    Exact in int64 because ``scheme.check_field_size`` keeps (p-1)^2 below
    2^62; a lookup table would need p entries.
    """
    out, e = None, p - 2
    while e:
        if e & 1:
            out = x if out is None else out * x % p
        e >>= 1
        if e:
            x = x * x % p
    return np.ones_like(x) if out is None else out


def batch_rref(stack: np.ndarray, p: int, n_cols: int) -> np.ndarray:
    """Reduce each matrix of a (B, R, C) stack to RREF mod p in place.

    Pivots in column order over the first ``n_cols`` columns, on the first
    nonzero at or below the current row; columns past ``n_cols`` only follow
    the row operations, which is how a transform is carried along. Returns
    each matrix's pivot count. ``stack`` must be int64 and already reduced
    mod p. One column step costs a few numpy calls for the whole stack, so
    many small matrices take one call; a single matrix is a stack of one.
    """
    n_mats, n_rows = stack.shape[:2]
    rank = np.zeros(n_mats, dtype=np.intp)
    rows, every = np.arange(n_rows), np.arange(n_mats)
    for col in range(n_cols):
        cand = (stack[:, :, col] != 0) & (rows >= rank[:, None])
        mats = np.flatnonzero(cand.any(axis=1))
        if not mats.size:
            continue
        # ``sub`` holds the matrices with a pivot in this column; ``at``
        # indexes them in it
        at = every[: mats.size]
        top, piv = rank[mats], cand[mats].argmax(axis=1)
        sub = stack[mats]
        pivot_rows = sub[at, piv]
        sub[at, piv] = sub[at, top]
        pivot_rows = pivot_rows * _inverses(pivot_rows[:, col], p)[:, None] % p
        factors = sub[:, :, col].copy()
        factors[at, top] = 0
        sub -= factors[:, :, None] * pivot_rows[:, None, :]
        sub %= p
        sub[at, top] = pivot_rows
        stack[mats] = sub
        rank[mats] += 1
    return rank


def _reduce(a: np.ndarray, p: int, n_cols: int) -> list[int]:
    """Reduce one int64 matrix, already reduced mod p, to RREF in place.

    Returns the pivot columns: the first nonzero within ``n_cols`` of each
    of the first rank rows.
    """
    rank = int(batch_rref(a[None], p, n_cols)[0])
    return [int(np.flatnonzero(row[:n_cols])[0]) for row in a[:rank]]


def residue_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p of an integer array, which is left unchanged."""
    return int(batch_rref(np.mod(a, p).astype(np.int64)[None], p, np.shape(a)[1])[0])


class RankRref(NamedTuple):
    rank: int
    rref: FieldMatrix
    pivot_cols: list[int]


def rank_rref(m: FieldMatrix) -> RankRref:
    """Rank, reduced row echelon form and pivot columns of ``m``."""
    a = m.array.copy()
    pivots = _reduce(a, m.field.p, m.cols)
    return RankRref(len(pivots), FieldMatrix(a, m.field), pivots)


def rref_with_transform(m: FieldMatrix) -> tuple[FieldMatrix, FieldMatrix, list[int]]:
    """RREF of ``m`` together with the transform T such that T @ m == rref."""
    work = np.hstack([m.array, np.eye(m.rows, dtype=np.int64)])
    pivots = _reduce(work, m.field.p, m.cols)
    return FieldMatrix(work[:, : m.cols], m.field), FieldMatrix(work[:, m.cols :], m.field), pivots


def nullspace(m: FieldMatrix) -> FieldMatrix:
    """Basis (as rows) of the right null space {x : m @ x = 0}."""
    r, rref, pivots = rank_rref(m)
    pivot_set = set(pivots)
    free = np.array([c for c in range(m.cols) if c not in pivot_set], dtype=np.intp)
    basis = np.zeros((len(free), m.cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rref.array[:r, free].T
    return FieldMatrix(basis, m.field)


class RowspaceIntersection(NamedTuple):
    basis: FieldMatrix
    p_a: FieldMatrix
    p_b: FieldMatrix


def rowspace_intersection(a: FieldMatrix, b: FieldMatrix) -> RowspaceIntersection:
    """Intersection of two row spaces with explicit coefficient matrices.

    Returns (basis, P_A, P_B) with rowspan(basis) = rowspan(a) n rowspan(b),
    P_A @ a == P_B @ b == basis, and rank(P_A) == rank(P_B) == rank(basis).

    Zassenhaus-style: a row (w_a | w_b) of the left null space of the stack
    [a; b] satisfies w_a a = -w_b b, i.e. w_a a lies in the intersection; the
    map (w_a | w_b) -> w_a a is onto the intersection. Reducing the candidate
    vectors to echelon form while tracking coefficients yields the basis and
    both coefficient matrices at once. The basis is in RREF, so equal
    subspaces produce equal matrices. Columns that are zero in both inputs
    hold no pivot and change no row operation, so they are dropped for the
    elimination and put back as zeros in the basis.
    """
    if a.field != b.field:
        raise FieldError("rowspace_intersection requires matrices over the same field")
    if a.cols != b.cols:
        raise FieldError(f"column count mismatch: {a.cols} vs {b.cols}")
    field = a.field
    used = np.nonzero(a.array.any(axis=0) | b.array.any(axis=0))[0]
    a_used = a.array[:, used]
    w = nullspace(FieldMatrix(np.vstack([a_used, b.array[:, used]]).T, field))
    w_a = w.array[:, : a.rows]
    w_b = w.array[:, a.rows :]
    candidates = FieldMatrix(w_a @ a_used, field)
    red, t, pivots = rref_with_transform(candidates)
    d = len(pivots)
    basis_array = np.zeros((d, a.cols), dtype=np.int64)
    basis_array[:, used] = red.array[:d]
    basis = FieldMatrix(basis_array, field)
    p_a = FieldMatrix(np.mod(t.array[:d] @ w_a, field.p), field)
    p_b = FieldMatrix(np.mod(-(t.array[:d] @ w_b), field.p), field)
    return RowspaceIntersection(basis, p_a, p_b)


def cauchy_matrix(xs: Sequence[int], ys: Sequence[int], field: PrimeField) -> FieldMatrix:
    """Cauchy matrix with entries 1/(x_i - y_j); all parameters distinct."""
    xs = [field.reduce(x) for x in xs]
    ys = [field.reduce(y) for y in ys]
    combined = xs + ys
    if len(set(combined)) != len(combined):
        raise FieldError("Cauchy parameters must be distinct")
    if len(combined) > field.p:
        raise FieldError(f"need {len(combined)} distinct elements but field has only {field.p}")
    entries = [[field.inverse(x - y) for y in ys] for x in xs]
    return FieldMatrix.from_rows(entries, field, cols=len(ys))

