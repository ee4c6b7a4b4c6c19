import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdscover.fields import FieldError, FieldMatrix, PrimeField
from cdscover.linalg import (
    cauchy_matrix,
    nullspace,
    rank_rref,
    residue_rank,
    rowspace_intersection,
    rref_with_transform,
    solve_right,
)

from conftest import identity, zeros


def fm(rows, p):
    return FieldMatrix(rows, PrimeField(p))


@st.composite
def matrices(draw, max_dim=5, primes=(2, 3, 5, 7)):
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return fm(entries, p)


def test_rank_identity():
    assert rank_rref(identity(3, PrimeField(2))).rank == 3


def test_rank_zeros():
    assert rank_rref(zeros(2, 4, PrimeField(3))).rank == 0


def test_rank_dependent_rows():
    # second row is 2x the first
    assert rank_rref(fm([[1, 2], [2, 4]], 5)).rank == 1


def test_rref_pivots():
    r, red, pivots = rank_rref(fm([[0, 1, 2], [0, 2, 4], [1, 0, 1]], 5))
    assert r == 2 and pivots == [0, 1]
    assert red.to_lists()[0][0] == 1


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    _, red, _ = rank_rref(m)
    _, red2, _ = rank_rref(red)
    assert red == red2


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_transform_consistent(m):
    red, t, pivots = rref_with_transform(m)
    assert (t @ m) == red
    assert residue_rank(t.array, m.field.p) == m.rows  # row ops are invertible


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_annihilates(m):
    ns = nullspace(m)
    assert ns.rows == m.cols - residue_rank(m.array, m.field.p)
    assert not np.mod(m.array @ ns.array.T, m.field.p).any()


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_matches_elementwise_construction(m):
    # reference: the basis built one entry at a time from the RREF
    r, red, pivots = rank_rref(m)
    p = m.field.p
    free = [c for c in range(m.cols) if c not in pivots]
    expected = np.zeros((len(free), m.cols), dtype=np.int64)
    for i, fc in enumerate(free):
        expected[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            expected[i, pc] = (-int(red.array[row_idx, fc])) % p
    assert np.array_equal(nullspace(m).array, expected)
    assert residue_rank(m.array - p, p) == r


def test_intersection_identical_spaces():
    a = identity(2, PrimeField(3))
    basis, pa, pb = rowspace_intersection(a, a)
    assert basis.rows == 2


def test_intersection_disjoint_spans():
    basis, pa, pb = rowspace_intersection(fm([[1, 0]], 3), fm([[0, 1]], 3))
    assert basis.rows == 0
    assert pa.shape == (0, 1) and pb.shape == (0, 1)


def _span(mat):
    """All vectors in the row span, by brute-force enumeration."""
    p = mat.field.p
    vectors = set()
    for coeffs in itertools.product(range(p), repeat=mat.rows):
        v = np.zeros(mat.cols, dtype=np.int64)
        for c, row in zip(coeffs, mat.array):
            v = (v + c * row) % p
        vectors.add(tuple(int(x) for x in v))
    return vectors


def test_intersection_against_enumeration_oracle():
    # independent oracle: enumerate all 5^2 combinations of each row space
    a = fm([[1, 0, 0], [0, 1, 0]], 5)
    b = fm([[0, 1, 0], [0, 0, 1]], 5)
    basis, pa, pb = rowspace_intersection(a, b)
    expected = _span(a) & _span(b)
    assert _span(basis) == expected
    assert basis.rows == 1 and basis.to_lists() == [[0, 1, 0]]


def test_intersection_with_shared_zero_columns():
    # columns 1 and 3 are zero in both inputs; the values were pinned from
    # the elimination over all six columns
    a = fm([[1, 0, 2, 0, 0, 3], [0, 0, 1, 0, 4, 0], [2, 0, 0, 0, 1, 1]], 5)
    b = fm([[1, 0, 3, 0, 4, 3], [4, 0, 0, 0, 2, 2], [0, 0, 1, 0, 0, 1]], 5)
    basis, pa, pb = rowspace_intersection(a, b)
    assert basis.to_lists() == [[1, 0, 0, 0, 3, 3], [0, 0, 1, 0, 2, 0]]
    assert pa.to_lists() == [[0, 0, 3], [2, 2, 4]]
    assert pb.to_lists() == [[0, 4, 0], [2, 2, 0]]
    assert pa @ a == basis and pb @ b == basis


def test_intersection_of_zero_matrices():
    basis, pa, pb = rowspace_intersection(fm([[0, 0, 0]], 3), fm([[0, 0, 0], [0, 0, 0]], 3))
    assert basis.shape == (0, 3) and pa.shape == (0, 1) and pb.shape == (0, 2)


def test_intersection_column_mismatch():
    with pytest.raises(FieldError):
        rowspace_intersection(fm([[1, 0]], 3), fm([[1, 0, 0]], 3))


@given(matrices(max_dim=4), matrices(max_dim=4))
@settings(max_examples=60, deadline=None)
def test_intersection_properties(a, b):
    if a.field != b.field:
        a = FieldMatrix(a.array, b.field)
    if a.cols != b.cols:
        cols = min(a.cols, b.cols)
        a = FieldMatrix(a.array[:, :cols], a.field)
        b = FieldMatrix(b.array[:, :cols], b.field)
    basis, pa, pb = rowspace_intersection(a, b)
    # projector identity, exact and entry-wise
    assert (pa @ a) == basis and (pb @ b) == basis
    # ranks agree with the intersection dimension
    d = basis.rows

    def rank(x):
        return residue_rank(x, a.field.p)

    assert rank(pa.array) == d and rank(pb.array) == d and rank(basis.array) == d
    # dimension formula dim A + dim B = dim [A;B] + dim intersection
    assert rank(a.array) + rank(b.array) == rank(np.vstack([a.array, b.array])) + d


def test_cauchy_single_entry():
    # 1/(0-1) = 1/2 = 2 mod 3 since 2*2 = 4 = 1
    assert cauchy_matrix([0], [1], PrimeField(3)).to_lists() == [[2]]


def test_cauchy_two_by_two():
    assert cauchy_matrix([0, 1], [2, 3], PrimeField(5)).to_lists() == [[2, 3], [4, 2]]


def test_cauchy_repeated_parameter():
    with pytest.raises(FieldError, match="distinct"):
        cauchy_matrix([0, 0], [1, 2], PrimeField(5))


def test_cauchy_parameters_must_fit_field():
    with pytest.raises(FieldError):
        cauchy_matrix([0, 1], [2, 3], PrimeField(3))


def test_cauchy_submatrices_invertible_small():
    field = PrimeField(13)
    c = cauchy_matrix([0, 1, 2], [5, 6, 7, 8], field)
    for k in (1, 2, 3):
        for rows in itertools.combinations(range(3), k):
            for cols in itertools.combinations(range(4), k):
                assert residue_rank(c.array[np.ix_(rows, cols)], field.p) == k


def test_solve_right_and_invert():
    f = PrimeField(7)
    a = fm([[2, 1], [1, 3]], 7)
    b = fm([[1], [0]], 7)
    x = solve_right(a, b)
    assert (a @ x) == b
    # the transform that reduces an invertible matrix is its inverse
    red, inv, _ = rref_with_transform(a)
    assert red == identity(2, f) and (inv @ a) == red
    assert len(rref_with_transform(fm([[1, 2], [2, 4]], 7))[2]) == 1  # singular
    assert solve_right(fm([[1, 1], [1, 1]], 7), fm([[1], [0]], 7)) is None
