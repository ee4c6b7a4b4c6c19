import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdscover.fields import FieldError, FieldMatrix, PrimeField, is_prime, next_prime

PRIMES = [2, 3, 5, 7, 11, 13, 17]


def test_inverse_identity():
    assert PrimeField(5).inverse(1) == 1


def test_inverse_three_mod_five():
    # 3*2 = 6 = 1 mod 5
    assert PrimeField(5).inverse(3) == 2


def test_inverse_of_zero_rejected():
    with pytest.raises(FieldError, match="non-invertible"):
        PrimeField(7).inverse(0)


def test_non_prime_modulus_rejected():
    for n in (1, 4, 9, 15, 21):
        with pytest.raises(FieldError):
            PrimeField(n)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_next_prime():
    assert next_prime(10) == 11
    assert next_prime(11) == 11
    assert next_prime(14) == 17


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**6))
def test_inverse_property(p, a):
    field = PrimeField(p)
    a = a % p
    if a == 0:
        a = 1
    assert (a * field.inverse(a)) % p == 1


def test_matrix_entries_reduced():
    m = FieldMatrix([[7, -1], [5, 3]], PrimeField(5))
    assert m.to_lists() == [[2, 4], [0, 3]]


def test_matrix_immutable():
    m = FieldMatrix([[1]], PrimeField(3))
    with pytest.raises(ValueError):
        m.array[0, 0] = 2
    with pytest.raises(AttributeError):
        m.field = PrimeField(5)


def test_matmul_and_sub():
    f = PrimeField(5)
    a = FieldMatrix([[1, 2], [3, 4]], f)
    b = FieldMatrix([[2, 0], [1, 3]], f)
    assert (a @ b).to_lists() == [[4, 1], [0, 2]]
    assert (a - b).to_lists() == [[4, 2], [2, 1]]


def test_shape_and_field_mismatch():
    f = PrimeField(5)
    a = FieldMatrix([[1, 2]], f)
    with pytest.raises(FieldError):
        a @ FieldMatrix([[1, 2]], f)
    with pytest.raises(FieldError):
        a - FieldMatrix([[1, 2]], PrimeField(7))


def test_empty_matrix_needs_cols():
    f = PrimeField(3)
    m = FieldMatrix.from_rows([], f, cols=4)
    assert m.shape == (0, 4)
    with pytest.raises(FieldError):
        FieldMatrix.from_rows([], f)


def test_equality_and_hash():
    f = PrimeField(3)
    a = FieldMatrix([[1, 2]], f)
    b = FieldMatrix([[4, 5]], f)  # reduces to the same residues
    assert a == b and hash(a) == hash(b)
    assert a != FieldMatrix([[1, 2]], PrimeField(5))
