import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otconvert.errors import DomainError
from otconvert.linalg import logsumexp, matrix_sqrt_psd, symmetrize


def test_logsumexp_matches_direct_small_values():
    a = np.array([[0.1, -0.3, 0.7], [1.0, 1.0, 1.0]])
    expected = np.log(np.exp(a).sum(axis=1))
    got = logsumexp(a, axis=1)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_logsumexp_huge_magnitudes_no_overflow():
    a = np.array([1000.0, 1000.0 + np.log(2.0)])
    # direct exp would overflow; the shifted form must not
    got = logsumexp(a, axis=0)
    np.testing.assert_allclose(got, 1000.0 + np.log(3.0), rtol=1e-12)

    b = np.array([-1000.0, -1000.0])
    np.testing.assert_allclose(logsumexp(b, axis=0), -1000.0 + np.log(2.0), rtol=1e-12)


def test_logsumexp_all_minus_inf_row():
    a = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
    got = logsumexp(a, axis=1)
    assert got[0] == -np.inf
    np.testing.assert_allclose(got[1], np.log(2.0))


def test_logsumexp_keepdims_shape():
    # the reduced axis is dropped, never kept
    a = np.zeros((3, 4))
    assert logsumexp(a, axis=1).shape == (3,)
    assert logsumexp(a, axis=0).shape == (4,)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    st.floats(-800, 800),
)
def test_logsumexp_shift_invariance(values, shift):
    """lse(a + c) == lse(a) + c for any constant c."""
    a = np.array(values)
    np.testing.assert_allclose(
        logsumexp(a + shift, axis=0), logsumexp(a, axis=0) + shift,
        rtol=1e-10, atol=1e-10
    )


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_overwriting_its_input_is_bit_identical(axis):
    a = np.random.default_rng(3).normal(scale=300.0, size=(40, 70))
    a[3] = -np.inf
    a[:, 5] = -np.inf
    want = logsumexp(a, axis=axis)
    scratch = a.copy()
    got = logsumexp(scratch, axis=axis, overwrite_input=True)
    assert np.array_equal(got, want)
    assert not np.array_equal(scratch, a)


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_overwriting_a_float32_input_sums_in_float64(axis):
    a = np.random.default_rng(4).normal(scale=30.0, size=(50, 400)).astype(np.float32)
    a[3] = -np.inf
    a[:, 5] = -np.inf
    want = logsumexp(a, axis=axis)
    got = logsumexp(a, axis=axis, overwrite_input=True)
    assert got.dtype == want.dtype == np.float64
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite) and not finite.all()
    np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=1e-6)
    # the input held exp(a − max) in its own buffer: 1 at each maximum
    assert a.dtype == np.float32 and a.max() == 1.0


def test_symmetrize_fixes_roundoff_asymmetry():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    s = symmetrize(a @ a.T + 1e-13 * rng.normal(size=(5, 5)))
    np.testing.assert_array_equal(s, s.T)


def test_matrix_sqrt_psd_squares_back():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(6, 6))
    a = b @ b.T
    r = matrix_sqrt_psd(a)
    np.testing.assert_allclose(r @ r, a, rtol=1e-10, atol=1e-10)
    np.testing.assert_array_equal(r, r.T)


def test_matrix_sqrt_psd_identity_and_diagonal():
    np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
    d = np.diag([4.0, 9.0, 0.0])
    np.testing.assert_allclose(matrix_sqrt_psd(d), np.diag([2.0, 3.0, 0.0]), atol=1e-12)


def test_matrix_sqrt_psd_clamps_tiny_negative_eigenvalue():
    # borderline indefinite from roundoff: eigenvalue at -1e-14 is clamped
    a = np.diag([1.0, -1e-14])
    r = matrix_sqrt_psd(a)
    assert np.all(np.isfinite(r))
    np.testing.assert_allclose(r[0, 0], 1.0, rtol=1e-12)


def test_matrix_sqrt_psd_rejects_genuinely_indefinite():
    with pytest.raises(DomainError):
        matrix_sqrt_psd(np.diag([1.0, -0.5]))
