import numpy as np
import pytest

from operlab.numerics import RngStream, qr_thin


def dft_direct(v):
    """O(n^2) DFT, the independent oracle for the FFT convention the package
    relies on (numpy's: unnormalized forward, inverse scaled by 1/n)."""
    n = len(v)
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) @ np.asarray(v, dtype=complex)


class TestFft:
    def test_delta_to_constant(self):
        assert np.allclose(np.fft.fft([1, 0, 0, 0]), np.ones(4))

    def test_shift_theorem(self):
        assert np.allclose(np.fft.fft([0, 1, 0, 0]), [1, -1j, -1, 1j])

    def test_matches_direct_dft(self):
        v = RngStream(3).standard_normal(128)
        assert np.allclose(np.fft.fft(v), dft_direct(v), rtol=1e-12, atol=1e-12)

    def test_round_trip_all_lengths(self):
        for n in range(1, 257):
            v = RngStream(n).standard_normal(n)
            back = np.fft.ifft(np.fft.fft(v)).real
            assert np.linalg.norm(back - v) <= 1e-12 * max(np.linalg.norm(v), 1.0)

    def test_parseval(self):
        for n in (1, 2, 7, 64, 255):
            v = RngStream(n + 1000).standard_normal(n)
            lhs = np.sum(v ** 2)
            rhs = np.sum(np.abs(np.fft.fft(v)) ** 2) / n
            assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            np.fft.fft(np.zeros(0))
        with pytest.raises(ValueError):
            np.fft.ifft(np.zeros(0))


class TestQr:
    def test_identity(self):
        q, r = qr_thin(np.eye(4))
        assert np.allclose(q, np.eye(4))
        assert np.allclose(r, np.eye(4))

    def test_column_norm(self):
        _, r = qr_thin(np.array([[3.0], [4.0]]))
        assert abs(abs(r[0, 0]) - 5.0) < 1e-14

    def test_reconstruction_64x8(self):
        m = RngStream(5).standard_normal((64, 8))
        q, r = qr_thin(m)
        assert np.linalg.norm(q @ r - m) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("rows,cols,seed", [(10, 3, 0), (33, 17, 1), (5, 5, 2), (200, 2, 3)])
    def test_orthogonality_property(self, rows, cols, seed):
        m = RngStream(seed).standard_normal((rows, cols))
        q, r = qr_thin(m)
        assert np.linalg.norm(q.T @ q - np.eye(cols)) <= 1e-12 * cols
        assert np.linalg.norm(q @ r - m) <= 1e-10 * np.linalg.norm(m)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            qr_thin(np.ones((2, 3)))

    def test_rank_deficient_flagged(self):
        col = RngStream(9).standard_normal(12)
        m = np.column_stack([col, 2 * col, 3 * col])
        q, r = qr_thin(m)
        # not repaired: still a valid factorization, with the deficiency in R
        assert np.linalg.norm(q @ r - m) <= 1e-10 * np.linalg.norm(m)
        diag = np.abs(np.diag(r))
        assert np.all(diag[1:] <= 1e-12 * diag[0])


class TestRng:
    def test_determinism(self):
        a = RngStream(123).standard_normal(64)
        b = RngStream(123).standard_normal(64)
        assert np.array_equal(a, b)

    def test_moments(self):
        v = RngStream(99).standard_normal(100_000)
        assert abs(v.mean()) <= 3.0 / np.sqrt(100_000)
        assert 0.98 <= v.var() <= 1.02

    def test_derived_streams_differ(self):
        root = RngStream(5)
        a = root.derive(0).standard_normal(8)
        b = root.derive(1).standard_normal(8)
        again = RngStream(5).derive(0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, again)

    def test_algorithm_documented(self):
        assert RngStream(0).algorithm == "pcg64"

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).standard_normal(-1)
