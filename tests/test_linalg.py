import warnings

import numpy as np
import pytest

from flowrisk.linalg import (
    Spectrum,
    attach_response,
    design_decompose,
    read_matrix_csv,
    read_vector_csv,
    sym_eig,
)

from oracles import power_iteration_eigenvalues


class TestSymEig:
    def test_identity(self):
        w, q = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_two_by_two_hand_oracle(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1
        w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for p in (5, 20, 50):
            a = rng.standard_normal((p, p))
            a = 0.5 * (a + a.T)
            w, q = sym_eig(a)
            err = np.linalg.norm(q @ np.diag(w) @ q.T - a)
            assert err <= 1e-8 * np.linalg.norm(a)
            off = q.T @ a @ q - np.diag(w)
            assert np.abs(off - np.diag(np.diag(off))).max() \
                <= 1e-10 * np.linalg.norm(a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        w1, q1 = sym_eig(a)
        w2, q2 = sym_eig(a)
        assert np.array_equal(w1, w2) and np.array_equal(q1, q2)

    def test_symmetric_input_factored_as_is(self):
        # an exactly symmetric matrix such as X'X gives the eigenpairs of
        # its symmetrized copy bit for bit
        x = np.random.default_rng(8).standard_normal((60, 30))
        a = x.T @ x / 60
        assert np.array_equal(a, a.T)
        w, q = sym_eig(a)
        w_ref, q_ref = np.linalg.eigh(0.5 * (a + a.T))
        assert np.array_equal(w, w_ref) and np.array_equal(q, q_ref)

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        a[0, 5] += 4e-11
        w, q = sym_eig(a)
        w_ref, q_ref = np.linalg.eigh(0.5 * (a + a.T))
        assert np.array_equal(w, w_ref) and np.array_equal(q, q_ref)


class TestSpectrum:
    def test_properties(self, simple_spectrum):
        assert simple_spectrum.mu == 0.25
        assert simple_spectrum.big_l == 2.0
        assert simple_spectrum.kappa == 8.0
        assert simple_spectrum.p == 4

    def test_kappa_undefined_for_singular(self):
        s = Spectrum(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="kappa"):
            s.kappa

    def test_rejects_descending(self):
        with pytest.raises(ValueError, match="ascending"):
            Spectrum(np.array([2.0, 1.0]))

    def test_clamp_of_roundoff_negatives(self):
        s = Spectrum.from_eigenvalues(np.array([1.0, -1e-14]), clamp_scale=1.0)
        assert s.eigenvalues[0] == 0.0
        with pytest.raises(ValueError):
            Spectrum.from_eigenvalues(np.array([1.0, -1e-6]), clamp_scale=1.0)

    def test_holds_a_read_only_copy(self):
        a = np.array([0.5, 1.0, 2.0])
        sp = Spectrum(a)
        a[0] = -3.0
        assert sp.mu == 0.5
        with pytest.raises(ValueError, match="read-only"):
            sp.eigenvalues[0] = -3.0


class TestDesignDecompose:
    def test_scaled_identity(self):
        n = 4
        d = design_decompose(np.sqrt(n) * np.eye(n))
        assert np.allclose(d.spectrum.eigenvalues, 1.0, atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 5))
        d = design_decompose(x)
        oracle = power_iteration_eigenvalues(x.T @ x / 20)
        assert np.abs(d.spectrum.eigenvalues - oracle).max() \
            <= 1e-8 * max(1.0, oracle.max())

    def test_basis_consistency(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 8))
        d = design_decompose(x)
        sigma = x.T @ x / 30
        recon = d.v_basis @ np.diag(d.spectrum.eigenvalues) @ d.v_basis.T
        assert np.linalg.norm(recon - sigma) <= 1e-8 * np.linalg.norm(sigma)

    def test_eigenvalues_invariant_under_rotation(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((25, 6))
        q, _ = np.linalg.qr(rng.standard_normal((25, 25)))
        d1 = design_decompose(x)
        d2 = design_decompose(q @ x)
        assert np.abs(d1.spectrum.eigenvalues - d2.spectrum.eigenvalues).max() \
            <= 1e-8

    def test_rank_deficient_detected_exactly(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 7))  # p > n forces nullity
        d = design_decompose(x)
        assert (d.spectrum.eigenvalues[:3] == 0.0).all()

    def test_rejects_nonfinite(self):
        x = np.ones((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            design_decompose(x)

    def test_entries_past_1e154_do_not_overflow_the_clamp_scale(self):
        # X'X/n = diag(4, 4e300): the squares of its entries overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = design_decompose(np.diag([2.0, 2e150]) * np.sqrt(2.0))
        # 4 lies below the relative clamp 1e-12 * 4e300
        s = d.spectrum.eigenvalues
        assert s[0] == 0.0 and s[1] == pytest.approx(4e300, rel=1e-12)


class TestAttachResponse:
    def test_zero_response(self, small_instance):
        design, x, _, _ = small_instance
        d0 = attach_response(design, x, np.zeros(40))
        assert np.array_equal(d0.rotated_channel, np.zeros(6))

    def test_scaled_identity_unit_response(self):
        # with X = sqrt(n) I the channel is V' e1 / sqrt(n); at n = 1 the
        # scaling drops out entirely
        for n in (1, 3):
            x = np.sqrt(n) * np.eye(n)
            d = design_decompose(x)
            d = attach_response(d, x, np.eye(n)[0])
            expected = d.v_basis.T @ np.eye(n)[0] / np.sqrt(n)
            assert np.allclose(d.rotated_channel, expected, atol=1e-14)

    def test_matches_dense_product(self, small_instance):
        design, x, y, _ = small_instance
        direct = np.array([design.v_basis[:, i] @ (x.T @ y) / 40
                           for i in range(6)])
        assert np.abs(design.rotated_channel - direct).max() <= 1e-12

    def test_dimension_mismatch(self, small_instance):
        design, x, y, _ = small_instance
        with pytest.raises(ValueError, match="length"):
            attach_response(design, x, y[:-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_response(self, small_instance, bad):
        design, x, y, _ = small_instance
        y = y.copy()
        y[1] = bad
        with pytest.raises(ValueError, match="^response has non-finite entries$"):
            attach_response(design, x, y)


def test_csv_round_trip(tmp_path):
    a = np.array([[1.5, -2.25], [1e-17, 3.0]])
    path = tmp_path / "m.csv"
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
    assert np.array_equal(read_matrix_csv(path), a)
    v = np.array([1.0, 2.0, -3.5])
    path2 = tmp_path / "v.csv"
    np.savetxt(path2, v.reshape(-1, 1), fmt="%.17g", delimiter=",")
    assert np.array_equal(read_vector_csv(path2), v)
