import re
import sys
import warnings

import numpy as np
import pytest

from flowrisk import linalg
from flowrisk.linalg import (
    SpectralDesign,
    Spectrum,
    attach_response,
    design_decompose,
    read_matrix_csv,
    read_vector_csv,
    sym_eig,
)

from oracles import power_iteration_eigenvalues, traced_peak


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

    @pytest.mark.parametrize(("a", "message"), [
        (np.ones((2, 3)), "sym_eig requires a square matrix"),
        (np.ones(4), "sym_eig requires a square matrix"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]),
         "sym_eig requires finite entries"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]),
         "sym_eig requires finite entries"),
    ])
    def test_refusals(self, a, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sym_eig(a)

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

    @pytest.mark.parametrize(("values", "message"), [
        ([], "Spectrum requires a nonempty 1-D eigenvalue array"),
        ([[0.5, 1.0]], "Spectrum requires a nonempty 1-D eigenvalue array"),
        ([0.5, np.nan], "Spectrum eigenvalues must be finite"),
        ([0.5, np.inf], "Spectrum eigenvalues must be finite"),
        ([-np.inf, 0.5], "Spectrum eigenvalues must be finite"),
        ([-1e-300, 0.5], "Spectrum eigenvalues must be nonnegative"),
    ])
    def test_refusals(self, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Spectrum(np.array(values))

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

    @pytest.mark.parametrize(("x", "message"), [
        (np.ones(3), "design matrix must be 2-D"),
        (np.ones((2, 2, 2)), "design matrix must be 2-D"),
        (np.zeros((0, 2)), "design matrix must be at least 1x1"),
        (np.zeros((2, 0)), "design matrix must be at least 1x1"),
    ])
    def test_refusals(self, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design_decompose(x)

    def test_clamp_of_roundoff_eigenvalues(self, monkeypatch):
        # X = 2 I at n = 2: X'X/n = 2 I, whose Frobenius norm 2 sqrt(2) sets
        # the clamp; values within it on either side become exactly 0, one
        # below it is refused
        x = 2.0 * np.eye(2)
        tol = 1e-12 * (2.0 * np.sqrt(2.0))
        below = np.nextafter(-tol, -np.inf)
        for w, want in (([-tol, 1.0], [0.0, 1.0]), ([tol, 1.0], [0.0, 1.0]),
                        ([-1e-14, 1e-14], [0.0, 0.0]),
                        ([np.nextafter(tol, 1.0), 1.0],
                         [np.nextafter(tol, 1.0), 1.0])):
            monkeypatch.setattr(linalg, "sym_eig",
                                lambda a, w=w: (np.array(w), np.eye(2)))
            assert design_decompose(x).spectrum.eigenvalues.tolist() == want
        monkeypatch.setattr(linalg, "sym_eig",
                            lambda a: (np.array([below, 1.0]), np.eye(2)))
        with pytest.raises(ValueError, match=(
                f"^eigenvalue {below:.6g} below the roundoff clamp {-tol:.6g}$")):
            design_decompose(x)

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
        assert s[0] == 0.0 and s[1] == pytest.approx(4e300, rel=1e-12, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [
        # X'X/n = 1e308 everywhere: its norm and top eigenvalue 2e308 overflow
        np.full((1, 2), 1e154),
        # X'X/n itself overflows in the matmul
        np.full((1, 2), 1.4e154),
        # X'X/n holds inf beside large finite entries, which a 2^k scaling
        # taken from an infinite maximum would double past the largest double
        np.array([[1.4e154, 1e154]]),
        # an inf - inf in the matmul: X'X/n holds NaN
        np.array([[1e200, 1e200], [1e200, -1e200]]),
        # a finite X'X/n and norm whose top eigenvalue eigh rounds up to inf
        np.array([[4.523196619634543e+153, 4.577488789512308e+153,
                   6.5900901566322424e+153, 5.522178756597889e+153,
                   5.125551937268618e+153, 6.177505407059315e+153]]),
    ], ids=["norm", "gram", "gram-inf-and-finite", "gram-nan", "eigenvalue"])
    def test_refuses_a_design_whose_gram_overflows(self, x):
        with pytest.raises(ValueError, match="X'X/n or its norm overflows"):
            design_decompose(x)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.11 moves a temporary argument into the "
                           "callee's frame")
def test_a_temporary_design_is_freed_before_the_eigensolve():
    # X is 2 p^2 doubles; with X freed, X'X/n, eigh's copy and its
    # eigenvectors peak at about 4 p^2 (6 p^2 when X lives on)
    p = 400
    rng = np.random.default_rng(3)
    _, peak = traced_peak(
        lambda: design_decompose(rng.standard_normal((2 * p, p))))
    assert peak <= 4.5 * p * p * 8


@pytest.mark.parametrize(("fields", "message"), [
    ({"n": 0}, "SpectralDesign requires n >= 1 and p >= 1"),
    ({"p": 0}, "SpectralDesign requires n >= 1 and p >= 1"),
    ({"v_basis": np.eye(3)}, "v_basis must be 2x2, got (3, 3)"),
    ({"spectrum": Spectrum(np.array([1.0]))}, "spectrum size does not match p"),
    # V'V - I = [[0, 1], [1, 1]]
    ({"v_basis": np.array([[1.0, 1.0], [0.0, 1.0]])},
     "v_basis is not orthogonal (Frobenius error 1.73)"),
    # V'V - I = diag(0, 2e-9), ten times the tolerance 1e-10 p
    ({"v_basis": np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]])},
     "v_basis is not orthogonal (Frobenius error 2e-09)"),
    ({"rotated_channel": np.ones(3)}, "rotated_channel must have length p"),
])
def test_spectral_design_refusals(fields, message):
    base = {"n": 5, "p": 2, "spectrum": Spectrum(np.array([0.5, 2.0])),
            "v_basis": np.eye(2), "rotated_channel": np.ones(2)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SpectralDesign(**(base | fields))


def test_a_spectral_design_holds_its_arrays_read_only():
    basis, channel = np.eye(2), np.ones(2)
    design = SpectralDesign(5, 2, Spectrum(np.array([0.5, 2.0])), basis,
                            channel)
    for name in ("v_basis", "rotated_channel"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(design, name)[0] = 3.0
    # the caller's arrays stay writable; the basis is a view, not a copy
    basis[0, 0] = channel[0] = 1.0
    assert np.shares_memory(design.v_basis, basis)


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

    def test_design_shape_mismatch(self, small_instance):
        design, x, y, _ = small_instance
        with pytest.raises(ValueError, match=re.escape(
                "design shape mismatch: expected (40, 6), got (40, 5)")):
            attach_response(design, x[:, :-1], y)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, y", [
        ([[1e150], [1e150]], [1e200, 1e200]),
        (np.random.default_rng(0).standard_normal((5, 3)) * 1e150,
         np.full(5, 1e200)),
    ], ids=["one-column", "rotated"])
    def test_refuses_a_channel_that_overflows(self, x, y):
        x = np.asarray(x)
        with pytest.raises(ValueError,
                           match="^rotated_channel has non-finite entries$"):
            attach_response(design_decompose(x), x, np.asarray(y))

    def test_the_basis_is_not_checked_again(self, small_instance, monkeypatch):
        # the O(p^3) orthogonality check, whose only norm call is
        # ||V'V - I||, ran when design_decompose built the design
        design, x, y, _ = small_instance
        norm = np.linalg.norm
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        attached = attach_response(design, x, y)
        assert calls == []
        assert attached.v_basis is design.v_basis
        assert np.array_equal(attached.rotated_channel, design.rotated_channel)

    def test_a_spectral_design_refuses_a_non_finite_channel(self, small_instance):
        design = small_instance[0]
        c = design.rotated_channel.copy()
        c[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SpectralDesign(design.n, design.p, design.spectrum,
                           design.v_basis, c)


def test_read_vector_csv_takes_one_row_or_one_column(tmp_path):
    path = tmp_path / "v.csv"
    for text, want in (("1,2,3\n", [1.0, 2.0, 3.0]),
                       ("1\n2\n3\n", [1.0, 2.0, 3.0]), ("7\n", [7.0])):
        path.write_text(text)
        assert np.array_equal(read_vector_csv(path), want)
    for text, shape in (("1,2\n3,4\n", "2 x 2"), ("1,2,3\n4,5,6\n", "2 x 3")):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds "
                                             f"a {shape} matrix"):
            read_vector_csv(path)


def test_csv_round_trip(tmp_path):
    a = np.array([[1.5, -2.25], [1e-17, 3.0]])
    path = tmp_path / "m.csv"
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
    assert np.array_equal(read_matrix_csv(path), a)
    v = np.array([1.0, 2.0, -3.5])
    path2 = tmp_path / "v.csv"
    np.savetxt(path2, v.reshape(-1, 1), fmt="%.17g", delimiter=",")
    assert np.array_equal(read_vector_csv(path2), v)
