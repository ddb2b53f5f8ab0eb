"""Spectral coordinates for least-squares instances.

A design matrix X enters every closed form in this library only through the
eigenvalues s_1 <= ... <= s_p of the sample covariance X'X/n, the
eigenvector basis V, and the rotated response channel c_i = v_i' X' y / n.
This module builds those coordinates.  The factorization work is done by
LAPACK through numpy.linalg.eigh behind small validated wrappers; the
spectrum of X is always obtained from X'X/n, never from X directly, since
only the right singular subspace and the eigenvalues appear downstream.
design_decompose clamps sym_eig's ascending eigenvalues itself; a Spectrum
only validates the values it is given.

Matrix I/O is bare CSV: comma-separated values, one row per line, no
header.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Spectrum",
    "SpectralDesign",
    "sym_eig",
    "design_decompose",
    "attach_response",
    "read_matrix_csv",
    "read_vector_csv",
]

SYMMETRY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
# Eigenvalues this close (relative to ||X'X/n||_F) to zero, on either side,
# are clamped to exactly 0 so null directions are detected exactly.
_CLAMP_REL = 1e-12
# Most doubles (512 MiB) that one requested array, or the arrays of one
# generated design, may hold; oracle trajectories, experiment designs and
# scan grids above it are refused before anything is allocated.
MAX_DOUBLES = 1 << 26
_GRAM_OVERFLOW = ("design matrix too large: X'X/n or its norm overflows "
                  "the largest double")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending nonnegative covariance eigenvalues.

    mu is the smallest eigenvalue, big_l the largest, kappa = big_l/mu the
    condition number (defined only when mu > 0).  eigenvalues is a
    read-only copy, so the caller's array cannot change it after validation.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vals.flags.writeable = False
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("Spectrum requires a nonempty 1-D eigenvalue array")
        if not np.isfinite(vals).all():
            raise ValueError("Spectrum eigenvalues must be finite")
        if (vals < 0).any():
            raise ValueError("Spectrum eigenvalues must be nonnegative")
        if (np.diff(vals) < 0).any():
            raise ValueError("Spectrum eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @property
    def mu(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def big_l(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def kappa(self) -> float:
        if self.mu <= 0.0:
            raise ValueError("kappa undefined: smallest eigenvalue is zero")
        return self.big_l / self.mu


@dataclass(frozen=True, eq=False)
class SpectralDesign:
    """A least-squares design in spectral coordinates.

    v_basis columns are the eigenvectors of X'X/n matching the spectrum
    order.  rotated_channel, when present, holds c = V' X' y / n, which
    must be finite.
    """

    n: int
    p: int
    spectrum: Spectrum
    v_basis: np.ndarray
    rotated_channel: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("SpectralDesign requires n >= 1 and p >= 1")
        v = np.asarray(self.v_basis, dtype=float)
        if v.shape != (self.p, self.p):
            raise ValueError(f"v_basis must be {self.p}x{self.p}, got {v.shape}")
        if self.spectrum.p != self.p:
            raise ValueError("spectrum size does not match p")
        gram_err = np.linalg.norm(v.T @ v - np.eye(self.p))
        if gram_err > ORTHOGONALITY_TOL * max(1.0, self.p):
            raise ValueError(f"v_basis is not orthogonal (Frobenius error {gram_err:.3g})")
        object.__setattr__(self, "v_basis", v)
        if self.rotated_channel is not None:
            c = np.asarray(self.rotated_channel, dtype=float)
            if c.shape != (self.p,):
                raise ValueError("rotated_channel must have length p")
            if not np.isfinite(c).all():
                raise ValueError("rotated_channel has non-finite entries")
            object.__setattr__(self, "rotated_channel", c)

    @property
    def has_response(self) -> bool:
        return self.rotated_channel is not None


def sym_eig(a):
    """Eigendecomposition A = Q diag(w) Q' of a symmetric matrix.

    Returns (w, q) with w ascending and q orthogonal.  Input asymmetry
    beyond 1e-10 entrywise is a contract error; within tolerance the matrix
    is symmetrized before factorization.  An exactly symmetric matrix, such
    as numpy's X'X, is factored as is: symmetrizing it would reproduce it
    bit for bit.  Deterministic for fixed input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eig requires a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("sym_eig requires finite entries")
    asym = np.abs(a - a.T).max() if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3g})")
    if asym > 0.0:
        a = 0.5 * (a + a.T)
    return np.linalg.eigh(a)


def design_decompose(x) -> SpectralDesign:
    """Spectral coordinates of a design matrix.

    The spectrum and basis come from the eigendecomposition of X'X/n.
    Eigenvalues within 1e-12 ||X'X/n||_F of zero, on either side, are
    clamped to exactly 0, so rank deficiency is detected exactly: a tiny
    positive roundoff eigenvalue would otherwise turn a null coordinate
    into a huge spurious one.  One below that clamp is a genuine error and
    is refused.  A design whose X'X/n, its Frobenius norm (the clamp scale)
    or its largest eigenvalue overflows is refused by name: an infinite
    clamp scale would clamp the whole spectrum to 0.

    X'X/n is formed in one p x p buffer, and X is let go before the
    eigensolve: when the caller passes X as a temporary, as build_design
    does, the peak is that buffer, eigh's copy of it and the eigenvectors,
    about 4 p^2 doubles, and not X on top.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if not np.isfinite(x).all():
        raise ValueError("design matrix has non-finite entries")
    n, p = x.shape
    if n < 1 or p < 1:
        raise ValueError("design matrix must be at least 1x1")
    # an entry that overflows to inf is refused below, by name
    with np.errstate(over="ignore"):
        sigma_hat = x.T @ x
    del x            # a temporary X passed by the caller is freed here
    sigma_hat /= n
    # an inf (or an inf - inf NaN) entry is refused before the scaling
    # below, which frexp(inf) would turn into a doubling
    top = float(np.abs(sigma_hat).max())
    if not top < np.inf:
        raise ValueError(_GRAM_OVERFLOW)
    # ||sigma_hat||_F from sigma_hat / 2^k <= 2, whose squares cannot
    # overflow; a power of two scales exactly, so wherever the plain norm
    # is finite this is the same double
    k = math.frexp(top)[1] - 1
    scale = float(np.linalg.norm(sigma_hat / 2.0 ** k)) * 2.0 ** k
    if not scale < np.inf:
        raise ValueError(_GRAM_OVERFLOW)
    w, q = sym_eig(sigma_hat)
    if not w[-1] < np.inf:
        raise ValueError(_GRAM_OVERFLOW)
    # eigh returns w ascending, so w[0] is the one to test against the clamp
    tol = _CLAMP_REL * scale
    if w[0] < -tol:
        raise ValueError(f"eigenvalue {w[0]:.6g} below the roundoff clamp {-tol:.6g}")
    spectrum = Spectrum(np.where(np.abs(w) <= tol, 0.0, w))
    return SpectralDesign(n=n, p=p, spectrum=spectrum, v_basis=q)


def attach_response(design: SpectralDesign, x, y) -> SpectralDesign:
    """Attach the rotated response channel c = V' X' y / n to a design.

    A non-finite y, or a channel that overflows, is refused by name.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != (design.n, design.p):
        raise ValueError(
            f"design shape mismatch: expected {(design.n, design.p)}, got {x.shape}"
        )
    if y.shape != (design.n,):
        raise ValueError(f"response length {y.size} does not match n = {design.n}")
    if not np.isfinite(y).all():
        raise ValueError("response has non-finite entries")
    # a channel past the largest double is refused by SpectralDesign, by name
    with np.errstate(over="ignore", invalid="ignore"):
        channel = design.v_basis.T @ (x.T @ y) / design.n
    return replace(design, rotated_channel=channel)


def _load_csv(path, ndmin: int) -> np.ndarray:
    """np.loadtxt of headerless CSV; input with no data is a ValueError."""
    with warnings.catch_warnings():
        # numpy warns before returning an empty array; the refusal below
        # says the same as an error instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        a = np.loadtxt(path, delimiter=",", ndmin=ndmin, dtype=float)
    if a.size == 0:
        raise ValueError(f"{path} contains no data")
    return a


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from headerless comma-separated text, one row per line."""
    return _load_csv(path, ndmin=2)


def read_vector_csv(path) -> np.ndarray:
    """Read a vector (one value per line, or a single CSV row)."""
    a = _load_csv(path, ndmin=2)
    if min(a.shape) > 1:
        raise ValueError(f"{path} holds a {a.shape[0]} x {a.shape[1]} "
                         "matrix, not one row or one column")
    return a.reshape(-1)

