"""Spectral coordinates for least-squares instances.

A design matrix X enters every closed form in this library only through the
eigenvalues s_1 <= ... <= s_p of the sample covariance X'X/n, the
eigenvector basis V, and the rotated response channel c_i = v_i' X' y / n.
This module builds those coordinates.  The spectrum of X is always
obtained from X'X/n, never from X directly, since only the right singular
subspace and the eigenvalues appear downstream.  design_decompose makes
one eigensolve (numpy.linalg.eigh) of X'X/n divided by the power of two
that puts its largest |entry| in [1, 2), where LAPACK never rescales, so
X -> 2^j X multiplies the spectrum by 4^j and keeps the basis bit for bit
(tests/test_scale_relations.py).  It clamps the ascending eigenvalues
itself; a Spectrum only validates the values it is given.  A
SpectralDesign checks its basis once, when it is built, and holds its
arrays read-only, so attach_response attaches a channel to the checked
design without checking the basis again.

Matrix I/O is bare CSV: comma-separated values, one row per line, no
header.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "SpectralDesign",
    "design_decompose",
    "attach_response",
    "read_matrix_csv",
    "read_vector_csv",
]

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
    order; it is a read-only view of the array passed in, not a p x p
    copy, so a caller that keeps that array must not write into it.
    rotated_channel, when present, holds c = V' X' y / n, which must be
    finite; it is a read-only copy.  The O(p^3) orthogonality check of
    v_basis runs here, once per basis.
    """

    n: int
    p: int
    spectrum: Spectrum
    v_basis: np.ndarray
    rotated_channel: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("SpectralDesign requires n >= 1 and p >= 1")
        v = np.asarray(self.v_basis, dtype=float).view()
        v.flags.writeable = False
        if v.shape != (self.p, self.p):
            raise ValueError(f"v_basis must be {self.p}x{self.p}, got {v.shape}")
        if self.spectrum.p != self.p:
            raise ValueError("spectrum size does not match p")
        gram = v.T @ v
        gram.flat[::self.p + 1] -= 1.0     # V'V - I, in place
        gram_err = np.linalg.norm(gram)
        if gram_err > ORTHOGONALITY_TOL * max(1.0, self.p):
            raise ValueError(f"v_basis is not orthogonal (Frobenius error {gram_err:.3g})")
        object.__setattr__(self, "v_basis", v)
        if self.rotated_channel is not None:
            _set_channel(self, self.rotated_channel)

    @property
    def has_response(self) -> bool:
        return self.rotated_channel is not None


def _set_channel(design: SpectralDesign, channel) -> None:
    """Store a read-only copy of channel as design.rotated_channel, refusing
    a wrong length or a non-finite entry by name."""
    c = np.array(channel, dtype=float)
    if c.shape != (design.p,):
        raise ValueError("rotated_channel must have length p")
    if not np.isfinite(c).all():
        raise ValueError("rotated_channel has non-finite entries")
    c.flags.writeable = False
    object.__setattr__(design, "rotated_channel", c)


def _eigh(scaled: np.ndarray, k: int):
    """Eigenpairs of 2^k times the symmetric matrix scaled, which eigh
    reads from one triangle; an eigenvalue past the largest double comes
    back inf, which design_decompose refuses by name."""
    w, q = np.linalg.eigh(scaled)
    with np.errstate(over="ignore"):
        w *= 2.0 ** k
    return w, q


def design_decompose(x) -> SpectralDesign:
    """Spectral coordinates of a design matrix.

    The spectrum and basis come from one eigensolve of X'X/n, scaled as
    the module docstring says; eigh reads one triangle, so a strided X's
    Gram matrix, asymmetric in its last bits, is factored as it stands.
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
    top = float(max(sigma_hat.max(), -sigma_hat.min()))
    if not top < np.inf:
        raise ValueError(_GRAM_OVERFLOW)
    # sigma_hat / 2^k has its largest |entry| in [1, 2): its norm's squares
    # cannot overflow and LAPACK does not rescale it; a power of two scales
    # exactly, so wherever the plain norm is finite this is the same double
    k = math.frexp(top)[1] - 1
    sigma_hat /= 2.0 ** k
    scale = float(np.linalg.norm(sigma_hat)) * 2.0 ** k
    if not scale < np.inf:
        raise ValueError(_GRAM_OVERFLOW)
    w, q = _eigh(sigma_hat, k)
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

    A non-finite y, or a channel that overflows, is refused by name.  The
    result shares the design's checked, read-only basis, so the call costs
    the two matrix-vector products and not a second O(p^3) basis check.
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
    # a channel past the largest double is refused by _set_channel, by name
    with np.errstate(over="ignore", invalid="ignore"):
        channel = design.v_basis.T @ (x.T @ y) / design.n
    attached = copy.copy(design)    # a copy skips __post_init__'s checks
    _set_channel(attached, channel)
    return attached


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

