"""Deterministic seedable random stream with a fully documented algorithm.

The raw stream is SplitMix64 read as a counter-based generator: draw k of a
stream seeded with seed is

    v   = (seed + (k+1) * 0x9E3779B97F4A7C15) mod 2^64
    v  ^= v >> 30;  v *= 0xBF58476D1CE4E5B9   (mod 2^64)
    v  ^= v >> 27;  v *= 0x94D049BB133111EB   (mod 2^64)
    v  ^= v >> 31

Uniforms take the top 53 bits: u = (v >> 11) * 2^-53, giving doubles in
[0, 1).  Normal deviates use the Marsaglia polar method on consecutive
uniform pairs: with w1 = 2 u1 - 1, w2 = 2 u2 - 1 and q = w1^2 + w2^2, a
pair is accepted when 0 < q < 1 and yields the two deviates
w1 sqrt(-2 ln q / q) and w2 sqrt(-2 ln q / q) in that order; rejected
pairs are skipped.  Chi-square draws with d degrees of freedom sum d
squared normals; Student-t draws are z / sqrt(w / d) where the z block of
normals is drawn first and the chi-square block second.

Any implementation of this recipe, in any language, reproduces the streams
bit for bit, which is the point: simulation outputs are keyed to the seed
alone, not to a library version.

The implementation streams the recipe rather than materializing it: the
mixing runs in place over one value buffer and one shift buffer, and
normals draws its uniforms one chunk of at most _CHUNK_PAIRS pairs at a
time, so a request for millions of deviates keeps its temporaries at a
few hundred kilobytes.  chi_square draws its normals _CHI_ROWS rows at a
time and squares them in place, so at its peak it holds its count
results plus one block of _CHI_ROWS x df normals, not count x df twice
over; student_t holds its two count-long arrays plus that block.  The
chunking is invisible in the output: every stream, and the counter after
every call, is the pair-at-a-time recipe's.

Seeds, stream indices and uniforms' count are integers by one rule,
_index: each is taken through operator.index, so a Python or NumPy integer
passes unchanged and anything else (1.5, 2.0, "3") is a ValueError naming
it, raised before the counter moves.  A count must also be >= 0; the other
draws refuse a negative one through NumPy.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["SeededStream", "derive_seed"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2.0 ** -53)
# Uniform pairs per normals chunk: 32768 pairs are 512 KiB of uniforms, small
# enough to stay in cache, large enough to amortize the per-chunk overhead.
_CHUNK_PAIRS = 1 << 15
# Expected pairs drawn per accepted pair: the acceptance rate is pi/4.
_PAIRS_PER_ACCEPT = 4.0 / np.pi
# Rows per chi_square block.  Even, so every block but the last requests an
# even count of normals and discards no deviate: the blocks draw exactly
# the stream of one whole request.
_CHI_ROWS = 1 << 14


def _mix(v: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix, applied to v in place; returns v."""
    shifted = np.empty_like(v)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(v, np.uint64(shift), out=shifted)
        v ^= shifted
        v *= mult
    np.right_shift(v, np.uint64(31), out=shifted)
    v ^= shifted
    return v


def _index(value, name: str, error: type = ValueError) -> int:
    """value as an int through operator.index, else error naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def derive_seed(seed: int, stream_index: int) -> int:
    """A decorrelated child seed: mix(seed + (index+1) * golden gamma)."""
    mask = (1 << 64) - 1
    v = (_index(seed, "seed")
         + (_index(stream_index, "stream_index") + 1) * int(_GAMMA)) & mask
    return int(_mix(np.array([v], dtype=np.uint64))[0])


class SeededStream:
    """A consumable SplitMix64 stream with polar normals and t deviates."""

    def __init__(self, seed: int):
        self._seed = np.uint64(_index(seed, "seed") & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def uniforms(self, count: int) -> np.ndarray:
        """count doubles uniform on [0, 1)."""
        n = _index(count, "count")
        if n < 0:
            raise ValueError(f"count must be a nonnegative integer, got {count!r}")
        v = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):  # modular wrap is the algorithm
            v *= _GAMMA
            v += self._seed
            _mix(v)
        v >>= np.uint64(11)
        out = v.astype(np.float64)
        out *= _U53
        return out

    def normals(self, count: int) -> np.ndarray:
        """count standard normal deviates via the polar method.

        The stream consumes uniform pairs one at a time and stops at the
        first pair that completes the request; an odd count discards the
        trailing deviate of that final pair.  The pairs are drawn a chunk
        at a time, each chunk sized to what the rest of the request needs,
        and the counter is rewound to the end of the completing pair, so
        the result is indistinguishable from the scalar pair-at-a-time
        recipe.
        """
        out = np.empty(count)
        filled = 0
        while filled < count:
            wanted = (count - filled + 1) // 2
            # the expected draws for the pairs still wanted, plus three
            # standard deviations and some slack; a shortfall costs one
            # more, smaller chunk
            chunk = min(_CHUNK_PAIRS, int(_PAIRS_PER_ACCEPT * wanted
                                          + 3.0 * np.sqrt(wanted)) + 16)
            start = self._counter
            w = self.uniforms(2 * chunk)
            w *= 2.0
            w -= 1.0
            w = w.reshape(chunk, 2)
            q = w[:, 0] * w[:, 0]
            q += w[:, 1] * w[:, 1]
            accepted = np.flatnonzero((q > 0.0) & (q < 1.0))[:wanted]
            if accepted.size == wanted:
                self._counter = start + 2 * (int(accepted[-1]) + 1)
            if not accepted.size:
                continue
            qs = q[accepted]
            factor = np.log(qs)
            factor *= -2.0
            factor /= qs
            np.sqrt(factor, out=factor)
            pairs = np.take(w, accepted, axis=0)   # w[accepted], about 10x faster
            pairs *= factor[:, None]
            take = min(pairs.size, count - filled)
            out[filled:filled + take] = pairs.reshape(-1)[:take]
            filled += take
        return out

    def chi_square(self, count: int, df: int) -> np.ndarray:
        """count chi-square deviates, each the sum of df squared normals.

        The normals are drawn and squared _CHI_ROWS rows at a time, so the
        peak is the count results plus one block of _CHI_ROWS x df normals.
        """
        if df < 1:
            raise ValueError("df must be >= 1")
        out = np.empty(count)
        for lo in range(0, count, _CHI_ROWS):
            rows = min(_CHI_ROWS, count - lo)
            z = self.normals(rows * df).reshape(rows, df)
            np.square(z, out=z)
            z.sum(axis=1, out=out[lo:lo + rows])
        return out

    def student_t(self, count: int, df: int) -> np.ndarray:
        """count Student-t deviates z / sqrt(w/df); z block first, w second."""
        if df < 1:
            raise ValueError("df must be >= 1")
        z = self.normals(count)
        w = self.chi_square(count, df)
        w /= df
        np.sqrt(w, out=w)
        z /= w
        return z
