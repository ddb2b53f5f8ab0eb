import re

import numpy as np
import pytest

from flowrisk.rng import _CHUNK_PAIRS as _CHUNK
from flowrisk.rng import SeededStream, derive_seed

from oracles import batched_normals, recipe_uniforms


def test_replay_is_identical():
    a = SeededStream(42).uniforms(1000)
    b = SeededStream(42).uniforms(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(SeededStream(1).uniforms(100),
                              SeededStream(2).uniforms(100))


def test_uniform_range_and_moments():
    u = SeededStream(7).uniforms(200000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002


def test_normals_call_size_invariance():
    # pair-at-a-time consumption: the first deviates of a stream agree no
    # matter how the requests are sized, because odd requests discard the
    # trailing half-pair deterministically
    whole = SeededStream(5).normals(10)
    s = SeededStream(5)
    parts = np.concatenate([s.normals(4), s.normals(6)])
    assert np.array_equal(whole[:4], parts[:4])
    even_then = SeededStream(5)
    first_four = even_then.normals(4)
    assert np.array_equal(whole[:4], first_four)


def test_normals_moments():
    z = SeededStream(11).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs((z ** 3).mean()) < 0.05


def test_chi_square_mean():
    w = SeededStream(13).chi_square(50000, df=4)
    assert abs(w.mean() - 4.0) < 0.05
    assert (w > 0).all()


def test_student_t_variance():
    t = SeededStream(17).student_t(200000, df=5)
    assert abs(t.var() - 5.0 / 3.0) < 0.05


def test_student_t_requires_df():
    with pytest.raises(ValueError):
        SeededStream(1).student_t(10, df=0)


@pytest.mark.parametrize("draw", ["chi_square", "student_t"])
@pytest.mark.parametrize("df", [0, -3])
def test_draws_refuse_a_df_below_one(draw, df):
    stream = SeededStream(1)
    with pytest.raises(ValueError, match="^df must be >= 1$"):
        getattr(stream, draw)(10, df)
    # refused before the counter moved
    assert np.array_equal(stream.uniforms(2), SeededStream(1).uniforms(2))


@pytest.mark.parametrize("count", [-1, -2, 2.5, np.float64(2.0), "3", None],
                         ids=repr)
def test_uniforms_refuses_a_count_that_is_not_a_nonnegative_integer(count):
    stream = SeededStream(5)
    first = stream.uniforms(3)
    with pytest.raises(ValueError, match="count"):
        stream.uniforms(count)
    # the counter did not move, and a NumPy integer count draws on from it
    assert stream.uniforms(0).size == 0
    rest = stream.uniforms(np.int64(2))
    assert np.array_equal(np.concatenate([first, rest]),
                          SeededStream(5).uniforms(5))


@pytest.mark.parametrize(("call", "message"), [
    (lambda s: s.normals(2.5), "count must be an integer, got 2.5"),
    (lambda s: s.normals(-1), "count must be a nonnegative integer, got -1"),
    (lambda s: s.chi_square(2.5, 3), "count must be an integer, got 2.5"),
    (lambda s: s.chi_square(-1, 3),
     "count must be a nonnegative integer, got -1"),
    (lambda s: s.chi_square(3, 2.5), "df must be an integer, got 2.5"),
    (lambda s: s.student_t(2.0, 3), "count must be an integer, got 2.0"),
    (lambda s: s.student_t(3, "2"), "df must be an integer, got '2'"),
    (lambda s: s.student_t(3, 2.5), "df must be an integer, got 2.5"),
], ids=["normals-float", "normals-negative", "chi-square-float-count",
        "chi-square-negative-count", "chi-square-float-df",
        "student-t-integral-float-count", "student-t-str-df",
        "student-t-float-df"])
def test_draws_refuse_counts_and_dfs_before_the_counter_moves(call, message):
    stream = SeededStream(4)
    stream.uniforms(3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(stream)
    assert stream._counter == 3
    # NumPy integers pass and draw on from the same counter
    ref = SeededStream(4)
    ref.uniforms(3)
    assert np.array_equal(stream.student_t(np.int64(3), np.int8(2)),
                          ref.student_t(3, 2))


def test_an_all_rejected_chunk_is_skipped():
    stream = SeededStream(9)
    uniforms, chunks = stream.uniforms, []

    def ones_first(count):
        out = uniforms(count)
        if not chunks:
            out[:] = 1.0        # q = 2: every pair of the chunk is rejected
        chunks.append(count)
        return out

    stream.uniforms = ones_first
    got = stream.normals(5)
    assert len(chunks) == 2
    ref = SeededStream(9)
    ref.uniforms(chunks[0])
    assert np.array_equal(got, ref.normals(5))
    assert stream._counter == ref._counter


@pytest.mark.parametrize(("call", "message"), [
    (lambda: SeededStream(1.5), "seed must be an integer, got 1.5"),
    (lambda: SeededStream(2.0), "seed must be an integer, got 2.0"),
    (lambda: SeededStream("3"), "seed must be an integer, got '3'"),
    (lambda: derive_seed(1.5, 0), "seed must be an integer, got 1.5"),
    (lambda: derive_seed(1, 0.0), "stream_index must be an integer, got 0.0"),
    (lambda: derive_seed(None, 0), "seed must be an integer, got None"),
], ids=["stream-float", "stream-integral-float", "stream-str",
        "derive-seed-float", "derive-index-float", "derive-seed-none"])
def test_seeds_and_indices_follow_the_integer_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    # NumPy integers pass and run the same streams
    assert np.array_equal(SeededStream(np.uint64(2 ** 64 - 1)).uniforms(4),
                          SeededStream(-1).uniforms(4))
    assert derive_seed(np.int64(7), np.int8(1)) == derive_seed(7, 1)


def test_derive_seed_decorrelates():
    child_a = derive_seed(99, 0)
    child_b = derive_seed(99, 1)
    assert child_a != child_b
    a = SeededStream(child_a).uniforms(50)
    b = SeededStream(child_b).uniforms(50)
    assert not np.array_equal(a, b)


def test_documented_recipe_scalar_reference():
    # the stream must equal a direct transcription of the documented
    # algorithm: splitmix64 over a counter, top-53-bit uniforms
    mask = (1 << 64) - 1

    def mix(v):
        v ^= v >> 30
        v = (v * 0xBF58476D1CE4E5B9) & mask
        v ^= v >> 27
        v = (v * 0x94D049BB133111EB) & mask
        v ^= v >> 31
        return v

    seed = 123456789
    expected = []
    for k in range(1, 9):
        v = mix((seed + k * 0x9E3779B97F4A7C15) & mask)
        expected.append((v >> 11) * 2.0 ** -53)
    assert np.array_equal(SeededStream(seed).uniforms(8), np.array(expected))


def test_polar_method_scalar_reference():
    # pair-at-a-time polar transcription over the documented uniform stream
    seed = 2024
    mask = (1 << 64) - 1

    def mix(v):
        v ^= v >> 30
        v = (v * 0xBF58476D1CE4E5B9) & mask
        v ^= v >> 27
        v = (v * 0x94D049BB133111EB) & mask
        v ^= v >> 31
        return v

    def uniform(k):
        return (mix((seed + k * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0 ** -53

    wanted = 7
    out, k = [], 1
    while len(out) < wanted:
        u1, u2 = uniform(k), uniform(k + 1)
        k += 2
        w1, w2 = 2 * u1 - 1, 2 * u2 - 1
        q = w1 * w1 + w2 * w2
        if 0.0 < q < 1.0:
            f = np.sqrt(-2.0 * np.log(q) / q)
            out.extend([w1 * f, w2 * f])
    assert np.array_equal(SeededStream(seed).normals(wanted),
                          np.array(out[:wanted]))


# The chunked normals against the whole-request batched implementation they
# replaced: equal streams and equal counters after every call.
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK + 1])
def test_normals_match_batched_reference(seed, count):
    stream, ref = SeededStream(seed), SeededStream(seed)
    for n in (count, 3, count):
        assert np.array_equal(stream.normals(n), batched_normals(ref, n))
        assert stream._counter == ref._counter


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_interleaved_uniforms_and_normals_match_reference(seed):
    stream, ref = SeededStream(seed), SeededStream(seed)
    for n in (1, 7, _CHUNK + 1, 0, 5):
        expected = recipe_uniforms(seed, ref._counter, n)
        ref._counter += n
        assert np.array_equal(stream.uniforms(n), expected)
        assert np.array_equal(stream.normals(n), batched_normals(ref, n))
        assert stream._counter == ref._counter


# chi_square draws its normals in blocks of 2^14 rows: the streams and
# counters are those of one whole request, across block edges and a short tail.
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("count, df",
                         [(1001, 5), (3 * 2 ** 14 + 7, 3), (3 * 2 ** 14 + 7, 5)])
def test_chi_square_and_student_t_match_reference(seed, count, df):
    stream, ref = SeededStream(seed), SeededStream(seed)
    z = batched_normals(ref, count * df).reshape(count, df)
    assert np.array_equal(stream.chi_square(count, df), (z * z).sum(axis=1))
    assert stream._counter == ref._counter
    z = batched_normals(ref, count)
    w = batched_normals(ref, count * df).reshape(count, df)
    expected = z / np.sqrt((w * w).sum(axis=1) / df)
    assert np.array_equal(stream.student_t(count, df), expected)
    assert stream._counter == ref._counter
