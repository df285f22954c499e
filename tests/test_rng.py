import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import kstest

from meanfield_hmc import RngStream, derive_stream_id
from meanfield_hmc.rng import BLOCK


def test_same_key_reproduces_sequence():
    a = RngStream(123, 45)
    b = RngStream(123, 45)
    assert np.array_equal(a.normal_vector(1000), b.normal_vector(1000))
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))


def test_distinct_streams_differ():
    a = RngStream(123, 0).normal_vector(64)
    b = RngStream(123, 1).normal_vector(64)
    assert not np.array_equal(a, b)


def test_counter_tracks_consumption():
    s = RngStream(0)
    s.uniforms(10)
    s.normal_vector(5)
    s.uniform()
    assert s.counter == 16


def test_normal_moments():
    draws = RngStream(2024).normal_vector(1_000_000)
    assert abs(draws.mean()) < 4e-3
    assert abs(draws.var() - 1.0) < 1e-2


def test_uniform_range_and_mean():
    u = RngStream(7).uniforms(1_000_000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 2e-3


def test_uniform_ks_statistic():
    # asymptotic critical value at the 1% level
    n = 100_000
    u = RngStream(42).uniforms(n)
    assert kstest(u, "uniform").statistic < 1.63 / np.sqrt(n)


def test_normals_have_no_infinities():
    # inverse-CDF transform of (0,1)-interior uniforms stays bounded
    draws = RngStream(1).normal_vector(200_000)
    assert np.isfinite(draws).all()
    assert np.abs(draws).max() < 9.0


def test_substreams_are_stable_and_distinct():
    base = RngStream(99)
    ids = {base.substream(i).stream_id for i in range(100)}
    assert len(ids) == 100
    again = RngStream(99).substream(7)
    assert again.stream_id == base.substream(7).stream_id
    assert derive_stream_id(99, 7) == derive_stream_id(99, 7)


def test_seed_validation():
    import pytest
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)


def _unbuffered_uniforms(seed, stream_id, n):
    """Reference: one direct draw of ``n`` uniforms from the stream's generator."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
    k = (gen.integers(0, 1 << 64, size=n, dtype=np.uint64) >> np.uint64(12)).astype(np.float64)
    return (k + 0.5) * 2.0**-52


_sizes = st.integers(min_value=0, max_value=3 * BLOCK + 7)
_calls = st.one_of(
    st.tuples(st.just("uniforms"), _sizes),
    st.tuples(st.just("normal_vector"), _sizes.map(lambda n: max(n, 1))),
    st.tuples(st.just("uniform"), st.none()),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1),
       calls=st.lists(_calls, max_size=12))
@example(seed=0, stream_id=0, calls=[("uniforms", 0), ("uniforms", BLOCK - 1),
                                     ("uniforms", 0), ("uniforms", BLOCK + 2),
                                     ("normal_vector", 1), ("uniform", None)])
def test_buffered_draws_equal_one_unbuffered_draw(seed, stream_id, calls):
    s = RngStream(seed, stream_id)
    outputs = []
    for name, arg in calls:
        if name == "uniform":
            out = np.array([s.uniform()])
        else:
            out = getattr(s, name)(arg)
        outputs.append((name, out.copy(), out))
    total = sum(out.size for _, out, _ in outputs)
    assert s.counter == total
    ref = _unbuffered_uniforms(seed, stream_id, total)
    pos = 0
    for name, first_seen, out in outputs:
        expected = ref[pos:pos + out.size]
        if name == "normal_vector":
            expected = ndtri(expected)
        assert np.array_equal(first_seen.reshape(-1), expected)
        # values handed out are never overwritten by later calls
        assert np.array_equal(out, first_seen)
        pos += out.size
