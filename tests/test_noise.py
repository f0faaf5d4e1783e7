import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvavg.noise import FAST, FROZEN, SLOW, SLOW_ALT, NoisePlan, draw


def test_reproducible():
    a = NoisePlan(123).gaussians(SLOW, 0, 10, 4, 2)
    b = NoisePlan(123).gaussians(SLOW, 0, 10, 4, 2)
    assert np.array_equal(a, b)


def test_increment_is_pure_function_of_stream_and_step():
    # slicing any window out of a bigger request gives identical values:
    # increments depend on (seed, stream, step) only, not on the request shape
    plan = NoisePlan(7)
    big = plan.gaussians(FAST, 0, 32, 8, 3)
    window = plan.gaussians(FAST, 10, 5, 8, 3)
    assert np.array_equal(big[10:15], window)
    fewer_particles = plan.gaussians(FAST, 0, 32, 5, 3)
    assert np.array_equal(big[:, :5, :], fewer_particles)
    fewer_modes = plan.gaussians(FAST, 0, 32, 8, 1)
    assert np.array_equal(big[:, :, :1], fewer_modes)


def test_streams_distinct():
    plan = NoisePlan(99)
    a = plan.gaussians(SLOW, 0, 16, 4, 1)
    for kind in (FAST, FROZEN, SLOW_ALT):
        assert not np.allclose(a, plan.gaussians(kind, 0, 16, 4, 1))
    assert not np.allclose(a, plan.gaussians(SLOW, 0, 16, 4, 1, extra=1))
    assert not np.allclose(a, NoisePlan(100).gaussians(SLOW, 0, 16, 4, 1))


def test_marginals_are_standard_normal():
    z = NoisePlan(2024).gaussians(SLOW, 0, 500, 400, 1).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 6.0 / np.sqrt(n)
    assert abs((z ** 3).mean()) < 10.0 / np.sqrt(n)
    assert abs((z ** 4).mean() - 3.0) < 25.0 / np.sqrt(n)


def test_cos_and_sin_steps_are_each_standard_normal():
    # even steps take the cos output of their pair's counter, odd steps the sin output
    z = NoisePlan(2026).gaussians(SLOW, 0, 400, 500, 1)
    for half in (z[0::2].ravel(), z[1::2].ravel()):
        n = half.size
        assert abs(half.mean()) < 4.0 / np.sqrt(n)
        assert abs(half.var() - 1.0) < 6.0 / np.sqrt(n)
        assert stats.kstest(half, "norm").pvalue > 1e-3


def test_pair_partners_uncorrelated():
    z = NoisePlan(77).gaussians(FAST, 0, 400, 250, 2)
    cos, sin = z[0::2].ravel(), z[1::2].ravel()
    bound = 4.0 / np.sqrt(cos.size)
    assert abs(np.corrcoef(cos, sin)[0, 1]) < bound
    assert abs(np.corrcoef(cos ** 2, sin ** 2)[0, 1]) < bound


@pytest.mark.parametrize("start, n_steps", [(0, 1), (1, 1), (3, 5), (7, 0), (5, 8), (10, 3),
                                            (1, 39)])
def test_mid_pair_windows_are_slices(start, n_steps):
    # a window that starts or ends mid-pair drops the partner it computes
    plan = NoisePlan(3)
    big = plan.gaussians(FROZEN, 0, 40, 5, 2, extra=9)
    window = plan.gaussians(FROZEN, start, n_steps, 5, 2, extra=9)
    assert window.shape == (n_steps, 5, 2)
    assert np.array_equal(window, big[start:start + n_steps])


def test_last_legal_step_is_a_slice():
    last = 2 ** 48 - 1            # an odd step: the sin output of the last pair
    plan = NoisePlan(2 ** 64 - 1)
    one = plan.gaussians(SLOW_ALT, last, 1, 3, 2)
    tail = plan.gaussians(SLOW_ALT, last - 5, 6, 3, 2)   # starts on a pair
    assert one.shape == (1, 3, 2) and np.all(np.isfinite(one))
    assert np.array_equal(one, tail[-1:])


def test_cross_stream_independence():
    plan = NoisePlan(5)
    a = plan.gaussians(SLOW, 0, 2000, 10, 1).ravel()
    b = plan.gaussians(FAST, 0, 2000, 10, 1).ravel()
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 4.0 / np.sqrt(a.size)


def test_lag_autocorrelation_small():
    z = NoisePlan(31).gaussians(SLOW, 0, 20000, 1, 1).ravel()
    corr = float(np.corrcoef(z[:-1], z[1:])[0, 1])
    assert abs(corr) < 4.0 / np.sqrt(z.size)


def test_derive_changes_seed_deterministically():
    plan = NoisePlan(42)
    d1 = plan.derive(4242, 0)
    d2 = plan.derive(4242, 0)
    d3 = plan.derive(4242, 1)
    assert d1.seed == d2.seed
    assert d1.seed != d3.seed
    assert d1.seed != plan.seed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 40), st.integers(1, 6))
def test_shapes_and_determinism(seed, step, n_modes):
    plan = NoisePlan(seed)
    z = plan.gaussians(SLOW, step, 3, 2, n_modes)
    assert z.shape == (3, 2, n_modes)
    assert np.array_equal(z, plan.gaussians(SLOW, step, 3, 2, n_modes))
    assert np.all(np.isfinite(z))


def test_seed_range_checked():
    with pytest.raises(ValueError):
        NoisePlan(-1)
    with pytest.raises(ValueError):
        NoisePlan(2 ** 64)


def test_in_range_streams_unchanged():
    # values recorded before the counter limits were enforced, at the field edges
    # too; re-recorded with stream version 2 (one counter per pair of steps)
    plan = NoisePlan(123)
    assert plan.gaussians(SLOW, 0, 2, 2, 2).ravel().tolist() == [
        0.017698533350502765, 1.5193069845933358, 0.3368953914026729,
        0.3427268458992593, 2.325375753244536, 0.7113622802274305,
        0.006572862448713432, 0.9051941129170468]
    edge = NoisePlan(2 ** 64 - 1).gaussians(FAST, 2 ** 48 - 3, 3, 1, 1, extra=2 ** 16 - 1)
    assert edge.ravel().tolist() == [-1.3766847613220252, -1.0883197352095566,
                                     -1.6880446778298681]
    wide = NoisePlan(7).gaussians(FROZEN, 2 ** 40, 1, 3, 2 ** 16).ravel()
    assert wide[[0, 1, -1]].tolist() == [0.002055575764910691, 1.673153189812147,
                                         -2.7365705028834895]
    base = NoisePlan(42)
    assert base.derive(4242, 0).seed == 1552263589983501128
    assert base.derive(9001).seed == 2304168245982568478
    assert base.derive().seed == 1553859894536179048
    assert base.derive(2 ** 48 - 1, 2 ** 32 - 1, 2 ** 32 - 1).seed == 15146122226473025961


@pytest.mark.parametrize("kind, start, n_steps, n_particles, n_modes, extra", [
    (SLOW, -1, 1, 1, 1, 0),             # negative step
    (SLOW, 2 ** 48 - 1, 2, 1, 1, 0),    # step 2^48 would be FAST step 0
    (SLOW, 0, 1, 2 ** 32 + 1, 1, 0),    # particle index past 32 bits
    (SLOW, 0, 1, 1, 2 ** 16 + 1, 0),    # mode 2^16 would be extra=1 mode 0
    (SLOW, 0, 1, 1, 1, 2 ** 16),        # extra past 16 bits
    (SLOW, 0, 1, 1, 1, -1),
    (2 ** 16, 0, 1, 1, 1, 0),           # kind past 16 bits
    (-1, 0, 1, 1, 1, 0),
])
def test_counter_fields_out_of_range_rejected(kind, start, n_steps, n_particles,
                                              n_modes, extra):
    with pytest.raises(ValueError):
        NoisePlan(1).gaussians(kind, start, n_steps, n_particles, n_modes, extra=extra)


@pytest.mark.parametrize("tags", [
    (1, 2, 3, 4),          # a fourth tag was ignored: (1,2,3,4) == (1,2,3,5)
    (1, 2 ** 32),          # truncated to 32 bits: (1, 2^32) == (1, 0)
    (2 ** 48,),
    (1, 2, 2 ** 32),
    (-1,),
    (1.5,),
    ("a",),
])
def test_derive_tags_out_of_range_rejected(tags):
    with pytest.raises(ValueError):
        NoisePlan(1).derive(*tags)


def test_batched_draw_stacks_per_plan_draws():
    plans = [NoisePlan(5).derive(4242, rep) for rep in range(3)]
    batch = draw(plans, FAST, 7, 4, 6, 2)
    assert batch.shape == (4, 3, 6, 2)
    assert np.array_equal(batch, np.stack([p.gaussians(FAST, 7, 4, 6, 2) for p in plans], axis=1))
    assert np.array_equal(draw(plans[1:2], FAST, 7, 4, 6, 2)[:, 0],
                          plans[1].gaussians(FAST, 7, 4, 6, 2))
