import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvavg import noise
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
    # even steps take the cos output of a Box-Muller pair, odd steps the sin
    # output; and each of the four steps of a counter group (cos and sin of
    # the block's first pair, then of its second) is standard normal alone
    z = NoisePlan(2026).gaussians(SLOW, 0, 400, 500, 1)
    for part in [z[0::2], z[1::2]] + [z[i::4] for i in range(4)]:
        part = part.ravel()
        n = part.size
        assert abs(part.mean()) < 4.0 / np.sqrt(n)
        assert abs(part.var() - 1.0) < 6.0 / np.sqrt(n)
        assert stats.kstest(part, "norm").pvalue > 1e-3


def test_pair_partners_uncorrelated():
    z = NoisePlan(77).gaussians(FAST, 0, 400, 250, 2)
    cos, sin = z[0::2].ravel(), z[1::2].ravel()
    bound = 4.0 / np.sqrt(cos.size)
    assert abs(np.corrcoef(cos, sin)[0, 1]) < bound
    assert abs(np.corrcoef(cos ** 2, sin ** 2)[0, 1]) < bound


@pytest.mark.parametrize("start, n_steps", [(0, 1), (1, 1), (3, 5), (7, 0), (5, 8), (10, 3),
                                            (1, 39)])
def test_mid_pair_windows_are_slices(start, n_steps):
    # a window that starts or ends mid-group drops the steps it computes past it
    plan = NoisePlan(3)
    big = plan.gaussians(FROZEN, 0, 40, 5, 2, extra=9)
    window = plan.gaussians(FROZEN, start, n_steps, 5, 2, extra=9)
    assert window.shape == (n_steps, 5, 2)
    assert np.array_equal(window, big[start:start + n_steps])


def test_every_window_start_and_length_is_a_slice():
    # each start modulo a counter group, each length from 1 to 9 steps
    plan = NoisePlan(11)
    big = plan.gaussians(FAST, 0, 24, 3, 2, extra=5, first_particle=40)
    for start in range(4, 8):
        for n_steps in range(1, 10):
            window = plan.gaussians(FAST, start, n_steps, 3, 2, extra=5, first_particle=40)
            assert np.array_equal(window, big[start:start + n_steps]), (start, n_steps)


def test_particle_normals_do_not_depend_on_the_particle_range():
    plan = NoisePlan(12)
    ref = plan.gaussians(SLOW_ALT, 3, 10, 1, 3, extra=2, first_particle=17)[:, 0]
    for first, n in ((17, 1), (17, 9), (0, 18), (10, 50), (16, 2)):
        z = plan.gaussians(SLOW_ALT, 3, 10, n, 3, extra=2, first_particle=first)
        assert np.array_equal(z[:, 17 - first], ref), (first, n)


def _block_normals(seed, kind, group, particle, mode, extra):
    """The four normals of one counter group, from numpy's Philox as the
    NoisePlan docstring lays it out."""
    counter = np.array([particle | mode << 32 | extra << 48, group, kind, 0], np.uint64)
    w = np.random.Philox(key=np.array([seed, 0], np.uint64), counter=counter).random_raw(4)
    d = ((w >> np.uint64(12)) | np.uint64(0x3FF0000000000000)).view(np.float64)
    radius = np.sqrt(-2.0 * np.log(2.0 - d[0::2]))
    t = np.tan((d[1::2] - 1.5) * np.pi)
    t2 = t * t
    rho = radius / (1.0 + t2)
    return np.stack([(1.0 - t2) * rho, (2.0 * t) * rho], axis=1).ravel()


@pytest.mark.parametrize("seed, kind, group, particle, mode, extra", [
    (5, SLOW, 0, 0, 0, 0),
    (2 ** 64 - 1, FROZEN, 2 ** 46 - 1, 2 ** 32 - 1, 2 ** 16 - 1, 2 ** 16 - 1),
    (123, FAST, 7, 2 ** 32 - 1, 3, 0),
    (9, SLOW_ALT, 2 ** 46 - 1, 12, 0, 2 ** 16 - 1),
])
def test_counter_layout(seed, kind, group, particle, mode, extra):
    # the stream is the documented map, down to the bits
    z = NoisePlan(seed).gaussians(kind, 4 * group, 4, 1, mode + 1, extra, particle)
    want = _block_normals(seed, kind, group, particle, mode, extra)
    assert np.array_equal(z[:, 0, mode], want)


def test_half_angle_pairs_match_cos_and_sin_of_the_same_words():
    # the stream's pairs are radius * (cos, sin) of the angle 2 pi (u - 1.5),
    # built from t = tan(angle / 2): over 10^6 normals each lies within
    # 4 eps max(1, |z|) of numpy's cos and sin of the same Philox words
    seed, groups, n = 90125, 500, 500
    z = NoisePlan(seed).gaussians(SLOW, 0, 4 * groups, n, 1)[:, :, 0]
    key = np.array([seed, 0], np.uint64)
    w = np.stack([np.random.Philox(key=key, counter=np.array([0, g, SLOW, 0], np.uint64))
                  .random_raw(4 * n).reshape(n, 2, 2) for g in range(groups)])
    d = ((w >> np.uint64(12)) | np.uint64(0x3FF0000000000000)).view(np.float64)
    radius = np.sqrt(-2.0 * np.log(2.0 - d[..., 0]))
    angle = (d[..., 1] - 1.5) * (2.0 * np.pi)
    want = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    # step 4g + 2 pair + (0 for cos, 1 for sin)
    want = want.transpose(0, 2, 3, 1).reshape(4 * groups, n)
    assert z.size >= 10 ** 6
    err = np.abs(z - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 4 * np.finfo(np.float64).eps


def test_field_edges_are_finite_and_alias_no_neighbour():
    # a stream at the edge of every field against the streams next to it in
    # each field: none shares a normal, so no field overflows into another
    top_step, top_particle, top16 = 2 ** 48 - 1, 2 ** 32 - 1, 2 ** 16 - 1
    plan = NoisePlan(2 ** 64 - 1)

    def one(kind=FROZEN, step=top_step - 3, particle=top_particle, mode=top16, extra=top16,
            seed=2 ** 64 - 1):
        return NoisePlan(seed).gaussians(kind, step, 4, 1, mode + 1, extra, particle)[:, 0, mode]

    edge = one()
    assert np.all(np.isfinite(edge)) and np.all(np.isfinite(plan.gaussians(
        FROZEN, top_step - 3, 4, 2, 2, top16, top_particle - 1)))
    neighbours = [one(step=top_step - 7), one(particle=top_particle - 1), one(particle=0),
                  one(mode=top16 - 1), one(mode=0), one(extra=top16 - 1), one(extra=0),
                  one(kind=FROZEN + 1), one(kind=FROZEN - 1), one(seed=2 ** 64 - 2),
                  one(particle=0, mode=0, extra=0), one(step=0)]
    for other in neighbours:
        assert np.all(np.isfinite(other))
        assert not np.isin(edge, other).any()


def test_last_legal_step_is_a_slice():
    last = 2 ** 48 - 1            # the sin output of the last group's second pair
    plan = NoisePlan(2 ** 64 - 1)
    one = plan.gaussians(SLOW_ALT, last, 1, 3, 2)
    tail = plan.gaussians(SLOW_ALT, last - 5, 6, 3, 2)   # starts mid-group
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
    # too; re-recorded with stream version 3 (numpy's Philox 4x64-10, one block
    # per group of four steps), and re-recorded with noise stream version 4
    # (Box-Muller through tan of the half-angle)
    plan = NoisePlan(123)
    assert plan.gaussians(SLOW, 0, 2, 2, 2).ravel().tolist() == [
        -0.48746722304619455, 0.9014578333785856, -0.7453739730437919,
        -1.9610406120259982, -1.1035735810564709, -0.39026930640214436,
        -0.5880578591509568, -0.5640606062297658]
    edge = NoisePlan(2 ** 64 - 1).gaussians(FAST, 2 ** 48 - 3, 3, 1, 1, extra=2 ** 16 - 1)
    assert edge.ravel().tolist() == [-1.7690653270852583, 1.2238860179168223,
                                     0.7832525160161844]
    wide = NoisePlan(7).gaussians(FROZEN, 2 ** 40, 1, 3, 2 ** 16).ravel()
    assert wide[[0, 1, -1]].tolist() == [-2.140490772991871, 0.1704593713508872,
                                         -1.426351291410882]
    base = NoisePlan(42)
    assert base.derive(4242, 0).seed == 2065663018272311592
    assert base.derive(9001).seed == 5039835847134209703
    assert base.derive().seed == 3169299812854106338
    assert base.derive(2 ** 48 - 1, 2 ** 32 - 1, 2 ** 32 - 1).seed == 18175552821301824146


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


def test_windows_cover_an_odd_start_to_a_mid_window_stop_once(monkeypatch):
    # 5 steps' normals round up to windows of 8 steps (two counter groups);
    # from step 7 to step 38: [7, 15), [15, 23), [23, 31), [31, 38), each
    # stream bitwise one draw of the whole range
    plans = [NoisePlan(5).derive(4242, rep) for rep in range(2)]
    streams = [(SLOW, 1), (FAST, 3)]
    monkeypatch.setattr(noise, "NOISE_WINDOW_NORMALS", 5 * 4 * 3)
    got = list(noise.windows(plans, streams, 7, 38, 4))
    assert [(k, len(d[0])) for k, d in got] == [(7, 8), (15, 8), (23, 8), (31, 7)]
    for i, (kind, modes) in enumerate(streams):
        joined = np.concatenate([d[i] for _, d in got])
        assert np.array_equal(joined, draw(plans, kind, 7, 31, 4, modes))
    assert list(noise.windows(plans, streams, 38, 38, 4)) == []


def test_particle_offset_draws_a_slice_of_the_particles():
    plan = NoisePlan(3)
    whole = plan.gaussians(FROZEN, 5, 7, 10, 2, 4)
    assert np.array_equal(plan.gaussians(FROZEN, 5, 7, 3, 2, 4, 6), whole[:, 6:9])
    assert plan.gaussians(FROZEN, 0, 2, 2, 1, 0, 2 ** 32 - 2).shape == (2, 2, 1)
    for first, n_particles in ((-1, 1), (2 ** 32 - 1, 2), (2 ** 32, 1)):
        with pytest.raises(ValueError, match="particle counter"):
            plan.gaussians(FROZEN, 0, 1, n_particles, 1, 0, first)


def test_lattice_windows_address_particle_replica_and_mode(monkeypatch):
    # windows of 4 steps (one counter group) over 15 steps; particle runs
    # 10..12 and 20..21, two replicas on the extra field, three modes: each
    # slice is the per-plan, per-replica draw of its particles
    monkeypatch.setattr(noise, "NOISE_WINDOW_NORMALS", 200)
    plans = [NoisePlan(1), NoisePlan(2)]
    runs = [(10, 3), (20, 2)]
    starts, draws = zip(*noise.lattice_windows(plans, runs, 2, 3, 15))
    assert starts == (0, 4, 8, 12)
    xi = np.concatenate(draws)
    assert xi.shape == (15, 2, 5, 2, 3)
    for r, plan in enumerate(plans):
        for m in range(2):
            want = np.concatenate([plan.gaussians(FROZEN, 0, 15, n, 3, m, first)
                                   for first, n in runs], axis=1)
            assert np.array_equal(xi[:, r, :, m], want)
