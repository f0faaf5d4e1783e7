"""Counter-based Gaussian noise streams for particle simulations.

Every Gaussian increment is a pure function of (seed, stream, step), where a
stream is identified by (kind, particle index, mode index, extra).  This gives

  * bitwise reproducibility independent of chunking, scheduling or worker
    count,
  * common-random-number coupling for free: two simulations built on the same
    seed that ask for the same stream ids consume identical increments,
  * cheap skipping: noise for any step window can be generated on demand.

The generator is numpy's Philox 4x64-10 counter-based block cipher (Salmon et
al., SC'11), run in C, feeding a Box-Muller transform.  One cipher block gives
four 64-bit words, two Box-Muller pairs, and serves a group of four steps of
one particle: the pairs give steps 4g, 4g + 1 (cos, sin) and 4g + 2, 4g + 3.
Each pair's cos and sin come from t = tan(theta / 2) as (1 - t^2) / (1 + t^2)
and 2t / (1 + t^2), which costs one vectorised tan in place of libm's cos
and sin.

The words rest on numpy's promise to keep the raw streams of its
BitGenerators stable (NEP 19).  The normals also rest on numpy's float64
``log`` and ``tan``, which follow numpy's CPU dispatch: with the AVX-512
kernels disabled (``NPY_DISABLE_CPU_FEATURES``), 937 of 200,000 normals
differed, by at most 6.7e-16.  So the bits hold at any worker count and
chunk size on one machine and numpy build, not across CPU dispatch levels.

``windows`` is the one feed of noise to the steppers: the runners (through
``integrate.march``) and the frozen marcher advance window by window through
it, and it is the only caller of ``draw``.  ``lattice_windows`` is its
sibling for the chains of an fbar lattice (``averaging``), whose streams
are addressed by lattice node, frozen replica and chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Version of the (seed, stream, step) -> normal map: 4 builds each Box-Muller
# pair from tan of the half-angle; 3 read the same numpy C Philox 4x64-10
# words, one block per group of four steps, through cos and sin (2 used a
# hand-rolled 4x32 cipher, one counter per pair of steps; 1 drew one counter
# per step).
STREAM_VERSION = 4

# Steps per counter group: a draw covers whole groups.
GROUP_STEPS = 4

# stream kinds; part of the on-disk determinism contract, do not renumber
SLOW = 0        # slow-component Wiener increments (shared by full/averaged runs)
FAST = 1        # fast-component increments (shared by the block-frozen auxiliary)
FROZEN = 2      # frozen-equation runs
SLOW_ALT = 3    # decoupled slow noise for variance-reduction control runs
INIT = 4        # no longer drawn; kept so that no kind is ever reused
_DERIVE = 7     # internal: sub-seed derivation

# Normals per stream and plan in one window of ``windows`` (rounded up to
# whole counter groups).  A draw has a fixed cost per call and per counter
# set, which a window shares among many advances.  On a 2-vCPU x86_64 host,
# under stream version 4, the linear benchmark's eps = 0.01 job (N = 500, two
# plans) took a median 0.52 s of CPU at 32768 against 0.50 s at 16384 and
# 0.52 s at 65536 (12 interleaved runs each).  16384 was faster on the job,
# but not in the benchmark's studies: six pairs per workload read study
# times of 1.000x on linear-exact (faster in 4 of 6), 0.995x on cubic-hmm
# (2 of 6), 1.032x on porous-spde (1 of 6) and 0.970x on linear-pool (3 of 6).
NOISE_WINDOW_NORMALS = 32768

# counter field limits (see NoisePlan); a value past its field would alias
# another stream, so gaussians and derive refuse it
STEP_LIMIT = 2 ** 48
PARTICLE_LIMIT = 2 ** 32
FIELD16_LIMIT = 2 ** 16


# One generator serves every draw (not thread-safe): a draw sets the whole
# state it reads, key and counter, through one reused state dict, then walks
# the particles in one ``random_raw`` call, so no draw sees another's state.
# The dict holds lists, not arrays: numpy's state setter reads them in 0.8 us
# against 1.8 us, and a lattice draw sets one counter per 17 to 34 particles.
_COUNTER = [0, 0, 0, 0]
_KEY = [0, 0]
_STATE = {"bit_generator": "Philox", "state": {"counter": _COUNTER, "key": _KEY},
          "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
_PHILOX = np.random.Philox(0)       # a fixed seed reads no OS entropy at import
# Uniforms are built by bits: the top 52 bits of a word under the exponent
# of 1.0 give a float64 in [1, 2), with no integer conversion.
_MANTISSA_SHIFT = np.uint64(12)
_EXPONENT_ONE = np.uint64(0x3FF0000000000000)


@dataclass(frozen=True)
class NoisePlan:
    """Deterministic Gaussian source keyed by a 64-bit seed.

    Particle p of stream (kind, mode, extra) reads, for steps 4g .. 4g + 3,
    the Philox 4x64-10 block of key (seed, 0) after the counter

        (p | mode << 32 | extra << 48,  g,  kind,  0)

    (numpy's Philox adds one to its counter before each block, so the
    stream's own counter is the one a draw sets).  One ``random_raw`` call
    from the counter of particle p walks the particles after it.  The
    block's four words give two Box-Muller pairs, radius word then angle
    word.  A word's top 52 bits give u in [1, 2); a pair's radius is
    r = sqrt(-2 log(2 - u)), its half-angle pi (u - 1.5) in [-pi/2, pi/2)
    gives t = tan(pi (u - 1.5)), and with rho = r / (1 + t^2) its outputs
    are cos = (1 - t^2) rho and sin = (2t) rho, which are r cos and r sin of
    the angle 2 pi (u - 1.5).  Steps 4g and 4g + 1 take the cos and sin
    outputs of the first pair, steps 4g + 2 and 4g + 3 those of the second.
    Steps lie below 2^48, particles below 2^32, and kind, mode and extra
    below 2^16; requests outside these fields raise ValueError, so the map
    from stream and step to block is one to one.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    def gaussians(self, kind, step_start, n_steps, n_particles, n_modes, extra=0,
                  first_particle=0):
        """Standard normals of shape (n_steps, n_particles, n_modes).

        The particles are ``first_particle`` and the ``n_particles - 1``
        after it.  The draw covers whole groups of four steps; a window that
        starts or ends mid-group computes the group's other steps and drops
        them, so any window gives the same bits as a slice of a larger one.
        """
        if not 0 <= step_start <= step_start + n_steps <= STEP_LIMIT:
            raise ValueError(f"steps [{step_start}, {step_start + n_steps}) "
                             "outside the 48-bit step counter")
        if not 0 <= first_particle <= first_particle + n_particles <= PARTICLE_LIMIT:
            raise ValueError(f"particles [{first_particle}, {first_particle + n_particles}) "
                             "outside the 32-bit particle counter")
        if not 0 <= n_modes <= FIELD16_LIMIT:
            raise ValueError(f"n_modes={n_modes} outside the 16-bit mode counter")
        if not 0 <= extra < FIELD16_LIMIT:
            raise ValueError(f"extra={extra} outside its 16-bit field")
        if not 0 <= kind < FIELD16_LIMIT:
            raise ValueError(f"kind={kind} outside its 16-bit field")
        g0 = step_start // GROUP_STEPS
        G = -(-(step_start + n_steps) // GROUP_STEPS) - g0
        words = np.empty((G, n_modes, 4 * n_particles), np.uint64)
        base = int(first_particle) | int(extra) << 48
        _KEY[0] = int(self.seed)
        _COUNTER[2] = int(kind)
        for g in range(G):
            _COUNTER[1] = g0 + g
            for m in range(n_modes):
                _COUNTER[0] = base | m << 32
                _PHILOX.state = _STATE
                words[g, m] = _PHILOX.random_raw(4 * n_particles)
        # one transposing copy to (radius/angle, group, pair, particle, mode),
        # so that the transform runs on contiguous halves: numpy buffers a
        # ufunc over a strided half, where a multiply took 2-2.5x as long
        u = np.empty((2, G, 2, n_particles, n_modes), np.uint64)
        np.right_shift(words.reshape(G, n_modes, n_particles, 2, 2).transpose(4, 0, 3, 2, 1),
                       _MANTISSA_SHIFT, out=u)
        np.bitwise_or(u, _EXPONENT_ONE, out=u)
        radius, t = u.view(np.float64)
        np.subtract(2.0, radius, out=radius)        # in (0, 1], exact
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        # t = tan(theta / 2) for theta = 2 pi (u - 1.5) in [-pi, pi): numpy's
        # tan is vectorised, its cos and sin call libm per element
        t -= 1.5
        t *= np.pi
        np.tan(t, out=t)
        # the words are read: their buffer holds t^2 and 1 + t^2
        t2, q = words.view(np.float64).reshape(u.shape)
        np.multiply(t, t, out=t2)
        np.add(t2, 1.0, out=q)
        radius /= q                                 # r / (1 + t^2)
        np.subtract(1.0, t2, out=t2)                # 1 - t^2
        t *= 2.0
        z = np.empty((G, 2, 2, n_particles, n_modes))
        np.multiply(t2, radius, out=z[:, :, 0])     # r (1 - t^2) / (1 + t^2)
        np.multiply(t, radius, out=z[:, :, 1])      # r 2t / (1 + t^2)
        first = step_start - GROUP_STEPS * g0
        return z.reshape((GROUP_STEPS * G, n_particles, n_modes))[first:first + n_steps]

    def derive(self, *tags):
        """Hash (seed, tags) into a fresh 64-bit seed for an independent plan.

        Used to hand disjoint noise universes to replications and embedded
        frozen runs without coordinating step offsets.  At most three
        non-negative integer tags: the first below 2^48, the others below 2^32.
        The seed is the first word of the block after the counter
        (tag1 | tag2 << 32, tag0, _DERIVE, 0), absent tags 0.
        """
        if len(tags) > 3:
            raise ValueError(f"derive takes at most 3 tags, got {len(tags)}")
        for i, tag in enumerate(tags):
            limit = STEP_LIMIT if i == 0 else PARTICLE_LIMIT
            if not isinstance(tag, (int, np.integer)) or not 0 <= tag < limit:
                raise ValueError(f"derive tag {i} must be an integer in [0, {limit}), "
                                 f"got {tag!r}")
        t = [int(tag) for tag in tags] + [0, 0, 0]
        _KEY[0] = int(self.seed)
        _COUNTER[:3] = t[1] | t[2] << 32, t[0], _DERIVE
        _PHILOX.state = _STATE
        return NoisePlan(int(_PHILOX.random_raw()))


def draw(plans, kind, step_start, n_steps, n_particles, n_modes):
    """Normals of shape (n_steps, R, n_particles, n_modes) from a sequence of R plans.

    Slice r is drawn by ``plans[r].gaussians``, so a batch consumes exactly
    the numbers its plans would draw one at a time.
    """
    if len(plans) == 1:
        # a view of the one draw: filling a second array of the same size
        # made the one-replication benchmark workloads 2-6% slower
        return plans[0].gaussians(kind, step_start, n_steps, n_particles, n_modes)[:, None]
    out = np.empty((n_steps, len(plans), n_particles, n_modes))
    for r, plan in enumerate(plans):
        out[:, r] = plan.gaussians(kind, step_start, n_steps, n_particles, n_modes)
    return out


def windows(plans, streams, start: int, stop: int, n_particles: int):
    """Consecutive noise windows covering steps [start, stop), as (first step, draws).

    ``streams`` lists (kind, n_modes) pairs and ``draws`` holds one
    (n_win, R, N, n_modes) draw of each.  Windows count from ``start`` and
    have a whole number of counter groups, so a march from a group boundary
    computes no step only to drop it.
    """
    per_step = n_particles * max(modes for _, modes in streams)
    window = GROUP_STEPS * math.ceil(NOISE_WINDOW_NORMALS / (GROUP_STEPS * per_step))
    for k in range(start, stop, window):
        n_win = min(window, stop - k)
        yield k, [draw(plans, kind, k, n_win, n_particles, modes) for kind, modes in streams]


def lattice_windows(plans, runs, replicas: int, n_modes: int, stop: int):
    """Consecutive FROZEN noise windows over steps [0, stop) for lattice streams.

    ``runs`` lists (first particle, count) ranges of stream particles, and
    path (particle p, replica m, mode i) of plan r reads stream (FROZEN,
    particle p, mode i, extra m).  Yields (first step, draw), the draw
    (n_win, R, P, replicas, n_modes) with the runs' particles in order on
    axis 2.  Windows hold whole counter groups, as in ``windows``, and hold a
    quarter of its ``NOISE_WINDOW_NORMALS`` per plan and replica: a lattice
    march runs inside the runners' march, whose windows it finds held.
    Under tracemalloc, the cubic-hmm benchmark study peaked at 2.18 MB with
    full-size lattice windows and 1.78 MB with quarter windows (stream
    version 4; one run each, 1.46 and 1.54 s).
    """
    counts = [count for _, count in runs]
    window = GROUP_STEPS * math.ceil(NOISE_WINDOW_NORMALS / (
        4 * GROUP_STEPS * sum(counts) * replicas * n_modes))
    ends = np.cumsum(counts)
    for k in range(0, stop, window):
        n_win = min(window, stop - k)
        out = np.empty((n_win, len(plans), ends[-1], replicas, n_modes))
        for r, plan in enumerate(plans):
            for m in range(replicas):
                for (first, count), end in zip(runs, ends):
                    out[:, r, end - count:end, m] = plan.gaussians(FROZEN, k, n_win, count,
                                                                   n_modes, m, first)
        yield k, out
