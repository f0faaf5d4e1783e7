"""Counter-based Gaussian noise streams for particle simulations.

Every Gaussian increment is a pure function of (seed, stream, step), where a
stream is identified by (kind, particle index, mode index, extra).  This gives

  * bitwise reproducibility independent of chunking, scheduling or worker
    count,
  * common-random-number coupling for free: two simulations built on the same
    seed that ask for the same stream ids consume identical increments,
  * cheap skipping: noise for any step window can be generated on demand.

The generator is a vectorised Philox-style 4x32 counter block cipher (10
rounds) feeding a Box-Muller transform.  One cipher call yields two 53-bit
uniforms and two standard normals per counter, and a counter serves a pair
of steps: the cos output is the even step's normal and the sin output the
odd step's.

``windows`` is the one feed of noise to the steppers: every runner and the
frozen marcher advance window by window through it, and it is the only
caller of ``draw``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Version of the (seed, stream, step) -> normal map: 2 draws one counter per
# pair of steps and uses both Box-Muller outputs (1 drew one per step).
STREAM_VERSION = 2

# stream kinds; part of the on-disk determinism contract, do not renumber
SLOW = 0        # slow-component Wiener increments (shared by full/averaged runs)
FAST = 1        # fast-component increments (shared by the block-frozen auxiliary)
FROZEN = 2      # frozen-equation runs
SLOW_ALT = 3    # decoupled slow noise for variance-reduction control runs
INIT = 4        # no longer drawn; kept so that no kind is ever reused
_DERIVE = 7     # internal: sub-seed derivation

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_INV53 = float(2.0 ** -53)

# Normals per stream and plan in one window of ``windows`` (rounded up to an
# even step count).  A draw has a fixed cost of about a hundred numpy calls,
# which a window shares among many advances.  On a 2-vCPU x86_64 host the
# linear benchmark's eps = 0.01 job (N = 500, two plans) ran 4% faster at
# 32768 than at 16384, and 11% slower at 65536, whose windows outgrow L2.
NOISE_WINDOW_NORMALS = 32768

# counter field limits (see NoisePlan); a value past its field would alias
# another stream, so gaussians and derive refuse it
STEP_LIMIT = 2 ** 48
_PARTICLE_LIMIT = 2 ** 32
_FIELD16_LIMIT = 2 ** 16


_SHIFT32 = np.uint64(32)


def _philox(c0, c1, c2, c3, k0, k1):
    """Run the 10-round 4x32 block cipher on broadcastable uint64 words.

    Inputs hold 32-bit values in uint64 containers (avoids dtype churn) and
    the rounds run in place on preallocated buffers.  Returns four mixed
    32-bit words.
    """
    shape = np.broadcast_shapes(np.shape(c0), np.shape(c1), np.shape(c2), np.shape(c3))
    x0 = np.empty(shape, np.uint64); x0[...] = c0
    x1 = np.empty(shape, np.uint64); x1[...] = c1
    x2 = np.empty(shape, np.uint64); x2[...] = c2
    x3 = np.empty(shape, np.uint64); x3[...] = c3
    p0 = np.empty(shape, np.uint64)
    p1 = np.empty(shape, np.uint64)
    for _ in range(10):
        np.multiply(_M0, x0, out=p0)
        np.multiply(_M1, x2, out=p1)
        np.right_shift(p1, _SHIFT32, out=x0)
        np.bitwise_xor(x0, x1, out=x0)
        np.bitwise_xor(x0, k0, out=x0)
        np.bitwise_and(p1, _MASK32, out=x1)
        np.right_shift(p0, _SHIFT32, out=x2)
        np.bitwise_xor(x2, x3, out=x2)
        np.bitwise_xor(x2, k1, out=x2)
        np.bitwise_and(p0, _MASK32, out=x3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return x0, x1, x2, x3


def _normals_from_words(w0, w1, w2, w3):
    """Both Box-Muller outputs per counter, shape (pairs, 2, ...): cos, then sin."""
    # a 53-bit uniform strictly inside (0,1) for the radius, and an angle
    # strictly inside (-pi, pi): numpy's cos and sin are about 20% faster
    # there than on (0, 2 pi), and the angle is uniform on the circle either way
    np.left_shift(w0, np.uint64(21), out=w0)
    np.right_shift(w1, np.uint64(11), out=w1)
    np.bitwise_or(w0, w1, out=w0)
    u1 = w0.astype(np.float64)
    u1 += 0.5
    u1 *= _INV53
    np.left_shift(w2, np.uint64(21), out=w2)
    np.right_shift(w3, np.uint64(11), out=w3)
    np.bitwise_or(w2, w3, out=w2)
    angle = w2.astype(np.float64)
    angle += 0.5 - 2.0 ** 52     # exact: w2 - 2^52 + 1/2 needs 53 bits
    angle *= 2.0 * np.pi * _INV53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    out = np.empty((angle.shape[0], 2) + angle.shape[1:])
    np.cos(angle, out=out[:, 0])
    np.sin(angle, out=out[:, 1])
    out *= u1[:, None]
    return out


@dataclass(frozen=True)
class NoisePlan:
    """Deterministic Gaussian source keyed by a 64-bit seed.

    The counter layout packs (step pair, kind, particle, mode, extra) so
    that distinct streams never share a counter:

        word0 = pair low 32 bits             (pair = step >> 1)
        word1 = pair bits 32..46 | kind << 16
        word2 = particle index
        word3 = mode | extra << 16

    Steps 2p and 2p + 1 share counter p: the even step takes the cos output
    of its Box-Muller transform and the odd step the sin output.  Steps lie
    below 2^48, particles below 2^32, and kind, mode and extra below 2^16;
    requests outside these fields raise ValueError.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    def _keys(self):
        s = int(self.seed)
        return np.uint64(s & 0xFFFFFFFF), np.uint64((s >> 32) & 0xFFFFFFFF)

    def gaussians(self, kind, step_start, n_steps, n_particles, n_modes, extra=0):
        """Standard normals of shape (n_steps, n_particles, n_modes).

        The draw covers whole step pairs; a window that starts or ends
        mid-pair computes the partner step and drops it, so any window gives
        the same bits as a slice of a larger one.
        """
        if not 0 <= step_start <= step_start + n_steps <= STEP_LIMIT:
            raise ValueError(f"steps [{step_start}, {step_start + n_steps}) "
                             "outside the 48-bit step counter")
        if not 0 <= n_particles <= _PARTICLE_LIMIT:
            raise ValueError(f"n_particles={n_particles} outside the 32-bit particle counter")
        if not 0 <= n_modes <= _FIELD16_LIMIT:
            raise ValueError(f"n_modes={n_modes} outside the 16-bit mode counter")
        if not 0 <= extra < _FIELD16_LIMIT:
            raise ValueError(f"extra={extra} outside its 16-bit field")
        if not 0 <= kind < _FIELD16_LIMIT:
            raise ValueError(f"kind={kind} outside its 16-bit field")
        pairs = np.arange(step_start >> 1, (step_start + n_steps + 1) >> 1, dtype=np.uint64)
        c0 = (pairs & _MASK32)[:, None, None]
        c1 = ((pairs >> np.uint64(32)) | np.uint64(kind << 16))[:, None, None]
        c2 = np.arange(n_particles, dtype=np.uint64)[None, :, None]
        c3 = (np.arange(n_modes, dtype=np.uint64) | np.uint64(extra << 16))[None, None, :]
        k0, k1 = self._keys()
        z = _normals_from_words(*_philox(c0, c1, c2, c3, k0, k1))
        first = step_start & 1
        return z.reshape((2 * len(pairs), n_particles, n_modes))[first:first + n_steps]

    def derive(self, *tags):
        """Hash (seed, tags) into a fresh 64-bit seed for an independent plan.

        Used to hand disjoint noise universes to replications and embedded
        frozen runs without coordinating step offsets.  At most three
        non-negative integer tags: the first below 2^48, the others below 2^32.
        """
        if len(tags) > 3:
            raise ValueError(f"derive takes at most 3 tags, got {len(tags)}")
        for i, tag in enumerate(tags):
            limit = STEP_LIMIT if i == 0 else _PARTICLE_LIMIT
            if not isinstance(tag, (int, np.integer)) or not 0 <= tag < limit:
                raise ValueError(f"derive tag {i} must be an integer in [0, {limit}), "
                                 f"got {tag!r}")
        t = list(tags) + [0, 0, 0]
        c0 = np.uint64(t[0] & 0xFFFFFFFF)
        c1 = np.uint64(((t[0] >> 32) & 0xFFFF) | (_DERIVE << 16))
        c2 = np.uint64(t[1] & 0xFFFFFFFF)
        c3 = np.uint64(t[2] & 0xFFFFFFFF)
        k0, k1 = self._keys()
        w0, w1, _, _ = _philox(c0, c1, c2, c3, k0, k1)
        return NoisePlan(int((int(w0) << 32) | int(w1)))


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
    have an even step count, so a march from an even step computes no partner
    step only to drop it.
    """
    per_step = n_particles * max(modes for _, modes in streams)
    window = 2 * math.ceil(NOISE_WINDOW_NORMALS / (2 * per_step))
    for k in range(start, stop, window):
        n_win = min(window, stop - k)
        yield k, [draw(plans, kind, k, n_win, n_particles, modes) for kind, modes in streams]
