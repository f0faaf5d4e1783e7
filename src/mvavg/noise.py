"""Counter-based Gaussian noise streams for particle simulations.

Every Gaussian increment is a pure function of (seed, stream, step), where a
stream is identified by (kind, particle index, mode index, extra).  This gives

  * bitwise reproducibility independent of chunking, scheduling or worker
    count,
  * common-random-number coupling for free: two simulations built on the same
    seed that ask for the same stream ids consume identical increments,
  * cheap skipping: noise for any step window can be generated on demand.

The generator is a vectorised Philox-style 4x32 counter block cipher (10
rounds) feeding a Box-Muller transform; one cipher call yields two 53-bit
uniforms and exactly one standard normal per counter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

# counter field limits (see NoisePlan); a value past its field would alias
# another stream, so gaussians and derive refuse it
_STEP_LIMIT = 2 ** 48
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
    # two 53-bit uniforms per counter, strictly inside (0,1); Box-Muller
    np.left_shift(w0, np.uint64(21), out=w0)
    np.right_shift(w1, np.uint64(11), out=w1)
    np.bitwise_or(w0, w1, out=w0)
    u1 = w0.astype(np.float64)
    u1 += 0.5
    u1 *= _INV53
    np.left_shift(w2, np.uint64(21), out=w2)
    np.right_shift(w3, np.uint64(11), out=w3)
    np.bitwise_or(w2, w3, out=w2)
    u2 = w2.astype(np.float64)
    u2 += 0.5
    u2 *= _INV53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


@dataclass(frozen=True)
class NoisePlan:
    """Deterministic Gaussian source keyed by a 64-bit seed.

    The counter layout packs (step, kind, particle, mode, extra) so that
    distinct streams never share a counter:

        word0 = step low 32 bits
        word1 = step bits 32..47 | kind << 16
        word2 = particle index
        word3 = mode | extra << 16

    so steps lie below 2^48, particles below 2^32, and kind, mode and extra
    below 2^16; requests outside these fields raise ValueError.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    def _keys(self):
        s = int(self.seed)
        return np.uint64(s & 0xFFFFFFFF), np.uint64((s >> 32) & 0xFFFFFFFF)

    def gaussians(self, kind, step_start, n_steps, n_particles, n_modes, extra=0):
        """Standard normals of shape (n_steps, n_particles, n_modes)."""
        if not 0 <= step_start <= step_start + n_steps <= _STEP_LIMIT:
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
        steps = np.arange(step_start, step_start + n_steps, dtype=np.uint64)
        c0 = (steps & _MASK32)[:, None, None]
        c1 = ((steps >> np.uint64(32)) | np.uint64(kind << 16))[:, None, None]
        c2 = np.arange(n_particles, dtype=np.uint64)[None, :, None]
        c3 = (np.arange(n_modes, dtype=np.uint64) | np.uint64(extra << 16))[None, None, :]
        k0, k1 = self._keys()
        return _normals_from_words(*_philox(c0, c1, c2, c3, k0, k1))

    def derive(self, *tags):
        """Hash (seed, tags) into a fresh 64-bit seed for an independent plan.

        Used to hand disjoint noise universes to replications and embedded
        frozen runs without coordinating step offsets.  At most three
        non-negative integer tags: the first below 2^48, the others below 2^32.
        """
        if len(tags) > 3:
            raise ValueError(f"derive takes at most 3 tags, got {len(tags)}")
        for i, tag in enumerate(tags):
            limit = _STEP_LIMIT if i == 0 else _PARTICLE_LIMIT
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
