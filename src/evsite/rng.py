"""Portable deterministic PRNG (splitmix64 + xoshiro256**).

Pure 64-bit integer arithmetic, so identical seeds give identical streams on
every platform and Python version; scenario generation depends on that for
byte-stable outputs.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """xoshiro256** seeded via splitmix64."""

    def __init__(self, seed: int):
        s = seed & _MASK
        self._s = []
        for _ in range(4):
            s, v = _splitmix64(s)
            self._s.append(v)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] via rejection-free modulo (bias negligible
        at the ranges used here, and portable)."""
        return a + self.next_u64() % (b - a + 1)

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller; one fresh pair per call keeps the stream position
        independent of caller history."""
        u1 = self.random()
        while u1 <= 1e-300:
            u1 = self.random()
        u2 = self.random()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
