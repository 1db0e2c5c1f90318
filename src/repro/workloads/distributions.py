"""Request distributions, following the YCSB generators [7].

The zipfian generator is Gray et al.'s constant-time algorithm as used
by YCSB, with the standard theta = 0.99.  The scrambled variant spreads
the popular items across the keyspace with an FNV hash; the latest
variant skews towards recently inserted items (workload D).
"""

from __future__ import annotations

import random

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv64(value: int) -> int:
    """FNV-1a hash of an integer, as used by YCSB's scrambled zipfian."""
    h = _FNV_OFFSET
    for _ in range(8):
        byte = value & 0xFF
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class UniformGenerator:
    """Uniform choice over [0, n)."""

    def __init__(self, n: int, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.n)

    def grow(self, n: int) -> None:
        self.n = n


class ZipfianGenerator:
    """Gray's zipfian generator over [0, n), theta = 0.99 by default.

    Item 0 is the most popular.  ``grow`` supports YCSB's expanding
    keyspace by recomputing zeta incrementally.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 2) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.theta = theta
        self._rng = random.Random(seed)
        self.n = n
        self._zeta_n = self._zeta(0, n)
        self._update_constants()

    def _zeta(self, start: int, end: int, base: float = 0.0) -> float:
        total = base
        for i in range(start, end):
            total += 1.0 / ((i + 1) ** self.theta)
        return total

    def _update_constants(self) -> None:
        self._alpha = 1.0 / (1.0 - self.theta)
        self._zeta2 = self._zeta(0, 2)
        self._eta = (1 - (2.0 / self.n) ** (1 - self.theta)) / (
            1 - self._zeta2 / self._zeta_n
        )

    def grow(self, n: int) -> None:
        """Extend the item space (used by insert-heavy workloads)."""
        if n <= self.n:
            return
        self._zeta_n = self._zeta(self.n, n, self._zeta_n)
        self.n = n
        self._update_constants()

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)


class ScrambledZipfianGenerator:
    """Zipfian popularity spread over the keyspace by hashing."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 3) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, seed)

    def next(self) -> int:
        return fnv64(self._zipf.next()) % self.n

    def grow(self, n: int) -> None:
        self.n = n
        self._zipf.grow(n)


class LatestGenerator:
    """Skewed towards the most recently inserted items (workload D)."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 4) -> None:
        self._zipf = ZipfianGenerator(n, theta, seed)
        self.n = n

    def next(self) -> int:
        offset = self._zipf.next()
        return max(0, self.n - 1 - offset)

    def grow(self, n: int) -> None:
        self.n = n
        self._zipf.grow(n)


def make_generator(kind: str, n: int, seed: int = 7):
    """Factory by distribution name used in workload specs."""
    if kind == "uniform":
        return UniformGenerator(n, seed)
    if kind == "zipfian":
        return ScrambledZipfianGenerator(n, seed=seed)
    if kind == "latest":
        return LatestGenerator(n, seed=seed)
    raise ValueError(f"unknown distribution {kind!r}")
