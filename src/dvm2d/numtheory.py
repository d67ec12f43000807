"""Exact integer arithmetic for 64-bit inputs.

Primality, factorization, sums of two squares, and the splitting of
rational primes p = 1 (mod 4) into Gaussian primes x + iy.  Everything
here is deterministic: Miller-Rabin runs with a fixed base set valid for
all 64-bit integers, Pollard rho uses a fixed parameter schedule, and the
two-squares decomposition is canonicalized to x > y > 0.  Results are
plain values: a factorization is a list of (p, alpha) pairs, whose
Gaussian behaviour callers read from p % 4, and a prime's legs are one
(x, y) pair.  exact_terms reduces a float array to a few floats with the
same exact sum, so that one math.fsum of them is the array's exactly
rounded sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)

# Sufficient witness set for every n < psi_12 (Sorenson & Webster), so for all
# 64-bit inputs; psi_12 = 399165290221 * 798330580441 passes all twelve bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


@dataclass(frozen=True)
class GaussianSplitting:
    """Gaussian prime x + iy over p = x^2 + y^2, with theta = arg(x + iy);
    p divides n to the power alpha."""

    p: int
    alpha: int
    x: int
    y: int
    theta: float


@dataclass(frozen=True)
class GaussianFactorization:
    """The (p, alpha) factors of n, with splittings for p = 1 mod 4.

    ``splittings`` holds one entry per factor with p % 4 == 1, in the same
    ascending-p order as ``factors``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    splittings: tuple[GaussianSplitting, ...]

    @property
    def two_exponent(self) -> int:
        return dict(self.factors).get(2, 0)

    def is_sum_of_two_squares(self) -> bool:
        """True iff every prime q = 3 (mod 4) divides n to an even power."""
        return all(alpha % 2 == 0 for p, alpha in self.factors if p % 4 == 3)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_12 and refused above."""
    if n >= _PSI_12:
        raise PreconditionError(f"is_prime is only proven below {_PSI_12}, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite n.

    The (x0, c) schedule is fixed, so the factor found is reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m = 2 + c, 128
        g = r = q = 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover

_TRIAL_BOUND = 1000


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (p, alpha) pairs, ascending in p; factorize(1) == []."""
    if n < 1:
        raise PreconditionError(f"factorize requires n >= 1, got {n}")
    counts: dict[int, int] = {}
    for p in range(2, _TRIAL_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(counts.items())


def _sqrt_of_minus_one(p: int) -> int:
    """Smallest-witness square root of -1 mod p, for prime p = 1 (mod 4).

    Searches ascending for a quadratic non-residue a (Euler criterion);
    a^((p-1)/4) then squares to -1.
    """
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ArithmeticError(f"no quadratic non-residue below {p}")  # pragma: no cover


def two_squares_prime(p: int) -> tuple[int, int]:
    """Write a prime p = 1 (mod 4) as x^2 + y^2 with x > y > 0.

    Hermite-Serret reduction: run the Euclidean algorithm on (p, z) where
    z^2 = -1 (mod p); the first remainder below sqrt(p) is one leg.
    """
    if p % 4 != 1 or not is_prime(p):
        raise PreconditionError(f"{p} is not a prime congruent to 1 mod 4")
    z = _sqrt_of_minus_one(p)
    a, b = p, z
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    x = b
    y = math.isqrt(p - x * x)
    if x * x + y * y != p:  # pragma: no cover - Hermite-Serret guarantees this
        raise ArithmeticError(f"two-squares reduction failed for {p}")
    return max(x, y), min(x, y)


def gaussian_pow(x, y, m: int):
    """Re and Im of (x + iy)^m for m >= 0, exact for Python ints and
    elementwise for integer arrays, where the caller keeps the powers
    within the dtype."""
    re, im = 1, 0
    for _ in range(m):
        re, im = re * x - im * y, re * y + im * x
    return re, im


def gaussian_factorize(n: int) -> GaussianFactorization:
    """Factor n and split every p = 1 (mod 4) factor into Gaussian primes.

    theta is the only float in the result; the x, y legs satisfy
    x^2 + y^2 = p exactly and are checked as integers.
    """
    factors = tuple(factorize(n))
    splittings = []
    for p, alpha in factors:
        if p % 4 == 1:
            x, y = two_squares_prime(p)
            splittings.append(GaussianSplitting(p, alpha, x, y, math.atan2(y, x)))
    return GaussianFactorization(n, factors, tuple(splittings))


def exact_terms(values) -> list[float]:
    """Floats whose exact sum is that of values, at most two per binary exponent.

    math.fsum of them is the exactly rounded sum of values, so it equals
    math.fsum(values.tolist()) wherever that returns, at a fraction of the
    cost for a large array.  A finite float with exponent field E is an
    integer below 2^53 times the unit 2^(max(E, 1) - 1075).  Clearing its
    low 26 bits leaves a high part, a multiple of 2^26 units, and the rest
    is below 2^26 units; both parts are floats, exactly.  One np.bincount
    per part, keyed by E, adds them: below 2^26 values every partial sum
    is an integer below 2^53 of its bin's unit (2^26 units for the high
    parts), so each bin is exact in any order.  PreconditionError for 2^26
    values or more (checked before the data is read), for inf or nan, and
    for a bin whose sum overflows, where math.fsum raises OverflowError.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.size >= 1 << 26:
        raise PreconditionError(f"exact_terms sums fewer than 2^26 values, got {a.size}")
    a = a.ravel()
    if not np.isfinite(a).all():
        raise PreconditionError("exact_terms needs finite values")
    bits = a.view(np.int64)
    key = bits >> 52
    key &= 0x7FF  # E, whatever the sign
    high = (bits & -(1 << 26)).view(np.float64)
    sums = np.stack([np.bincount(key, high), np.bincount(key, a - high)])
    if not np.isfinite(sums).all():
        raise PreconditionError("exact_terms: a bin's sum overflows float64")
    return sums[sums != 0].tolist()
