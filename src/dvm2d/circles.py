"""Lattice points on circles and their angular statistics.

The central objects are the set of integer points on x^2 + y^2 = n, the
representation count r2(n), and the exponential sums

    S(n, k) = sum over points u of exp(i k theta_u).

Points are recovered exactly by Gaussian-integer multiplication from the
factorization of n, or, for every n up to a bound at once, from one sweep
over the lattice disk (circle_table); angles only ever enter in floating
point.  |S(n,k)|/4 is multiplicative in n and vanishes unless 4 | k, which
makes the closed form cheap enough to average over millions of circles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import IO

import numpy as np

from .errors import PreconditionError
from .numtheory import (
    GaussianFactorization,
    ResidueClass,
    factorize,
    gaussian_factorize,
)

QUARTER_TURN = math.pi / 2


def r2(n: int) -> int:
    """Number of integer solutions of x^2 + y^2 = n.

    Zero when some prime q = 3 (mod 4) divides n to an odd power,
    otherwise 4 * prod(alpha_p + 1) over prime factors p = 1 (mod 4).
    """
    if n < 1:
        raise PreconditionError(f"r2 requires n >= 1, got {n}")
    count = 4
    for f in factorize(n):
        if f.residue_class is ResidueClass.THREE_MOD4:
            if f.alpha % 2 == 1:
                return 0
        elif f.residue_class is ResidueClass.ONE_MOD4:
            count *= f.alpha + 1
    return count


@dataclass(frozen=True)
class CirclePointSet:
    """All integer points on the circle of squared radius n.

    Points are sorted by angle in [-pi, pi); the set is closed under the
    eight symmetries (x, y) -> (+-x, +-y), (+-y, +-x).
    """

    n: int
    xs: np.ndarray
    ys: np.ndarray
    angles: np.ndarray

    @property
    def count(self) -> int:
        return len(self.xs)

    @property
    def points(self) -> list[tuple[int, int]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))


def _complex_int_pow(z: tuple[int, int], e: int) -> tuple[int, int]:
    a, b = 1, 0
    x, y = z
    for _ in range(e):
        a, b = a * x - b * y, a * y + b * x
    return a, b


def circle_points_from(gf: GaussianFactorization) -> CirclePointSet:
    """Enumerate the circle of a pre-computed factorization.

    Combines one unit rotation k*pi/2, the fixed (1+i)^s factor from the
    power of two, q^(alpha/2) for inert primes, and every exponent split
    j vs alpha-j of each Gaussian prime pair.  Coordinates come out of
    exact integer multiplication; nothing is rounded.
    """
    n = gf.n
    if not gf.is_sum_of_two_squares():
        empty = np.array([], dtype=np.int64)
        return CirclePointSet(n, empty, empty, np.array([], dtype=np.float64))

    base = _complex_int_pow((1, 1), gf.two_exponent)
    for f in gf.factors:
        if f.residue_class is ResidueClass.THREE_MOD4:
            q_half = f.p ** (f.alpha // 2)
            base = (base[0] * q_half, base[1] * q_half)

    # Per split prime, the alpha+1 products pi^j * conj(pi)^(alpha-j).
    choice_lists: list[list[tuple[int, int]]] = []
    for s in gf.splittings:
        alpha = next(f.alpha for f in gf.factors if f.p == s.p)
        pi_pows = [_complex_int_pow((s.x, s.y), j) for j in range(alpha + 1)]
        conj_pows = [_complex_int_pow((s.x, -s.y), j) for j in range(alpha + 1)]
        choices = []
        for j in range(alpha + 1):
            a, b = pi_pows[j]
            c, d = conj_pows[alpha - j]
            choices.append((a * c - b * d, a * d + b * c))
        choice_lists.append(choices)

    xs: list[int] = []
    ys: list[int] = []
    for combo in _iproduct(*choice_lists):
        zx, zy = base
        for cx, cy in combo:
            zx, zy = zx * cx - zy * cy, zx * cy + zy * cx
        # The four unit rotations z, iz, -z, -iz.
        xs.extend((zx, -zy, -zx, zy))
        ys.extend((zy, zx, -zy, -zx))

    xa = np.asarray(xs, dtype=np.int64)
    ya = np.asarray(ys, dtype=np.int64)
    angles = np.arctan2(ya, xa)
    order = np.argsort(angles, kind="stable")
    return CirclePointSet(n, xa[order], ya[order], angles[order])


def circle_points(n: int) -> CirclePointSet:
    """All integer points on x^2 + y^2 = n, sorted by angle."""
    if n < 1:
        raise PreconditionError(f"circle_points requires n >= 1, got {n}")
    return circle_points_from(gaussian_factorize(n))


@dataclass(frozen=True)
class CircleTable:
    """Every circle x^2 + y^2 = n with 1 <= n <= limit, back to back.

    Circle n is the slice [starts[n], starts[n + 1]) of xs, ys and angles,
    sorted by angle as in circle_points; empty circles have empty slices.
    """

    limit: int
    starts: np.ndarray  # (limit + 2,) int64
    xs: np.ndarray  # int64
    ys: np.ndarray  # int64
    angles: np.ndarray  # float64

    def circle(self, n: int) -> CirclePointSet:
        lo, hi = int(self.starts[n]), int(self.starts[n + 1])
        return CirclePointSet(n, self.xs[lo:hi], self.ys[lo:hi], self.angles[lo:hi])


# The build holds x, y, n, the angle and the sort order, 8 bytes each, plus
# one sorted copy at a time (a traced peak of 45 bytes per point).  The disk
# has about pi * limit points and never more than 4 * limit, so a limit up
# to MAX_CIRCLE_TABLE_LIMIT keeps the build under 1 GiB.
CIRCLE_TABLE_BYTES_PER_POINT = 48
MAX_CIRCLE_TABLE_LIMIT = (1 << 30) // (4 * CIRCLE_TABLE_BYTES_PER_POINT)

_circle_cache: dict[str, CircleTable] = {}


def _build_circle_table(limit: int) -> CircleTable:
    k = math.isqrt(limit)
    heights = [math.isqrt(limit - x * x) for x in range(-k, k + 1)]
    total = sum(2 * m + 1 for m in heights) - 1  # the origin is left out
    xs = np.empty(total, dtype=np.int64)
    ys = np.empty(total, dtype=np.int64)
    at = 0
    for x, m in zip(range(-k, k + 1), heights):
        y = np.arange(-m, m + 1, dtype=np.int64)
        if x == 0:
            y = y[y != 0]
        xs[at : at + len(y)] = x
        ys[at : at + len(y)] = y
        at += len(y)
    n = xs * xs + ys * ys
    angles = np.arctan2(ys, xs)
    order = np.lexsort((angles, n))
    starts = np.zeros(limit + 2, dtype=np.int64)
    np.cumsum(np.bincount(n, minlength=limit + 1), out=starts[1:])
    del n
    xs = xs[order]
    ys = ys[order]
    angles = angles[order]
    for a in (starts, xs, ys, angles):
        a.flags.writeable = False
    return CircleTable(limit, starts, xs, ys, angles)


def circle_table(limit: int) -> CircleTable:
    """All circles 1 <= n <= limit from one sweep over the lattice disk.

    Each x-row of the disk x^2 + y^2 <= limit is laid down in turn; one
    lexsort by (n, angle) then cuts the points into circles, so no n is
    factorized.  Points, angles and their order equal circle_points(n)'s.
    Cached and grown monotonically; a limit above MAX_CIRCLE_TABLE_LIMIT
    raises PreconditionError before anything is allocated.
    """
    if limit < 0:
        raise PreconditionError(f"circle_table requires limit >= 0, got {limit}")
    if limit > MAX_CIRCLE_TABLE_LIMIT:
        raise PreconditionError(
            f"circle_table needs {CIRCLE_TABLE_BYTES_PER_POINT} bytes per point for "
            f"up to 4 * limit points; limit = {limit} exceeds MAX_CIRCLE_TABLE_LIMIT = "
            f"{MAX_CIRCLE_TABLE_LIMIT} (1 GiB)"
        )
    table = _circle_cache.get("table")
    if table is None or table.limit < limit:
        table = _circle_cache["table"] = _build_circle_table(limit)
    end = int(table.starts[limit + 1])
    return CircleTable(
        limit, table.starts[: limit + 2], table.xs[:end], table.ys[:end], table.angles[:end]
    )


@dataclass(frozen=True)
class ExpSumValue:
    """S(n, k) = sum of e^{ik theta_u} over the circle of squared radius n."""

    n: int
    k: int
    value: complex


def exp_sum_direct(n: int, k: int) -> ExpSumValue:
    """S(n, k) by direct summation over enumerated points."""
    pts = circle_points(n)
    if pts.count == 0:
        return ExpSumValue(n, k, 0j)
    value = complex(np.exp(1j * k * pts.angles).sum())
    return ExpSumValue(n, k, value)


def _split_factor_magnitude(x: float, alpha: int) -> float:
    """|sum_{j=0}^{alpha} e^{i (alpha - 2j) x}| = |sin((alpha+1)x) / sin(x)|."""
    s = math.sin(x)
    if abs(s) < 1e-12:
        return float(alpha + 1)
    return abs(math.sin((alpha + 1) * x) / s)


def exp_sum_closed(n: int, k: int) -> float:
    """|S(n, k)| from the multiplicative closed form.

    Zero when 4 does not divide k or when the circle is empty; otherwise
    4 * prod over p = 1 (mod 4) of |sum_j e^{ik(alpha_p - 2j) theta_p}|.
    Powers of two and even powers of inert primes only rotate the points,
    so they contribute factor 1.
    """
    if k % 4 != 0:
        return 0.0
    gf = gaussian_factorize(n)
    if not gf.is_sum_of_two_squares():
        return 0.0
    if k == 0:
        mag = 4.0
        for s in gf.splittings:
            alpha = next(f.alpha for f in gf.factors if f.p == s.p)
            mag *= alpha + 1
        return mag
    mag = 4.0
    for s in gf.splittings:
        alpha = next(f.alpha for f in gf.factors if f.p == s.p)
        mag *= _split_factor_magnitude(k * s.theta, alpha)
    return mag


# ---------------------------------------------------------------------------
# Sieve-backed machinery for averages over 1 <= m <= X.
# ---------------------------------------------------------------------------

def smallest_prime_factor_sieve(limit: int) -> np.ndarray:
    """spf[m] = smallest prime factor of m, for 0 <= m <= limit."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1] = 1
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            spf[i * i :: i][spf[i * i :: i] == 0] = i
    primes_mask = spf == 0
    primes_mask[:2] = False
    spf[primes_mask] = np.nonzero(primes_mask)[0]
    return spf


SIEVE_SEGMENT = 1 << 20


def factor_range(n_lo: int, n_hi: int, segment: int = SIEVE_SEGMENT):
    """Factor every n in [n_lo, n_hi], yielding (lo, powers, cofactor) per segment.

    ``powers`` lists (p, start, e) for each prime p <= sqrt(segment end),
    ascending: e[j] is the exponent of p in n = lo + start + j*p.
    ``cofactor[i]`` is what is left of lo + i, 1 or a prime above every p
    in ``powers``.  Each power q = p^j touches only the multiples of q, so
    a segment costs about size * log log n instead of size * pi(sqrt n).
    """
    if n_lo < 1:
        raise PreconditionError(f"factor_range requires n_lo >= 1, got {n_lo}")
    primes = smallest_prime_factor_sieve(math.isqrt(n_hi))
    primes = np.nonzero(primes == np.arange(len(primes)))[0][2:].tolist()
    for seg_lo in range(n_lo, n_hi + 1, segment):
        seg_hi = min(seg_lo + segment - 1, n_hi)
        rem = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
        ex = np.zeros(len(rem), dtype=np.int8)
        powers = []
        for p in primes:
            if p * p > seg_hi:
                break
            q = p
            while q <= seg_hi:
                start = -seg_lo % q
                rem[start::q] //= p
                ex[start::q] += 1
                q *= p
            start = -seg_lo % p
            powers.append((p, start, ex[start::p].copy()))
            ex[start::p] = 0
        yield seg_lo, powers, rem


def r2_range(n_lo: int, n_hi: int, segment: int = SIEVE_SEGMENT):
    """Yield (lo, r2 array) per segment of [n_lo, n_hi]: the r2 fold of factor_range.

    4 * prod (alpha_p + 1) over p = 1 (mod 4), or 0 where some q = 3 (mod 4)
    has an odd exponent, read from that prime's own exponents.
    """
    for lo, powers, c in factor_range(n_lo, n_hi, segment):
        dcount = np.where((c > 1) & (c & 3 == 1), 2, 1)
        bad = c & 3 == 3
        for p, start, e in powers:
            if p & 3 == 1:
                dcount[start::p] *= e + 1
            elif p & 3 == 3:
                bad[start::p] |= e & 1 == 1
        yield lo, np.where(bad, 0, 4 * dcount)


def prime_mask(limit: int) -> np.ndarray:
    """is_p[m] is True exactly when m is prime, for 0 <= m <= limit; one byte per m."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if is_p[i]:
            is_p[i * i :: i] = False
    return is_p


_theta_cache: dict[str, object] = {
    "limit": 0,
    "ps": np.empty(0, dtype=np.int64),
    "thetas": np.empty(0, dtype=np.float64),
}


def prime_angles(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Primes p <= limit with p = 1 (mod 4) and their angles theta_p = atan2(y, x).

    By Fermat each such p is x^2 + y^2 with x > y > 0 in exactly one way,
    so one sweep over the lattice pairs inside the circle of squared radius
    limit, kept where x^2 + y^2 is prime, yields every p with its legs; no
    primality test or square root of -1 runs.  Cached and grown
    monotonically.
    """
    if _theta_cache["limit"] < limit:
        is_p = prime_mask(limit)
        ps = [np.empty(0, dtype=np.int64)]
        thetas = [np.empty(0, dtype=np.float64)]
        for x in range(2, math.isqrt(limit) + 1):
            y = np.arange(1, min(x - 1, math.isqrt(limit - x * x)) + 1, dtype=np.int64)
            p = x * x + y * y
            keep = is_p[p]
            ps.append(p[keep])
            thetas.append(np.array([math.atan2(v, x) for v in y[keep].tolist()]))
        ps = np.concatenate(ps)
        order = np.argsort(ps)
        _theta_cache.update(
            limit=limit, ps=ps[order], thetas=np.concatenate(thetas)[order]
        )
    ps = _theta_cache["ps"]
    keep = ps <= limit
    return ps[keep], _theta_cache["thetas"][keep]


# A range statistic over 1 <= m <= X holds an 8-byte |S| value and a 1-byte
# prime flag per m; X up to MAX_RANGE_X keeps those 9 bytes per m in 2 GiB.
RANGE_BYTES_PER_M = 9
MAX_RANGE_X = (2 << 30) // RANGE_BYTES_PER_M

# landau_count sieves a 1-byte flag per m <= x.  mertens_check sieves the
# same flags, then holds each prime and two float arrays over the primes,
# 24 bytes per prime, which is under 2 bytes per m from x = 10**6 on.  x up
# to MAX_MASK_X keeps 2 bytes per m in 2 GiB.
MASK_BYTES_PER_M = 2
MAX_MASK_X = (2 << 30) // MASK_BYTES_PER_M


def _check_size(name: str, X: int, bytes_per_m: int, cap_name: str, cap: int) -> None:
    if X > cap:
        raise PreconditionError(
            f"{name} needs {bytes_per_m} bytes per m <= X; X = {X} exceeds "
            f"{cap_name} = {cap} (2 GiB)"
        )


def _check_range_size(name: str, X: int) -> None:
    _check_size(name, X, RANGE_BYTES_PER_M, "MAX_RANGE_X", MAX_RANGE_X)


def _check_mask_size(name: str, X: int) -> None:
    _check_size(name, X, MASK_BYTES_PER_M, "MAX_MASK_X", MAX_MASK_X)


@dataclass(frozen=True)
class AngleStatistics:
    """Mean of |S(m, k)| over 1 <= m <= X, with per-decade sub-means."""

    X: int
    k: int
    mean_abs_S: float
    decades: tuple[tuple[int, float], ...]
    vanishing_k: bool = False


def abs_S_closed_range(X: int, k: int) -> np.ndarray:
    """|S(m, k)| for all 0 <= m <= X via the closed form (index 0 unused).

    The |S| fold of factor_range: from 4, each split prime p multiplies in
    |sin((alpha+1) k theta_p) / sin(k theta_p)| from a table indexed by
    alpha, in ascending p like the per-m product; odd inert powers give 0.
    """
    ps, thetas = prime_angles(X)
    single = np.array([_split_factor_magnitude(k * t, 1) for t in thetas.tolist()])
    out = np.zeros(X + 1, dtype=np.float64)
    for lo, powers, c in factor_range(1, X):
        mag = out[lo : lo + len(c)]
        mag[:] = 4.0
        for p, start, e in powers:
            if p & 3 == 1:
                x = k * thetas[np.searchsorted(ps, p)]
                alphas = range(e.max(initial=0) + 1)
                table = np.array([_split_factor_magnitude(x, a) for a in alphas])
                mag[start::p] *= table[e]
            elif p & 3 == 3:
                mag[start::p][e & 1 == 1] = 0.0
        # The cofactor is a prime above every sieved p, so it comes last.
        split = (c > 1) & (c & 3 == 1)
        mag[split] *= single[np.searchsorted(ps, c[split])]
        mag[c & 3 == 3] = 0.0
    return out


def avg_abs_S(X: int, k: int) -> AngleStatistics:
    """Exact mean (1/X) sum_{m<=X} |S(m, k)| using the closed form.

    k must be a nonzero multiple of 4 for a nonvanishing result; other k
    are flagged and return an identically zero table.  Partial sums end
    at the decades, so a decade's mean does not depend on X.  X above
    MAX_RANGE_X = 238609294 (9 bytes per m in 2 GiB) raises
    PreconditionError before anything is allocated.
    """
    if X < 100:
        raise PreconditionError(f"avg_abs_S requires X >= 100, got {X}")
    _check_range_size("avg_abs_S", X)
    decades = [10**d for d in range(2, 1 + math.floor(math.log10(X))) ]
    decades = [d for d in decades if d <= X]
    if not decades or decades[-1] != X:
        decades.append(X)

    if k == 0 or k % 4 != 0:
        table = tuple((d, 0.0) for d in decades)
        return AngleStatistics(X, k, 0.0, table, vanishing_k=True)

    values = abs_S_closed_range(X, k)
    partials: list[float] = []
    lo = 1
    decade_means: list[tuple[int, float]] = []
    for hi in decades:
        partials.append(float(values[lo : hi + 1].sum()))
        decade_means.append((hi, math.fsum(partials) / hi))
        lo = hi + 1
    return AngleStatistics(X, k, decade_means[-1][1], tuple(decade_means))


def prime_angle_sum(x: int, k: int) -> float:
    """sum over primes p <= x, p = 1 (mod 4), of |cos(k theta_p)| / p.

    x above MAX_RANGE_X = 238609294 raises PreconditionError before
    anything is allocated, as in avg_abs_S.
    """
    if k % 4 != 0:
        raise PreconditionError(f"prime_angle_sum requires 4 | k, got k={k}")
    _check_range_size("prime_angle_sum", x)
    ps, thetas = prime_angles(x)
    if len(ps) == 0:
        return 0.0
    return float(np.sum(np.abs(np.cos(k * thetas)) / ps))


def mertens_check(x: int) -> float:
    """prod_{p<=x} (1 - 1/p) * log(x) * e^gamma; tends to 1 as x grows.

    x above MAX_MASK_X raises PreconditionError before anything is allocated.
    """
    if x < 10:
        raise PreconditionError(f"mertens_check requires x >= 10, got {x}")
    _check_mask_size("mertens_check", x)
    ps = np.flatnonzero(prime_mask(x))
    log_prod = float(np.log1p(-1.0 / ps).sum())
    return math.exp(log_prod + np.euler_gamma) * math.log(x)


def angular_discrepancy(n: int) -> float:
    """Star discrepancy of the circle angles folded mod pi/2.

    The four-fold unit symmetry makes the full-circle distribution
    trivially periodic, so the fold measures the spread that matters.
    """
    pts = circle_points(n)
    if pts.count == 0:
        raise PreconditionError(f"circle of squared radius {n} has no points")
    folded = np.sort(np.mod(pts.angles, QUARTER_TURN) / QUARTER_TURN)
    m = len(folded)
    i = np.arange(1, m + 1)
    return float(np.maximum(i / m - folded, folded - (i - 1) / m).max())


def landau_count(x: int) -> int:
    """Number of 1 <= n <= x that are sums of two squares.

    x above MAX_MASK_X raises PreconditionError before anything is allocated.
    """
    if x < 2:
        raise PreconditionError(f"landau_count requires x >= 2, got {x}")
    _check_mask_size("landau_count", x)
    mask = np.zeros(x + 1, dtype=bool)
    for a in range(math.isqrt(x) + 1):
        b = np.arange(math.isqrt(x - a * a) + 1)
        mask[a * a + b * b] = True
    return int(mask[1:].sum())


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def write_circle_csv(pts: CirclePointSet, fp: IO[str]) -> None:
    """Rows (n, x, y, theta) in angle order."""
    w = csv.writer(fp)
    w.writerow(["n", "x", "y", "theta"])
    for x, y, t in zip(pts.xs.tolist(), pts.ys.tolist(), pts.angles.tolist()):
        w.writerow([pts.n, x, y, f"{t:.17g}"])


def write_angle_stats_csv(stats: AngleStatistics, fp: IO[str]) -> None:
    """Rows (X, k, mean_abs_S), one per decade."""
    w = csv.writer(fp)
    w.writerow(["X", "k", "mean_abs_S"])
    for x_i, mean_i in stats.decades:
        w.writerow([x_i, stats.k, f"{mean_i:.17g}"])
