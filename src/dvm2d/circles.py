"""Lattice points on circles and their angular statistics.

The central objects are the set of integer points on x^2 + y^2 = n, the
representation count r2(n), and the exponential sums

    S(n, k) = sum over points u of exp(i k theta_u).

Points are recovered exactly by Gaussian-integer multiplication from the
factorization of n, or, for every n up to a bound at once, from the
lattice disk itself; angles only ever enter in floating point.  Every
sweep over the disk reads the octant 0 <= y <= x, whose eight images
(+-x, +-y), (+-y, +-x) cover the circles, from annulus_points, which
lays its points down row by row.  circle_table mirrors the octant into
the quarter x >= 1, y >= 0 and turns that into every circle up to a
bound, kept as points alone: each circle's (x, y) in circle_points'
angle order.  The range statistics share one R2_SEGMENT segment loop,
_octant_segments: r2_sweep bins each annulus's octant by n instead of
factorizing, counts the mirror images and hands the octant on with the
counts, so figure_data takes its box points from the same enumeration
(r2_range yields the counts alone), prime_angles keeps the points
on prime circles, and abs_S_sweep, the one |S| generator behind
abs_S_closed_range, avg_abs_S and the harness's equidistribution term,
bins the real part of ((x + iy) / sqrt(n))^k by n for each requested k,
counts the mirror images as r2_sweep does and evaluates |S| only at the
n whose circle has points.
exp_sum_direct returns S(n, k) for one n as a complex.  |S(n,k)|/4 is
multiplicative in n and vanishes unless 4 | k; for one n, exp_sum_closed
evaluates that closed form from the factorization, whose (p, alpha)
pairs it reads by p % 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, check_memory
from .numtheory import exact_terms, factorize, gaussian_factorize, gaussian_pow


def r2(n: int) -> int:
    """Number of integer solutions of x^2 + y^2 = n.

    Zero when some prime q = 3 (mod 4) divides n to an odd power,
    otherwise 4 * prod(alpha_p + 1) over prime factors p = 1 (mod 4).
    """
    if n < 1:
        raise PreconditionError(f"r2 requires n >= 1, got {n}")
    count = 4
    for p, alpha in factorize(n):
        if p % 4 == 3 and alpha % 2 == 1:
            return 0
        if p % 4 == 1:
            count *= alpha + 1
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


def circle_points(n: int) -> CirclePointSet:
    """All integer points on x^2 + y^2 = n, sorted by angle.

    Each point is a unit rotation k pi/2 of (1+i)^s times q^(beta/2) for
    every inert prime power q^beta and, per split prime p = pi conj(pi) to
    the power alpha, one of the alpha + 1 products pi^j conj(pi^(alpha - j)).
    Coordinates come out of exact integer multiplication; nothing is rounded.
    """
    if n < 1:
        raise PreconditionError(f"circle_points requires n >= 1, got {n}")
    gf = gaussian_factorize(n)
    if not gf.is_sum_of_two_squares():
        empty = np.array([], dtype=np.int64)
        return CirclePointSet(n, empty, empty, np.array([], dtype=np.float64))

    inert = math.prod(p ** (alpha // 2) for p, alpha in gf.factors if p % 4 == 3)
    zx, zy = (np.array([c * inert], dtype=object) for c in gaussian_pow(1, 1, gf.two_exponent))
    for s in gf.splittings:
        # a + ib = pi^j and cx + i cy = pi^j conj(pi^(alpha - j)), j = 0 .. alpha.
        a, b = np.array([gaussian_pow(s.x, s.y, j) for j in range(s.alpha + 1)], dtype=object).T
        cx, cy = a * a[::-1] + b * b[::-1], b * a[::-1] - a * b[::-1]
        zx, zy = np.outer(zx, cx) - np.outer(zy, cy), np.outer(zx, cy) + np.outer(zy, cx)
        zx, zy = zx.ravel(), zy.ravel()
    # The four unit rotations z, iz, -z, -iz of each point, in turn.
    xa = np.stack([zx, -zy, -zx, zy], axis=1).ravel().astype(np.int64)
    ya = np.stack([zy, zx, -zy, -zx], axis=1).ravel().astype(np.int64)
    angles = np.arctan2(ya, xa)
    order = np.argsort(angles, kind="stable")
    return CirclePointSet(n, xa[order], ya[order], angles[order])


@dataclass(frozen=True)
class CircleTable:
    """Every circle x^2 + y^2 = n with 1 <= n <= limit, back to back.

    Circle n is the slice [starts[n], starts[n + 1]) of xs and ys, in
    circle_points(n)'s angle order; empty circles have empty slices.
    """

    limit: int
    starts: np.ndarray  # (limit + 2,) int64
    xs: np.ndarray  # int64
    ys: np.ndarray  # int64


# The build holds x, y, n, the angle and the sort order, 8 bytes each, while
# it sorts, then x, y, the order and one sorted copy at a time (a traced peak
# of 40 bytes per point); the table keeps x and y.  The disk has about
# pi * limit points and never more than 4 * limit; the budget counts
# 4 * limit.
CIRCLE_TABLE_BYTES_PER_POINT = 48

_circle_cache: dict[str, CircleTable] = {}


def _build_circle_table(limit: int) -> CircleTable:
    x, count, y = annulus_points(1, limit, 0, math.isqrt(limit))
    x = np.repeat(x, count)
    off = (y > 0) & (y < x)  # their mirrors (y, x) complete the quarter
    x, y = np.concatenate((x, y[off])), np.concatenate((y, x[off]))
    xs = np.concatenate((x, -y, -x, y))
    ys = np.concatenate((y, x, -y, -x))
    del x, y, off
    n = xs * xs + ys * ys
    angles = np.arctan2(ys, xs)
    order = np.lexsort((angles, n))
    del angles
    starts = np.zeros(limit + 2, dtype=np.int64)
    np.cumsum(np.bincount(n, minlength=limit + 1), out=starts[1:])
    del n
    xs = xs[order]
    ys = ys[order]
    for a in (starts, xs, ys):
        a.flags.writeable = False
    return CircleTable(limit, starts, xs, ys)


def check_circle_table(limit: int) -> None:
    """Refuse a circle table whose 4 * limit points pass the memory budget."""
    what = f"circle_table({limit}): 4 * limit points"
    check_memory(what, 4 * limit, CIRCLE_TABLE_BYTES_PER_POINT)


def circle_table(limit: int) -> CircleTable:
    """All circles 1 <= n <= limit from one sweep over the lattice disk.

    annulus_points lays down the octant 0 <= y <= x of the disk
    x^2 + y^2 <= limit; with the mirrors (y, x) of its points 0 < y < x
    it gives the quarter x >= 1, y >= 0, whose four quarter turns cover
    every nonzero point of the disk once; one lexsort by (n, angle) then
    cuts the points into circles, so no n is factorized.  Each circle's
    points, and their order, equal circle_points(n)'s.
    Cached and grown monotonically; a limit whose 4 * limit points pass
    the memory budget (check_circle_table) raises PreconditionError
    before anything is allocated.
    """
    if limit < 0:
        raise PreconditionError(f"circle_table requires limit >= 0, got {limit}")
    check_circle_table(limit)
    table = _circle_cache.get("table")
    if table is None or table.limit < limit:
        table = _circle_cache["table"] = _build_circle_table(limit)
    end = int(table.starts[limit + 1])
    return CircleTable(limit, table.starts[: limit + 2], table.xs[:end], table.ys[:end])


def exp_sum_direct(n: int, k: int) -> complex:
    """S(n, k) = sum of e^{ik theta_u} over the enumerated points of circle n."""
    return complex(np.exp(1j * k * circle_points(n).angles).sum())


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
    mag = 4.0
    for s in gf.splittings:
        mag *= _split_factor_magnitude(k * s.theta, s.alpha)
    return mag


# ---------------------------------------------------------------------------
# Lattice sweeps for statistics over 1 <= m <= X.
# ---------------------------------------------------------------------------

def smallest_prime_factor_sieve(limit: int) -> np.ndarray:
    """spf[m] = smallest prime factor of m, for 0 <= m <= limit.

    No range statistic uses it.  Its readers are the prime-angle loop
    old_prime_angles in tests/test_circles.py, its own test, and
    perfbench/tracer.py, which wraps it by name.
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1:2] = 1  # empty when limit = 0
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            spf[i * i :: i][spf[i * i :: i] == 0] = i
    primes_mask = spf == 0
    primes_mask[:2] = False
    spf[primes_mask] = np.nonzero(primes_mask)[0]
    return spf


def _isqrt(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) elementwise for int64 0 <= m < 2**52.

    m converts to float64 exactly and np.sqrt rounds correctly.  Below the
    next square k^2 <= 2**52 the root is at least 1/(2k) short of k, more
    than half a unit in the last place, so truncation gives the floor.
    """
    return np.sqrt(m).astype(np.int64)


def annulus_points(s: int, e: int, lo: int, hi: int):
    """Lattice points lo <= y <= x <= hi whose squared radius lies in [s, e], row by row.

    For each x from max(lo, the first x with 2 x^2 >= s) to
    min(hi, isqrt(e)) the points (x, y) with lo <= y <= x and
    s <= x^2 + y^2 <= e form one y-interval, whose ends are integer
    square roots; np.repeat expands the intervals.
    Returns int64 (x, count, ys): the rows, their point counts and the y
    of every point, row after row with y ascending, so the points are
    (np.repeat(x, count), ys).  Needs lo >= 0.
    """
    first = lo if s < 1 else max(lo, math.isqrt((s - 1) // 2) + 1)
    x = np.arange(first, min(hi, math.isqrt(e)) + 1, dtype=np.int64)
    x2 = x * x
    top = np.minimum(_isqrt(e - x2), x)
    below = s - 1 - x2  # y^2 must exceed this
    bottom = np.maximum(_isqrt(np.maximum(below, 0)) + (below >= 0), lo)
    count = np.maximum(top - bottom + 1, 0)
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    ys = np.arange(total, dtype=np.int64) - np.repeat(ends - count - bottom, count)
    return x, count, ys


# One counting segment expands about pi/4 points per radius into int64
# arrays; at 2**17 radii a segment's traced peak is under 4 MB.
R2_SEGMENT = 1 << 17

# A segment of r2_sweep holds about 64 bytes for each of its octant rows,
# isqrt(e) - isqrt((s - 1) / 2) of them, plus 24 for each of its points
# (y, its x^2 + y^2 - s, which outlives the bincount, and one temporary):
# a traced peak of 19.6 bytes per isqrt(e) for the segment at n = 10**12,
# and 1.9 MB for one of 2**17 radii below 2 * 10**8, where points outnumber
# rows.  The budget counts ceil(sqrt(n_hi)) rows, which leaves room for
# those; an n_hi within it is below 2**52, where _isqrt is exact.
R2_RANGE_BYTES_PER_ROW = 72


def _octant_segments(n_lo: int, n_hi: int):
    """Yield (s, e, x, count, y, axis, diag) per R2_SEGMENT segment [s, e] of [n_lo, n_hi].

    (x, count, y) are the rows of the octant x >= 1, 0 <= y <= x on the
    segment's radii, from annulus_points; axis and diag are the radii a^2
    and 2 a^2 in [s, e], less s, where the octant's self-mirrored points
    (a, 0) and (a, a) sit.  Needs n_lo >= 1.
    """
    for s in range(n_lo, n_hi + 1, R2_SEGMENT):
        e = min(s + R2_SEGMENT - 1, n_hi)
        a1, a2 = (np.arange(math.isqrt((s - 1) // d) + 1, math.isqrt(e // d) + 1) for d in (1, 2))
        yield s, e, *annulus_points(s, e, 0, math.isqrt(e)), a1 * a1 - s, 2 * a2 * a2 - s


def r2_sweep(n_lo: int, n_hi: int):
    """Yield (s, r2, x, count, y, n) per R2_SEGMENT segment [s, e] of [n_lo, n_hi].

    The octant x >= 1, 0 <= y <= x meets every circle n >= 1, and the
    mirror (x, y) -> (y, x) and the quarter turns carry it onto the rest of
    the circle.  An axis point (x, 0) and a diagonal point (x, x) are each
    their own mirror, so r2(n) = 8 * #octant(n) - 4 [n = x^2] - 4 [n = 2 x^2].
    Per segment the octant rows (x, count, y) come from _octant_segments,
    and n holds each point's x^2 + y^2 - s, by which np.bincount bins
    them into r2[n' - s] for s <= n' <= e; nothing is factorized.  The
    octant is handed on with r2, so a reader of the points on the
    segment's circles (figure_data) enumerates nothing again.  The arrays
    are int64.  An n_hi whose ceil(sqrt(n_hi)) rows pass the memory budget
    raises PreconditionError before anything is allocated.
    """
    if n_lo < 1:
        raise PreconditionError(f"r2_range requires n_lo >= 1, got {n_lo}")
    k = math.isqrt(max(n_hi, 0))
    rows = k + (k * k < n_hi)  # ceil(sqrt(n_hi))
    check_memory(f"r2_range to n_hi = {n_hi}: ceil(sqrt(n_hi)) rows", rows, R2_RANGE_BYTES_PER_ROW)
    for s, e, x, count, y, axis, diag in _octant_segments(n_lo, n_hi):
        n = y * y
        n += np.repeat(x * x - s, count)
        r2 = np.bincount(n, minlength=e - s + 1)
        r2 *= 8
        r2[axis] -= 4
        r2[diag] -= 4
        yield s, r2, x, count, y, n
        del r2, x, count, y, n  # not held while the next segment is built


def r2_range(n_lo: int, n_hi: int):
    """Yield (s, r2 array) per R2_SEGMENT segment of [n_lo, n_hi]: r2_sweep's
    counts without its points, r2[i] = r2(s + i)."""
    for s, r2, *_ in r2_sweep(n_lo, n_hi):
        yield s, r2


def _z4(x, y, n, imag: bool):
    """z^4 = ((x + iy) / sqrt(n))^4, or its real part alone unless imag:
    u + iv = (x + iy)^2 in exact integers, then (u + iv)^2 / n^2 rounded once."""
    u, v = x * x - y * y, 2 * x * y
    m2 = n * n
    re = (u * u - v * v) / m2
    return re + 1j * (2 * u * v / m2) if imag else re


def abs_S_sweep(X: int, ks):
    """Yield (k, m, |S(m, k)|) per R2_SEGMENT segment of 1 <= m <= X, for each k of ks.

    ks ascends through multiples of 4 with k >= 0.  m holds, ascending,
    the radii of the segment whose circle has lattice points; every other
    m has S(m, k) = 0 and is left out.  For 4 | k the quarter turns
    multiply each point by i^k = 1, and the mirror (x, y) -> (y, x) sends
    z = (x + iy) / sqrt(m) to i conj(z), so z^k to conj(z^k).  So S(m, k)
    is real and, as in r2_range, comes from the octant x >= 1,
    0 <= y <= x alone: S(m, k) = 8 * sum of Re z^k over the octant of
    circle m - 4 [m = a^2] - 4 (-1)^(k/4) [m = 2 a^2], since an axis point
    (a, 0) has z^k = 1 and a diagonal point (a, a) has z^k = (-1)^(k/4),
    each exactly, and each is its own mirror.  Per k one np.bincount of
    Re z^k by m gives the octant sums; 0.5 and (-1)^(k/4) 0.5 come off at
    the axis and diagonal m, and |S| is 8 times the absolute value, so
    k = 0 gives r2(m) exactly.  z^4 = (u + iv)^2 / m^2 with
    u + iv = (x + iy)^2 is formed in exact integers and rounded once, and
    w = z^k is carried from each requested k to the next by
    multiplications by z^4, so z^k is z^4 times k / 4 - 1 of them, in the
    same order whichever ks hold k: a value does not depend on the other
    k requested.  np.bincount runs only at the requested k, and a sweep
    whose ks end at 4 forms Re z^4 alone.  A circle lies in one segment
    and its points come in the same order whatever the segment length, so
    each value does too.  Within a segment the k ascend; the segments
    ascend in m.
    """
    ks = list(ks)
    if any(k % 4 or k < prev for prev, k in zip([0, *ks], ks)):
        raise PreconditionError(f"abs_S_sweep needs ascending multiples of 4 >= 0, got {ks}")
    for s, _, x, count, y, axis, diag in _octant_segments(1, X):
        x = np.repeat(x, count)
        n = x * x + y * y
        points = np.bincount(n - s)
        i = np.flatnonzero(points != 0)  # 4 times faster than on the int64 counts
        m = i + s
        power = 0  # w = z^power
        for k in ks:
            if k == 0:
                total = points.astype(np.float64)
            else:
                if power == 0:
                    z4 = _z4(x, y, n, imag=ks[-1] > 4)
                    w, power = z4, 4
                    n -= s
                if k > power and w is z4:
                    w = z4.copy()
                for _ in range((k - power) // 4):
                    w *= z4
                power = k
                # np.bincount gives int64 for an empty n, weights or not.
                total = np.bincount(n, w.real).astype(np.float64, copy=False)
            total[axis] -= 0.5
            total[diag] -= 0.5 if k % 8 == 0 else -0.5
            yield k, m, 8 * np.abs(total[i])


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
    so the octant points of the disk of squared radius limit, read one
    annulus at a time through _octant_segments and kept where y < x and
    x^2 + y^2 is prime, yield every p with its legs; no primality test or
    square root of -1 runs.  Cached and grown monotonically.
    """
    if _theta_cache["limit"] < limit:
        is_p = prime_mask(limit)
        ps, thetas = [], []
        for _, _, x, count, y, _, _ in _octant_segments(1, limit):
            x = np.repeat(x, count)
            p = x * x + y * y
            keep = (y < x) & is_p[p]
            ps.append(p[keep])
            xk, yk = x[keep].tolist(), y[keep].tolist()
            thetas.append(np.array([math.atan2(b, a) for a, b in zip(xk, yk)]))
        ps = np.concatenate(ps)
        order = np.argsort(ps)
        _theta_cache.update(
            limit=limit, ps=ps[order], thetas=np.concatenate(thetas)[order]
        )
    ps = _theta_cache["ps"]
    keep = ps <= limit
    return ps[keep], _theta_cache["thetas"][keep]


# avg_abs_S streams the lattice sweep in about 43 MB peak RSS whatever X is, so
# its cap is a time budget: `dvm2d avg-s X 4` takes about 0.9 s at X = 10**8 and
# about 2.0 s at X = MAX_RANGE_X (2 cores, Python 3.11, numpy 2.4).
MAX_RANGE_X = 238609294


@dataclass(frozen=True)
class AngleStatistics:
    """Mean of |S(m, k)| over 1 <= m <= X, with per-decade sub-means."""

    X: int
    k: int
    mean_abs_S: float
    decades: tuple[tuple[int, float], ...]
    vanishing_k: bool = False


def abs_S_closed_range(X: int, k: int) -> np.ndarray:
    """|S(m, k)| for all 0 <= m <= X and 4 | k (index 0 holds 0).

    abs_S_sweep(X, [|k|])'s values scattered into zeros, so -k gives the
    same values as k: a lattice-point sum, not the multiplicative closed
    form; the name stays because perfbench/tracer.py wraps it.  Each value
    is within r2(m) * |k| * eps / 4 of the exact sum (tested for
    m <= 5000).  X < 0 raises PreconditionError.
    """
    if X < 0:
        raise PreconditionError(f"abs_S_closed_range requires X >= 0, got {X}")
    if k % 4 != 0:
        raise PreconditionError(f"abs_S_closed_range requires 4 | k, got k={k}")
    out = np.zeros(X + 1)
    for _, m, values in abs_S_sweep(X, [abs(k)]):
        out[m] = values
    return out


def avg_abs_S(X: int, k: int) -> AngleStatistics:
    """Mean (1/X) sum_{m<=X} |S(m, k)|, streamed from the lattice sweep.

    k not divisible by 4 is flagged and returns an identically zero table;
    k = 0 gives the mean of r2(m), which tends to pi.  |S| comes one
    segment at a time from abs_S_sweep(X, [|k|]), at the m with points only;
    np.searchsorted splits each segment at the decade ends, and
    numtheory.exact_terms folds each part into its decade's few terms.  One
    math.fsum of them is the exact sum of the decade's values rounded once,
    to which the zeros left out add nothing.  So a
    decade's mean depends on neither X nor the segment length, and memory
    does not grow with X.  X above MAX_RANGE_X = 238609294 raises
    PreconditionError before any work is done.
    """
    if X < 100:
        raise PreconditionError(f"avg_abs_S requires X >= 100, got {X}")
    if X > MAX_RANGE_X:
        raise PreconditionError(
            f"avg_abs_S sums about pi X / 8 lattice points, a time budget of about "
            f"2.0 s at the cap; X = {X} exceeds MAX_RANGE_X = {MAX_RANGE_X}"
        )
    decades = [10**d for d in range(2, 1 + math.floor(math.log10(X))) ]
    decades = [d for d in decades if d <= X]
    if not decades or decades[-1] != X:
        decades.append(X)

    if k % 4 != 0:
        table = tuple((d, 0.0) for d in decades)
        return AngleStatistics(X, k, 0.0, table, vanishing_k=True)

    # terms[d]: a few floats whose exact sum is that of decade d's values so far.
    terms: list[list[float]] = [[] for _ in decades]
    for _, m, values in abs_S_sweep(X, [abs(k)]):
        a = 0
        for d, b in enumerate(np.searchsorted(m, decades, side="right").tolist()):
            if b > a:
                terms[d] = exact_terms(np.concatenate([terms[d], values[a:b]]))
                a = b
    partials = [math.fsum(t) for t in terms]
    decade_means = tuple(
        (hi, math.fsum(partials[: d + 1]) / hi) for d, hi in enumerate(decades)
    )
    return AngleStatistics(X, k, decade_means[-1][1], decade_means)
