"""Lattice points on circles and their angular statistics.

The central objects are the set of integer points on x^2 + y^2 = n, the
representation count r2(n), and the exponential sums

    S(n, k) = sum over points u of exp(i k theta_u).

Points are recovered exactly by Gaussian-integer multiplication from the
factorization of n, or, for every n up to a bound at once, from the
lattice disk itself; angles only ever enter in floating point.  Every
sweep over the disk goes through annulus_points, which lays down the
lattice points of an annulus row by row: circle_table turns the quarter
x >= 1, y >= 0 into every circle up to a bound, r2_range bins the octant
0 <= y <= x of each annulus by n instead of factorizing and counts the
mirror images, prime_angles keeps the points on prime circles, and
abs_S_sweep, the one |S| generator behind
abs_S_closed_range, avg_abs_S and the harness's equidistribution term,
bins ((x + iy) / sqrt(n))^k by n for each requested k and evaluates |S|
only at the n whose circle has points.
|S(n,k)|/4 is multiplicative in n and vanishes unless 4 | k; for one n,
exp_sum_closed evaluates that closed form from the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from itertools import product as _iproduct

import numpy as np

from .errors import PreconditionError
from .numtheory import (
    GaussianFactorization,
    ResidueClass,
    factorize,
    gaussian_factorize,
)


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
    x, count, y = annulus_points(1, limit, 1, k, 0, k)
    x = np.repeat(x, count)
    xs = np.concatenate((x, -y, -x, y))
    ys = np.concatenate((y, x, -y, -x))
    del x, y
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

    annulus_points lays down the quarter x >= 1, y >= 0 of the disk
    x^2 + y^2 <= limit, whose four quarter turns cover every nonzero point
    of the disk once; one lexsort by (n, angle) then cuts the points into
    circles, so no n is factorized.  Points, angles and their order equal
    circle_points(n)'s.
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
    mag = 4.0
    for s in gf.splittings:
        alpha = next(f.alpha for f in gf.factors if f.p == s.p)
        mag *= _split_factor_magnitude(k * s.theta, alpha)
    return mag


# ---------------------------------------------------------------------------
# Lattice sweeps for statistics over 1 <= m <= X.
# ---------------------------------------------------------------------------

def smallest_prime_factor_sieve(limit: int) -> np.ndarray:
    """spf[m] = smallest prime factor of m, for 0 <= m <= limit.

    No range statistic uses it; the sieve oracles in tests/ do, and
    perfbench/tracer.py wraps it by name.
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


def annulus_points(
    s: int, e: int, x_lo: int, x_hi: int, y_lo: int, y_hi: int, octant: bool = False
):
    """Lattice points of a box whose squared radius lies in [s, e], row by row.

    For each x in [x_lo, min(x_hi, isqrt(e))] the points (x, y) with
    y_lo <= y <= y_hi and s <= x^2 + y^2 <= e form one y-interval, whose
    ends are integer square roots; np.repeat expands the intervals.
    octant caps y at x as well, so only the points on or below the
    diagonal remain, and starts the rows at isqrt((s - 1) / 2) + 1, the
    first x with 2 x^2 >= s.
    Returns int64 (x, count, ys): the rows, their point counts and the y
    of every point, row after row with y ascending, so the points are
    (np.repeat(x, count), ys).  Needs x_lo, y_lo >= 0.
    """
    if octant and s > 1:
        x_lo = max(x_lo, math.isqrt((s - 1) // 2) + 1)
    x = np.arange(x_lo, min(x_hi, math.isqrt(e)) + 1, dtype=np.int64)
    x2 = x * x
    top = np.minimum(_isqrt(e - x2), y_hi)
    if octant:
        np.minimum(top, x, out=top)
    below = s - 1 - x2  # y^2 must exceed this
    bottom = np.maximum(_isqrt(np.maximum(below, 0)) + (below >= 0), y_lo)
    count = np.maximum(top - bottom + 1, 0)
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    ys = np.arange(total, dtype=np.int64) - np.repeat(ends - count - bottom, count)
    return x, count, ys


# One counting segment expands about pi/4 points per radius into int64
# arrays; at 2**17 radii a segment's traced peak is under 4 MB.
R2_SEGMENT = 1 << 17

# A segment of r2_range holds about 64 bytes for each of its octant rows,
# isqrt(e) - isqrt((s - 1) / 2) of them, plus its own points: a traced peak
# of 19.6 bytes per isqrt(e) for the segment at n = 10**12.
# R2_RANGE_BYTES_PER_ROW counts all isqrt(n_hi) rows, which leaves room for
# those.  n_hi up to MAX_R2_RANGE_N keeps the rows in 1 GiB, and below 2**52,
# where _isqrt is exact.
R2_RANGE_BYTES_PER_ROW = 72
MAX_R2_RANGE_N = ((1 << 30) // R2_RANGE_BYTES_PER_ROW) ** 2


def r2_range(n_lo: int, n_hi: int):
    """Yield (lo, r2 array) per R2_SEGMENT segment of [n_lo, n_hi], from lattice points.

    The octant x >= 1, 0 <= y <= x meets every circle n >= 1, and the
    mirror (x, y) -> (y, x) and the quarter turns carry it onto the rest of
    the circle.  An axis point (x, 0) and a diagonal point (x, x) are each
    their own mirror, so r2(n) = 8 * #octant(n) - 4 [n = x^2] - 4 [n = 2 x^2].
    Per segment [s, e] the octant comes from annulus_points, binned by
    x^2 + y^2 - s; nothing is factorized.  The arrays are int64.  An n_hi
    above MAX_R2_RANGE_N raises PreconditionError before anything is
    allocated.
    """
    if n_lo < 1:
        raise PreconditionError(f"r2_range requires n_lo >= 1, got {n_lo}")
    if n_hi > MAX_R2_RANGE_N:
        raise PreconditionError(
            f"r2_range needs {R2_RANGE_BYTES_PER_ROW} bytes per row for isqrt(n_hi) "
            f"rows; n_hi = {n_hi} exceeds MAX_R2_RANGE_N = {MAX_R2_RANGE_N} (1 GiB)"
        )
    for s in range(n_lo, n_hi + 1, R2_SEGMENT):
        e = min(s + R2_SEGMENT - 1, n_hi)
        k = math.isqrt(e)
        x, count, n = annulus_points(s, e, 1, k, 0, k, octant=True)
        n *= n
        n += np.repeat(x * x - s, count)
        r2 = np.bincount(n, minlength=e - s + 1)
        r2 *= 8
        for d in (1, 2):  # the axis n = a^2 and the diagonal n = 2 a^2
            a = np.arange(math.isqrt((s - 1) // d) + 1, math.isqrt(e // d) + 1)
            r2[d * a * a - s] -= 4
        yield s, r2


def _segment_points(s: int, e: int):
    """The points x >= 1, y >= 0 of the circles s <= m <= e, as int64 x, y
    and n = x^2 + y^2, and the point count of each m - s."""
    r = math.isqrt(e)
    x, count, y = annulus_points(s, e, 1, r, 0, r)
    x = np.repeat(x, count)
    n = x * x + y * y
    return x, y, n, np.bincount(n - s)


def _z4(x, y, n):
    """Real and imaginary parts of z^4 = ((x + iy) / sqrt(n))^4: u + iv =
    (x + iy)^2 in exact integers, then (u + iv)^2 / n^2 rounded once."""
    u, v = x * x - y * y, 2 * x * y
    m2 = n * n
    return (u * u - v * v) / m2, 2 * u * v / m2


def abs_S_sweep(X: int, ks):
    """Yield (k, m, |S(m, k)|) per R2_SEGMENT segment of 1 <= m <= X, for each k of ks.

    ks ascends through multiples of 4 with k >= 0.  m holds, ascending,
    the radii of the segment whose circle has lattice points; every other
    m has S(m, k) = 0 and is left out.  For 4 | k the quarter turns
    multiply each point by i^k = 1, so S(m, k) = 4 * sum of
    ((x + iy) / sqrt(m))^k over the points x >= 1, y >= 0 of circle m,
    which annulus_points lays down as in r2_range; k = 0 gives r2(m),
    four times the point count.  z^4 = (u + iv)^2 / m^2 with
    u + iv = (x + iy)^2 is formed in exact integers and rounded once, and
    w = z^k is carried from each requested k to the next by
    multiplications by z^4, so z^k is z^4 times k / 4 - 1 of them, in the
    same order whichever ks hold k: a value does not depend on the other
    k requested.  np.bincount runs only at the requested k, and k = 4
    stays two float arrays.  A circle lies in one segment and its points
    come in the same order whatever the segment length, so each value
    does too.  Within a segment the k ascend; the segments ascend in m.
    """
    ks = list(ks)
    if any(k % 4 or k < prev for prev, k in zip([0, *ks], ks)):
        raise PreconditionError(f"abs_S_sweep needs ascending multiples of 4 >= 0, got {ks}")
    for s in range(1, X + 1, R2_SEGMENT):
        e = min(s + R2_SEGMENT - 1, X)
        x, y, n, points = _segment_points(s, e)
        i = np.flatnonzero(points)
        m = i + s
        power, w, z4 = 0, None, None  # w = z^power: (re, im) until z4 is formed
        for k in ks:
            if k == 0:
                yield k, m, 4.0 * points[i]
                continue
            if power == 0:
                w, power = _z4(x, y, n), 4
                n -= s
            if k > power and z4 is None:
                z4 = w[0] + 1j * w[1]
                w = z4.copy()
            for _ in range((k - power) // 4):
                w *= z4
            power = k
            re, im = w if z4 is None else (w.real, w.imag)
            yield k, m, 4 * np.hypot(np.bincount(n, re)[i], np.bincount(n, im)[i])


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
    so the lattice points of the disk of squared radius limit, read one
    annulus at a time through annulus_points and kept where y < x and
    x^2 + y^2 is prime, yield every p with its legs; no primality test or
    square root of -1 runs.  Cached and grown monotonically.
    """
    if _theta_cache["limit"] < limit:
        is_p = prime_mask(limit)
        ps, thetas = [], []
        k = math.isqrt(limit)
        for s in range(1, limit + 1, R2_SEGMENT):
            e = min(s + R2_SEGMENT - 1, limit)
            # A row with 2 x^2 < s holds only points with y > x.
            x, count, y = annulus_points(s, e, max(2, math.isqrt(s // 2)), k, 1, k)
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


# avg_abs_S streams the lattice sweep in about 47 MB peak RSS whatever X is, so
# its cap is a time budget: `dvm2d avg-s X 4` takes about 5 s at X = 10**8 and
# about 11 s at X = MAX_RANGE_X (2 cores, Python 3.11, numpy 2.4).
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


def _decade_pieces(X: int, k: int, decades: list[int]):
    """Yield each decade's |S(m, k)| at the m with points as float lists, then None.

    The decade ends, ascending and the last equal to X, are found inside
    each segment with searchsorted.  A decade still open at a segment's
    last m may go on in the next, so it is closed there; a decade without
    a circle is closed with no values at all.
    """
    i = 0
    for _, m, values in abs_S_sweep(X, [abs(k)]):
        a = 0
        for b in np.searchsorted(m, decades[i:], side="right").tolist():
            yield values[a:b].tolist()
            if b == len(m):
                break
            yield None
            a = b
            i += 1
    yield from [None] * (len(decades) - i)


def avg_abs_S(X: int, k: int) -> AngleStatistics:
    """Mean (1/X) sum_{m<=X} |S(m, k)|, streamed from the lattice sweep.

    k not divisible by 4 is flagged and returns an identically zero table;
    k = 0 gives the mean of r2(m), which tends to pi.  |S| comes one
    segment at a time from abs_S_sweep(X, [|k|]), at the m with points only;
    each decade's sum is one exactly rounded math.fsum over that decade's
    values, to which the zeros left out add nothing.  So a decade's mean
    depends on neither X nor the segment length, and memory does not grow
    with X.  X above MAX_RANGE_X = 238609294 raises PreconditionError
    before any work is done.
    """
    if X < 100:
        raise PreconditionError(f"avg_abs_S requires X >= 100, got {X}")
    if X > MAX_RANGE_X:
        raise PreconditionError(
            f"avg_abs_S sums about pi X / 4 lattice points, a time budget of about "
            f"11 s at the cap; X = {X} exceeds MAX_RANGE_X = {MAX_RANGE_X}"
        )
    decades = [10**d for d in range(2, 1 + math.floor(math.log10(X))) ]
    decades = [d for d in decades if d <= X]
    if not decades or decades[-1] != X:
        decades.append(X)

    if k % 4 != 0:
        table = tuple((d, 0.0) for d in decades)
        return AngleStatistics(X, k, 0.0, table, vanishing_k=True)

    pieces = _decade_pieces(X, k, decades)
    partials: list[float] = []
    decade_means: list[tuple[int, float]] = []
    for hi in decades:
        # The decade's pieces, one list at a time, up to its None.
        partials.append(math.fsum(chain.from_iterable(iter(pieces.__next__, None))))
        decade_means.append((hi, math.fsum(partials) / hi))
    return AngleStatistics(X, k, decade_means[-1][1], tuple(decade_means))
