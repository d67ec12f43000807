import functools
import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvm2d import circles, errors, tables
from dvm2d.errors import PreconditionError
from dvm2d.numtheory import two_squares_prime
from oracles import dense_abs_S_segments, dense_avg_abs_S, divisor_r2_range, exact_abs_S


def brute_force_points(n: int) -> set[tuple[int, int]]:
    """Scan |x| <= sqrt(n) for integer solutions of x^2 + y^2 = n."""
    out = set()
    for x in range(-math.isqrt(n), math.isqrt(n) + 1):
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            out.add((x, y))
            out.add((x, -y))
    return out


def test_r2_examples():
    assert circles.r2(1) == 4
    assert circles.r2(3) == 0
    assert circles.r2(25) == 12
    assert circles.r2(65) == 16


def test_r2_matches_brute_force():
    for n in range(1, 2001):
        assert circles.r2(n) == len(brute_force_points(n)), n


def assert_r2_segments(got, n_lo, n_hi, segment):
    """r2_range's segments start at n_lo and every segment radii after it,
    and join to the divisor oracle's int64 array, bit for bit.  The tests
    that call it keep the names of the retired oracles they once read."""
    got = list(got)
    assert [s for s, _ in got] == list(range(n_lo, n_hi + 1, segment)), (n_lo, n_hi)
    assert all(r.dtype == np.int64 for _, r in got)
    assert np.array_equal(np.concatenate([r for _, r in got]), divisor_r2_range(n_lo, n_hi))


@pytest.mark.parametrize(
    "n_lo, n_hi, segment",
    [
        (1, 10**5, 4_000_000),
        (12_345, 61_000, 997),
        (2 * 10**8, 2 * 10**8 + 99_999, 100_000),
    ],
)
def test_r2_range_matches_old_sieve(monkeypatch, n_lo, n_hi, segment):
    monkeypatch.setattr(circles, "R2_SEGMENT", segment)
    assert_r2_segments(circles.r2_range(n_lo, n_hi), n_lo, n_hi, segment)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=5000),
)
def test_r2_range_matches_r2_property(lo, width, segment):
    hi = lo + min(width, 40 * segment)  # at most ~40 segments per example
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circles, "R2_SEGMENT", segment)
        got = np.concatenate([r for _, r in circles.r2_range(lo, hi)])
    assert got.tolist() == [circles.r2(n) for n in range(lo, hi + 1)]


def test_r2_range_inert_parity_per_prime():
    # Two inert primes with odd exponents must not cancel each other.
    for n, want in ((21, 0), (3 * 7 * 25, 0), (3**3 * 7, 0), (3**2 * 7**2, 4)):
        (_, got), = circles.r2_range(n, n)
        assert got.tolist() == [want] == [circles.r2(n)], n


def test_r2_range_matches_sieve_fold_at_2e8():
    n_lo = 2 * 10**8
    n_hi = n_lo + circles.R2_SEGMENT - 1
    assert_r2_segments(circles.r2_range(n_lo, n_hi), n_lo, n_hi, circles.R2_SEGMENT)


def test_r2_range_empty_and_tiny_ranges(monkeypatch):
    assert list(circles.r2_range(1, 0)) == []
    (lo, got), = circles.r2_range(1, 1)
    assert lo == 1 and got.tolist() == [4]
    monkeypatch.setattr(circles, "R2_SEGMENT", 3)
    assert list(circles.r2_range(10, 9)) == []


def test_isqrt_exact_near_squares():
    ks = np.concatenate([np.arange(1, 2000), np.arange(2**26 - 10**5, 2**26)])
    ms = np.concatenate([ks * ks - 1, ks * ks, [0, 2**52 - 1]])
    r = circles._isqrt(ms)
    assert r.dtype == np.int64
    assert np.all(r * r <= ms) and np.all((r + 1) * (r + 1) > ms)
    # The largest n_hi that r2_range accepts.
    assert (errors.MEMORY_BUDGET // circles.R2_RANGE_BYTES_PER_ROW) ** 2 < 2**52


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=-1, max_value=400))
def test_annulus_points_match_box_scan(s, width):
    """The divisor oracle, which the r2 and figure tests read, against a
    count of the box points |x|, |y| <= isqrt(e) on each circle."""
    e = s + width
    a = np.arange(-math.isqrt(e), math.isqrt(e) + 1, dtype=np.int64)
    n = (a[:, None] ** 2 + a**2).ravel()
    want = np.bincount(n[(n >= s) & (n <= e)] - s, minlength=e - s + 1)
    got = divisor_r2_range(s, e)
    assert got.dtype == np.int64 and np.array_equal(got, want)


# Radii on a^2 and 2 a^2, where the octant's axis and diagonal points sit,
# and one off either side of them.
EDGE_RADII = sorted(
    {d * a * a + j for a in (1, 2, 3, 4, 7, 12, 29, 40) for d in (1, 2) for j in (-1, 0, 1)}
    - {0}
)


@pytest.mark.parametrize("segment", [1, 2, 3, 7, 997])
def test_octant_r2_range_matches_quarter_oracle(monkeypatch, segment):
    """Ranges from and to every edge radius, so with every segment length the
    axis and diagonal corrections fall on a segment's first and last radius."""
    monkeypatch.setattr(circles, "R2_SEGMENT", segment)
    pairs = [(a, b) for i, a in enumerate(EDGE_RADII) for b in EDGE_RADII[i : i + 4]]
    pairs += [(1, EDGE_RADII[-1]), (EDGE_RADII[1], EDGE_RADII[-2])]
    for n_lo, n_hi in pairs:
        assert_r2_segments(circles.r2_range(n_lo, n_hi), n_lo, n_hi, segment)


def test_octant_r2_range_matches_quarter_oracle_to_the_census_top():
    assert_r2_segments(circles.r2_range(1, 2 * 1999**2), 1, 2 * 1999**2, circles.R2_SEGMENT)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
)
def test_annulus_points_octant_match_box_scan(s, width, lo, w):
    e, hi = s + width, lo + w
    x, count, ys = circles.annulus_points(s, e, lo, hi)
    xs = np.repeat(x, count)
    want = [
        (a, b)
        for a in range(lo, hi + 1)
        for b in range(lo, a + 1)
        if s <= a * a + b * b <= e
    ]
    assert xs.dtype == ys.dtype == np.int64
    assert list(zip(xs.tolist(), ys.tolist())) == want


def test_smallest_prime_factor_sieve_small_limits():
    assert circles.smallest_prime_factor_sieve(0).tolist() == [0]
    assert circles.smallest_prime_factor_sieve(1).tolist() == [0, 1]
    assert circles.smallest_prime_factor_sieve(10).tolist() == [0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_circle_points_examples():
    assert set(circles.circle_points(2).points) == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
    pts = circles.circle_points(25)
    assert pts.count == 12
    assert (3, 4) in pts.points and (5, 0) in pts.points
    big = circles.circle_points(243061325)
    assert big.count == 384
    assert all(x * x + y * y == 243061325 for x, y in big.points)


def test_circle_points_match_brute_force_small():
    for n in range(1, 3000):
        assert set(circles.circle_points(n).points) == brute_force_points(n), n


def brute_force_points_vectorized(n: int) -> set[tuple[int, int]]:
    """Same scan as brute_force_points, vectorized for large n."""
    xs = np.arange(math.isqrt(n) + 1, dtype=np.int64)
    y2 = n - xs * xs
    ys = np.rint(np.sqrt(y2.astype(np.float64))).astype(np.int64)
    hit = ys * ys == y2
    out = set()
    for x, y in zip(xs[hit].tolist(), ys[hit].tolist()):
        out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return out


def test_circle_points_match_brute_force_smooth_large():
    """1000 random n <= 1e10 built from known smooth factorizations."""
    rng = random.Random(4242)
    small = [2, 3, 5, 7, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61]
    for _ in range(1000):
        n = 1
        while True:
            f = rng.choice(small)
            if n * f > 10**10:
                break
            n *= f
        pts = circles.circle_points(n)
        assert set(pts.points) == brute_force_points_vectorized(n)
        assert pts.count == circles.r2(n)


def test_circle_points_eight_fold_symmetry():
    for n in (5, 25, 50, 325, 1105):
        pts = set(circles.circle_points(n).points)
        for x, y in pts:
            for sx, sy in ((x, y), (-x, y), (x, -y), (-x, -y)):
                assert (sx, sy) in pts
                assert (sy, sx) in pts


def test_circle_points_sorted_by_angle():
    pts = circles.circle_points(1105)
    assert np.all(np.diff(pts.angles) > 0)
    assert pts.angles[0] >= -math.pi and pts.angles[-1] < math.pi


TABLE_LIMIT = 2 * 10**4


def cold_circle_tables(*limits):
    """circle_table at each limit in turn, starting from an empty cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circles, "_circle_cache", {})
        tables = [circles.circle_table(n) for n in limits]
        assert circles._circle_cache["table"].limit == max(limits)
        return tables


@functools.cache
def oracle_table():
    """circle_points(n) for n = 1..TABLE_LIMIT, laid out back to back like a CircleTable."""
    pts = [circles.circle_points(n) for n in range(1, TABLE_LIMIT + 1)]
    starts = np.zeros(TABLE_LIMIT + 2, dtype=np.int64)
    starts[2:] = np.cumsum([p.count for p in pts])
    return starts, np.concatenate([p.xs for p in pts]), np.concatenate([p.ys for p in pts])


def assert_same_table(table, limit):
    starts, xs, ys = oracle_table()
    end = starts[limit + 1]
    assert table.limit == limit
    pairs = zip((table.starts, table.xs, table.ys), (starts[: limit + 2], xs[:end], ys[:end]))
    for got, want in pairs:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_circle_table_matches_circle_points():
    (table,) = cold_circle_tables(TABLE_LIMIT)
    assert table.xs.dtype == table.ys.dtype == np.int64
    empty = 0
    for n in range(1, TABLE_LIMIT + 1):
        lo, hi = int(table.starts[n]), int(table.starts[n + 1])
        want = circles.circle_points(n)
        assert np.array_equal(table.xs[lo:hi], want.xs), n
        assert np.array_equal(table.ys[lo:hi], want.ys), n
        empty += lo == hi
    assert table.starts[3] == table.starts[4] and table.starts[21] == table.starts[22]
    assert empty == np.count_nonzero(r2_table(TABLE_LIMIT)[1:] == 0)
    assert_same_table(table, TABLE_LIMIT)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 25, 1105])
def test_circle_table_small_limits(limit):
    (table,) = cold_circle_tables(limit)
    assert_same_table(table, limit)
    assert len(table.xs) == sum(circles.r2(n) for n in range(1, limit + 1))


def test_circle_table_cache_order():
    limits = (10**3, 10**2, 10**4)
    for limit, table in zip(limits, cold_circle_tables(*limits)):
        assert_same_table(table, limit)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=TABLE_LIMIT), min_size=1, max_size=3))
def test_circle_table_matches_circle_points_property(limits):
    for limit, table in zip(limits, cold_circle_tables(*limits)):
        assert_same_table(table, limit)


def test_circle_table_is_read_only():
    table = circles.circle_table(100)
    with pytest.raises(ValueError):
        table.xs[0] = 0


def test_circle_table_refuses_unaffordable_limit():
    with pytest.raises(PreconditionError):
        circles.circle_table(-1)
    tracemalloc.start()
    try:
        for limit in (10**12, 5592406):
            with pytest.raises(PreconditionError, match="MEMORY_BUDGET") as err:
                circles.circle_table(limit)
            want = f"circle_table({limit}): 4 * limit points: {4 * limit} x 48 bytes"
            assert want in str(err.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exp_sum_direct_examples():
    assert circles.exp_sum_direct(5, 0) == pytest.approx(8)
    assert circles.exp_sum_direct(2, 4) == pytest.approx(-4)
    # Eight points on the circle of 5; |S| = 8 |cos(4 theta_5)| = 56/25.
    assert abs(circles.exp_sum_direct(5, 4)) == pytest.approx(56 / 25)


def test_exp_sum_direct_bounded_by_r2():
    for n in range(1, 500):
        r = circles.r2(n)
        for k in (0, 4, 8, 12):
            assert abs(circles.exp_sum_direct(n, k)) <= r + 1e-9


def test_exp_sum_closed_examples():
    theta5 = math.atan(0.5)
    assert circles.exp_sum_closed(25, 4) == pytest.approx(
        4 * abs(1 + 2 * math.cos(8 * theta5))
    )
    assert circles.exp_sum_closed(25, 4) == pytest.approx(
        abs(circles.exp_sum_direct(25, 4))
    )
    for n in (5, 10, 25, 65, 130):
        assert circles.exp_sum_closed(n, 2) == 0.0
    for t in range(1, 11):
        assert circles.exp_sum_closed(2**t, 4) == pytest.approx(4.0)
        assert abs(circles.exp_sum_direct(2**t, 4)) == pytest.approx(4.0)


def test_exp_sum_closed_vs_direct():
    """Closed form vs direct sum, every n <= 1e4 and k in 4..64."""
    k_values = list(range(4, 65, 4))
    closed = {k: circles.abs_S_closed_range(10**4, k) for k in k_values}
    for n in range(1, 10**4 + 1):
        pts = circles.circle_points(n)
        if pts.count == 0:
            for k in k_values:
                assert closed[k][n] == 0.0
            continue
        for k in k_values:
            d = abs(np.exp(1j * k * pts.angles).sum())
            c = closed[k][n]
            assert abs(d - c) <= 1e-9 * max(1.0, d, c), (n, k)


def r2_table(X):
    """r2(m) for 0 <= m <= X (index 0 holds 0)."""
    return np.concatenate([[0], *[r for _, r in circles.r2_range(1, X)]])


def dense_table(X, k):
    """|S(m, k)| for 0 <= m <= X from the dense reference (index 0 holds 0)."""
    return np.concatenate([np.zeros(1), *dense_abs_S_segments(X, k)])


@pytest.mark.parametrize("X, k", [(10**5, k) for k in range(4, 65, 4)] + [(2, 4)])
def test_abs_S_closed_range_matches_per_m_loop(X, k):
    """Kept under its name, with the per-m factor loop retired: every value
    to m = X is the dense reference's bit for bit, which powers z^4 for
    this k alone."""
    assert np.array_equal(circles.abs_S_closed_range(X, k), dense_table(X, k))


def test_abs_S_closed_range_matches_exact_oracle():
    """Lattice |S| within r2(m) * k * eps / 4 of exact Gaussian-integer sums, m <= 5000.

    Measured: 0.125 r2(m) k eps.  Forming z^4 in floating point from
    (x + iy) / sqrt(m) would reach 0.83.
    """
    X = 5000
    r2 = r2_table(X).tolist()
    eps = np.finfo(np.float64).eps
    for k in range(4, 65, 4):
        got = circles.abs_S_closed_range(X, k).tolist()
        assert got[0] == 0.0
        for m in range(1, X + 1):
            if r2[m] == 0:
                assert got[m] == 0.0, (m, k)
            else:
                assert abs(got[m] - exact_abs_S(m, k)) <= r2[m] * k * eps / 4, (m, k)


def test_abs_S_closed_range_matches_sieve_fold():
    """Kept under its name, with the closed-form fold (1e-11 of it) retired:
    to m = 10**5, for k = 4..64, exact 0 where r2(m) = 0, and within
    r2(m) * k * eps / 4 of the exact sum at 100 random m with points and
    the 20 richest circles."""
    X = 10**5
    r2 = r2_table(X)
    full = np.flatnonzero(r2)
    richest = full[np.argsort(r2[full], kind="stable")[-20:]].tolist()
    sample = sorted({*richest, *random.Random(28).sample(full.tolist(), 100)})
    eps = np.finfo(np.float64).eps
    for k in range(4, 65, 4):
        got = circles.abs_S_closed_range(X, k)
        assert got.shape == (X + 1,) and not got[r2 == 0].any(), k
        for m in sample:
            assert abs(got[m] - exact_abs_S(m, k)) <= r2[m] * k * eps / 4, (m, k)


@pytest.mark.parametrize(
    "X, M, segment",
    [
        (576, 4000, None),
        (3000, 200, 1000),
        (9, 60, 4),
        pytest.param(576, (0, 8, 20), None, id="576-0,8,20-None"),
        pytest.param(3000, (0, 8, 20, 44), 1000, id="3000-0,8,20,44-1000"),
        pytest.param(9, (0, 12), 4, id="9-0,12-4"),
    ],
)
def test_abs_S_sweep_equals_abs_S_closed_range(monkeypatch, X, M, segment):
    """Each requested k's values from the one-pass sweep are
    abs_S_closed_range's and the dense oracle's bit for bit, at the m with
    points, whatever the segment length; each segment gives every k in
    ascending order.  An int M asks for every k = 4, 8, ..., < M, a tuple
    for its own k only, with 0 and gaps."""
    if segment:
        monkeypatch.setattr(circles, "R2_SEGMENT", segment)
    ks = list(range(4, M, 4)) if isinstance(M, int) else list(M)
    got = {}
    order = []
    for k, m, values in circles.abs_S_sweep(X, ks):
        order.append(k)
        dense = got.setdefault(k, np.zeros(X + 1))
        assert not dense[m].any()
        dense[m] = values
    assert order == ks * len(range(1, X + 1, circles.R2_SEGMENT))
    sampled = sorted({4, 8, 12, ks[len(ks) // 2], ks[-2], ks[-1]}) if isinstance(M, int) else ks
    for k in sampled:
        assert np.array_equal(got[k], circles.abs_S_closed_range(X, k)), k
        assert np.array_equal(got[k], dense_table(X, k)), k


@pytest.mark.parametrize("ks", [[4, 2], [8, 4], [-4], [0, 6]])
def test_abs_S_sweep_refuses_bad_ks(ks):
    with pytest.raises(PreconditionError, match="ascending multiples of 4"):
        next(circles.abs_S_sweep(100, ks))


def test_octant_abs_S_sweep_matches_quarter_oracle():
    """Kept under its name, with the quarter sweep retired: one sweep of
    k = 0, 4, ..., 64 to m = 10**5 yields, for each k, the m where r2(m) > 0
    and there r2_range's r2 at k = 0 and the dense reference's values at
    the other k, bit for bit."""
    X, ks = 10**5, range(0, 65, 4)
    r2 = r2_table(X)
    got, ms = {k: np.zeros(X + 1) for k in ks}, {k: [] for k in ks}
    for k, m, values in circles.abs_S_sweep(X, ks):
        got[k][m] = values
        ms[k].append(m)
    for k in ks:
        assert np.array_equal(np.concatenate(ms[k]), np.flatnonzero(r2)), k
        assert np.array_equal(got[k], r2 if k == 0 else dense_table(X, k)), k


def test_abs_S_sweep_segment_without_a_circle(monkeypatch):
    """A segment whose circles are all empty yields empty m and values
    with their dtypes: np.bincount of no points is int64 even with
    weights, so the axis and diagonal terms must not go into it in place."""
    monkeypatch.setattr(circles, "R2_SEGMENT", 7)
    ks = (0, 4, 8)
    got = list(circles.abs_S_sweep(385, ks))[-len(ks):]  # the last segment, [379, 385]
    assert [k for k, _, _ in got] == list(ks)
    for _, m, values in got:
        assert m.dtype == np.int64 and m.shape == (0,)
        assert values.dtype == np.float64 and values.shape == (0,)


def test_exp_sum_vanishes_unless_4_divides_k():
    for n in range(1, 800):
        r = circles.r2(n)
        for k in (1, 2, 3, 5, 6, 7):
            assert circles.exp_sum_closed(n, k) == 0.0
            assert abs(circles.exp_sum_direct(n, k)) <= 1e-9 * max(1, r)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=50000),
    st.integers(min_value=1, max_value=16),
)
def test_exp_sum_closed_vs_direct_property(n, k4):
    k = 4 * k4
    d = abs(circles.exp_sum_direct(n, k))
    c = circles.exp_sum_closed(n, k)
    assert abs(d - c) <= 1e-9 * max(1.0, d, c)


def test_multiplicativity_of_abs_S_over_4():
    rng = random.Random(1905)
    checked = 0
    while checked < 200:
        m = rng.randrange(2, 3000)
        n = rng.randrange(2, 3000)
        if math.gcd(m, n) != 1:
            continue
        if circles.r2(m) == 0 or circles.r2(n) == 0:
            continue
        checked += 1
        for k in (4, 8):
            lhs = circles.exp_sum_closed(m * n, k) / 4
            rhs = (circles.exp_sum_closed(m, k) / 4) * (circles.exp_sum_closed(n, k) / 4)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs)), (m, n, k)


def test_abs_S_invariant_under_angle_origin():
    """atan2(y, x) vs atan2(x, y) conventions give the same |S|."""
    for n in (5, 25, 65, 325, 1105, 4225):
        pts = circles.circle_points(n)
        for k in (4, 8, 12):
            s_standard = abs(np.exp(1j * k * pts.angles).sum())
            swapped = np.arctan2(pts.xs, pts.ys)
            s_swapped = abs(np.exp(1j * k * swapped).sum())
            assert s_standard == pytest.approx(s_swapped, abs=1e-9)


def test_avg_abs_S_flags_bad_k():
    stats = circles.avg_abs_S(10**4, 2)
    assert stats.vanishing_k
    assert stats.mean_abs_S == 0.0


def test_avg_abs_S_matches_direct_mean():
    X = 400
    stats = circles.avg_abs_S(X, 4)
    direct = math.fsum(abs(circles.exp_sum_direct(m, 4)) for m in range(1, X + 1))
    assert stats.mean_abs_S == pytest.approx(direct / X, rel=1e-9)


def test_avg_abs_S_decays_between_decades():
    stats = circles.avg_abs_S(10**4, 4)
    means = [m for _, m in stats.decades]
    assert means[-1] < means[0]


def test_avg_abs_S_decade_means_do_not_depend_on_X():
    # The partial sums end at the decades, so a decade's mean is the same
    # number whatever X is.
    small = dict(circles.avg_abs_S(10**4, 4).decades)
    large = dict(circles.avg_abs_S(3 * 10**4, 4).decades)
    assert sorted(small) == [100, 1000, 10**4]
    assert all(small[d] == large[d] for d in small)


def test_avg_abs_S_is_repeatable():
    assert circles.avg_abs_S(2000, 4) == circles.avg_abs_S(2000, 4)


def test_avg_abs_S_decade_sums_are_exactly_rounded():
    X = 10**4
    values = circles.abs_S_closed_range(X, 4).tolist()
    sums = [math.fsum(values[1:101]), math.fsum(values[101:1001]), math.fsum(values[1001:])]
    want = [(d, math.fsum(sums[: i + 1]) / d) for i, d in enumerate((100, 1000, X))]
    assert list(circles.avg_abs_S(X, 4).decades) == want


def test_avg_abs_S_decade_means_do_not_depend_on_segment(monkeypatch):
    want = circles.avg_abs_S(3 * 10**4, 8)
    monkeypatch.setattr(circles, "R2_SEGMENT", 1000)
    assert circles.avg_abs_S(3 * 10**4, 8) == want


@pytest.mark.parametrize("X", [100, 1001, 12345, 100007])
def test_avg_abs_S_equals_dense_oracle(monkeypatch, X):
    # Segments of 7 put decade ends mid-segment and leave segments with no
    # circle (the first is [379, 385]); r2(1001) = 0 (7 * 11 * 13), so
    # X = 1001 ends on an empty decade.  At X = 100007 segments of 7 would
    # take about 4 s, so that X runs with the other two lengths only.
    want = {k: dense_avg_abs_S(X, k) for k in (0, 4, -4, 8, 12)}
    segments = (circles.R2_SEGMENT, 1000, 7) if X < 10**5 else (circles.R2_SEGMENT, 1000)
    for segment in segments:
        monkeypatch.setattr(circles, "R2_SEGMENT", segment)
        for k, stats in want.items():
            assert circles.avg_abs_S(X, k) == stats, (segment, k)


@pytest.mark.parametrize("X", [100, 1001, 12345, 100007, 4 * 10**6])
def test_avg_abs_S_equals_fsum_of_listed_values(X):
    # exact_terms hands math.fsum a few floats per segment with the values'
    # exact sum, so each decade's sum, rounded once, is the one math.fsum of
    # the dense reference's listed values.
    for k in (0, 4, -4, 8):
        assert circles.avg_abs_S(X, k) == dense_avg_abs_S(X, k), k


@pytest.mark.parametrize("k", [0, 4, 8])
def test_abs_S_closed_range_equals_dense_oracle(k):
    for X in (0, 1, 2, 1001, 12345, 10**5):
        assert np.array_equal(circles.abs_S_closed_range(X, k), dense_table(X, k)), X


def test_avg_abs_S_k0_is_mean_r2():
    X = 10**4
    stats = circles.avg_abs_S(X, 0)
    assert not stats.vanishing_k
    assert stats.mean_abs_S == int(r2_table(X).sum()) / X


def test_avg_abs_S_negative_k_equals_positive():
    minus, plus = circles.avg_abs_S(10**4, -4), circles.avg_abs_S(10**4, 4)
    assert minus.decades == plus.decades and minus.mean_abs_S == plus.mean_abs_S


def test_avg_abs_S_streams_in_bounded_memory():
    # A dense X + 1 table peaks at 58.6 MiB at this X; the streamed sweep
    # holds one segment at a time, whatever X is: 6.6 MiB measured for the
    # octant, 10.7 MiB for the quarter sweep it replaced.
    tracemalloc.start()
    try:
        circles.avg_abs_S(4 * 10**6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 << 20


def prime_angle_sum(x, k):
    """sum over primes p <= x, p = 1 (mod 4), of |cos(k theta_p)| / p."""
    ps, thetas = circles.prime_angles(x)
    return float(np.sum(np.abs(np.cos(k * thetas)) / ps))


def test_prime_angle_sum_examples():
    """prime_angles' angles against brute-force splittings of p < 100."""
    # Only p = 5 contributes below 10: |cos(4 theta_5)| / 5 = (7/25)/5.
    assert prime_angle_sum(10, 4) == pytest.approx(7 / 125)
    # Independent oracle below 100: brute-force splittings.
    expected = 0.0
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        for y in range(1, math.isqrt(p) + 1):
            x2 = p - y * y
            x = math.isqrt(x2)
            if x * x == x2 and x > y:
                expected += abs(math.cos(4 * math.atan2(y, x))) / p
    assert prime_angle_sum(100, 4) == pytest.approx(expected, rel=1e-12)


def test_prime_angle_sum_bound_shape():
    """Growth between decades of prime_angles' sum is at most the (1/pi)
    loglog x slope (Hecke: the angles equidistribute)."""
    v4 = prime_angle_sum(10**4, 4)
    v6 = prime_angle_sum(10**6, 4)
    assert v6 > v4
    slope_cap = (1 / math.pi) * (math.log(math.log(10**6)) - math.log(math.log(10**4)))
    assert v6 - v4 <= slope_cap + 0.05


def test_mertens_check():
    """Mertens' product from prime_mask: prod_{p<=x} (1 - 1/p) log(x) e^gamma -> 1."""

    def mertens(x):
        ps = np.flatnonzero(circles.prime_mask(x))
        return math.exp(float(np.log1p(-1.0 / ps).sum()) + np.euler_gamma) * math.log(x)

    assert abs(mertens(10**6) - 1) <= 0.05
    assert abs(mertens(10**3) - 1) <= 0.15
    assert mertens(10) > 0


def old_prime_angles(limit):
    """Reference: the per-prime loop (spf sieve, Cornacchia, atan2) that the sweep replaced."""
    spf = circles.smallest_prime_factor_sieve(max(limit, 1))[: limit + 1]
    idx = np.arange(limit + 1)
    ps = idx[(spf == idx) & (idx % 4 == 1) & (idx > 1)]
    thetas = np.empty(len(ps), dtype=np.float64)
    for i, p in enumerate(ps.tolist()):
        x, y = two_squares_prime(p)
        thetas[i] = math.atan2(y, x)
    return ps, thetas


def cold_prime_angles(*limits):
    """prime_angles at each limit in turn, starting from an empty cache."""
    with pytest.MonkeyPatch.context() as mp:
        empty = {"limit": 0, "ps": np.empty(0, dtype=np.int64), "thetas": np.empty(0)}
        mp.setattr(circles, "_theta_cache", empty)
        return [circles.prime_angles(n) for n in limits]


def assert_same_angles(got, want):
    (ps, thetas), (ps0, thetas0) = got, want
    assert ps.dtype == ps0.dtype == np.int64 and np.array_equal(ps, ps0)
    assert thetas.dtype == thetas0.dtype == np.float64 and np.array_equal(thetas, thetas0)


@pytest.mark.parametrize("limit", list(range(201)) + [10**5])
def test_prime_angles_match_per_prime_loop(limit):
    (got,) = cold_prime_angles(limit)
    assert_same_angles(got, old_prime_angles(limit))


def test_prime_angles_cache_order():
    limits = (10**4, 10**3, 10**5)
    for limit, got in zip(limits, cold_prime_angles(*limits)):
        assert_same_angles(got, old_prime_angles(limit))


@pytest.mark.parametrize("segment", [1, 2, 3, 7, 997])
def test_prime_angles_across_segment_edges(monkeypatch, segment):
    """Short segments put primes, and the rows that hold them, on the
    segments' first and last radii."""
    monkeypatch.setattr(circles, "R2_SEGMENT", segment)
    limits = (1, 2, 5, 13, 17, 29, 97, 998, 1999, 2000)
    for limit, got in zip(limits, cold_prime_angles(*limits)):
        assert_same_angles(got, old_prime_angles(limit))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=300_000), min_size=1, max_size=3))
def test_prime_angles_match_per_prime_loop_property(limits):
    for limit, got in zip(limits, cold_prime_angles(*limits)):
        assert_same_angles(got, old_prime_angles(limit))


def test_range_statistics_refuse_unaffordable_X():
    tracemalloc.start()
    try:
        for X in (10**12, circles.MAX_RANGE_X + 1):
            with pytest.raises(PreconditionError, match="MAX_RANGE_X"):
                circles.avg_abs_S(X, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_avg_abs_S_refusal_names_a_time_budget():
    # The streamed sum holds one segment whatever X is, so the cap bounds
    # time, not bytes per m.
    with pytest.raises(PreconditionError, match="MAX_RANGE_X") as refusal:
        circles.avg_abs_S(circles.MAX_RANGE_X + 1, 4)
    assert "bytes per m" not in str(refusal.value)


def landau_count(x):
    """Number of 1 <= n <= x with r2(n) > 0, from r2_range."""
    return int(np.count_nonzero(r2_table(x)))


def test_landau_count_examples():
    assert landau_count(2) == 2
    # Brute-force oracle for small x.
    for x in (10, 50, 200):
        expected = sum(1 for n in range(1, x + 1) if brute_force_points(n))
        assert landau_count(x) == expected
    assert landau_count(10) == 7


def test_landau_count_ratio_stability():
    c5 = landau_count(10**5)
    c6 = landau_count(10**6)
    r5 = c5 / (10**5 / math.sqrt(math.log(10**5)))
    r6 = c6 / (10**6 / math.sqrt(math.log(10**6)))
    assert abs(r5 / r6 - 1) <= 0.05


def test_preconditions_raise():
    with pytest.raises(PreconditionError):
        circles.r2(0)
    with pytest.raises(PreconditionError):
        circles.circle_points(0)
    with pytest.raises(PreconditionError):
        circles.avg_abs_S(50, 4)
    with pytest.raises(PreconditionError):
        circles.abs_S_closed_range(100, 2)
    with pytest.raises(PreconditionError, match="X >= 0"):
        circles.abs_S_closed_range(-1, 4)
    with pytest.raises(PreconditionError):
        next(circles.r2_range(0, 10))


def test_circle_csv_roundtrip():
    pts = circles.circle_points(25)
    buf = io.StringIO()
    tables.write_circle_csv(pts, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,x,y,theta"
    assert len(lines) == 1 + pts.count
    rows = [line.split(",") for line in lines[1:]]
    parsed = {(int(r[1]), int(r[2])) for r in rows}
    assert parsed == set(pts.points)
    for r in rows:
        assert int(r[1]) ** 2 + int(r[2]) ** 2 == 25
        assert abs(float(r[3]) - math.atan2(int(r[2]), int(r[1]))) < 1e-15


def test_angle_stats_csv():
    stats = circles.avg_abs_S(1000, 4)
    buf = io.StringIO()
    tables.write_angle_stats_csv(stats, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "X,k,mean_abs_S"
    assert len(lines) == 1 + len(stats.decades)
    last = lines[-1].split(",")
    assert int(last[0]) == 1000
    assert float(last[2]) == pytest.approx(stats.mean_abs_S)
