import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvm2d.circles import R2_SEGMENT
from dvm2d.errors import PreconditionError
from dvm2d.numtheory import (
    exact_terms,
    factorize,
    gaussian_factorize,
    gaussian_pow,
    is_prime,
    two_squares_prime,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(400000007) == trial_division_is_prime(400000007)


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441


def test_is_prime_refuses_unproven_range():
    # psi_12 is a strong pseudoprime to all twelve Miller-Rabin bases.
    assert 399165290221 * 798330580441 == PSI_12
    assert is_prime(PSI_12 - 2) is False
    with pytest.raises(PreconditionError):
        is_prime(PSI_12)
    with pytest.raises(PreconditionError):
        factorize(PSI_12)


def test_is_prime_matches_sieve_to_1e6():
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    mismatches = [n for n in range(limit + 1) if bool(sieve[n]) != is_prime(n)]
    assert mismatches == []


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(60) == [(2, 2), (3, 1), (5, 1)]
    assert factorize(243061325) == [
        (5, 2), (13, 1), (17, 1), (29, 1), (37, 1), (41, 1),
    ]


def test_factorize_small_corpus_reconstructs():
    for n in range(1, 10**5 + 1):
        prod = 1
        last_p = 0
        for p, alpha in factorize(n):
            assert p > last_p
            last_p = p
            prod *= p**alpha
        assert prod == n


def test_factorize_random_64bit_reconstructs():
    rng = random.Random(20240211)
    for _ in range(10**4):
        n = rng.randrange(1, 2**64)
        prod = 1
        for p, alpha in factorize(n):
            prod *= p**alpha
        assert prod == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_factors_are_prime(n):
    for p, alpha in factorize(n):
        assert is_prime(p)
        assert alpha >= 1


def test_factorize_agrees_with_trial_division():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        assert factorize(n) == trial_division_factorize(n)


def exhaustive_two_squares(p: int) -> tuple[int, int]:
    for y in range(1, math.isqrt(p) + 1):
        x2 = p - y * y
        x = math.isqrt(x2)
        if x * x == x2 and x >= y:
            return x, y
    raise AssertionError(f"no representation for {p}")


def test_two_squares_prime_examples():
    assert two_squares_prime(5) == (2, 1)
    assert two_squares_prime(13) == (3, 2)
    # A prime congruent to 1 mod 4 near 10^6, checked by the exact identity
    # and against exhaustive search.
    p = 1000033
    assert is_prime(p) and p % 4 == 1
    x, y = two_squares_prime(p)
    assert x * x + y * y == p
    assert (x, y) == exhaustive_two_squares(p)


def test_two_squares_prime_identity_many():
    count = 0
    for p in range(5, 20000, 4):
        if not is_prime(p):
            continue
        x, y = two_squares_prime(p)
        assert x * x + y * y == p
        assert x > y > 0
        count += 1
    assert count > 500


@pytest.mark.parametrize("bad", [7, 6, 2, 9, 1])
def test_two_squares_prime_rejects(bad):
    with pytest.raises(PreconditionError):
        two_squares_prime(bad)


def test_gaussian_factorize_examples():
    g = gaussian_factorize(25)
    assert g.factors == ((5, 2),)
    assert len(g.splittings) == 1
    s = g.splittings[0]
    assert (s.x, s.y) == (2, 1)
    assert s.theta == pytest.approx(math.atan(0.5))
    assert s.alpha == 2

    g = gaussian_factorize(9)
    assert g.factors == ((3, 2),)
    assert g.splittings == ()
    assert g.is_sum_of_two_squares()

    g = gaussian_factorize(2)
    assert g.factors == ((2, 1),)
    assert g.two_exponent == 1


def test_gaussian_splitting_angles_in_range():
    for n in range(2, 3000):
        g = gaussian_factorize(n)
        alphas = dict(g.factors)
        for s in g.splittings:
            assert 0 < s.theta < math.pi / 4
            assert s.x * s.x + s.y * s.y == s.p
            assert s.alpha == alphas[s.p]


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_gaussian_pow_is_exact(x, y, m):
    """Python ints: the power of one more factor, and the norm, exactly."""
    re, im = gaussian_pow(x, y, m)
    assert re * re + im * im == (x * x + y * y) ** m
    assert gaussian_pow(x, y, m + 1) == (re * x - im * y, re * y + im * x)
    assert gaussian_pow(x, y, 0) == (1, 0)


def test_gaussian_pow_elementwise_on_arrays():
    """int64 and object arrays give, per element, the Python-int power."""
    xs = np.array([0, 1, -3, 7, 12, -5], dtype=np.int64)
    ys = np.array([1, 0, 4, -2, 5, -5], dtype=np.int64)
    for m in range(0, 11):  # |x + iy|^m < 2^62 throughout
        for dtype in (np.int64, object):
            re, im = gaussian_pow(xs.astype(dtype), ys.astype(dtype), m)
            want = [gaussian_pow(x, y, m) for x, y in zip(xs.tolist(), ys.tolist())]
            assert np.broadcast_to(re, xs.shape).tolist() == [w[0] for w in want]
            assert np.broadcast_to(im, xs.shape).tolist() == [w[1] for w in want]
    re, _ = gaussian_pow(xs.astype(object), ys.astype(object), 30)  # past int64
    assert re[4] == gaussian_pow(12, 5, 30)[0] and abs(re[4]) > 1 << 63


# ---------------------------------------------------------------------------
# exact_terms
# ---------------------------------------------------------------------------

# m * 2^e with |m| < 2^53 and e in -1074 .. 947: either sign, magnitudes from
# the least subnormal to 2^1000, and the zeros and subnormals themselves;
# full 53-bit m over a few e put many values in one bin, where sums carry.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)]),
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 947)),
    st.builds(
        lambda m, e, negative: math.ldexp(-m if negative else m, e),
        st.integers(2**52, 2**53 - 1), st.sampled_from([-1074, -1022, -2, 0, 1]), st.booleans(),
    ),
)


def assert_fsum_equal(a: np.ndarray) -> None:
    terms = exact_terms(a)
    assert math.fsum(terms) == math.fsum(a.ravel().tolist())
    # At most two terms per binary exponent (subnormals share one).
    assert len(terms) <= 2 * len(np.unique(np.frexp(a)[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOATS, max_size=200), st.lists(FLOATS, max_size=50))
def test_exact_terms_sum_as_fsum_does(xs, ys):
    """math.fsum of the terms is math.fsum of the values, bit for bit; with
    every x also as -x the values cancel down to the ys' sum."""
    assert_fsum_equal(np.array(xs, dtype=np.float64))
    assert_fsum_equal(np.array(xs + ys + [-x for x in reversed(xs)], dtype=np.float64))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2022), st.booleans())
def test_exact_terms_sum_one_segment(seed, width, signed):
    """2^17 values, one circles.R2_SEGMENT, over exponent windows from one
    binary exponent, where the bins carry hardest, to the whole range."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-(2**53) + 1, 2**53, R2_SEGMENT)
    lo = int(rng.integers(-1074, 949 - width))
    e = rng.integers(lo, lo + width, R2_SEGMENT)
    a = np.ldexp((m if signed else np.abs(m)).astype(np.float64), e)
    assert_fsum_equal(a)
    assert_fsum_equal(a.reshape(-1, 1 << 8)[:, ::2])  # a strided 2-D view


def test_exact_terms_of_no_value_and_of_one():
    assert exact_terms(np.array([])) == []
    assert exact_terms(np.array([0.0, -0.0])) == []
    for x in (5e-324, -2.5, 1.7976931348623157e308):
        assert math.fsum(exact_terms(np.array([x]))) == x


@pytest.mark.parametrize("bad", [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf]])
def test_exact_terms_refuses_non_finite_values(bad):
    # pytest turns numpy's RuntimeWarning into an error, so none is raised.
    with pytest.raises(PreconditionError, match="finite"):
        exact_terms(np.array([1.0, *bad]))


def test_exact_terms_refuses_an_overflowing_sum():
    big = np.array([2.0**1023, 2.0**1023])
    with pytest.raises(OverflowError):
        math.fsum(big.tolist())
    with pytest.raises(PreconditionError, match="overflow"):
        exact_terms(big)


def test_exact_terms_refuses_2_26_values_before_reading_them():
    """The bins are exact below 2^26 values; the check reads only the
    size, so a 512 MiB broadcast view of one zero allocates nothing."""
    huge = np.broadcast_to(np.zeros(1), (1 << 26,))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="2\\^26"):
            exact_terms(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
