import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvm2d import circles, errors, harness, tables
from dvm2d import collision as co
from dvm2d.errors import PositivityLossError, PreconditionError
from dvm2d.numtheory import is_prime
from oracles import (
    comprehension_angular_fourier,
    dense_abs_S_segments,
    enumerated_figure_data,
)

MAXWELL = co.KernelSpec.maxwell()


# ---------------------------------------------------------------------------
# angular_fourier
# ---------------------------------------------------------------------------

def test_angular_fourier_maxwellian_vanishes():
    m = co.Maxwellian(1.0, 0.2, -0.1, 1.0)
    af = harness.angular_fourier(m, MAXWELL, np.zeros(2), (3, 1), 0.25, K=16)
    assert np.abs(af.coeffs).max() <= 1e-10


def test_angular_fourier_mirror_symmetric_config_is_real_even():
    """Reflection-symmetric setup: f symmetric about the x-axis, v and
    zeta on it, q2 even; then g is even in theta, so the coefficients
    are real and ghat(k) = ghat(-k)."""
    bi = co.MaxwellianMixture(
        (co.Maxwellian(0.5, 1.0, 0.0, 0.9), co.Maxwellian(0.5, -1.0, 0.0, 0.9))
    )
    af = harness.angular_fourier(bi, MAXWELL, np.zeros(2), (4, 0), 0.25, K=16)
    scale = np.abs(af.coeffs).max()
    assert scale > 0
    assert np.abs(af.coeffs - af.coeffs[::-1]).max() <= 1e-12 * scale
    assert np.abs(af.coeffs.imag).max() <= 1e-12 * scale


def test_angular_fourier_decay_bound():
    bi = co.bimaxwellian()
    af = harness.angular_fourier(bi, MAXWELL, np.array([0.25, 0.5]), (3, 2), 0.25, K=64)
    ks = af.ks.astype(float)
    assert np.all(np.abs(af.coeffs) * (1 + ks**2) <= af.c3_fit * (1 + 1e-12))
    # conjugate symmetry of a real integrand
    assert np.abs(af.coeffs - np.conj(af.coeffs[::-1])).max() <= 1e-14


@pytest.mark.parametrize("K", [1, 16, 63, 64, 1001])  # n = 256 up to K = 63, 4K + 4 beyond
def test_angular_fourier_coefficients_match_comprehension_oracle(K):
    kernel = co.KernelSpec.product_power(0.5, (1, 0.3, 0.2))
    args = (co.bimaxwellian(), kernel, np.array([0.25, -0.5]), (3, 2), 0.25, K)
    af, old = harness.angular_fourier(*args), comprehension_angular_fourier(*args)
    assert np.array_equal(af.ks, old.ks)
    assert af.coeffs.dtype == old.coeffs.dtype and np.array_equal(af.coeffs, old.coeffs)
    assert af.c3_fit == old.c3_fit


# ---------------------------------------------------------------------------
# equid_term
# ---------------------------------------------------------------------------

def test_equid_term_m7_only_k4():
    x = int((3.0 / 0.1) ** 2)
    only4 = (2 * 0.1) ** 2 * float(circles.abs_S_closed_range(x, 4)[1:].sum())
    assert harness.equid_term(0.1, 3.0, 7) == pytest.approx(only4, rel=1e-15)


def test_equid_term_matches_brute_force():
    # R/h = 100, the largest size where direct point enumeration is cheap.
    h, R, M = 0.05, 5.0, 12
    fast = harness.equid_term(h, R, M)
    best = 0.0
    for k in (4, 8):
        tot = 0.0
        for n in range(1, int((R / h) ** 2) + 1):
            pts = circles.circle_points(n)
            if pts.count:
                tot += abs(np.exp(1j * k * pts.angles).sum())
        best = max(best, tot)
    assert fast == pytest.approx((2 * h) ** 2 * best, rel=1e-9)


@pytest.mark.parametrize(
    "h, R, M, segment",
    [(0.5, 3.0, 16, None), (0.25, 3.0, 16, None), (0.125, 3.0, 16, None),
     (0.125, 3.0, 400, None), (0.1, 2.0, 9, None), (0.125, 3.0, 400, 100),
     (0.5, 3.0, 8, None)],
)
def test_equid_term_matches_per_k_oracle(monkeypatch, h, R, M, segment):
    """The one-pass sweep against the dense reference, which powers z^4
    afresh for each k, bit for bit: per segment one math.fsum of each k's
    values, and the segments' sums added in order (segment = 100 splits
    the 576 radii into six).  At M = 8 only k = 4 counts, and the k = 8
    sum is 1.18 times larger, so a sweep of one k too many fails."""
    if segment:
        monkeypatch.setattr(circles, "R2_SEGMENT", segment)
    sums = []
    for k in range(4, M, 4):
        total = 0.0
        for values in dense_abs_S_segments(co.circle_limit(h, R), k):
            total += math.fsum(values.tolist())
        sums.append(total)
    assert harness.equid_term(h, R, M) == (2 * h) ** 2 * max(sums)


def test_equid_term_decreases_as_h_halves():
    vals = [harness.equid_term(h, 3.0, 12) for h in (0.5, 0.25, 0.125)]
    assert vals[0] > vals[1] > vals[2]


def test_equid_term_precondition():
    with pytest.raises(PreconditionError):
        harness.equid_term(0.1, 3.0, 4)


# ---------------------------------------------------------------------------
# converge_study
# ---------------------------------------------------------------------------

def test_converge_study_rejects_non_decreasing_ladder():
    with pytest.raises(PreconditionError):
        harness.converge_study(co.Maxwellian(), MAXWELL, np.zeros(2), [0.25, 0.5], R=2.0)


def test_converge_study_rejects_empty_h_list():
    with pytest.raises(PreconditionError, match="h_list must not be empty"):
        harness.converge_study(co.Maxwellian(), MAXWELL, np.zeros(2), [], R=2.0)


def test_converge_study_inner_integral_once(monkeypatch):
    bi = co.bimaxwellian()
    calls = []

    def counted(name, routine):
        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return call

    monkeypatch.setattr(co, "_ring_angular_integral", counted("ring", co._ring_angular_integral))
    monkeypatch.setattr(harness, "angular_integral", counted("lattice", co.angular_integral))
    harness.converge_study(bi, MAXWELL, np.zeros(2), [0.5, 0.25, 0.125], R=2.0, M_diag=8)
    # The reference's coarse and fine levels on the polar rings, then one
    # lattice sum per h; the tail and the inner disk are read off the fine level.
    assert calls == ["ring", "ring", "lattice", "lattice", "lattice"]


def test_converge_study_budget_reads_the_fine_level():
    """tail_R and the inner disk come from q_reference's fine level: the
    same numbers as integrating its polar panels again, ring by ring, at
    2 n_theta nodes."""
    bi, v, R = co.bimaxwellian(), np.array([0.5, -1.0]), 2.0
    quad = co.QuadratureConfig(r_quad=2 * R)
    ref = co.q_reference(bi, v, MAXWELL, quad)
    n_w, n_theta = 2 * quad.n_w, 2 * quad.n_theta

    def rings(nodes):
        return co._ring_angular_integral(bi, v, MAXWELL, nodes, n_w, n_theta)

    w, weights = co.polar_disk(2 * R, n_w)
    assert np.array_equal(ref.nodes, w) and np.array_equal(ref.weights, weights)
    assert np.array_equal(ref.angular, rings(w))
    assert ref.value == 4.0 * math.fsum((weights * ref.angular).tolist())

    # The panels split at |w| = R: the inner panel's nodes are the first half.
    half = len(w) // 2
    outer = slice(half, None)
    assert np.hypot(w[half - 1, 0], w[half - 1, 1]) < R < np.hypot(w[half, 0], w[half, 1])
    study = harness.converge_study(bi, MAXWELL, v, [0.5], R=R, M_diag=8)
    budget = study.rows[0].budget
    g_out = rings(w[outer])
    assert budget.tail_R == 4.0 * math.fsum((weights[outer] * np.abs(g_out)).tolist())
    # riemann_h: the inner disk against the lattice Riemann sum, both at 2 n_theta nodes.
    g_in = rings(w[:half])
    inner = 4.0 * math.fsum((weights[:half] * g_in).tolist())
    # The lattice disk 0 < |zeta|^2 <= (R/h)^2 = 16, in its own order: the
    # study sums the same nodes in the circle table's order, so the sums
    # agree to within the rounding of either order.
    ix = np.arange(-4, 5)
    wx, wy = np.meshgrid(ix, ix, indexing="ij")
    keep = (wx * wx + wy * wy <= 16) & ((wx != 0) | (wy != 0))
    lattice_w = 0.5 * np.stack([wx[keep], wy[keep]], axis=-1)
    terms = (2 * 0.5) ** 2 * co.angular_integral(bi, v, MAXWELL, lattice_w, n_theta)
    riemann = math.fsum(terms.tolist())
    slack = len(terms) * np.finfo(float).eps * float(np.abs(terms).sum())
    assert abs(budget.riemann_h - abs(inner - riemann)) <= slack


@pytest.mark.parametrize("v", [(0.0, 0.0), (0.5, -1.0)])
def test_converge_study_inner_panel_is_the_reference_on_the_R_disk(v):
    """The fine level's inner panel (r_quad = 2R) and q_reference with
    r_quad = R integrate G_v over the same disk |w| <= R with different
    nodes; both rules are spectral, so they agree to roundoff."""
    bi, v, R = co.bimaxwellian(), np.array(v), 3.0
    ref = co.q_reference(bi, v, MAXWELL, co.QuadratureConfig(r_quad=2 * R))
    inside = np.hypot(ref.nodes[:, 0], ref.nodes[:, 1]) < R
    inner = 4.0 * math.fsum((ref.weights[inside] * ref.angular[inside]).tolist())
    on_R = co.q_reference(bi, v, MAXWELL, co.QuadratureConfig(r_quad=R)).value
    assert abs(inner - on_R) <= 1e-13 * abs(on_R)


def test_converge_study_refuses_unaffordable_h_before_sampling(monkeypatch):
    # A small budget, so that a check that failed to fire would sample a
    # small state, not a huge one: h = 0.05 samples 245^2 points.
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 200**2 * 64)
    tracemalloc.start()
    try:
        # (R/h)^2 = 9e6 is past the circle table's limit, although 0.5 is fine.
        table = r"circle_table\(9000000\): 4 \* limit points: 36000000 x 48 bytes"
        with pytest.raises(PreconditionError, match=table):
            harness.converge_study(co.bimaxwellian(), MAXWELL, np.zeros(2), [0.5, 0.001], R=3.0)
        with pytest.raises(PreconditionError, match="245\\^2 points: 60025 x 64 bytes"):
            harness.converge_study(co.bimaxwellian(), MAXWELL, np.zeros(2), [0.5, 0.05], R=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "v, h_list, M, match",
    [
        ((0.0, 0.0), [0.5], 4, "M must be >= 5"),
        ((0.0, 0.0), [0.5], 2033602, "M = 2033602: 4M angle nodes: 8134408 x 132 bytes"),
        ((0.5, 0.0), [0.5, 0.2], 8, "not on the h-lattice"),
    ],
    ids=["M-4", "M-past-cap", "v-off-lattice"],
)
def test_converge_study_refuses_before_any_work(monkeypatch, v, h_list, M, match):
    calls = []
    monkeypatch.setattr(harness, "q_reference", lambda *args: calls.append(args))
    with pytest.raises(PreconditionError, match=match):
        harness.converge_study(co.bimaxwellian(), MAXWELL, np.array(v), h_list, R=2.0, M_diag=M)
    assert calls == []


@pytest.mark.parametrize("v", [(0.0, 0.0), (0.3, -0.7), (1.2, 0.5), (-2.5, 3.1)])
def test_sample_about_matches_sampling_about_the_origin(v):
    """Q^h at 0 of the state sampled about v is Q^h at v of the state
    sampled about the origin, up to the rounding of u + v; at v = 0 the two
    states are the same."""
    bi, h, R = co.bimaxwellian(), 0.1, 1.5
    v = np.array(v)
    about = harness.sample_about(bi, v, h, R)
    assert about.bound == co.lattice_bound(h, 2 * R + 2 * h)
    whole = co.sample_on_lattice(bi, h, float(np.hypot(v[0], v[1])) + 2 * R + 2 * h)
    new, gross = co.q_discrete_detailed(about, np.zeros(2), MAXWELL, R)
    old = co.q_discrete(whole, v, MAXWELL, R)
    assert abs(new - old) <= 1e-15 * gross  # measured up to 1.6e-16
    if not v.any():
        assert np.array_equal(about.grid, whole.grid) and new == old


def test_converge_study_zero_f():
    zero = lambda pts: np.zeros(np.asarray(pts).shape[:-1])
    study = harness.converge_study(zero, MAXWELL, np.zeros(2), [0.5, 0.25], R=2.0, M_diag=8)
    assert study.qref == 0.0
    for row in study.rows:
        assert row.qh == 0.0 and row.abs_err == 0.0
        assert row.budget.tail_R == 0.0
        assert row.budget.riemann_h == 0.0
        assert row.budget.fourier_tail_M == 0.0
        assert row.budget.equid == 0.0


def test_converge_study_bimaxwellian_budget():
    bi = co.bimaxwellian()
    study = harness.converge_study(
        bi, MAXWELL, np.zeros(2), [0.5, 0.25, 0.125], R=3.0, M_diag=16
    )
    errs = [row.abs_err for row in study.rows]
    assert errs[0] > errs[-1]
    riemanns = [row.budget.riemann_h for row in study.rows]
    for a, b in zip(riemanns, riemanns[1:]):
        assert 1.5 < a / b < 3.0  # first-order outer Riemann error
    for row in study.rows:
        b = row.budget
        assert b.tail_R >= 0 and b.riemann_h >= 0
        assert b.fourier_tail_M > 0 and b.equid > 0  # both proportional to C3


def test_tail_term_bounds_dropped_tail():
    """tail_R is the one rigorous bound: it dominates what truncating the
    w-integral at R actually drops."""
    bi = co.bimaxwellian()
    study = harness.converge_study(bi, MAXWELL, np.zeros(2), [0.5], R=3.0, M_diag=8)
    inner_only = co.q_reference(
        bi, np.zeros(2), MAXWELL, co.QuadratureConfig(r_quad=3.0, n_w=96, n_theta=96)
    )
    dropped = abs(study.qref - inner_only.value)
    assert dropped <= study.rows[0].budget.tail_R + 1e-10


def test_convergence_csv():
    bi = co.bimaxwellian()
    study = harness.converge_study(bi, MAXWELL, np.zeros(2), [0.5], R=2.0, M_diag=8)
    buf = io.StringIO()
    tables.write_convergence_csv(study, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("h,Qh,Qref,abs_err")
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# figure_data
# ---------------------------------------------------------------------------

def test_figure_query_validation():
    with pytest.raises(PreconditionError):
        harness.FigureQuery(5, 3, 72)
    with pytest.raises(PreconditionError):
        harness.FigureQuery(0, 100, 70)
    with pytest.raises(PreconditionError):
        harness.FigureQuery(0, 100, 72, "gte")
    with pytest.raises(PreconditionError):
        harness.FigureQuery(0, 30000, 72)


def test_figure_data_small_box_brute_force():
    data = harness.figure_data(harness.FigureQuery(1, 9, 8, "ge"))
    brute = sorted(
        (z1, z2)
        for z1 in range(1, 10)
        for z2 in range(1, 10)
        if circles.r2(z1 * z1 + z2 * z2) >= 8
    )
    assert sorted(map(tuple, data.points.tolist())) == brute
    for (x, y), n, r in zip(data.points.tolist(), data.n_values.tolist(), data.r_values.tolist()):
        assert x * x + y * y == n
        assert circles.r2(n) == r


def test_figure_data_gt_vs_ge():
    ge = harness.figure_data(harness.FigureQuery(1, 30, 8, "ge"))
    gt = harness.figure_data(harness.FigureQuery(1, 30, 8, "gt"))
    assert gt.count == int((ge.r_values > 8).sum())
    assert ge.count >= gt.count


def test_figure_data_deterministic():
    q = harness.FigureQuery(1, 50, 16, "ge")
    a = harness.figure_data(q)
    b = harness.figure_data(q)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.n_values, b.n_values)


def assert_same_figure(got, want):
    for a, b in ((got.points, want.points), (got.n_values, want.n_values),
                 (got.r_values, want.r_values)):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize(
    "query",
    [(0, 0, 4, "ge"), (0, 1, 4, "ge"), (3, 3, 4, "ge"), (0, 120, 48, "gt"),
     (0, 300, 96, "ge"), (10000, 10030, 72, "ge"), (19990, 20000, 96, "gt")],
)
def test_figure_data_matches_enumeration(query):
    q = harness.FigureQuery(*query)
    assert_same_figure(harness.figure_data(q), enumerated_figure_data(q))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=60),
    st.sampled_from([4, 8, 12, 16, 24, 32, 48, 64, 96]),
    st.sampled_from(["ge", "gt"]),
)
def test_figure_data_matches_enumeration_property(lo, width, threshold, comparison):
    q = harness.FigureQuery(lo, lo + width, threshold, comparison)
    assert_same_figure(harness.figure_data(q), enumerated_figure_data(q))


def test_figure_data_refuses_unaffordable_census(monkeypatch):
    # Room for the 28285 rows of r2_range (2.0 MB), not for the kept points.
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 4 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="figure_data's kept points"):
            harness.figure_data(harness.FigureQuery(0, 20000, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 10**4 * harness.FIGURE_BYTES_PER_POINT)
    # Exactly at the bound the census still runs: 10**4 points in the 1..100 box.
    data = harness.figure_data(harness.FigureQuery(1, 100, 4))
    assert data.count == 10**4


@pytest.mark.parametrize(
    "query",
    [(0, 0, 4, "ge"), (5, 5, 4, "ge"), (5, 5, 12, "ge"), (5, 5, 12, "gt"),
     (25, 25, 4, "gt"), (7, 90, 8, "ge"), (7, 90, 8, "gt"), (0, 400, 48, "gt"),
     (1000, 1100, 72, "ge"), (1000, 1100, 72, "gt")],
)
def test_figure_data_matches_quarter_oracle(query):
    """The half box and its mirror give every box point of the enumerated
    circles; lo = hi is the single diagonal point (lo, lo).  The name is
    that of the retired quarter-plane oracle."""
    q = harness.FigureQuery(*query)
    assert_same_figure(harness.figure_data(q), enumerated_figure_data(q))


@pytest.mark.parametrize(
    "query, segment",
    [((5, 5, 4, "ge"), 1 << 17), ((3, 60, 8, "ge"), 97), ((0, 200, 24, "gt"), 1 << 17),
     ((0, 200, 24, "gt"), 1000)],
)
def test_figure_data_refusal_counts_the_mirror_exactly(monkeypatch, query, segment):
    """With room for exactly its points the census runs, one point fewer refuses:
    each off-diagonal point counts twice and each diagonal point once.  The
    rows of r2_range, which the same budget also bounds, are not counted here."""
    monkeypatch.setattr(circles, "R2_SEGMENT", segment)
    monkeypatch.setattr(circles, "R2_RANGE_BYTES_PER_ROW", 0)
    q = harness.FigureQuery(*query)
    count = enumerated_figure_data(q).count
    assert count > 0
    monkeypatch.setattr(errors, "MEMORY_BUDGET", count * harness.FIGURE_BYTES_PER_POINT)
    assert harness.figure_data(q).count == count
    monkeypatch.setattr(errors, "MEMORY_BUDGET", (count - 1) * harness.FIGURE_BYTES_PER_POINT)
    with pytest.raises(PreconditionError, match=f"kept points .*: {count} x 64 bytes"):
        harness.figure_data(q)


def test_figure_data_traced_peak_within_its_bytes_per_point():
    tracemalloc.start()
    try:
        data = harness.figure_data(harness.FigureQuery(0, 600, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.count == 601 * 601 - 1  # every box point but the origin
    assert peak <= harness.FIGURE_BYTES_PER_POINT * data.count + (4 << 20)


def test_figure_csv():
    data = harness.figure_data(harness.FigureQuery(1, 9, 8, "ge"))
    buf = io.StringIO()
    tables.write_figure_csv(data, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "zeta1,zeta2,n,r2"
    assert len(lines) == 1 + data.count


@pytest.mark.parametrize("rows", [1, 7, 1 << 16])
@pytest.mark.parametrize("query", [(0, 0, 4, "ge"), (5, 5, 4, "ge"), (0, 120, 8, "ge")])
def test_figure_csv_matches_csv_writer(monkeypatch, rows, query):
    """The %-formatted table is csv.writer's text, CRLF included, whatever the
    rows per write."""
    monkeypatch.setattr(tables, "CSV_CHUNK_ROWS", rows)
    data = harness.figure_data(harness.FigureQuery(*query))
    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["zeta1", "zeta2", "n", "r2"])
    for (x, y), n, r in zip(data.points.tolist(), data.n_values.tolist(),
                            data.r_values.tolist()):
        w.writerow([x, y, n, r])
    got = io.StringIO()
    tables.write_figure_csv(data, got)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# max_r_search
# ---------------------------------------------------------------------------

def exhaustive_max_r(radius_bound: int) -> tuple[int, int]:
    x = radius_bound * radius_bound
    counts = np.zeros(x + 1, dtype=np.int64)
    for a in range(-radius_bound, radius_bound + 1):
        rem = x - a * a
        b = math.isqrt(rem)
        bs = np.arange(-b, b + 1)
        np.add.at(counts, a * a + bs * bs, 1)
    n_best = int(np.argmax(counts))
    return n_best, int(counts[n_best])


def test_max_r_search_examples():
    assert harness.max_r_search(math.sqrt(5)) == (5, 8)
    assert harness.max_r_search(100) == exhaustive_max_r(100)
    assert harness.max_r_search(300) == exhaustive_max_r(300)


def test_max_r_search_full_bound():
    assert harness.max_r_search(20000) == (243061325, 384)


def old_primes_1mod4_ascending(limit_product):
    """Reference: the loop with an is_prime test per odd p that the prime mask replaced."""
    out, running, p = [], 1, 5
    while running * p <= limit_product:
        if p % 4 == 1 and is_prime(p):
            out.append(p)
            running *= p
        p += 2
    return out


def test_primes_1mod4_ascending_matches_is_prime_loop():
    # From 10**13 on the primes pass 64, the mask's first size, so it regrows.
    for limit in list(range(400)) + [10**k + d for k in range(3, 31) for d in (-1, 0, 1)]:
        assert harness._primes_1mod4_ascending(limit) == old_primes_1mod4_ascending(limit), limit


def test_max_r_search_precondition():
    with pytest.raises(PreconditionError):
        harness.max_r_search(30000)


# ---------------------------------------------------------------------------
# relax_simulate
# ---------------------------------------------------------------------------

def test_relax_maxwellian_stays_put():
    m = co.Maxwellian(1.0, 0.0, 0.0, 0.4)
    f0 = co.sample_on_lattice(m, 0.25, 4.0)
    traj = harness.relax_simulate(f0, MAXWELL, R=2.0, dt=0.01, steps=100, record_every=100)
    lo = traj[-1].f.bound - f0.bound
    sl = slice(lo, lo + 2 * f0.bound + 1)
    dev = np.abs(traj[-1].f.grid[sl, sl] - f0.grid).max()
    assert dev <= 1e-6 * f0.grid.max()


def test_relax_bimaxwellian_h_decreases_and_moments_hold():
    mix = co.MaxwellianMixture(
        (co.Maxwellian(0.5, 1.25, 0.0, 0.4), co.Maxwellian(0.5, -1.25, 0.0, 0.4))
    )
    f0 = co.sample_on_lattice(mix, 0.25, 5.0)
    traj = harness.relax_simulate(f0, MAXWELL, R=5.0, dt=1e-3, steps=20)
    hs = [s.H for s in traj]
    for a, b in zip(hs, hs[1:]):
        assert b - a <= 1e-10
    m0 = traj[0]
    for s in traj[1:]:
        assert abs(s.mass - m0.mass) <= 1e-8 * m0.mass
        assert abs(s.momentum[0] - m0.momentum[0]) <= 1e-8 * (abs(m0.momentum[0]) + m0.mass)
        assert abs(s.energy - m0.energy) <= 1e-8 * m0.energy


KERNELS = [MAXWELL, co.KernelSpec.product_power(0.5, (1, 0, 0.5))]


@pytest.mark.parametrize("kernel", KERNELS, ids=["maxwell", "pp05"])
def test_relax_simulate_follows_the_frame_path(kernel):
    """relax_simulate's rate, apply_grid on the widened square times the
    disk, steps bit for bit as an RK4 loop on the crop of apply_grid over
    the widened state zero-padded by R/h does: the operator's plan at
    another bound and stride."""
    h, R, dt = 0.5, 3.0, 0.01
    f0 = co.sample_on_lattice(co.bimaxwellian(), h, 3.0)
    wide = f0.widened()
    k, side = co.lattice_bound(h, R), 2 * wide.bound + 1
    op = co.FastCollisionOperator(h, R, kernel, wide.bound + k)

    def rate(s):
        return op.apply_grid(np.pad(s, k))[k : k + side, k : k + side] * wide.disk

    state = wide.grid
    for steps in range(1, 6):
        k1 = rate(state)
        k2 = rate(state + 0.5 * dt * k1)
        k3 = rate(state + 0.5 * dt * k2)
        k4 = rate(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        last = harness.relax_simulate(f0, kernel, R, dt, steps)[-1]
        assert np.array_equal(last.f.grid, np.maximum(state, 0.0))


def sum_as_listed(monkeypatch):
    """Make every exact_terms site hand math.fsum each value as a Python float."""
    listed = lambda values: np.asarray(values).ravel().tolist()
    monkeypatch.setattr(harness, "exact_terms", listed)
    monkeypatch.setattr(co, "exact_terms", listed)


@pytest.mark.parametrize("kernel", KERNELS, ids=["maxwell", "pp05"])
def test_exact_terms_sites_equal_fsum_of_lists(monkeypatch, kernel):
    """relax_simulate's moments and H, collision_invariants and q_reference's
    polar_sum, bit for bit as math.fsum over every value."""
    f0 = co.sample_on_lattice(co.bimaxwellian(), 0.25, 5.0)
    state = co.LatticeDistribution(0.25, 5.0, np.random.default_rng(41).random((41, 41)))
    quad = co.QuadratureConfig(r_quad=6.6, n_w=96, n_theta=96)

    def run():
        traj = harness.relax_simulate(f0, kernel, R=5.0, dt=1e-3, steps=10)
        ref = co.q_reference(co.bimaxwellian(), np.zeros(2), kernel, quad)
        return (
            [(s.t, s.mass, s.momentum, s.energy, s.H) for s in traj],
            traj[-1].f.grid,
            co.collision_invariants(state, kernel, R=5.0),
            (ref.value, ref.self_convergence),
        )

    got = run()
    sum_as_listed(monkeypatch)
    want = run()
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def test_relax_positivity_abort():
    mix = co.MaxwellianMixture(
        (co.Maxwellian(0.5, 1.25, 0.0, 0.4), co.Maxwellian(0.5, -1.25, 0.0, 0.4))
    )
    f0 = co.sample_on_lattice(mix, 0.25, 5.0)
    with pytest.raises(PositivityLossError):
        harness.relax_simulate(f0, MAXWELL, R=5.0, dt=50.0, steps=50)


def test_relax_csv():
    m = co.Maxwellian(1.0, 0.0, 0.0, 0.4)
    f0 = co.sample_on_lattice(m, 0.25, 2.0)
    traj = harness.relax_simulate(f0, MAXWELL, R=1.0, dt=0.01, steps=3)
    buf = io.StringIO()
    tables.write_relax_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,mass,momentum_x,momentum_y,energy,H"
    assert len(lines) == 1 + len(traj)



def test_relax_memory_does_not_grow_with_the_steps():
    """Only the last snapshot keeps its state f.  At the relax workload's
    tiny size (h = 0.5, support 3, R = 3: a widened grid of 21^2 points),
    200 steps trace a peak less than two grids above that of 20 steps.
    Snapshots are taken every 20 steps, so that the nine extra snapshots'
    scalars (about 280 bytes each) stay small against a grid."""
    f0 = co.sample_on_lattice(co.bimaxwellian(), 0.5, 3.0)
    harness.relax_simulate(f0, MAXWELL, R=3.0, dt=1e-3, steps=1)  # circle table cached
    peaks, trajectories = {}, {}
    for steps in (20, 200):
        tracemalloc.start()
        try:
            trajectories[steps] = harness.relax_simulate(
                f0, MAXWELL, R=3.0, dt=1e-3, steps=steps, record_every=20
            )
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    traj = trajectories[200]
    assert len(traj) == 11 and all(s.f is None for s in traj[:-1])
    assert traj[-1].f.grid.shape == (21, 21)
    assert peaks[200] - peaks[20] < 2 * traj[-1].f.grid.nbytes

def test_relax_preconditions(monkeypatch):
    f0 = co.sample_on_lattice(co.Maxwellian(), 0.5, 2.0)
    for dt in (-0.1, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="dt must be positive and finite"):
            harness.relax_simulate(f0, MAXWELL, R=1.0, dt=dt, steps=5)
    with pytest.raises(PreconditionError):
        harness.relax_simulate(f0, MAXWELL, R=1.0, dt=0.1, steps=0)
    for every in (0, -1):
        with pytest.raises(PreconditionError, match="record_every"):
            harness.relax_simulate(f0, MAXWELL, R=1.0, dt=0.1, steps=5, record_every=every)
    # The operator's frame about the widened state (bound 7, R/h = 2) is
    # checked before the state is widened; a budget that holds the widened
    # state's 15^2 points at 64 bytes does not hold it.
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 15**2 * 64 - 1)
    monkeypatch.setattr(co.LatticeDistribution, "widened", lambda self: pytest.fail("widened"))
    with pytest.raises(PreconditionError, match=r"frame has 19\^2 points: 361 x 576 bytes"):
        harness.relax_simulate(f0, MAXWELL, R=1.0, dt=0.1, steps=5)
