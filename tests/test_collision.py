import functools
import hashlib
import io
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvm2d import collision as co
from dvm2d import tables
from dvm2d.circles import circle_points, circle_table
from dvm2d.errors import PreconditionError, QuadratureError
from oracles import (
    all_nodes_angular_integral,
    box_loop_frame,
    box_loop_gain,
    exact_angular_factor,
    exact_q,
    int_loop_harmonic_weights,
    midpoint_level,
)


MAXWELL = co.KernelSpec.maxwell()
ORACLE_KERNELS = [
    MAXWELL,
    co.KernelSpec.product_power(0.5, (1, 0, 0.5)),
    co.KernelSpec.product_power(1.0, (1, 0.3, 0.2)),  # odd harmonic: cancels in the gain
    co.KernelSpec.product_power(1.0, (1, 0, 0.2, 0, 0.05)),
    co.KernelSpec.product_power(0.5, (1,)),  # single channel, one weight per circle
]
ORACLE_IDS = ["maxwell", "pp05", "pp_odd", "pp_m4", "pp05_single"]


def test_kernel_spec_validation():
    with pytest.raises(PreconditionError):
        co.KernelSpec.product_power(1.5, (1.0,))
    with pytest.raises(PreconditionError):
        co.KernelSpec.product_power(0.5, (0.0, 1.0))  # q2 = cos(theta) < 0
    k = co.KernelSpec.product_power(0.5, (1.0, 0.0, 0.5))
    assert k.evaluate(2.0, 1.0) == pytest.approx(math.sqrt(2.0) * 1.5)
    assert np.all(np.asarray(MAXWELL.evaluate(np.zeros(3), np.zeros(3))) == 1.0)


def test_maxwell_is_the_constant_product_power_kernel():
    """Maxwell is product_power(0, (1,)): the same spec and bit-identical Q^h."""
    constant = co.KernelSpec.product_power(0, (1,))
    assert constant == MAXWELL == co.KernelSpec()
    assert constant.kind == MAXWELL.kind == "maxwell"
    assert co.KernelSpec.product_power(0.0, (2.0,)).kind == "product_power"
    assert co.KernelSpec.product_power(0.5, (1.0,)).kind == "product_power"
    rng = np.random.default_rng(5)
    h, b = 0.25, 10
    grid = rng.random((2 * b + 1, 2 * b + 1))
    q_max = co.FastCollisionOperator(h, 2.0, MAXWELL, b).apply_grid(grid)
    q_pp = co.FastCollisionOperator(h, 2.0, constant, b).apply_grid(grid)
    assert q_max.tobytes() == q_pp.tobytes()


def test_kernel_q2_even():
    k = co.KernelSpec.product_power(0.0, (1.0, 0.0, 0.4, 0.0, 0.1))
    for theta in (0.3, 1.2, 2.9):
        assert k.evaluate(1.0, math.cos(theta)) == k.evaluate(1.0, math.cos(-theta))


def test_post_collision_examples():
    # Integer case: v = 0, w = (2,1), rotate to (1,2).
    v, vs, vp, vsp = co.lattice_post_collision((0, 0), (2, 1), (1, 2))
    assert vp == (3, 3) and vsp == (1, -1)
    assert vp[0] ** 2 + vp[1] ** 2 + vsp[0] ** 2 + vsp[1] ** 2 == 20
    assert vs == (4, 2) and vs[0] ** 2 + vs[1] ** 2 == 20


def test_lattice_collision_exact_integer_identities():
    """Random (zeta, zeta') pairs with |zeta'| = |zeta|: exact conservation."""
    rng = random.Random(20240215)
    checked = 0
    while checked < 2000:
        zx, zy = rng.randint(-40, 40), rng.randint(-40, 40)
        if zx == 0 and zy == 0:
            continue
        pts = circle_points(zx * zx + zy * zy).points
        zp = pts[rng.randrange(len(pts))]
        zv = (rng.randint(-50, 50), rng.randint(-50, 50))
        v, vs, vp, vsp = co.lattice_post_collision(zv, (zx, zy), zp)
        assert vp[0] + vsp[0] == v[0] + vs[0]
        assert vp[1] + vsp[1] == v[1] + vs[1]
        assert (
            vp[0] ** 2 + vp[1] ** 2 + vsp[0] ** 2 + vsp[1] ** 2
            == v[0] ** 2 + v[1] ** 2 + vs[0] ** 2 + vs[1] ** 2
        )
        checked += 1


def test_g_eval_maxwellian_vanishes():
    """The integrand g_v(w, theta) of angular_integral vanishes node by node
    for a Maxwellian, so G_v(w) does."""
    m = co.Maxwellian(1.2, 0.4, -0.3, 0.9)
    rng = random.Random(7)
    for _ in range(50):
        v = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        w = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)]])
        (g,) = co.angular_integral(m, v, MAXWELL, w, 2 * rng.randint(1, 16))
        scale = float(m(v[None, :])[0]) ** 2 + 1e-300
        assert abs(g) <= 1e-13 * 2 * math.pi * scale


@pytest.mark.parametrize("shape", [(2,), (1, 2), (0, 2), (97, 2), (5, 7, 2)])
def test_maxwellian_is_the_closed_form_bit_for_bit(shape):
    """Maxwellian.__call__ squares contiguous coordinate copies in place;
    its values are the closed form's bit for bit, in the input's shape."""
    v = np.random.default_rng(3).normal(scale=3.0, size=shape)
    for args in [(), (0.6, 1.0, 0.0, 0.8), (0.4, -0.7, 0.3, 1.2)]:
        m = co.Maxwellian(*args)
        d2 = (v[..., 0] - m.ux) ** 2 + (v[..., 1] - m.uy) ** 2
        want = np.asarray(m.rho / (2 * math.pi * m.T) * np.exp(-d2 / (2 * m.T)))
        got = np.asarray(m(v))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_g_eval_constant_f_vanishes():
    const = lambda pts: np.full(np.asarray(pts).shape[:-1], 0.7)
    g = co.angular_integral(const, np.zeros(2), MAXWELL, np.array([[0.5, 0.2]]), 8)
    assert g.tolist() == [0.0]


def test_g_eval_bimaxwellian_direct_arithmetic():
    """angular_integral with four nodes against g_v(w, theta) written out:
    v' = v + w + R_theta w, v*' = v + w - R_theta w, v* = v + 2w."""
    mix = co.MaxwellianMixture((co.Maxwellian(0.5, 1.0, 0.0, 1.0), co.Maxwellian(0.5, -1.0, 0.0, 1.0)))
    v = np.array([0.5, -0.25])
    w = np.array([0.75, 0.5])
    kernel = co.KernelSpec.product_power(0.5, (1.0, 0.0, 0.25))

    def f_scalar(x):
        return 0.5 / (2 * math.pi) * (
            math.exp(-((x[0] - 1) ** 2 + x[1] ** 2) / 2)
            + math.exp(-((x[0] + 1) ** 2 + x[1] ** 2) / 2)
        )

    def g(theta):
        c, s = math.cos(theta), math.sin(theta)
        rw = (c * w[0] - s * w[1], s * w[0] + c * w[1])
        vp = (v[0] + w[0] + rw[0], v[1] + w[1] + rw[1])
        vsp = (v[0] + w[0] - rw[0], v[1] + w[1] - rw[1])
        vs = (v[0] + 2 * w[0], v[1] + 2 * w[1])
        q = math.hypot(*w) ** 0.5 * (1.0 + 0.25 * math.cos(2 * theta))
        return (f_scalar(vp) * f_scalar(vsp) - f_scalar(v) * f_scalar(vs)) * q

    thetas = [-math.pi + math.pi * j / 2 for j in range(4)]
    expected = math.fsum(g(t) for t in thetas) * (2 * math.pi / 4)
    (got,) = co.angular_integral(mix, v, kernel, w[None, :], 4)
    assert got == pytest.approx(expected, rel=1e-12)


def test_q_reference_maxwellian_zero():
    m = co.Maxwellian(1.0, 0.1, -0.2, 1.0)
    quad = co.QuadratureConfig(r_quad=6.0, n_w=64, n_theta=64)
    rng = random.Random(12)
    for _ in range(20):
        v = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
        res = co.q_reference(m, v, MAXWELL, quad)
        assert abs(res.value) <= 1e-8


def test_q_reference_bimaxwellian_self_convergence():
    bi = co.bimaxwellian()
    quad = co.QuadratureConfig(r_quad=6.0, n_w=96, n_theta=96)
    res = co.q_reference(bi, np.zeros(2), MAXWELL, quad)
    assert res.value != 0.0
    assert res.self_convergence <= 1e-6 * abs(res.value)


def test_q_reference_radial_sign_consistent_between_resolutions():
    ring = lambda pts: np.exp(
        -(np.hypot(np.asarray(pts)[..., 0], np.asarray(pts)[..., 1]) - 1.5) ** 2
    )
    a = midpoint_level(ring, np.zeros(2), MAXWELL, 5.0, 48, 48)
    b = midpoint_level(ring, np.zeros(2), MAXWELL, 5.0, 96, 96)
    assert a != 0 and b != 0
    assert math.copysign(1, a) == math.copysign(1, b)


@pytest.mark.parametrize("r_quad", [6.0, 6.6])
@pytest.mark.parametrize("v", [(0.0, 0.0), (0.5, -1.0)])
@pytest.mark.parametrize(
    "kernel",
    [MAXWELL, co.KernelSpec.product_power(0.5, (1, 0, 0.5))],
    ids=["maxwell", "alpha0.5"],
)
def test_q_reference_polar_rule_matches_midpoint_oracle(kernel, v, r_quad):
    """The polar rule against the midpoint rule it replaced, bi-Maxwellian.

    For Maxwell the integrand is smooth and both rules are at roundoff
    (measured up to 8.2e-15 relative).  For alpha > 0 the |w|^alpha kink
    at 0 leaves the midpoint rule an algebraic error, so the bound is that
    error, read as the gap between its 128 and 256 levels (6.7e-9 .. 6.5e-8
    relative; the polar rule sat 7.4e-11 .. 7.2e-10 from the 256 level).
    """
    bi, v = co.bimaxwellian(), np.array(v)
    ref = co.q_reference(bi, v, kernel, co.QuadratureConfig(r_quad=r_quad))
    n_theta = 2 * ref.config.n_theta
    fine = midpoint_level(bi, v, kernel, r_quad, 256, n_theta)
    if kernel.alpha == 0:
        assert abs(ref.value - fine) <= 1e-13 * abs(fine)
    else:
        coarse = midpoint_level(bi, v, kernel, r_quad, 128, n_theta)
        assert abs(ref.value - fine) <= abs(coarse - fine)


def test_polar_disk_weights_integrate_the_disk_and_split_at_half_radius():
    """The weights integrate 1, |w|^2 and |w|^0.5 over the disk to roundoff;
    the inner panel's nodes come first and lie below r/2 < the outer's."""
    r = 3.0
    w, weights = co.polar_disk(r, 64)
    assert w.shape == (64 * 64 // 2, 2) and weights.shape == (len(w),)
    rho = np.hypot(w[:, 0], w[:, 1])
    inner = rho < r / 2
    assert inner[: len(w) // 2].all() and not inner[len(w) // 2 :].any()
    for p, exact in ((0, math.pi * r**2), (2, math.pi * r**4 / 2),
                     (0.5, 2 * math.pi * r**2.5 / 2.5)):
        assert math.fsum((weights * rho**p).tolist()) == pytest.approx(exact, rel=1e-14)
    assert math.fsum(weights[inner].tolist()) == pytest.approx(math.pi * r**2 / 4, rel=1e-14)
    # A level is 4 * sum of weights * values, exactly rounded.
    assert co.polar_sum(np.ones(3), np.array([1e16, 1.0, -1e16])) == 4.0


def test_q_reference_raises_on_nonconvergence():
    # An oscillation near the grid scale aliases differently at the two
    # levels, so the self-check must fail.
    wiggly = lambda pts: 1.0 + 0.9 * np.cos(20.0 * np.asarray(pts)[..., 0])
    quad = co.QuadratureConfig(r_quad=4.0, n_w=8, n_theta=8)
    with pytest.raises(QuadratureError):
        co.q_reference(wiggly, np.zeros(2), MAXWELL, quad)


ANGULAR_KERNELS = [
    MAXWELL,
    co.KernelSpec.product_power(0.5, (1.0, 0.0, 0.5)),
    co.KernelSpec.product_power(1.0, (1.0, 0.3, 0.2)),  # odd harmonic: q(c) != q(-c)
    co.KernelSpec.product_power(0.5, (1.0, 0.3, 0.5)),
]


@settings(max_examples=200, deadline=None)
@given(
    v=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    ws=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=4),
    half_nodes=st.integers(min_value=1, max_value=32),
    kernel=st.sampled_from(ANGULAR_KERNELS),
)
def test_angular_integral_matches_all_nodes_oracle(v, ws, half_nodes, kernel):
    """Pairing theta with theta + pi moves G_v(w) by roundoff only.

    Roundoff is measured against the gross integral of (gain + loss) q,
    not against |G|: G cancels to roundoff itself, e.g. at n_theta = 2,
    whose nodes 0 and -pi give gain = loss.  The all-nodes loop rounds
    theta_j + pi, which moves v' by about eps |w|; over 6000 random draws
    in these ranges the gap reached 3.8e-15 of the gross integral.
    """
    bi = co.bimaxwellian()
    v = np.array(v)
    w = np.array([(0.0, 0.0), *ws])
    n_theta = 2 * half_nodes
    new = co.angular_integral(bi, v, kernel, w, n_theta)
    old = all_nodes_angular_integral(bi, v, kernel, w, n_theta)
    assert new[0] == old[0] == 0.0  # w = 0: v' = v*' = v* = v
    # gain, loss and q are nonnegative, so sum (gain + loss) q = G + 2 loss sum q.
    thetas = -math.pi + 2 * math.pi * np.arange(n_theta) / n_theta
    q_sum = np.array([
        2 * math.pi / n_theta * np.sum(kernel.evaluate(r, np.cos(thetas)))
        for r in np.hypot(w[:, 0], w[:, 1])
    ])
    gross = old + 2 * bi(v[None, :]) * bi(v[None, :] + 2 * w) * q_sum
    assert np.all(np.abs(new - old) <= 1e-14 * float(np.max(gross)))


def test_angular_integral_forms_each_gain_product_once():
    bi = co.bimaxwellian()
    calls = []

    def counted(pts):
        calls.append(1)
        return bi(pts)

    w = np.array([[0.5, -0.25], [1.0, 2.0]])
    co.angular_integral(counted, np.zeros(2), MAXWELL, w, 8)
    # f(v), the loss partners f(v + 2w), then f(v') and f(v*') per node pair.
    assert len(calls) == 2 + 2 * 4
    calls.clear()
    all_nodes_angular_integral(counted, np.zeros(2), MAXWELL, w, 8)
    assert len(calls) == 2 + 2 * 8


def test_angular_integral_refuses_odd_or_too_few_nodes():
    w = np.array([[1.0, 0.0]])
    for n_theta in (-2, 0, 1, 3, 7):
        with pytest.raises(PreconditionError, match="n_theta must be even and >= 2"):
            co.angular_integral(co.Maxwellian(), np.zeros(2), MAXWELL, w, n_theta)
    assert co.angular_integral(co.Maxwellian(), np.zeros(2), MAXWELL, w, 2).shape == (1,)


@pytest.mark.parametrize("n_w, n_theta", [(4, 2), (8, 8), (96, 32), (96, 96)])
@pytest.mark.parametrize("kernel", ANGULAR_KERNELS, ids=["maxwell", "a0.5", "a1-odd", "a0.5-odd"])
def test_ring_angular_integral_matches_angular_integral(kernel, n_w, n_theta):
    """On polar_disk's nodes the ring shift reads the points the rotation
    reads, up to roundoff in the points: to 1e-14 of the gross integral
    of (gain + loss) q, as in the all-nodes oracle test above."""
    bi, v = co.bimaxwellian(), np.array([0.4, -0.9])
    w, _ = co.polar_disk(3.3, n_w)
    new = co._ring_angular_integral(bi, v, kernel, w, n_w, n_theta)
    old = co.angular_integral(bi, v, kernel, w, n_theta)
    thetas = -math.pi + 2 * math.pi * np.arange(n_theta) / n_theta
    q_sum = (2 * math.pi / n_theta * kernel.speed_factor(np.hypot(w[:, 0], w[:, 1]))
             * kernel.angular_factor(np.cos(thetas)).sum())
    gross = old + 2 * bi(v[None, :]) * bi(v[None, :] + 2 * w) * q_sum
    assert np.all(np.abs(new - old) <= 1e-14 * float(np.max(gross)))


@pytest.mark.parametrize("n_w, n_theta", [(4, 2), (8, 4), (8, 8), (12, 6), (96, 32)])
def test_ring_angular_integral_forms_each_f_value_once(n_w, n_theta):
    """f(v), the loss partners f(v + 2w), then one array per ring shift
    d = s, 2s, ..., n_w/2 - s: 2 + (n_theta/2 - 1) calls, where
    angular_integral makes 2 + n_theta."""
    bi = co.bimaxwellian()
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return bi(pts)

    w, _ = co.polar_disk(3.0, n_w)
    co._ring_angular_integral(counted, np.zeros(2), MAXWELL, w, n_w, n_theta)
    assert len(calls) == 2 + (n_theta // 2 - 1)
    assert calls[0] == 1 and set(calls[1:]) == {len(w)}


def test_q_reference_forms_each_f_value_once():
    m = co.Maxwellian()  # Q = 0, so even the (8, 8) level self-converges
    calls = []

    def counted(pts):
        calls.append(1)
        return m(pts)

    co.q_reference(counted, np.zeros(2), MAXWELL, co.QuadratureConfig(r_quad=4.0, n_w=8, n_theta=8))
    # n_theta/2 + 1 calls per level: 5 at (8, 8), 9 at (16, 16).
    assert len(calls) == 5 + 9


def test_quadrature_config_refusals():
    for n_theta in (0, 1, 3, 97):
        with pytest.raises(PreconditionError, match="n_theta must be even and >= 2"):
            co.QuadratureConfig(r_quad=3.0, n_theta=n_theta)
    for n_w in (0, -4, 2, 6):
        with pytest.raises(PreconditionError, match="n_w must be a positive multiple of 4"):
            co.QuadratureConfig(r_quad=3.0, n_w=n_w)
    for r_quad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="r_quad must be positive and finite"):
            co.QuadratureConfig(r_quad=r_quad)
    for n_w, n_theta in ((96, 64), (4, 8), (20, 8)):
        with pytest.raises(PreconditionError, match="n_theta must divide n_w"):
            co.QuadratureConfig(r_quad=3.0, n_w=n_w, n_theta=n_theta)
    quad = co.QuadratureConfig(r_quad=3.0, n_w=4, n_theta=2)
    assert (quad.n_w, quad.n_theta) == (4, 2)


def test_lattice_distribution_basics():
    m = co.Maxwellian()
    f = co.sample_on_lattice(m, 0.5, 3.0)
    assert f.bound == 6 and f.grid.shape == (13, 13)
    assert f.grid[6, 6] == pytest.approx(1 / (2 * math.pi))
    # outside the disk but inside the square: forced to zero
    assert f.grid[12, 12] == 0.0
    assert f.grid[6 + 1, 6 - 2] == pytest.approx(float(m(np.array([0.5, -1.0]))))
    assert co.lattice_coords(0.5, np.array([0.5, -1.0])) == (1, -2)
    with pytest.raises(PreconditionError):
        co.lattice_coords(0.5, np.array([0.31, 0.0]))
    with pytest.raises(PreconditionError):
        co.LatticeDistribution(0.5, 1.0, -np.ones((5, 5)))


def test_lattice_distribution_refuses_negative_support_radius():
    with pytest.raises(PreconditionError, match="radius must be nonnegative"):
        co.LatticeDistribution(0.5, -1.0, np.ones((1, 1)))
    with pytest.raises(PreconditionError, match="radius must be nonnegative"):
        co.LatticeDistribution.zeros(0.5, -3.0)
    with pytest.raises(PreconditionError, match="radius must be nonnegative"):
        co.sample_on_lattice(co.Maxwellian(), 0.5, -3.0)
    assert co.LatticeDistribution.zeros(0.5, 0.0).grid.shape == (1, 1)
    with pytest.raises(PreconditionError, match="h must be positive"):
        co.LatticeDistribution.zeros(0.0, 2.0)


def test_sampling_by_blocks_of_rows_is_sampling_the_square(monkeypatch):
    """Blocks of two rows of 25, the last one short, give f's values on the
    whole square bit for bit, with 0 off the disk."""
    bi = co.bimaxwellian()
    monkeypatch.setattr(co, "SAMPLE_BLOCK_POINTS", 60)
    f = co.sample_on_lattice(bi, 0.25, 3.0)
    vx, vy = f.velocities()
    assert np.array_equal(f.grid, np.where(f.disk, bi(np.stack([vx, vy], axis=-1)), 0.0))


WIDENED_FROM = co.LatticeDistribution.zeros(0.05, 211 * 0.05)


@pytest.mark.parametrize(
    "make, bytes_per_point",
    [
        (lambda: co.sample_on_lattice(co.bimaxwellian(), 0.05, 15.0), 19),
        (lambda: co.LatticeDistribution.zeros(0.05, 15.0), 11),
        (lambda: WIDENED_FROM.widened(), 11),  # widened_bound(211) = 300
    ],
    ids=["sample_on_lattice", "zeros", "widened"],
)
def test_sampling_peaks_at_a_few_arrays_of_the_state(make, bytes_per_point):
    """601^2 points.  A zero state, made directly or by widened, reads 10.0
    bytes per point traced: its grid, which the constructor copies from a
    broadcast zero, its disk mask and that mask's complement (18.0 while
    zeros allocated the grid that the constructor then copied).
    sample_on_lattice reads 18.3, as it makes two states, the zero state
    whose grid it fills and the result, which copies and checks that grid.
    Stacking every velocity before calling f peaked at 64, and a disk built
    through an int64 radius array at 25.2-25.4."""
    tracemalloc.start()
    try:
        f = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.grid.shape == (601, 601)
    assert peak <= bytes_per_point * 601**2


@pytest.mark.parametrize("h", [1.0, 0.5, 0.3, 0.25, 0.2, 0.1, 1 / 3, 1 / 7, 0.05, 0.7, 0.013])
def test_disk_is_the_integer_disk(h):
    """The support disk is ix^2 + iy^2 <= (R/h)^2 + 1e-9, the 1e-9 keeping
    rim points such as (3, 4) at R/h = 5: radii on rims (h sqrt n, some n
    with many points), just inside and outside them, and at half steps."""
    radii = {h * math.sqrt(n) for n in [*range(0, 60), 325, 1105, 4225, 5525]}
    radii |= {r * (1 + e) for r in list(radii) for e in (-1e-12, 1e-12, -1e-6, 1e-6) if r > 0}
    radii |= {h * k / 2 for k in range(0, 30)}
    for radius in sorted(radii):
        f = co.LatticeDistribution.zeros(h, radius)
        ix = np.arange(-f.bound, f.bound + 1)
        formula = ix[:, None] ** 2 + ix[None, :] ** 2 <= (radius / h) ** 2 + 1e-9
        assert np.array_equal(f.disk, formula), (h, radius)


def test_q_discrete_refuses_nonpositive_R():
    f = co.sample_on_lattice(co.Maxwellian(), 0.5, 3.0)
    for R in (0.0, -2.0):
        with pytest.raises(PreconditionError, match="h and R must be positive"):
            co.q_discrete_detailed(f, np.zeros(2), MAXWELL, R)


def test_q_discrete_rejects_off_lattice_v():
    f = co.sample_on_lattice(co.Maxwellian(), 0.5, 3.0)
    with pytest.raises(PreconditionError):
        co.q_discrete(f, np.array([0.3, 0.0]), MAXWELL, 2.0)


def test_q_discrete_single_point_support_vanishes():
    f = co.LatticeDistribution.from_values(0.5, 3.0, {(1, 2): 2.5}.items())
    for zv in ((1, 2), (0, 0), (3, -1)):
        v = np.array([zv[0] * 0.5, zv[1] * 0.5])
        assert co.q_discrete(f, v, MAXWELL, 2.5) == 0.0


def test_q_discrete_maxwellian_annihilation():
    m = co.Maxwellian(1.0, 0.0, 0.0, 1.0)
    for h in (0.5, 0.25):
        f = co.sample_on_lattice(m, h, 12.0)
        val, gross = co.q_discrete_detailed(f, np.zeros(2), MAXWELL, 6.0)
        assert abs(val) <= 1e-13 * gross


def test_q_discrete_bilinearity():
    rng = np.random.default_rng(42)
    h, b = 0.5, 6
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    lam = 1.7
    v = np.array([0.5, -1.0])
    q1 = co.q_discrete(f, v, MAXWELL, 2.0)
    q2 = co.q_discrete(co.LatticeDistribution(h, b * h, lam * f.grid), v, MAXWELL, 2.0)
    assert abs(q2 - lam * lam * q1) <= 1e-14 * abs(q2)


def test_q_discrete_rotation_equivariance():
    """f invariant under quarter turns about 0 gives Q^h with the same symmetry."""
    rng = np.random.default_rng(9)
    h, b = 0.5, 8
    grid = np.zeros((2 * b + 1, 2 * b + 1))
    for ix in range(-b, b + 1):
        for iy in range(-b, b + 1):
            if ix * ix + iy * iy > b * b:
                continue
            orbit = [(ix, iy), (-iy, ix), (-ix, -iy), (iy, -ix)]
            if grid[ix + b, iy + b] == 0.0:
                val = rng.random() + 0.05
                for ox, oy in orbit:
                    grid[ox + b, oy + b] = val
    f = co.LatticeDistribution(h, b * h, grid)
    kernel = co.KernelSpec.product_power(0.5, (1.0, 0.0, 0.3))
    for zv in ((3, 1), (2, -2), (0, 4)):
        q0 = co.q_discrete(f, np.array([zv[0] * h, zv[1] * h]), kernel, 3.0)
        qr = co.q_discrete(f, np.array([-zv[1] * h, zv[0] * h]), kernel, 3.0)
        assert qr == pytest.approx(q0, rel=1e-12, abs=1e-15)


def test_grid_operators_match_pointwise():
    rng = np.random.default_rng(17)
    h, b = 0.25, 10
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    for kernel in (MAXWELL, co.KernelSpec.product_power(1.0, (1.0, 0.0, 0.2, 0.0, 0.05))):
        qg = co.FastCollisionOperator(h, 2.0, kernel, b).apply_grid(f.grid)
        for zv in ((0, 0), (4, -3), (-7, 2)):
            qp = co.q_discrete(f, np.array([zv[0] * h, zv[1] * h]), kernel, 2.0)
            assert qp == pytest.approx(qg[zv[0] + b, zv[1] + b], rel=1e-12, abs=1e-30)


def test_collision_invariants_random_f():
    rng = np.random.default_rng(2024)
    h, b = 0.5, 8
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    inv = co.collision_invariants(f, MAXWELL, R=b * h)
    assert abs(inv.mass_rate) <= 1e-10 * inv.normalization
    assert abs(inv.momentum_rate[0]) <= 1e-10 * inv.normalization
    assert abs(inv.momentum_rate[1]) <= 1e-10 * inv.normalization
    assert abs(inv.energy_rate) <= 1e-10 * inv.normalization


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
def test_collision_invariants_normalization_matches_pointwise(kernel):
    """normalization is sum |Q^h| (1 + |v|^2) over every v where Q^h can be
    nonzero, all of which lie on the widened grid, and the rates summed over
    the operator's frame are rounding next to it; at R = B h and R/h < B."""
    rng = np.random.default_rng(404)
    h, b = 0.5, 4
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    vx, vy = f.widened().velocities()
    for R in (b * h, 1.0):
        inv = co.collision_invariants(f, kernel, R)
        for rate in (inv.mass_rate, *inv.momentum_rate, inv.energy_rate):
            assert abs(rate) <= 1e-15 * inv.normalization
        terms = [
            abs(co.q_discrete(f, np.array([x, y]), kernel, R)) * (1 + x * x + y * y)
            for x, y in zip(vx.ravel().tolist(), vy.ravel().tolist())
        ]
        assert inv.normalization == pytest.approx(math.fsum(terms), rel=1e-12)


def test_widened_state_keeps_values_on_the_energy_disk():
    f = co.sample_on_lattice(co.Maxwellian(), 0.5, 3.0)
    wide = f.widened()
    assert f.bound == 6 and wide.bound == 10  # ceil(6 sqrt 2) + 1
    assert wide.h == f.h and wide.support_radius == 10 * 0.5
    assert np.array_equal(wide.grid, np.pad(f.grid, 4))
    vx, vy = wide.velocities()
    assert vx[0, 0] == vy[0, 0] == -5.0 and vx[10, 10] == vy[10, 10] == 0.0
    assert wide.disk.sum() == sum(x * x + y * y <= 100 for x in range(-10, 11) for y in range(-10, 11))


def test_collision_invariants_maxwellian():
    f = co.sample_on_lattice(co.Maxwellian(1.0, 0.2, 0.1, 0.8), 0.5, 4.0)
    inv = co.collision_invariants(f, MAXWELL, R=4.0)
    assert abs(inv.mass_rate) <= 1e-10 * inv.normalization
    assert abs(inv.energy_rate) <= 1e-10 * inv.normalization


def test_lattice_csv_roundtrip():
    f = co.sample_on_lattice(co.Maxwellian(1.0, 0.0, 0.0, 0.7), 0.5, 2.0)
    buf = io.StringIO()
    tables.write_lattice_csv(f, buf)
    buf.seek(0)
    g = tables.read_lattice_csv(buf)
    assert g.h == f.h and g.support_radius == f.support_radius
    assert np.array_equal(g.grid, f.grid)


def test_lattice_values_outside_the_disk_are_refused():
    # (2, 2) lies inside the square |zeta| <= 2 but outside the disk of radius 2.
    text = '# {"h": 1.0, "R_support": 2.0}\nzeta_x,zeta_y,value\n0,0,1.0\n2,2,5.0\n'
    with pytest.raises(PreconditionError, match=r"point \(2, 2\) outside declared support"):
        tables.read_lattice_csv(io.StringIO(text))
    for point in ((2, 2), (-2, 1), (3, 0)):
        with pytest.raises(PreconditionError, match="outside declared support"):
            co.LatticeDistribution.from_values(1.0, 2.0, {(0, 0): 1.0, point: 5.0}.items())
    # The disk's own tolerance: (3, 4) is on the rim of radius 5 = 2.5 / 0.5.
    f = co.LatticeDistribution.from_values(0.5, 2.5, {(3, 4): 2.0, (0, -5): 1.0}.items())
    assert f.grid[3 + 5, 4 + 5] == 2.0 and f.grid[0 + 5, -5 + 5] == 1.0


@pytest.mark.parametrize(
    "text, match",
    [
        ("# {}\n0,0,1.0\n", "header must give h and R_support"),
        ('# {"h": 1.0}\n0,0,1.0\n', "header must give h and R_support"),
        ("# [1.0, 2.0]\n0,0,1.0\n", "header must give h and R_support"),
        ("# h=1, R_support=2\n0,0,1.0\n", "header is not JSON"),
        ('# {"h": 1.0, "R_support": 2.0}\nzeta_x,zeta_y,value\n0,0,abc\n', "malformed lattice CSV"),
        ('# {"h": 1.0, "R_support": 2.0}\n0,x,1.0\n', "malformed lattice CSV"),
        ('# {"h": 1.0, "R_support": 2.0}\n0,0\n', "malformed lattice CSV"),
        ('# {"h": 1.0, "R_support": 2.0}\n0,0,1.0,2.0\n', "malformed lattice CSV"),
        ('# {"h": "abc", "R_support": 2.0}\n0,0,1.0\n', "malformed lattice CSV"),
        ('# {"h": null, "R_support": 2.0}\n0,0,1.0\n', "malformed lattice CSV"),
        ('# {"h": NaN, "R_support": 2.0}\n0,0,1.0\n', "h must be positive and finite"),
        ('# {"h": 1.0, "R_support": 2.0}\n0,0,1.0\n1,0,3.0\n-0,0,2.0\n',
         r"repeats the row of point \(0, 0\)"),
        # The header's state is refused before any row is read.
        ('# {"h": 0.001, "R_support": 10}\n0,0,abc\n', r"20001\^2 points: 400040001 x 64"),
    ],
    ids=["empty-header", "no-R_support", "list-header", "not-json", "value-abc", "coord-x",
         "two-fields", "four-fields", "h-abc", "h-null", "h-nan", "repeated-point",
         "oversized-header"],
)
def test_read_lattice_csv_refuses_malformed_input(text, match):
    with pytest.raises(PreconditionError, match=match):
        tables.read_lattice_csv(io.StringIO(text))


def test_non_finite_steps_and_radii_are_refused():
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="h must be positive and finite"):
            co.lattice_bound(h, 2.0)
    for radius in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="radius must be nonnegative and finite"):
            co.lattice_bound(0.5, radius)
    f = co.sample_on_lattice(co.Maxwellian(), 0.5, 3.0)
    for R in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="h and R must be positive and finite"):
            co.q_discrete_detailed(f, np.zeros(2), MAXWELL, R)
    for h, R in ((math.nan, 2.0), (math.inf, 2.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(PreconditionError, match="h and R must be positive and finite"):
            co.FastCollisionOperator(h, R, MAXWELL, 4)
    for v in ((math.nan, 0.0), (0.5, math.nan), (math.inf, 0.0), (0.5, -math.inf)):
        with pytest.raises(PreconditionError, match="not on the h-lattice"):
            co.lattice_coords(0.5, np.array(v))
    for h in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="h must be positive and finite"):
            co.lattice_coords(h, np.zeros(2))


def test_qh_csv_format():
    rng = np.random.default_rng(3)
    h, b = 0.5, 4
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    q = co.FastCollisionOperator(h, 1.5, MAXWELL, b).apply_grid(f.grid)
    buf = io.StringIO()
    tables.write_qh_csv(q, h, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "zeta_x,zeta_y,Qh_value"
    assert len(lines) == 2 + (2 * b + 1) ** 2
    row = lines[2].split(",")
    assert (int(row[0]), int(row[1])) == (-b, -b)
    assert float(row[2]) == q[0, 0]
    for shape in ((9, 7), (8, 8), (9,)):
        with pytest.raises(PreconditionError, match="not an odd square"):
            tables.write_qh_csv(np.zeros(shape), h, io.StringIO())


EPS = np.finfo(np.float64).eps
# Gates per velocity against exact_q, in EPS times the gross magnitude.  Over
# 300 random states (bound <= 6, R/h <= 5, the four kernels, one-sided and
# signed states among them) the grid operator on the frame read up to 1.97,
# q_discrete_detailed 1.25.
FRAME_EPS, POINT_EPS = 3, 2


def reach_eps(k):
    """The gate at R/h = k > 5: FRAME_EPS scaled by sqrt(N(k) / 80).  An
    output sums one shifted add per table point, N(k) at R/h = k (196 at
    8, 1256 at 20) against at most 80 where FRAME_EPS was measured, and
    rounding errors of n adds grow like sqrt(n): 4.7 at 8, 11.9 at 20."""
    return FRAME_EPS * math.sqrt(max(len(circle_table(k * k).xs), 80) / 80)


def assert_near_exact(got, h, value, gross, eps):
    """Each float of got is within eps * EPS * gross of exact_q's value times
    2 pi (2h)^2 (as math.tau * (2 * h) ** 2), so exactly 0 where gross is 0."""
    assert np.shape(got) == np.shape(value)
    scale = Fraction(math.tau) * Fraction((2 * h) ** 2)
    for g, want, mag in zip(np.ravel(got).tolist(), np.ravel(value), np.ravel(gross)):
        assert abs(Fraction(g) / scale - want) <= Fraction(eps * EPS) * mag


def frame_points(bound, k):
    """(zx, zy) on the frame |v| <= bound + k, indexed like frame_apply's result."""
    ix = np.arange(-(bound + k), bound + k + 1)
    return np.meshgrid(ix, ix, indexing="ij")


def support_state(support, bound):
    """A random state on the square |zeta| <= support, zero out to bound."""
    rng = np.random.default_rng(support * 100 + bound)
    return np.pad(rng.random((2 * support + 1, 2 * support + 1)), bound - support)


def edge_state(state, wide, rng):
    """The widened state cut to one side, dipped below 0 by 1e-13 at about a
    fifth of its points as RK4 stages can be, or zero."""
    grid = wide.grid.copy()
    if state == "one-sided":
        grid[: wide.bound + 3] = 0.0
    elif state == "signed":
        grid -= 1e-13 * (rng.random(grid.shape) < 0.2)
    else:
        grid[:] = 0.0
    return grid


def frame_apply(h, R, kernel, grid):
    """Q^h on the frame |v| <= bound + R/h, which holds all of it: apply_grid
    on the state zero-padded by R/h."""
    k = co.lattice_bound(h, R)
    return co.FastCollisionOperator(h, R, kernel, len(grid) // 2 + k).apply_grid(np.pad(grid, k))


def _assert_matches_exact(h, R, kernel, grid, bound):
    """apply_grid on the frame (frame_apply), and on the state's own square,
    within FRAME_EPS of exact_q."""
    op = co.FastCollisionOperator(h, R, kernel, bound)
    k, side = op.reach, 2 * bound + 1
    value, gross = exact_q(grid, h, R, kernel, *frame_points(bound, k))
    assert_near_exact(frame_apply(h, R, kernel, grid), h, value, gross, FRAME_EPS)
    square = np.s_[k : k + side, k : k + side]
    assert_near_exact(op.apply_grid(grid), h, value[square], gross[square], FRAME_EPS)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@pytest.mark.parametrize(
    "h, R, support, bound",
    [
        (0.5, 1.5, 3, 3),  # the state fills the square
        (0.5, 1.0, 2, 4),  # zeros around it: the relax_simulate shape
        (0.5, 2.0, 1, 2),  # R/h > bound
        (0.5, 1.0, 0, 0),  # one point: no product is kept
    ],
)
def test_fast_operator_matches_exact_oracle(kernel, h, R, support, bound):
    _assert_matches_exact(h, R, kernel, support_state(support, bound), bound)


def random_state(rng, bound, reach, state):
    """A random state of the given bound: uniform in [0, 1), shifted to
    [-0.5, 0.5) (signed), or kept only on the R/h columns at either edge.
    At the square's stride, side + R/h, a mid-point past the state's last
    column reads the first columns of the next state row, and the last
    columns of its own: mass there makes those products nonzero, so the
    plan must zero them (edge columns)."""
    side = 2 * bound + 1
    grid = rng.random((side, side))
    if state == "signed":
        grid -= 0.5
    elif state == "edge columns":
        grid[:, reach : side - reach] = 0.0
    return grid


STATES = st.sampled_from(["uniform", "edge columns", "signed"])


@settings(max_examples=25, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25]),
    reach=st.integers(1, 4),
    bound=st.integers(0, 5),
    kernel=st.sampled_from(ORACLE_KERNELS),
    state=STATES,
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_operator_matches_exact_oracle_random(h, reach, bound, kernel, state, seed):
    grid = random_state(np.random.default_rng(seed), bound, reach, state)
    _assert_matches_exact(h, reach * h, kernel, grid, bound)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@pytest.mark.parametrize("state", ["one-sided", "signed", "zero"])
def test_fast_operator_matches_exact_oracle_on_edge_states(kernel, state):
    """edge_state's states; the zero state's gross magnitude is 0 everywhere,
    so its frame must be all zeros."""
    rng = np.random.default_rng(5)
    wide = co.LatticeDistribution(0.5, 2.0, rng.random((9, 9))).widened()
    _assert_matches_exact(0.5, 1.0, kernel, edge_state(state, wide, rng), wide.bound)


def relax_state():
    """The benchmark's relax state: widened bound 30, for R/h = 20 at h = 0.25."""
    return co.sample_on_lattice(co.bimaxwellian(), 0.25, 5.0).widened()


def _assert_relax_state_near_exact(kernel, eps):
    wide = relax_state()
    op = co.FastCollisionOperator(0.25, 5.0, kernel, wide.bound)
    value, gross = exact_q(wide.grid, 0.25, 5.0, kernel, *frame_points(wide.bound, 0))
    assert_near_exact(op.apply_grid(wide.grid), 0.25, value, gross, eps)


def test_maxwell_apply_matches_exact_oracle_at_the_relax_size():
    """The relax state: every velocity within FRAME_EPS of exact_q.  Adding
    each circle's W once per row offset |zeta_x|, not once per point, took
    the worst from 7.19 to 2.14 eps of the gross magnitude; with the state
    scaled per circle weight and each circle's widest product first it
    reads 2.18."""
    _assert_relax_state_near_exact(MAXWELL, FRAME_EPS)


def test_product_power_apply_matches_exact_oracle_at_the_relax_size():
    """The relax state under the harmonic channels: every velocity within
    reach_eps(20) = 11.9 of exact_q; it reads 6.78."""
    _assert_relax_state_near_exact(ORACLE_KERNELS[1], reach_eps(20))


@pytest.mark.parametrize("kernel", ORACLE_KERNELS[:2], ids=["maxwell", "pp05"])
@pytest.mark.parametrize("h, R, bound", [(0.5, 4.0, 9), (0.25, 5.0, 21)], ids=["K8", "K20"])
def test_fast_operator_matches_exact_oracle_on_edge_columns(kernel, h, R, bound):
    """Mass only on the R/h columns at either edge (random_state's edge
    columns): a mid-point in any pad column R/h - ymax .. ymax - 1 past a
    row's end, for a point (x, +-ymax) of its circle, reads state at both
    ends.  So a pad band one column short at either end, or not zeroed,
    shows here.  Gated at reach_eps; K20 reads 2.28 (Maxwell) and 7.26."""
    k = co.lattice_bound(h, R)
    grid = random_state(np.random.default_rng(k), bound, k, "edge columns")
    op = co.FastCollisionOperator(h, R, kernel, bound)
    value, gross = exact_q(grid, h, R, kernel, *frame_points(bound, 0))
    assert_near_exact(op.apply_grid(grid), h, value, gross, reach_eps(k))


def test_maxwell_gain_is_pinned_bit_for_bit():
    """A tripwire on the order of Maxwell's gain sums: the SHA-256 of _gain
    on the relax state.  _gain is elementwise only, while apply_grid's loss
    gemm rounds per BLAS kernel; the state is rounded to multiples of
    2^-32, so that np.exp's last bits, which differ between SIMD paths, do
    not reach it.  A change that regroups the sums on purpose is gated by
    exact_q, not by this hash, and re-pins it."""
    wide = relax_state()
    grid = np.round(wide.grid * 2.0**32) / 2.0**32
    gain = co.FastCollisionOperator(0.25, 5.0, MAXWELL, wide.bound)._gain(grid)
    digest = "2127756a9fc6e7f0396a345639d6e25c40513c540024570548035bec3d45db77"
    assert hashlib.sha256(gain.tobytes()).hexdigest() == digest


# Frame velocities at which a single-channel box-loop id checks exact_q: a
# whole frame of up to this many points, a fixed random sample of a larger
# one (all 135^2 points at h = 0.5, R = 17, bound 33 take about 35 s).
BOX_LOOP_SAMPLE = 200


def _assert_matches_box_loop(h, R, kernel, grid, bound):
    """apply_grid on the frame (frame_apply) and on the state's square.
    Harmonic channels: against the box-loop gain it replaced, to 1e-15 of
    the (2h)^2-scaled gain's maximum.  The gemm per circle rounds T
    differently from one gemv per point by 1-2 ulp of the gain, and the
    gain can exceed max|Q^h| tenfold.  A single channel, whose sums the
    plan regroups: within FRAME_EPS of exact_q at BOX_LOOP_SAMPLE frame
    velocities."""
    op = co.FastCollisionOperator(h, R, kernel, bound)
    k, side = op.reach, 2 * bound + 1
    frame = frame_apply(h, R, kernel, grid)
    square = np.s_[k : k + side, k : k + side]
    if op._single_channel:
        pick = np.zeros(frame.shape, dtype=bool)
        pick.flat[np.random.default_rng(frame.size).permutation(frame.size)[:BOX_LOOP_SAMPLE]] = True
        value, gross = np.zeros((2, *frame.shape), dtype=object)
        points = (z[pick] for z in frame_points(bound, k))
        value[pick], gross[pick] = exact_q(grid, h, R, kernel, *points)
        for got, at in ((frame, np.s_[:, :]), (op.apply_grid(grid), square)):
            on = pick[at]
            assert_near_exact(got[on], h, value[at][on], gross[at][on], FRAME_EPS)
        return
    old = box_loop_frame(op, grid)
    assert frame.shape == old.shape == (2 * (bound + k) + 1,) * 2
    scale = (2 * h) ** 2 * np.abs(box_loop_gain(h, R, kernel, bound, grid)).max()
    for new, want in ((frame, old), (op.apply_grid(grid), old[square])):
        assert np.abs(new - want).max() <= 1e-15 * scale


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@pytest.mark.parametrize(
    "h, R, support, bound",
    [
        (0.25, 2.0, 10, 10),  # the state fills the square
        (0.25, 2.0, 8, 13),  # zeros around it
        (0.25, 2.5, 5, 7),  # R/h > bound
        (0.5, 2.0, 0, 0),  # one point: no product is kept
        (0.5, 17.0, 30, 33),  # R/h = 34: W added past ACCUMULATED_OFFSETS
    ],
)
def test_flat_gain_matches_box_loop(kernel, h, R, support, bound):
    _assert_matches_box_loop(h, R, kernel, support_state(support, bound), bound)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@pytest.mark.parametrize("state", ["one-sided", "signed", "zero", "relax"])
def test_flat_gain_matches_box_loop_on_edge_states(kernel, state):
    """The edge states, and the benchmark's relax state (widened bound 30, R/h = 20)."""
    rng = np.random.default_rng(5)
    h, b, R = 0.25, 8, 2.0
    wide = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1))).widened()
    if state == "relax":
        wide, R = relax_state(), 5.0
        grid = wide.grid
    else:
        grid = edge_state(state, wide, rng)
    _assert_matches_box_loop(h, R, kernel, grid, wide.bound)


@settings(max_examples=60, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25]),
    reach=st.integers(1, 7),
    bound=st.integers(0, 9),
    kernel=st.sampled_from(ORACLE_KERNELS),
    state=STATES,
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_gain_matches_box_loop_random(h, reach, bound, kernel, state, seed):
    grid = random_state(np.random.default_rng(seed), bound, reach, state)
    _assert_matches_box_loop(h, reach * h, kernel, grid, bound)


def test_each_output_builds_its_plan_on_its_first_apply():
    """The operator builds no gain plan; its one output, apply_grid, builds
    it once, with a gain buffer of the square's rows at stride side + R/h."""
    op = co.FastCollisionOperator(0.5, 2.0, MAXWELL, 3)
    assert op._plan is None
    grid = np.ones((7, 7))
    op.apply_grid(grid)
    plan = op._plan
    op.apply_grid(grid)
    assert op._plan is plan
    assert plan[1].shape == (7, 7 + op.reach)


@pytest.mark.parametrize(
    "kernel, ops, elements",
    [(MAXWELL, (648, 40), 2_949_924), (ORACLE_KERNELS[1], (1256, 0), 4_909_896)],
    ids=["maxwell", "pp05"],
)
def test_every_add_lands_in_the_output_rows(kernel, ops, elements):
    """At the relax size (R/h = 20 over the widened bound 30) each shifted
    add writes only inside the square's rows of the gain buffer, which has
    no other rows, or inside its row offset's accumulator.  Clipped, the
    harmonic channels' adds touch 4.91M elements where they touched 5.38M.
    Maxwell adds each circle's W once per point (a, b) with a >= 0, and
    each of its 20 accumulators at two rows: 40% fewer elements."""
    wide = relax_state()
    op = co.FastCollisionOperator(0.25, 5.0, kernel, wide.bound)
    op.apply_grid(wide.grid)
    _, gain_rows, q, plan, acc, folds = op._plan
    stride, base = gain_rows.shape[1], gain_rows.ctypes.data
    assert q.ctypes.data == base and q.shape == (len(gain_rows), stride - op.reach)
    end = (q.shape[0] - 1) * stride + q.shape[1]
    assert acc.shape[0] == (op.reach if kernel == MAXWELL else 0)

    def start(g, buf):
        return (g.ctypes.data - buf.ctypes.data) // 8

    adds = [add for *_, circle_adds in plan for add in circle_adds]
    for t, g in adds + folds:
        assert t.size == g.size > 0
        if np.shares_memory(g, acc):  # inside one accumulator
            row, at = divmod(start(g, acc), acc.shape[1])
            assert 0 <= row < len(acc) and at + g.size <= acc.shape[1]
        else:
            assert 0 <= start(g, gain_rows) and start(g, gain_rows) + g.size <= end
    assert not any(np.shares_memory(g, acc) for _, g in folds)
    assert (len(adds), len(folds)) == ops
    assert sum(g.size for _, g in adds + folds) == elements  # harmonic unclipped, 5_376_608


@pytest.mark.parametrize(
    "kernel, scalings, gaps, pads",
    [
        (MAXWELL, 5, (0, 0), (89, 44_196)),
        (ORACLE_KERNELS[4], 145, (0, 0), (89, 44_196)),
        (ORACLE_KERNELS[1], 0, (716, 463_320), (89, 220_448)),
    ],
    ids=["maxwell", "pp05_single", "pp05"],
)
def test_zeroing_per_apply_at_the_relax_size(kernel, scalings, gaps, pads):
    """The relax size has 145 circles.  A single channel scales the state
    once per run of circles of one weight (Maxwell's 5 weights 2 pi / r, r
    = 4 .. 24) and writes each circle's widest product into W first, so W
    has no gaps to zero.  Per circle, only the pad columns R/h - ymax ..
    ymax - 1 past a row's end are zeroed, none where 2 ymax <= R/h: all R/h
    of them were 149,920 elements (Maxwell) and 654,320 (product-power)."""
    wide = relax_state()
    op = co.FastCollisionOperator(0.25, 5.0, kernel, wide.bound)
    op.apply_grid(wide.grid)
    plan = op._plan[3]
    assert len(plan) == 145
    assert sum(bool(c) for _, _, c, _, _ in plan if op._single_channel) == scalings
    for views, want in (([v for v, *_ in plan], gaps), ([v for *_, v, _ in plan], pads)):
        views = [view for circle in views for view in circle]
        assert (len(views), sum(view.size for view in views)) == want


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
def test_applies_return_arrays_the_next_apply_leaves_alone(kernel):
    """An operator reuses its buffers, but what an apply returned is the
    caller's: RK4 keeps k1 .. k4 from one operator."""
    rng = np.random.default_rng(11)
    h, b = 0.5, 6
    op = co.FastCollisionOperator(h, 3.0, kernel, b)
    first, second = rng.random((2, 2 * b + 1, 2 * b + 1))
    grid = op.apply_grid(first)
    kept = grid.copy()
    assert not np.array_equal(op.apply_grid(second), kept)
    assert np.array_equal(grid, kept)
    assert np.array_equal(op.apply_grid(first), kept)


def test_fast_operator_rejects_bad_state_shape():
    with pytest.raises(PreconditionError, match="state bound must be >= 0, got -1"):
        co.FastCollisionOperator(0.5, 2.0, MAXWELL, -1)
    # A one-point state has no collision partner.
    assert co.FastCollisionOperator(0.5, 2.0, MAXWELL, 0).apply_grid(np.ones((1, 1))).tolist() == [[0.0]]
    op = co.FastCollisionOperator(0.5, 2.0, MAXWELL, 4)
    with pytest.raises(PreconditionError, match="does not match bound 4"):
        op.apply_grid(np.ones((11, 11)))


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
def test_fast_operator_conserves_invariants(kernel):
    """Sums of Q^h against 1, v, |v|^2 vanish on the widened state's square."""
    rng = np.random.default_rng(77)
    h, b = 0.5, 8
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    wide = f.widened()
    q = co.FastCollisionOperator(h, b * h, kernel, wide.bound).apply_grid(wide.grid)
    vx, vy = wide.velocities()
    norm = math.fsum((np.abs(q) * (1 + vx**2 + vy**2)).ravel())
    for weight in (1.0, vx, vy, vx**2 + vy**2):
        assert abs(math.fsum((q * weight).ravel())) <= 1e-10 * norm


# Disk states of bound b: R = b h, and one R/h < b.
FRAME_CASES = pytest.mark.parametrize(
    "h, b, R", [(0.5, 8, 4.0), (0.25, 20, 5.0), (0.25, 20, 2.0)], ids=["B8", "B20", "B20-short-R"]
)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@FRAME_CASES
def test_collision_invariants_match_widened_oracle(kernel, h, b, R):
    """Summed over the widened state's square, the rates equal those of
    apply_grid over the frame, the state zero-padded by R/h, up to rounding."""
    rng = np.random.default_rng(b * 10 + int(R))
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    inv = co.collision_invariants(f, kernel, R)
    q = frame_apply(h, R, kernel, f.grid)
    vx, vy = (h * z for z in frame_points(b, co.lattice_bound(h, R)))
    v2 = vx**2 + vy**2
    norm = math.fsum((np.abs(q) * (1 + v2)).ravel())
    rates = (inv.mass_rate, *inv.momentum_rate, inv.energy_rate)
    for rate, weight in zip(rates, (1.0, vx, vy, v2)):
        assert abs(rate - math.fsum((q * weight).ravel())) <= 1e-15 * norm
    assert inv.normalization == pytest.approx(norm, rel=1e-14, abs=0)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@FRAME_CASES
def test_apply_frame_holds_all_of_q(kernel, h, b, R):
    """The widened state's square holds all of Q^h: apply_grid there is,
    to 1e-14 of its maximum, apply_grid on the frame (the state zero-padded
    by R/h, where Q^h can be nonzero) on their common points and 0 on the
    frame's others, and exactly 0 past the energy disk |v|^2 = 2 B^2."""
    rng = np.random.default_rng(b * 10 + int(R))
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    wide = f.widened()
    q = co.FastCollisionOperator(h, R, kernel, wide.bound).apply_grid(wide.grid)
    frame = frame_apply(h, R, kernel, f.grid)
    k, w = co.lattice_bound(h, R), wide.bound
    n = max(w, b + k)  # both on the square |v| <= n
    on_wide, on_frame = np.pad(q, n - w), np.pad(frame, n - b - k)
    assert np.abs(on_wide - on_frame).max() <= 1e-14 * np.abs(frame).max()
    ix = np.arange(-n, n + 1)
    beyond = ix[:, None] ** 2 + ix[None, :] ** 2 > 2 * b * b
    assert beyond.any() and not on_wide[beyond].any() and not on_frame[beyond].any()


def row_loop_band(op, parity):
    """The loss band of op over the columns of one parity, built by a loop
    over the circle points (a, y) of its weight table: W(a, y) at row
    (a + K) n_col + i and column j for each i - j = y, not by the
    Toeplitz windows that op's _loss reads."""
    k, n_col = op.reach, op.bound + 1 - parity
    table = circle_table(co.circle_limit(op.h, op.R))
    band = np.zeros((2 * k + 1, n_col, n_col))
    j = np.arange(n_col)
    for a, y in zip(table.xs.tolist(), table.ys.tolist()):
        on = (j + y >= 0) & (j + y < n_col)
        band[a + k, j[on] + y, j[on]] = op._loss_w[a + k, y + k]
    return band.reshape((2 * k + 1) * n_col, n_col)


def band_gemm_loss(op, grid):
    """sum_zeta W(zeta) f(v + 2 zeta) on the state's square, f = 0 off it:
    one gemm of row_loop_band per column parity."""
    side, k = len(grid), op.reach
    rows = np.arange(side)[:, None] + 2 * np.arange(-k, k + 1)[None, :]
    rows = np.where((rows >= 0) & (rows < side), rows, side)  # side: a zero row
    stacked = np.vstack([grid, np.zeros((1, side))])
    loss = np.empty((side, side))
    for parity in (0, 1):
        cols = slice(parity, None, 2)
        loss[:, cols] = stacked[:, cols][rows].reshape(side, -1) @ row_loop_band(op, parity)
    return loss


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
@pytest.mark.parametrize("bound", [0, 7, 20, 30])  # R/h = 20
def test_loss_band_matches_row_loop_oracle(kernel, bound):
    """The weight table W[a + K, b + K] holds (2 pi / r) q1 sum_j q2(zeta .
    zeta_j / n) at each point zeta of circle n <= K^2 = 400 and 0 elsewhere:
    Maxwell's 2 pi / r * r bit for bit, the other kernels within 2 EPS of
    the sum with |q2|, one exact sum per orbit of the lattice symmetries.
    The Toeplitz matrices T_a[i, j] = W[a + K, i - j + K], stacked over the
    row offsets a, equal row_loop_band entry by entry."""
    h, R = 0.25, 5.0
    op = co.FastCollisionOperator(h, R, kernel, bound)
    k, weights = op.reach, op._loss_w
    assert weights.shape == (2 * k + 1, 2 * k + 1)
    table = circle_table(co.circle_limit(h, R))
    off = np.ones(weights.shape, dtype=bool)
    off[table.xs + k, table.ys + k] = False
    assert not weights[off].any()
    starts, exact = table.starts.tolist(), {}
    q2_at = functools.cache(lambda c: exact_angular_factor(kernel, c))
    for x, y in zip(table.xs.tolist(), table.ys.tolist()):
        n = x * x + y * y
        got, r = weights[x + k, y + k], starts[n + 1] - starts[n]
        if kernel == MAXWELL:
            assert got == 2 * math.pi / r * r
            continue
        orbit = (n, max(abs(x), abs(y)))
        if orbit not in exact:
            circle = zip(*(a[starts[n] : starts[n + 1]].tolist() for a in (table.xs, table.ys)))
            q2 = [q2_at(Fraction(x * px + y * py, n)) for px, py in circle]
            coef = Fraction(math.tau) * Fraction(float(kernel.speed_factor(h * math.sqrt(n)))) / r
            exact[orbit] = coef * sum(q2), coef * sum(map(abs, q2))
        value, gross = exact[orbit]
        assert abs(Fraction(got) - value) <= Fraction(2 * EPS) * gross
    for parity in (0, 1):
        n_col = bound + 1 - parity
        d = np.arange(n_col)[:, None] - np.arange(n_col)[None, :]  # i - j
        band = np.where(np.abs(d) <= k, weights[:, np.clip(d + k, 0, 2 * k)], 0.0)
        assert np.array_equal(band.reshape((2 * k + 1) * n_col, n_col), row_loop_band(op, parity))


@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
    reach=st.integers(1, 40),
    bound=st.integers(0, 12),
    kernel=st.sampled_from(ORACLE_KERNELS),
)
def test_loss_table_is_its_own_row_reversal(h, reach, bound, kernel):
    """_loss runs one gemm per parity for the row offsets +-a together,
    which needs T_-a = T_a: the weight table equals its a -> -a reversal
    bit for bit, R/h past the bound included."""
    op = co.FastCollisionOperator(h, reach * h, kernel, bound)
    assert op.reach == reach
    assert np.array_equal(op._loss_w, op._loss_w[::-1])


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("h", [0.5, 0.25, 0.1, 0.05])
def test_grid_operator_takes_the_pointwise_q1(alpha, h):
    """Both operators weight circle n by the same float q1, the one
    q_discrete_detailed takes from kernel.speed_factor over its circles.
    With q2 = 1 the grid operator's loss weight of a point of circle n is
    one product, (2 pi / r q1) r, so it shows q1 for every n <= 4096.
    Python's float ** gave another q1 at 192-219 n for alpha = 0.3."""
    kernel = co.KernelSpec.product_power(alpha, (1.0,))
    op = co.FastCollisionOperator(h, 64 * h, kernel, 0)
    table = circle_table(co.circle_limit(h, 64 * h))
    counts = np.diff(table.starts)
    ns = np.flatnonzero(counts)
    assert ns[-1] == 4096
    rs, firsts, k = counts[ns], table.starts[ns], op.reach
    got = op._loss_w[table.xs[firsts] + k, table.ys[firsts] + k]
    assert np.array_equal(got, 2 * math.pi / rs * kernel.speed_factor(h * np.sqrt(ns)) * rs)


def test_operator_keeps_no_loss_band():
    """R/h = 100 over bound 72: the loss band of the operator that kept one
    held 16.9 MB, 201 (73^2 + 72^2) entries; now no array the operator
    keeps has (2K + 1) (bound + 1)^2 entries, and all it retains fits in
    96 bytes per point of its 345^2 frame (86 measured, 10.2 MB; the band
    alone was 142 bytes per frame point)."""
    h, R, bound = 0.04, 4.0, 72
    circle_table(co.circle_limit(h, R))  # cached; not part of the build
    tracemalloc.start()
    try:
        op = co.FastCollisionOperator(h, R, MAXWELL, bound)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    k = op.reach
    assert k == 100
    buffers = []  # the arrays that own the memory of the operator's arrays
    for a in vars(op).values():
        while getattr(a, "base", None) is not None:
            a = a.base
        if isinstance(a, np.ndarray):
            buffers.append(a)
    assert buffers and max(a.size for a in buffers) < (2 * k + 1) * (bound + 1) ** 2
    assert kept <= 96 * (2 * (bound + k) + 1) ** 2


@pytest.mark.parametrize("kernel", ORACLE_KERNELS[:2], ids=["maxwell", "pp05"])
def test_loss_transient_stays_within_a_few_state_arrays(kernel):
    """R/h = 20 over bound 60: the loss matches band_gemm_loss to 1e-14 of
    max |loss|, and its traced peak, the returned loss included, stays
    within four state-sized arrays (3.3 measured: the two parities'
    columns, their sums, the loss and one product).  Gathering every band
    row at once held 41 half states."""
    h, R, bound = 0.25, 5.0, 60
    side = 2 * bound + 1
    op = co.FastCollisionOperator(h, R, kernel, bound)
    grid = np.random.default_rng(5).random((side, side))
    tracemalloc.start()
    try:
        loss = op._loss(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = band_gemm_loss(op, grid)
    assert np.abs(loss - want).max() <= 1e-14 * np.abs(want).max()
    assert peak <= 4 * grid.nbytes


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=ORACLE_IDS)
def test_loss_matches_one_gemm_of_the_oracle_band_at_the_relax_size(kernel):
    """The relax workload's operator (h = 0.25, R = 5, the widened state of
    support 5): the loss per row offset equals band_gemm_loss, one gemm per
    parity of row_loop_band, to 1e-14 of max |loss|."""
    h, R = 0.25, 5.0
    bound = co.widened_bound(co.lattice_bound(h, 5.0))
    side = 2 * bound + 1
    op = co.FastCollisionOperator(h, R, kernel, bound)
    grid = np.random.default_rng(6).random((side, side))
    want = band_gemm_loss(op, grid)
    assert np.abs(op._loss(grid) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 5, 25, 65, 325, 1105, 5525, 4 * 1105])
def test_harmonic_weights_exact(n):
    pts = circle_points(n)
    xs, ys = pts.xs, pts.ys
    phi = np.arctan2(ys, xs)
    axis = (xs == 0) | (ys == 0)
    opposite = [pts.points.index((-x, -y)) for x, y in pts.points]
    for m in range(0, 7):
        cos_m, sin_m = co._harmonic_weights(xs, ys, m)
        # arctan2 carries a phase error that m multiplies: up to 3.2e-15
        # at m = 6 over n < 3000, so 1e-15 holds only for m <= 2.
        tol = 1e-15 if m <= 2 else 4e-15
        assert np.abs(cos_m - np.cos(m * phi)).max() <= tol
        assert np.abs(sin_m - np.sin(m * phi)).max() <= tol
        assert set(cos_m[axis].tolist()) <= {-1.0, 0.0, 1.0}
        assert set(sin_m[axis].tolist()) <= {-1.0, 0.0, 1.0}
        assert np.all(cos_m[axis] ** 2 + sin_m[axis] ** 2 == 1.0)
        if m % 2 == 0:
            # (-z)^m = z^m: the half-circle gain relies on equal weights.
            assert np.array_equal(cos_m[opposite], cos_m)
            assert np.array_equal(sin_m[opposite], sin_m)


def test_harmonic_weights_match_python_int_loop():
    """The int64 powers over the whole table, and the object-array powers
    past n^m = 2^104 (from m = 8 here), equal the Python-int quotients bit
    for bit."""
    table = circle_table(10000)
    starts = table.starts.tolist()
    for m in range(0, 13):
        cos_all, sin_all = co._harmonic_weights(table.xs, table.ys, m)
        for n in (1, 2, 5, 25, 65, 325, 1105, 5525, 9925):
            lo, hi = starts[n], starts[n + 1]
            want = int_loop_harmonic_weights(table.xs[lo:hi], table.ys[lo:hi], n, m)
            assert np.array_equal(cos_all[lo:hi], want[0])
            assert np.array_equal(sin_all[lo:hi], want[1])
    pts = circle_points(5525)
    assert 5525**10 >= 1 << 104  # the object-array branch
    for m in (10, 11):
        got = co._harmonic_weights(pts.xs, pts.ys, m)
        want = int_loop_harmonic_weights(pts.xs, pts.ys, 5525, m)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


PAIRED_KERNELS = ORACLE_KERNELS[:3]
GATHER_POINTS = [
    (0, 0),  # centre
    (6, 0),  # on the support edge (B = 6)
    (4, -4),  # off the disk, on the stored square
    (10, 3),  # outside the support, within reach 2 R/h = 8
    (14, -14),  # at B + reach: the last shell the padded gather reads
    (15, 0),  # beyond reach
    (-40, 7),  # far beyond reach
]


def test_q_discrete_beyond_reach_allocates_nothing():
    f = co.sample_on_lattice(co.Maxwellian(), 0.5, 3.0)
    tracemalloc.start()
    try:
        got = co.q_discrete_detailed(f, np.array([5e5, 0.0]), MAXWELL, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (0.0, 0.0)
    assert peak < 1 << 16


def _assert_paired_matches_full_circle(f, v, kernel, R):
    """The paired gather against exact_q's sum over every (zeta, zeta') of
    the full circle: value and gross magnitude each within POINT_EPS EPS of
    the exact gross magnitude, so (0.0, 0.0) where that is 0."""
    got = co.q_discrete_detailed(f, v, kernel, R)
    value, gross = exact_q(f.grid, f.h, R, kernel, *co.lattice_coords(f.h, v))
    assert_near_exact(got[0], f.h, value, gross, POINT_EPS)
    assert_near_exact(got[1], f.h, gross, gross, POINT_EPS)


@pytest.mark.parametrize("kernel", PAIRED_KERNELS, ids=["maxwell", "pp05", "pp_odd"])
@pytest.mark.parametrize("zv", GATHER_POINTS)
def test_q_discrete_paired_gather_matches_full_circle(kernel, zv):
    f = co.LatticeDistribution(0.5, 3.0, np.random.default_rng(31).random((13, 13)))
    _assert_paired_matches_full_circle(f, np.array([zv[0] * 0.5, zv[1] * 0.5]), kernel, 2.0)


@pytest.mark.parametrize("kernel", PAIRED_KERNELS, ids=["maxwell", "pp05", "pp_odd"])
def test_q_discrete_paired_gather_matches_full_circle_on_ladder_states(kernel):
    """The converge ladder's states at R = 3: R/h = 6 and 12."""
    R = 3.0
    for spec in (co.Maxwellian(), co.bimaxwellian()):
        for h in (0.5, 0.25):
            f = co.sample_on_lattice(spec, h, 2 * R + 2 * h)
            for v in ([0.0, 0.0], [1.0, -0.5], [4.0, 3.0]):
                _assert_paired_matches_full_circle(f, np.array(v), kernel, R)


@settings(max_examples=100, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25]),
    support_cells=st.integers(0, 10),
    reach=st.integers(1, 12),
    zvx=st.integers(-40, 40),
    zvy=st.integers(-40, 40),
    kernel=st.sampled_from(PAIRED_KERNELS),
    seed=st.integers(0, 2**32 - 1),
)
def test_q_discrete_paired_gather_matches_full_circle_random(
    h, support_cells, reach, zvx, zvy, kernel, seed
):
    b = support_cells
    f = co.LatticeDistribution(
        h, b * h, np.random.default_rng(seed).random((2 * b + 1, 2 * b + 1))
    )
    _assert_paired_matches_full_circle(f, np.array([zvx * h, zvy * h]), kernel, reach * h)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS[:2], ids=["maxwell", "pp05"])
@pytest.mark.parametrize("h, b, R", [(0.5, 3, 1.5), (0.5, 5, 2.0)], ids=["B3", "B5"])
def test_checkerboard_classes_conserve_apart(kernel, h, b, R):
    """A collision's four velocities share one class, v_x + v_y even or odd
    in lattice units: v* - v = 2 zeta, v' - v = zeta + zeta', and zeta_x +
    zeta_y = n = zeta'_x + zeta'_y (mod 2).  So each class keeps its mass,
    momentum and energy, eight invariants whose totals are exactly 0 for
    the exact Q^h; and for a state on one class, apply_grid on the frame
    and q_discrete_detailed give exactly 0.0 on the other."""
    grid = support_state(b, b)
    k = co.lattice_bound(h, R)
    zx, zy = frame_points(b, k)
    value, _ = exact_q(grid, h, R, kernel, zx, zy)
    x, y, parity = zx.astype(object), zy.astype(object), (zx + zy) % 2
    for cls in (0, 1):
        for phi in (1, x, y, x * x + y * y):
            assert np.sum((value * phi)[parity == cls]) == Fraction(0)
    for cls in (0, 1):
        f = co.LatticeDistribution(h, b * h, np.where(parity[k:-k, k:-k] == cls, grid, 0.0))
        frame = frame_apply(h, R, kernel, f.grid)
        assert frame[parity == cls].any() and not frame[parity != cls].any()
        for zv in zip(zx[parity != cls].tolist(), zy[parity != cls].tolist()):
            assert co.q_discrete_detailed(f, h * np.array(zv), kernel, R) == (0.0, 0.0)


def test_circle_table_second_half_negates_the_first():
    """The pairing q_discrete_detailed relies on: point j + r/2 is -zeta_j."""
    table = circle_table(20000)
    starts = table.starts.tolist()
    for n in range(1, table.limit + 1):
        lo, hi = starts[n], starts[n + 1]
        half = (hi - lo) // 2
        assert (hi - lo) % 4 == 0
        assert np.array_equal(table.xs[lo + half : hi], -table.xs[lo : lo + half])
        assert np.array_equal(table.ys[lo + half : hi], -table.ys[lo : lo + half])


@pytest.mark.parametrize("kernel", PAIRED_KERNELS, ids=["maxwell", "pp05", "pp_odd"])
def test_q_discrete_does_not_depend_on_the_chunk_size(monkeypatch, kernel):
    f = co.sample_on_lattice(co.bimaxwellian(), 0.25, 3.5)
    calls = [(f, np.array(v), kernel, 3.0) for v in ([0.0, 0.0], [1.0, -0.5], [-2.25, 3.0])]
    wide = [co.q_discrete_detailed(*args) for args in calls]
    monkeypatch.setattr(co, "Q_DISCRETE_CHUNK_PAIRS", 64)  # 7 of 58 circles have more
    narrow = [co.q_discrete_detailed(*args) for args in calls]
    assert narrow == wide


def test_q_discrete_ladder_call_peak_memory():
    """One h = 0.0625, R = 6.6 call (3040 circles, 253k pairs) holds one chunk
    of pair arrays at a time: a traced peak of 2.3-2.5 MB, bound 4 MB.  The
    state needs no padding here, so it is read in place."""
    h, R = 0.0625, 6.6
    f = co.sample_on_lattice(co.bimaxwellian(), h, 2 * R + 2 * h)
    co.q_discrete_detailed(f, np.zeros(2), MAXWELL, R)  # builds the cached circle table
    tracemalloc.start()
    try:
        co.q_discrete_detailed(f, np.zeros(2), MAXWELL, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
