import io
import math
import random
import tracemalloc

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
    box_loop_apply_frame,
    box_loop_gain,
    full_circle_q_discrete_detailed,
    int_loop_harmonic_weights,
    integer_dot_circles,
    midpoint_level,
    row_loop_loss_parts,
    widened_collision_invariants,
)


MAXWELL = co.KernelSpec.maxwell()


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
    quad = co.QuadratureConfig(r_quad=4.0, n_w=8, n_theta=8, rtol=1e-9, atol=1e-30)
    with pytest.raises(QuadratureError):
        co.q_reference(wiggly, np.zeros(2), MAXWELL, quad)


ANGULAR_KERNELS = [
    MAXWELL,
    co.KernelSpec.product_power(0.5, (1.0, 0.0, 0.5)),
    co.KernelSpec.product_power(1.0, (1.0, 0.3, 0.2)),  # odd harmonic: q(c) != q(-c)
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
    for tol in ({"rtol": math.nan}, {"atol": math.nan}, {"rtol": -1e-6}, {"atol": math.inf}):
        with pytest.raises(PreconditionError, match="rtol and atol must be nonnegative and finite"):
            co.QuadratureConfig(r_quad=3.0, **tol)
    quad = co.QuadratureConfig(r_quad=3.0, n_w=4, n_theta=2, rtol=0.0, atol=0.0)
    assert (quad.n_w, quad.n_theta) == (4, 2)


def test_lattice_distribution_basics():
    m = co.Maxwellian()
    f = co.sample_on_lattice(m, 0.5, 3.0)
    assert f.bound == 6
    assert f.value(0, 0) == pytest.approx(1 / (2 * math.pi))
    assert f.value(100, 0) == 0.0
    # outside the disk but inside the square: forced to zero
    assert f.value(6, 6) == 0.0
    assert f(np.array([[0.5, -1.0]]))[0] == pytest.approx(float(m(np.array([0.5, -1.0]))))
    with pytest.raises(PreconditionError):
        f.lattice_coords(np.array([0.31, 0.0]))
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
    f = co.LatticeDistribution.from_values(0.5, 3.0, {(1, 2): 2.5})
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
    q2 = co.q_discrete(f.scaled(lam), v, MAXWELL, 2.0)
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
        qg = co.FastCollisionOperator(h, 2.0, kernel, b).apply(f)
        for zv in ((0, 0), (4, -3), (-7, 2)):
            qp = full_circle_q_discrete_detailed(f, np.array([zv[0] * h, zv[1] * h]), kernel, 2.0)[0]
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


@pytest.mark.parametrize(
    "kernel", [MAXWELL, co.KernelSpec.product_power(0.5, (1, 0, 0.5))], ids=["maxwell", "pp05"]
)
def test_collision_invariants_normalization_matches_pointwise(kernel):
    """normalization is sum |Q^h| (1 + |v|^2) over every v where Q^h can be
    nonzero, all of which lie on the widened grid."""
    rng = np.random.default_rng(404)
    h, b = 0.5, 4
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    inv = co.collision_invariants(f, kernel, R=b * h)
    wide = f.widened()
    vx, vy = wide.velocities()
    terms = [
        abs(full_circle_q_discrete_detailed(f, np.array([x, y]), kernel, b * h)[0])
        * (1 + x * x + y * y)
        for x, y in zip(vx.ravel().tolist(), vy.ravel().tolist())
    ]
    assert inv.normalization == pytest.approx(math.fsum(terms), rel=1e-12)


def test_widened_state_keeps_values_on_the_energy_disk():
    f = co.sample_on_lattice(co.Maxwellian(), 0.5, 3.0)
    wide = f.widened()
    assert f.bound == 6 and wide.bound == 10  # ceil(6 sqrt 2) + 1
    assert wide.h == f.h and wide.support_radius == 10 * 0.5
    zs = np.arange(-12, 13)
    zx, zy = np.meshgrid(zs, zs, indexing="ij")
    assert np.array_equal(wide.at(zx, zy), f.at(zx, zy))
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
            co.LatticeDistribution.from_values(1.0, 2.0, {(0, 0): 1.0, point: 5.0})
    # The disk's own tolerance: (3, 4) is on the rim of radius 5 = 2.5 / 0.5.
    f = co.LatticeDistribution.from_values(0.5, 2.5, {(3, 4): 2.0, (0, -5): 1.0})
    assert f.value(3, 4) == 2.0 and f.value(0, -5) == 1.0


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
    ],
    ids=["empty-header", "no-R_support", "list-header", "not-json", "value-abc", "coord-x",
         "two-fields", "four-fields", "h-abc", "h-null", "h-nan", "repeated-point"],
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
    with pytest.raises(PreconditionError, match="not on the h-lattice"):
        f.lattice_coords(np.array([math.nan, 0.0]))
    with pytest.raises(PreconditionError, match="not on the h-lattice"):
        f(np.array([[0.5, math.nan]]))


def test_qh_csv_format():
    rng = np.random.default_rng(3)
    h, b = 0.5, 4
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    q = co.FastCollisionOperator(h, 1.5, MAXWELL, b).apply(f)
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


class OldFastCollisionOperator:
    """Reference: the padded-frame grid operator that FastCollisionOperator replaced.

    Products over the whole (out_bound + R/h) mid grid and the full
    circle, harmonic weights from arctan2, and one view-add per circle
    point for the gain and for the loss.  Slow but independent of the
    support boxes, half circles and loss band.
    """

    def __init__(self, h, R, kernel, out_bound):
        self.h = h
        self.out_bound = out_bound
        self.reach = int(math.floor(R / h + 1e-9))
        self.mid_bound = out_bound + self.reach
        self.pad_bound = out_bound + 2 * self.reach
        self._side = 2 * self.pad_bound + 1
        self._mid_side = 2 * self.mid_bound + 1
        self._out_side = 2 * self.out_bound + 1

        if kernel.kind == "maxwell":
            harmonics = [(0, 1.0)]
        else:
            harmonics = [
                (m, c) for m, c in enumerate(kernel.cos_coeffs) if c != 0.0
            ]
        self._circles = []
        for n, xs, ys, q in integer_dot_circles(h, R, kernel):
            r = len(xs)
            q1 = 1.0 if kernel.kind == "maxwell" else float(h * math.sqrt(n)) ** kernel.alpha
            phi = np.arctan2(ys, xs)
            terms = []
            for m, c in harmonics:
                coef = 2 * math.pi / r * q1 * c
                terms.append((m, coef, np.cos(m * phi), np.sin(m * phi)))
            row_weights = (2 * math.pi / r) * q.sum(axis=1)
            self._circles.append((xs, ys, terms, row_weights))

    def pad_state(self, grid, bound):
        padded = np.zeros((self._side, self._side))
        lo = self.pad_bound - bound
        padded[lo : lo + 2 * bound + 1, lo : lo + 2 * bound + 1] = grid
        return padded

    def _mid_view(self, padded, dx, dy):
        lo = self.pad_bound - self.mid_bound
        return padded[
            lo + dx : lo + dx + self._mid_side, lo + dy : lo + dy + self._mid_side
        ]

    def _out_view(self, arr, dx, dy, inner_bound):
        lo = inner_bound - self.out_bound
        return arr[
            lo + dx : lo + dx + self._out_side, lo + dy : lo + dy + self._out_side
        ]

    def apply_padded(self, padded):
        total = np.zeros((self._out_side, self._out_side))
        f_self = self._out_view(padded, 0, 0, self.pad_bound)
        for xs, ys, terms, row_weights in self._circles:
            r = len(xs)
            prods = np.empty((r, self._mid_side, self._mid_side))
            for j in range(r):
                np.multiply(
                    self._mid_view(padded, xs[j], ys[j]),
                    self._mid_view(padded, -xs[j], -ys[j]),
                    out=prods[j],
                )
            prods_flat = prods.reshape(r, -1)
            for m, coef, cos_i, sin_i in terms:
                wc = (cos_i @ prods_flat).reshape(self._mid_side, self._mid_side)
                for i in range(r):
                    if cos_i[i] != 0.0:
                        total += (coef * cos_i[i]) * self._out_view(
                            wc, xs[i], ys[i], self.mid_bound
                        )
                if m != 0:
                    ws = (sin_i @ prods_flat).reshape(self._mid_side, self._mid_side)
                    for i in range(r):
                        if sin_i[i] != 0.0:
                            total += (coef * sin_i[i]) * self._out_view(
                                ws, xs[i], ys[i], self.mid_bound
                            )
            loss = np.zeros((self._out_side, self._out_side))
            for i in range(r):
                loss += row_weights[i] * self._out_view(
                    padded, 2 * xs[i], 2 * ys[i], self.pad_bound
                )
            total -= f_self * loss
        return (2 * self.h) ** 2 * total

    def apply_grid(self, grid, bound):
        return self.apply_padded(self.pad_state(grid, bound))


ORACLE_KERNELS = [
    MAXWELL,
    co.KernelSpec.product_power(0.5, (1, 0, 0.5)),
    co.KernelSpec.product_power(1.0, (1, 0.3, 0.2)),  # odd harmonic: cancels in the gain
    co.KernelSpec.product_power(1.0, (1, 0, 0.2, 0, 0.05)),
]


def _assert_matches_oracle(h, R, kernel, grid, bound):
    new = co.FastCollisionOperator(h, R, kernel, bound).apply_grid(grid)
    old = OldFastCollisionOperator(h, R, kernel, bound).apply_grid(grid, bound)
    assert new.shape == old.shape == (2 * bound + 1, 2 * bound + 1)
    assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@pytest.mark.parametrize(
    "h, R, support, bound",
    [
        (0.25, 2.0, 10, 10),  # the state fills the square
        (0.25, 2.0, 8, 13),  # zeros around it: the relax_simulate shape
        (0.25, 2.5, 5, 7),  # R/h > bound
    ],
)
def test_fast_operator_matches_padded_oracle(kernel, h, R, support, bound):
    rng = np.random.default_rng(support * 100 + bound)
    grid = np.zeros((2 * bound + 1, 2 * bound + 1))
    lo = bound - support
    grid[lo : lo + 2 * support + 1, lo : lo + 2 * support + 1] = rng.random(
        (2 * support + 1, 2 * support + 1)
    )
    _assert_matches_oracle(h, R, kernel, grid, bound)


@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25]),
    reach=st.integers(1, 7),
    bound=st.integers(0, 9),
    kernel=st.sampled_from(ORACLE_KERNELS),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_operator_matches_padded_oracle_random(h, reach, bound, kernel, seed):
    grid = np.random.default_rng(seed).random((2 * bound + 1, 2 * bound + 1))
    _assert_matches_oracle(h, reach * h, kernel, grid, bound)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@pytest.mark.parametrize("state", ["one-sided", "signed", "zero"])
def test_fast_operator_matches_padded_oracle_on_edge_states(kernel, state):
    """A widened state cut to one side, one that RK4 stages dip below 0
    by 1e-13, and the zero state (whose Q^h is exactly 0)."""
    rng = np.random.default_rng(5)
    h, b = 0.25, 8
    wide = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1))).widened()
    grid = wide.grid.copy()
    if state == "one-sided":
        grid[: wide.bound + 3] = 0.0
    elif state == "signed":
        grid -= 1e-13 * (rng.random(grid.shape) < 0.2)
    else:
        grid[:] = 0.0
    _assert_matches_oracle(h, 2.0, kernel, grid, wide.bound)
    if state == "zero":
        assert not co.FastCollisionOperator(h, 2.0, kernel, wide.bound).apply_frame(grid).any()


def _assert_matches_box_loop(h, R, kernel, grid, bound):
    """apply_frame against the box-loop gain it replaced: Maxwell bit for
    bit; harmonic channels to 1e-15 of the (2h)^2-scaled gain's maximum.
    The gemm per circle rounds T differently from one gemv per point by
    1-2 ulp of the gain, and the gain can exceed max|Q^h| tenfold."""
    op = co.FastCollisionOperator(h, R, kernel, bound)
    new = op.apply_frame(grid)
    old = box_loop_apply_frame(op, grid)
    assert new.shape == old.shape == (2 * (bound + op.reach) + 1,) * 2
    if kernel == MAXWELL:
        assert np.array_equal(new, old)
    else:
        scale = (2 * h) ** 2 * np.abs(box_loop_gain(h, R, kernel, bound, grid)).max()
        assert np.abs(new - old).max() <= 1e-15 * scale


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@pytest.mark.parametrize(
    "h, R, support, bound",
    [
        (0.25, 2.0, 10, 10),  # the state fills the square
        (0.25, 2.0, 8, 13),  # zeros around it
        (0.25, 2.5, 5, 7),  # R/h > bound
        (0.5, 2.0, 0, 0),  # one point: no product is kept
    ],
)
def test_flat_gain_matches_box_loop(kernel, h, R, support, bound):
    rng = np.random.default_rng(support * 100 + bound)
    grid = np.zeros((2 * bound + 1, 2 * bound + 1))
    lo = bound - support
    grid[lo : lo + 2 * support + 1, lo : lo + 2 * support + 1] = rng.random(
        (2 * support + 1, 2 * support + 1)
    )
    _assert_matches_box_loop(h, R, kernel, grid, bound)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@pytest.mark.parametrize("state", ["one-sided", "signed", "zero", "relax"])
def test_flat_gain_matches_box_loop_on_edge_states(kernel, state):
    """The widened edge states of the padded-oracle test, and the
    benchmark's relax state (widened bound 30, R/h = 20)."""
    rng = np.random.default_rng(5)
    h, b, R = 0.25, 8, 2.0
    wide = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1))).widened()
    grid = wide.grid.copy()
    if state == "one-sided":
        grid[: wide.bound + 3] = 0.0
    elif state == "signed":
        grid -= 1e-13 * (rng.random(grid.shape) < 0.2)
    elif state == "zero":
        grid[:] = 0.0
    else:
        wide, R = co.sample_on_lattice(co.bimaxwellian(), h, 5.0).widened(), 5.0
        grid = wide.grid
    _assert_matches_box_loop(h, R, kernel, grid, wide.bound)


@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25]),
    reach=st.integers(1, 7),
    bound=st.integers(0, 9),
    kernel=st.sampled_from(ORACLE_KERNELS),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_gain_matches_box_loop_random(h, reach, bound, kernel, seed):
    grid = np.random.default_rng(seed).random((2 * bound + 1, 2 * bound + 1))
    _assert_matches_box_loop(h, reach * h, kernel, grid, bound)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
def test_applies_return_arrays_the_next_apply_leaves_alone(kernel):
    """An operator reuses its buffers, but what an apply returned is the
    caller's: RK4 keeps k1 .. k4 from one operator."""
    rng = np.random.default_rng(11)
    h, b = 0.5, 6
    op = co.FastCollisionOperator(h, 3.0, kernel, b)
    first, second = rng.random((2, 2 * b + 1, 2 * b + 1))
    frame, grid = op.apply_frame(first), op.apply_grid(first)
    kept_frame, kept_grid = frame.copy(), grid.copy()
    assert not np.array_equal(op.apply_frame(second), kept_frame)
    op.apply_grid(second)
    assert np.array_equal(frame, kept_frame) and np.array_equal(grid, kept_grid)
    assert np.array_equal(op.apply_frame(first), kept_frame)


def test_fast_operator_rejects_bad_state_shape():
    with pytest.raises(PreconditionError, match="state bound must be >= 0, got -1"):
        co.FastCollisionOperator(0.5, 2.0, MAXWELL, -1)
    # A one-point state has no collision partner.
    assert co.FastCollisionOperator(0.5, 2.0, MAXWELL, 0).apply_grid(np.ones((1, 1))).tolist() == [[0.0]]
    op = co.FastCollisionOperator(0.5, 2.0, MAXWELL, 4)
    # Both entry points refuse a state of another size with the same error.
    f = co.LatticeDistribution(0.5, 2.5, np.ones((11, 11)))
    with pytest.raises(PreconditionError, match="does not match bound 4") as via_grid:
        op.apply_grid(f.grid)
    with pytest.raises(PreconditionError, match="does not match bound") as via_f:
        op.apply(f)
    assert str(via_grid.value) == str(via_f.value)
    with pytest.raises(PreconditionError, match="step"):
        op.apply(co.LatticeDistribution(0.25, 1.0, np.ones((9, 9))))


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
def test_fast_operator_conserves_invariants(kernel):
    """Sums of Q^h against 1, v, |v|^2 vanish on the widened state's square."""
    rng = np.random.default_rng(77)
    h, b = 0.5, 8
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    wide = f.widened()
    q = co.FastCollisionOperator(h, b * h, kernel, wide.bound).apply(wide)
    vx, vy = wide.velocities()
    norm = math.fsum((np.abs(q) * (1 + vx**2 + vy**2)).ravel())
    for weight in (1.0, vx, vy, vx**2 + vy**2):
        assert abs(math.fsum((q * weight).ravel())) <= 1e-10 * norm


# Disk states of bound b: R = b h, and one R/h < b.
FRAME_CASES = pytest.mark.parametrize(
    "h, b, R", [(0.5, 8, 4.0), (0.25, 20, 5.0), (0.25, 20, 2.0)], ids=["B8", "B20", "B20-short-R"]
)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@FRAME_CASES
def test_collision_invariants_match_widened_oracle(kernel, h, b, R):
    """Summed over the operator's frame, the rates equal those over the
    widened state's square up to rounding."""
    rng = np.random.default_rng(b * 10 + int(R))
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    inv = co.collision_invariants(f, kernel, R)
    old = widened_collision_invariants(f, kernel, R)
    new_rates = (inv.mass_rate, *inv.momentum_rate, inv.energy_rate)
    old_rates = (old.mass_rate, *old.momentum_rate, old.energy_rate)
    for new, want in zip(new_rates, old_rates):
        assert abs(new - want) <= 1e-15 * old.normalization
    assert inv.normalization == pytest.approx(old.normalization, rel=1e-14, abs=0)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@FRAME_CASES
def test_apply_frame_holds_all_of_q(kernel, h, b, R):
    """apply_frame: apply_grid on the state's square, bit for bit; Q^h of the
    state zero-padded to the frame elsewhere; exact zeros past the energy disk."""
    rng = np.random.default_rng(b * 10 + int(R))
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    op = co.FastCollisionOperator(h, R, kernel, b)
    frame = op.apply_frame(f.grid)
    k = op.reach
    assert frame.shape == (2 * (b + k) + 1,) * 2
    assert np.array_equal(frame[k : k + 2 * b + 1, k : k + 2 * b + 1], op.apply_grid(f.grid))
    padded = co.FastCollisionOperator(h, R, kernel, b + k).apply_grid(np.pad(f.grid, k))
    assert np.abs(frame - padded).max() <= 1e-14 * np.abs(padded).max()
    ix = np.arange(-(b + k), b + k + 1)
    beyond = ix[:, None] ** 2 + ix[None, :] ** 2 > 2 * b * b
    assert beyond.any() and not frame[beyond].any()


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["maxwell", "pp05", "pp_odd", "pp_m4"])
@pytest.mark.parametrize("bound", [0, 7, 20, 30])  # R/h = 20
def test_loss_band_matches_row_loop_oracle(kernel, bound):
    """The band built from the gain's channels equals the per-row-offset band
    of r x r integer-dot kernel values, entry by entry."""
    h, R = 0.25, 5.0
    op = co.FastCollisionOperator(h, R, kernel, bound)
    oracle = row_loop_loss_parts(h, R, kernel, bound)
    assert len(op._loss_parts) == len(oracle) == 2
    for (cols, band), (old_cols, old) in zip(op._loss_parts, oracle):
        assert cols == old_cols and band.shape == old.shape
        assert np.all(np.abs(band - old) <= 1e-15 * np.abs(old))
        if kernel == MAXWELL:
            assert np.array_equal(band, old)


def test_loss_band_build_peak_stays_near_what_it_keeps():
    """R/h = 100 over bound 72: one scatter over every (table point, column)
    pair peaked at 3.2 times the operator's bytes; the chunked scatter
    keeps the build within 1.5 times (1.40 measured)."""
    h, R, bound = 0.04, 4.0, 72
    circle_table(co.circle_limit(h, R))  # cached; not part of the build
    tracemalloc.start()
    try:
        op = co.FastCollisionOperator(h, R, MAXWELL, bound)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(band.nbytes for _, band in op._loss_parts) > 16 << 20
    assert peak <= 1.5 * kept



@pytest.mark.parametrize("kernel", ORACLE_KERNELS[:2], ids=["maxwell", "pp05"])
def test_loss_gathers_runs_of_band_rows_within_its_budget(monkeypatch, kernel):
    """R/h = 20 over bound 60 with a budget of two gathered state rows: 21
    runs of band rows per column parity, the first assigned and the rest
    added.  The sum matches one run to 1e-14 of max |loss|, and the traced
    peak stays within the budget plus four state-sized arrays (the zero-row
    stack, the loss, one parity's columns and one run's product)."""
    h, R, bound = 0.25, 5.0, 60
    side = 2 * bound + 1
    op = co.FastCollisionOperator(h, R, kernel, bound)
    grid = np.random.default_rng(5).random((side, side))
    whole = op._loss(grid)
    budget = 2 * 8 * side * (bound + 1)
    monkeypatch.setattr(co, "LOSS_GATHER_BYTES", budget)
    tracemalloc.start()
    try:
        runs = op._loss(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert -(-(2 * op.reach + 1) // 2) == 21  # runs of two band rows
    assert np.abs(runs - whole).max() <= 1e-14 * np.abs(whole).max()
    assert peak <= budget + 4 * 8 * (side + 1) * side


def test_loss_gather_is_one_run_and_bit_identical_at_the_relax_size():
    """The relax workload's operator (h = 0.25, R = 5, the widened state of
    support 5) gathers every band row at once: the one gemm per parity of
    the unchunked loss, bit for bit."""
    h, R = 0.25, 5.0
    bound = co.widened_bound(co.lattice_bound(h, 5.0))
    side = 2 * bound + 1
    op = co.FastCollisionOperator(h, R, co.KernelSpec.product_power(0.5, (1, 0, 0.5)), bound)
    assert 8 * side * (2 * op.reach + 1) * (bound + 1) <= co.LOSS_GATHER_BYTES
    grid = np.random.default_rng(6).random((side, side))
    stacked = np.vstack([grid, np.zeros((1, side))])
    whole = np.empty((side, side))
    for cols, band in op._loss_parts:
        whole[:, cols] = stacked[:, cols][op._loss_rows].reshape(side, -1) @ band
    assert np.array_equal(op._loss(grid), whole)

def test_fast_operator_refuses_an_unaffordable_loss_band(monkeypatch):
    assert co.MAX_LOSS_BAND_BYTES == 1 << 30
    # A small cap, so that a check that failed to fire would build a 610 kB
    # band, not gigabytes: R/h = 20 and bound 30 need 8 * 41 * (31^2 + 30^2).
    monkeypatch.setattr(co, "MAX_LOSS_BAND_BYTES", 8 * 41 * (31**2 + 30**2) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="bound = 30 needs 610408 bytes"):
            co.FastCollisionOperator(0.25, 5.0, MAXWELL, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert co.FastCollisionOperator(0.25, 5.0, MAXWELL, 29).bound == 29


@pytest.mark.parametrize("n", [1, 2, 5, 25, 65, 325, 1105, 5525, 4 * 1105])
def test_harmonic_weights_exact(n):
    pts = circle_points(n)
    xs, ys = pts.xs, pts.ys
    phi = np.arctan2(ys, xs)
    axis = (xs == 0) | (ys == 0)
    opposite = [pts.points.index((-x, -y)) for x, y in pts.points]
    for m in range(0, 7):
        cos_m, sin_m = co._harmonic_weights(xs, ys, n, m)
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
    """The int64 powers over the whole table equal the Python-int quotients
    bit for bit, and so do the Python-int powers past n^m = 2^104."""
    table = circle_table(10000)
    ns = table.xs**2 + table.ys**2
    starts = table.starts.tolist()
    for m in range(0, 9):
        cos_all, sin_all = co._harmonic_weights(table.xs, table.ys, ns, m)
        for n in (1, 2, 5, 25, 65, 325, 1105, 5525, 9925):
            lo, hi = starts[n], starts[n + 1]
            want = int_loop_harmonic_weights(table.xs[lo:hi], table.ys[lo:hi], n, m)
            assert np.array_equal(cos_all[lo:hi], want[0])
            assert np.array_equal(sin_all[lo:hi], want[1])
    pts = circle_points(5525)
    assert 5525**10 >= 1 << 104  # the Python-int branch
    for m in (10, 11):
        got = co._harmonic_weights(pts.xs, pts.ys, 5525, m)
        want = int_loop_harmonic_weights(pts.xs, pts.ys, 5525, m)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def old_circles(h, R, kernel):
    """Reference: one circle_points call per n, as integer_dot_circles did before circle_table."""
    n_max = int(math.floor((R / h) ** 2 + 1e-9))
    for n in range(1, n_max + 1):
        pts = circle_points(n)
        if pts.count == 0:
            continue
        xs, ys = pts.xs, pts.ys
        dots = xs[:, None] * xs[None, :] + ys[:, None] * ys[None, :]
        q = kernel.evaluate(h * math.sqrt(n), dots.astype(np.float64) / n)
        yield n, xs, ys, np.asarray(q, dtype=np.float64)


def old_q_discrete_detailed(f, v, kernel, R):
    """Reference: q_discrete_detailed with f.at lookups that the zero-padded gather replaced."""
    h = f.h
    zvx, zvy = f.lattice_coords(np.asarray(v, dtype=np.float64))
    f_v = f.value(zvx, zvy)
    per_circle = []
    gross = 0.0
    for _, xs, ys, q in old_circles(h, R, kernel):
        r = len(xs)
        gx1 = zvx + xs[:, None] + xs[None, :]
        gy1 = zvy + ys[:, None] + ys[None, :]
        gx2 = zvx + xs[:, None] - xs[None, :]
        gy2 = zvy + ys[:, None] - ys[None, :]
        gain = f.at(gx1, gy1) * f.at(gx2, gy2)
        loss = f_v * f.at(zvx + 2 * xs, zvy + 2 * ys)
        per_circle.append(2 * math.pi / r * float(((gain - loss[:, None]) * q).sum()))
        gross += 2 * math.pi / r * float(((gain + loss[:, None]) * q).sum())
    return (2 * h) ** 2 * math.fsum(per_circle), (2 * h) ** 2 * gross


GATHER_KERNELS = [MAXWELL, co.KernelSpec.product_power(0.5, (1, 0, 0.5))]
PAIRED_KERNELS = GATHER_KERNELS + [co.KernelSpec.product_power(1.0, (1, 0.3, 0.2))]
GATHER_POINTS = [
    (0, 0),  # centre
    (6, 0),  # on the support edge (B = 6)
    (4, -4),  # off the disk, on the stored square
    (10, 3),  # outside the support, within reach 2 R/h = 8
    (14, -14),  # at B + reach: the last shell the padded gather reads
    (15, 0),  # beyond reach
    (-40, 7),  # far beyond reach
]


@pytest.mark.parametrize("kernel", GATHER_KERNELS, ids=["maxwell", "pp05"])
@pytest.mark.parametrize("zv", GATHER_POINTS)
def test_q_discrete_padded_gather_matches_f_at_loop(kernel, zv):
    h, support, R = 0.5, 3.0, 2.0
    grid = np.random.default_rng(31).random((13, 13))
    f = co.LatticeDistribution(h, support, grid)
    v = np.array([zv[0] * h, zv[1] * h])
    got = full_circle_q_discrete_detailed(f, v, kernel, R)
    want = old_q_discrete_detailed(f, v, kernel, R)
    assert got[0] == want[0] and got[1] == want[1]
    if max(map(abs, zv)) > 6 + 8:
        assert got == (0.0, 0.0)


def test_q_discrete_ladder_states_match_f_at_loop():
    R = 3.0
    for spec in (co.Maxwellian(), co.bimaxwellian()):
        for h in (0.5, 0.25):
            f = co.sample_on_lattice(spec, h, 2 * R + 2 * h)
            for kernel in GATHER_KERNELS:
                for v in ([0.0, 0.0], [1.0, -0.5], [4.0, 3.0]):
                    got = full_circle_q_discrete_detailed(f, np.array(v), kernel, R)
                    assert got == old_q_discrete_detailed(f, np.array(v), kernel, R)


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


@settings(max_examples=60, deadline=None)
@given(
    h=st.sampled_from([1.0, 0.5, 0.25]),
    support_cells=st.integers(0, 8),
    reach=st.integers(1, 6),
    zvx=st.integers(-30, 30),
    zvy=st.integers(-30, 30),
    kernel=st.sampled_from(GATHER_KERNELS),
    seed=st.integers(0, 2**32 - 1),
)
def test_q_discrete_padded_gather_matches_f_at_loop_random(
    h, support_cells, reach, zvx, zvy, kernel, seed
):
    b = support_cells
    f = co.LatticeDistribution(
        h, b * h, np.random.default_rng(seed).random((2 * b + 1, 2 * b + 1))
    )
    v = np.array([zvx * h, zvy * h])
    got = full_circle_q_discrete_detailed(f, v, kernel, reach * h)
    want = old_q_discrete_detailed(f, v, kernel, reach * h)
    assert got[0] == want[0] and got[1] == want[1]


def _assert_paired_matches_full_circle(f, v, kernel, R):
    """The paired gather against the full-circle loop: the value within
    1e-14 of the gross magnitude, the gross magnitude within 1e-14 of itself."""
    got = co.q_discrete_detailed(f, v, kernel, R)
    want = full_circle_q_discrete_detailed(f, v, kernel, R)
    assert abs(got[0] - want[0]) <= 1e-14 * want[1]
    assert abs(got[1] - want[1]) <= 1e-14 * want[1]
    if want[1] == 0.0:
        assert got == (0.0, 0.0)


@pytest.mark.parametrize("kernel", PAIRED_KERNELS, ids=["maxwell", "pp05", "pp_odd"])
@pytest.mark.parametrize("zv", GATHER_POINTS)
def test_q_discrete_paired_gather_matches_full_circle(kernel, zv):
    f = co.LatticeDistribution(0.5, 3.0, np.random.default_rng(31).random((13, 13)))
    _assert_paired_matches_full_circle(f, np.array([zv[0] * 0.5, zv[1] * 0.5]), kernel, 2.0)


@pytest.mark.parametrize("kernel", PAIRED_KERNELS, ids=["maxwell", "pp05", "pp_odd"])
def test_q_discrete_paired_gather_matches_full_circle_on_ladder_states(kernel):
    R = 6.6
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
