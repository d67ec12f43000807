"""Collision operators: continuous reference quadrature and lattice Q^h.

The continuous operator is evaluated as

    Q(f, f)(v) = 4 * integral over w of integral over theta of
                 (f(v') f(v*') - f(v) f(v*)) q(|w|, cos theta),

with v' = v + w + R_theta w and v*' = v + w - R_theta w, by a tensor rule
that is spectrally accurate for smooth rapidly decaying f: uniform
trapezoid in theta (periodic) and, in w = rho (cos phi, sin phi), a polar
rule (polar_disk): Gauss-Legendre in the radius on two panels, the inner
one in t with rho proportional to t^2 to smooth the |w|^alpha kink at 0,
and a uniform trapezoid in phi.  Turning
theta by pi swaps v' and v*' (R_{theta+pi} w = -R_theta w), so the gain
product f(v') f(v*') is pi-periodic: the rule takes an even number of
theta nodes and evaluates each product once for the node pair theta,
theta + pi, which then carries the kernel weight q(cos theta) +
q(-cos theta).  On the polar rule's rings the rule needs no rotation at
all: n_theta divides n_w, so a turn by an angle node moves each polar node
to another node of its ring, and q_reference forms each f value once, as
f at a sum of two nodes of one ring (_ring_angular_integral).
angular_integral keeps arbitrary nodes w for the lattice Riemann sums of
the convergence study, whose nodes are not closed under the turns.

The lattice operator replaces w by h * zeta and the angular integral by
an equal-weight quadrature over the integer points zeta' on the circle
|zeta'| = |zeta|, each point carrying weight 2*pi / r(|zeta|^2) so that
the angular sum converges to the full (unnormalized) angular integral:

    Q^h(f, f)(v) = (2h)^2 * sum over 0 < |zeta| <= R/h of
                   (2*pi / r(|zeta|^2)) * sum over |zeta'| = |zeta| of
                   (f(v') f(v*') - f(v) f(v*)) q(|h zeta|, cos theta),

with v' = h(zeta_v + zeta + zeta'), v*' = h(zeta_v + zeta - zeta') and
theta the angle between zeta' and zeta.  cos theta is computed from the
exact integer dot product zeta . zeta' / n, which keeps the kernel weight
of a collision and of its reverse bitwise identical and makes the
conservation cancellations clean.  The zeta = 0 term is skipped: it has
v' = v*' = v = v* and contributes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev as _cheb

from .circles import circle_table
from .errors import PreconditionError, QuadratureError, check_memory
from .numtheory import exact_terms, gaussian_pow

Array = np.ndarray


# ---------------------------------------------------------------------------
# Cross sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Cross section q(|w|, cos theta) = q1(|w|) * q2(theta).

    q1 = |w|**alpha with alpha in [0, 1] and q2 an even trigonometric
    polynomial given by its cosine coefficients (c0 + c1 cos theta + c2
    cos 2 theta + ...), which is automatically C-infinity; singular
    angular kernels cannot be represented and are rejected here by
    construction.  The default, alpha = 0 and q2 = 1, is Maxwell
    molecules: q = 1.
    """

    alpha: float = 0.0
    cos_coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise PreconditionError(f"alpha must be in [0, 1], got {self.alpha}")
        if not all(math.isfinite(c) for c in self.cos_coeffs):
            raise PreconditionError("cosine coefficients must be finite")
        grid = np.cos(np.linspace(0.0, math.pi, 4096))
        if _cheb.chebval(grid, self.cos_coeffs).min() < -1e-12:
            raise PreconditionError("q2 must be nonnegative")

    @property
    def kind(self) -> str:
        """Name of the kernel family: maxwell for q = 1, else product_power."""
        return "maxwell" if self.alpha == 0.0 and self.cos_coeffs == (1.0,) else "product_power"

    @classmethod
    def maxwell(cls) -> "KernelSpec":
        return cls()

    @classmethod
    def product_power(
        cls, alpha: float, cos_coeffs: Sequence[float]
    ) -> "KernelSpec":
        return cls(alpha, tuple(cos_coeffs))

    def speed_factor(self, w_norm):
        """q1 = |w|**alpha; exactly 1.0 for alpha = 0."""
        return 1.0 if self.alpha == 0.0 else np.power(w_norm, self.alpha)

    def angular_factor(self, cos_theta):
        """q2 at the scattering cosine; broadcasts over arrays."""
        # T_m(cos theta) = cos(m theta), so the cosine series is a
        # Chebyshev series in the scattering cosine.
        return _cheb.chebval(np.asarray(cos_theta, dtype=np.float64), self.cos_coeffs)

    def evaluate(self, w_norm, cos_theta):
        """q at speed |w| and scattering cosine; broadcasts over arrays."""
        return self.speed_factor(w_norm) * self.angular_factor(cos_theta)


# ---------------------------------------------------------------------------
# Closed-form distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Maxwellian:
    """rho / (2 pi T) * exp(-|v - u|^2 / (2T)); annihilates the operator."""

    rho: float = 1.0
    ux: float = 0.0
    uy: float = 0.0
    T: float = 1.0

    def __call__(self, v: Array) -> Array:
        v = np.asarray(v, dtype=np.float64)
        # Contiguous x and y copies, squared in place; d2 is 0-d for one v.
        d2 = np.subtract(v[..., 0], self.ux, out=np.empty(v.shape[:-1]))
        dy = v[..., 1] - self.uy
        d2 *= d2
        dy *= dy
        d2 += dy
        d2 /= -2 * self.T
        return self.rho / (2 * math.pi * self.T) * np.exp(d2, out=d2)


@dataclass(frozen=True)
class MaxwellianMixture:
    components: tuple[Maxwellian, ...]

    def __call__(self, v: Array) -> Array:
        v = np.asarray(v, dtype=np.float64)
        first, *rest = self.components
        out = first(v)
        for c in rest:
            out += c(v)
        return out


def bimaxwellian() -> MaxwellianMixture:
    """The asymmetric two-component Maxwellian mixture of the experiments.

    The perfectly symmetric equal-temperature pair has Q(f, f)(0) = 0 by
    an exact gain/loss cancellation, which would make convergence studies
    at v = 0 compare roundoff to roundoff; generic parameters avoid that.
    """
    return MaxwellianMixture((Maxwellian(0.6, 1.0, 0.0, 0.8), Maxwellian(0.4, -0.7, 0.3, 1.2)))


# ---------------------------------------------------------------------------
# Lattice distributions
# ---------------------------------------------------------------------------

def lattice_bound(h: float, radius: float) -> int:
    """Integer coordinate bound B = floor(radius / h) of a lattice disk."""
    if not (math.isfinite(h) and h > 0):
        raise PreconditionError(f"h must be positive and finite, got {h}")
    if not (math.isfinite(radius) and radius >= 0):
        raise PreconditionError(f"disk radius must be nonnegative and finite, got {radius}")
    return int(math.floor(radius / h + 1e-9))


# Sampling a closed-form state peaks at 18.3 bytes per lattice point
# (traced, bi-Maxwellian, 601^2 points); it peaked at 64 while it stacked
# every velocity before calling f, and the constant stays at that so that
# no refusal moves.  The Riemann sum of converge_study's h reads the R disk,
# whose square has at most a quarter of the state's points, at about 136
# bytes per disk point, so it fits the same budget.
CONVERGE_BYTES_PER_POINT = 64


def check_state_points(h: float, radius: float) -> int:
    """The side 2B + 1 of the square a state on the disk |v| <= radius is
    stored on, once its points are checked against the memory budget."""
    side = 2 * lattice_bound(h, radius) + 1  # refuses a bad h or radius
    what = f"h = {h}: the state on the disk of radius {radius:g} has {side}^2 points"
    check_memory(what, side * side, CONVERGE_BYTES_PER_POINT)
    return side


def widened_bound(bound: int) -> int:
    """Bound of the square that LatticeDistribution.widened puts a state of
    bound `bound` on: past sqrt(2) bound, the energy disk."""
    return int(math.ceil(math.sqrt(2.0) * bound)) + 1


@dataclass
class LatticeDistribution:
    """Nonnegative values f_zeta on the lattice points |h zeta| <= R_support.

    Stored densely on the covering square, with 0 off the support disk.
    """

    h: float
    support_radius: float
    grid: Array  # (2B+1, 2B+1), grid[ix + B, iy + B] = f at zeta=(ix, iy)
    bound: int = field(init=False)  # B = floor(R_support / h)
    disk: Array = field(init=False)  # the grid points inside the support disk

    def __post_init__(self) -> None:
        b = self.bound = lattice_bound(self.h, self.support_radius)  # refuses a bad h or radius
        self.grid = np.array(self.grid, dtype=np.float64)
        if self.grid.shape != (2 * b + 1, 2 * b + 1):
            raise PreconditionError(
                f"grid shape {self.grid.shape} does not match support radius"
            )
        if not np.all(np.isfinite(self.grid)):
            raise PreconditionError("distribution values must be finite")
        if self.grid.min() < 0:
            raise PreconditionError("distribution values must be nonnegative")
        # ix^2 + iy^2 <= (R/h)^2 + 1e-9 in integers: |iy| <= isqrt(n - ix^2), -1
        # for a row past the rim, so the mask is made without a wider temporary.
        n = circle_limit(self.h, self.support_radius)
        half = [math.isqrt(n - i * i) if i * i <= n else -1 for i in range(-b, b + 1)]
        self.disk = np.abs(np.arange(-b, b + 1)) <= np.array(half)[:, None]
        self.grid[~self.disk] = 0.0

    def velocities(self) -> tuple[Array, Array]:
        """(vx, vy) at every grid point, indexed like ``grid``."""
        ix = np.arange(-self.bound, self.bound + 1)
        return np.meshgrid(ix * self.h, ix * self.h, indexing="ij")

    def widened(self) -> "LatticeDistribution":
        """The same state on the disk sqrt(2) wider than its support.

        That disk holds every velocity where Q^h of the state can be
        nonzero, because collisions conserve energy.
        """
        wide = LatticeDistribution.zeros(self.h, widened_bound(self.bound) * self.h)
        lo = wide.bound - self.bound
        wide.grid[lo : lo + 2 * self.bound + 1, lo : lo + 2 * self.bound + 1] = self.grid
        return wide

    @classmethod
    def zeros(cls, h: float, support_radius: float) -> "LatticeDistribution":
        """The zero state on the disk |h zeta| <= support_radius; every dense
        state is made here, and its size checked (check_state_points) before
        it is allocated: the constructor's copy is its one grid."""
        side = check_state_points(h, support_radius)
        return cls(h, support_radius, np.broadcast_to(0.0, (side, side)))

    @classmethod
    def from_values(
        cls, h: float, support_radius: float, values: Iterable[tuple[tuple[int, int], float]]
    ) -> "LatticeDistribution":
        """The state with the given (point, value) pairs and 0 elsewhere.  The
        zero state is made before `values` is read; a point off the support
        disk, or given twice, raises PreconditionError."""
        zero = cls.zeros(h, support_radius)
        b, grid, disk = zero.bound, zero.grid, zero.disk
        seen = np.zeros_like(disk)
        for (zx, zy), val in values:
            if abs(zx) > b or abs(zy) > b or not disk[zx + b, zy + b]:
                raise PreconditionError(f"point {(zx, zy)} outside declared support")
            if seen[zx + b, zy + b]:
                raise PreconditionError(f"the state repeats the row of point {(zx, zy)}")
            seen[zx + b, zy + b] = True
            grid[zx + b, zy + b] = val
        return cls(h, support_radius, grid)


def lattice_coords(h: float, v: Array) -> tuple[int, int]:
    """Integer coordinates of a velocity that must lie on the h-lattice."""
    lattice_bound(h, 0.0)  # refuses a bad h
    z = np.asarray(v, dtype=np.float64) / h
    zr = np.rint(z)
    if not (np.all(np.isfinite(z)) and np.max(np.abs(z - zr)) <= 1e-9):
        raise PreconditionError(f"velocity {v} is not on the h-lattice")
    return int(zr[0]), int(zr[1])


# sample_on_lattice evaluates f on blocks of whole rows of about this many
# points, so f's (rows, side, 2) velocities and its temporaries stay small
# next to the state.
SAMPLE_BLOCK_POINTS = 1 << 14


def sample_on_lattice(
    f: Callable[[Array], Array], h: float, support_radius: float
) -> LatticeDistribution:
    """Point-sample a closed-form distribution onto the lattice, filling the
    state's own grid a block of rows at a time."""
    grid = LatticeDistribution.zeros(h, support_radius).grid
    v = np.arange(-(len(grid) // 2), len(grid) // 2 + 1) * h
    rows = max(1, SAMPLE_BLOCK_POINTS // len(v))
    for a in range(0, len(v), rows):
        vx, vy = np.meshgrid(v[a : a + rows], v, indexing="ij")
        grid[a : a + rows] = f(np.stack([vx, vy], axis=-1))
    return LatticeDistribution(h, support_radius, grid)


# ---------------------------------------------------------------------------
# Collision geometry
# ---------------------------------------------------------------------------

def rotate(w: Array, c, s) -> Array:
    """R_theta w for cos theta = c, sin theta = s.

    w has shape (..., 2) and broadcasts against c and s.  Callers pass
    their own cosines: angular_integral math.cos per node, angular_fourier
    np.cos over its grid.
    """
    return np.stack([c * w[..., 0] - s * w[..., 1], s * w[..., 0] + c * w[..., 1]], axis=-1)


def lattice_post_collision(
    zeta_v: tuple[int, int], zeta: tuple[int, int], zeta_prime: tuple[int, int]
) -> tuple[tuple[int, int], ...]:
    """Integer-lattice collision quadruple (v, v*, v', v*') in zeta units.

    Exact integer arithmetic; momentum and energy identities hold exactly
    when |zeta'| = |zeta|.
    """
    vx, vy = zeta_v
    zx, zy = zeta
    px, py = zeta_prime
    return (
        (vx, vy),
        (vx + 2 * zx, vy + 2 * zy),
        (vx + zx + px, vy + zy + py),
        (vx + zx - px, vy + zy - py),
    )


# ---------------------------------------------------------------------------
# Continuous reference operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    """Polar rule on the disk |w| <= r_quad (see polar_disk) times n_theta
    trapezoid nodes on [-pi, pi).

    n_w is the number of nodes on a diameter: each of the two radial panels
    gets n_w / 4 Gauss-Legendre nodes and the polar angle n_w trapezoid
    nodes, so n_w must be a positive multiple of 4.  n_theta must be even
    (see angular_integral) and divide n_w, so that a turn by an angle node
    moves each polar node to another node of its ring (see
    _ring_angular_integral).  q_reference's fine level doubles both.
    """

    r_quad: float
    n_w: int = 96
    n_theta: int = 32

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_quad) and self.r_quad > 0):
            raise PreconditionError(f"r_quad must be positive and finite, got {self.r_quad}")
        if self.n_w < 4 or self.n_w % 4:
            raise PreconditionError(f"n_w must be a positive multiple of 4, got {self.n_w}")
        _check_n_theta(self.n_theta)
        if self.n_w % self.n_theta:
            raise PreconditionError(
                f"n_theta must divide n_w, got n_theta = {self.n_theta}, n_w = {self.n_w}"
            )


def _check_n_theta(n_theta: int) -> None:
    """The paired trapezoid rule needs an even node count of at least 2."""
    if n_theta < 2 or n_theta % 2:
        raise PreconditionError(f"n_theta must be even and >= 2, got {n_theta}")


@dataclass(frozen=True)
class QuadratureResult:
    """The fine level's value and its gap to the coarse level.

    nodes, weights and angular are the fine level's polar nodes w, their
    weights (value = 4 * sum of weights * angular) and G_v(w) there,
    integrated with 2 * config.n_theta angle nodes, so that a caller can
    reuse parts of the fine level without integrating it again.
    """

    value: float
    self_convergence: float
    config: QuadratureConfig
    nodes: Array = field(repr=False, compare=False)
    angular: Array = field(repr=False, compare=False)
    weights: Array = field(repr=False, compare=False)


def angular_integral(
    f: Callable[[Array], Array],
    v: Array,
    kernel: KernelSpec,
    w: Array,
    n_theta: int,
) -> Array:
    """G_v(w) = integral over theta in [-pi, pi) of g_v(w, theta), per w.

    Uniform trapezoid rule on the n_theta nodes theta_j = -pi + 2 pi j /
    n_theta, which is spectrally accurate for the periodic smooth
    integrand.  ``w`` has shape (M, 2); the result has shape (M,).

    n_theta must be even and at least 2.  The rule then visits only the
    nodes in [-pi, 0): node theta_j + pi has v' and v*' swapped, hence
    the same gain product, so each product is formed once and weighted
    by q(|w|, cos theta_j) + q(|w|, -cos theta_j) = q1(|w|) (q2(cos
    theta_j) + q2(-cos theta_j)), which also holds for kernels with odd
    cosine harmonics, where q differs at theta + pi; q1 is taken once per
    node.
    """
    _check_n_theta(n_theta)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    q1 = kernel.speed_factor(np.hypot(w[:, 0], w[:, 1]))
    thetas = -math.pi + 2 * math.pi * np.arange(n_theta // 2) / n_theta
    f_vv = float(np.asarray(f(v[None, :])).ravel()[0])
    loss = f_vv * np.asarray(f(v[None, :] + 2 * w))  # (M,)
    base = v[None, :] + w

    total = np.zeros(len(w))
    for th in thetas:
        c = math.cos(th)
        rw = rotate(w, c, math.sin(th))
        gain = np.asarray(f(base + rw)) * np.asarray(f(base - rw))
        total += (gain - loss) * (kernel.angular_factor(c) + kernel.angular_factor(-c))
    return total * q1 * (2 * math.pi / n_theta)


def _ring_angular_integral(
    f: Callable[[Array], Array],
    v: Array,
    kernel: KernelSpec,
    w: Array,
    n_w: int,
    n_theta: int,
) -> Array:
    """angular_integral's G_v(w) on whole rings of polar_disk(r, n_w)
    nodes, with each distinct f value formed once; n_theta must divide n_w.

    The nodes are ring-major, w[a n_w + b] = w_{a,b} = rho_a e(phi_b), so a
    turn by theta_j = -pi + 2 pi j / n_theta moves w_{a,b} to w_{a, b + js
    - n_w/2}, s = n_w / n_theta, ring indices taken mod n_w.  With -w_{a,c}
    = w_{a, c + n_w/2}, every point the rule reads is some g_d[a, b] = v +
    w_{a,b} + w_{a,b+d}: v' = g_{js - n_w/2}, v*' = g_{js}, the loss partner
    v + 2w = g_0, and g_{-d}[a, b] = g_d[a, b - d] (up to the rounding of
    the sum, whose v + w_{a,b} is formed first).  So the n_theta/2 - 1
    arrays f(g_d), d = s, 2s, ..., n_w/2 - s, serve every theta_j in [-pi,
    0), and theta_0 = -pi has gain = loss.  theta_j and theta_{n_theta/2 -
    j} read the same two arrays, f(g_{js}) and f(g_{n_w/2 - js}): they are
    formed together and dropped, so memory stays O(len(w)).  f is called
    n_theta/2 + 1 times in all, f(v) included, and q1 once per ring.
    """
    v = np.asarray(v, dtype=np.float64)
    rings = np.asarray(w, dtype=np.float64).reshape(-1, n_w, 2)
    base = v + rings
    twice = np.concatenate([rings, rings], axis=1)  # twice[a, b + d] = w_{a, b+d mod n_w}

    def f_ring(d: int) -> Array:
        """f(g_d) on the (rings, n_w) grid."""
        pts = base + twice[:, d : d + n_w]
        return np.asarray(f(pts.reshape(-1, 2))).reshape(len(rings), n_w)

    f_vv = float(np.asarray(f(v[None, :])).ravel()[0])
    loss = f_vv * f_ring(0)
    s, half_turn = n_w // n_theta, n_theta // 2

    def pair_q2(j: int) -> float:
        c = math.cos(-math.pi + 2 * math.pi * j / n_theta)
        return float(kernel.angular_factor(c) + kernel.angular_factor(-c))

    total = np.zeros_like(loss)
    for j in range(1, half_turn // 2 + 1):
        d, e = j * s, (half_turn - j) * s  # e = n_w/2 - d
        f_d = f_ring(d)
        f_e = f_ring(e) if e != d else f_d
        total += (f_d * np.roll(f_e, e, axis=1) - loss) * pair_q2(j)
        if e != d:
            total += (f_e * np.roll(f_d, d, axis=1) - loss) * pair_q2(half_turn - j)
    q1 = kernel.speed_factor(np.hypot(rings[:, :1, 0], rings[:, :1, 1]))  # (rings, 1)
    return (total * q1 * (2 * math.pi / n_theta)).ravel()


def polar_disk(r_quad: float, n_w: int) -> tuple[Array, Array]:
    """Nodes w, shape (n_w^2 / 2, 2), and weights of a rule for the
    integral over the disk |w| <= r_quad, w = rho (cos phi, sin phi).

    Two radial panels of n_w / 4 Gauss-Legendre nodes each: on [0, r/2]
    rho = (r/2) t^2 with the nodes in t, so that rho drho = (r^2/2) t^3 dt
    is smooth even where an integrand has the kink |w|^alpha at 0; on
    [r/2, r] the nodes are in rho itself.  The angle phi takes the n_w
    trapezoid nodes 2 pi j / n_w, spectrally accurate for the periodic
    integrand.  The inner panel's nodes come first, and every inner node
    has |w| < r/2 < every outer node's.
    """
    x, a = np.polynomial.legendre.leggauss(n_w // 4)
    t, dt = (x + 1) / 2, a / 2  # Gauss-Legendre on [0, 1]
    half = r_quad / 2
    rho = np.concatenate([half * t * t, half * (1 + t)])
    radial = np.concatenate([2 * half * half * t**3 * dt, half * (1 + t) * half * dt])
    phi = 2 * math.pi * np.arange(n_w) / n_w
    nodes = np.stack(
        [np.outer(rho, np.cos(phi)).ravel(), np.outer(rho, np.sin(phi)).ravel()], axis=-1
    )
    return nodes, np.repeat(radial * (2 * math.pi / n_w), n_w)


def polar_sum(weights: Array, values: Array) -> float:
    """4 * sum of weights * values, exactly rounded (one math.fsum over
    numtheory.exact_terms): the polar rule's value."""
    return 4.0 * math.fsum(exact_terms(weights * values))


# q_reference's self-convergence tolerance: relative, floored by the absolute one.
Q_REFERENCE_RTOL = 1e-6
Q_REFERENCE_ATOL = 1e-12


def q_reference(
    f: Callable[[Array], Array],
    v: Array,
    kernel: KernelSpec,
    quad: QuadratureConfig,
) -> QuadratureResult:
    """Reference Q(f, f)(v) with a Richardson-style self-convergence check.

    Evaluates the polar rule (polar_disk times the angular trapezoid) at
    (n_w, n_theta) and at (2 n_w, 2 n_theta); raises QuadratureError when
    the two levels disagree beyond Q_REFERENCE_RTOL (relative, floored by
    Q_REFERENCE_ATOL).  Each level integrates in theta by
    _ring_angular_integral: on the polar rule's rings a turn by theta is a
    shift of the ring index, so f is evaluated once per distinct point,
    n_theta/2 + 1 calls per level.  The result keeps the fine level's nodes, weights and
    per-node angular integrals.
    """
    nodes, weights = polar_disk(quad.r_quad, quad.n_w)
    coarse = polar_sum(
        weights, _ring_angular_integral(f, v, kernel, nodes, quad.n_w, quad.n_theta)
    )
    # The fine level, kept whole for the result.
    nodes, weights = polar_disk(quad.r_quad, 2 * quad.n_w)
    angular = _ring_angular_integral(f, v, kernel, nodes, 2 * quad.n_w, 2 * quad.n_theta)
    fine = polar_sum(weights, angular)
    err = abs(fine - coarse)
    if err > Q_REFERENCE_RTOL * max(abs(fine), abs(coarse)) + Q_REFERENCE_ATOL:
        raise QuadratureError(
            f"quadrature did not self-converge: levels {coarse:.6e} vs {fine:.6e}"
        )
    return QuadratureResult(fine, err, quad, nodes, angular, weights)


# ---------------------------------------------------------------------------
# Lattice operator
# ---------------------------------------------------------------------------

def circle_limit(h: float, R: float) -> int:
    """Largest squared radius n of the lattice sum: n <= (R/h)^2."""
    return int(math.floor((R / h) ** 2 + 1e-9))


def _paired_circle_sums(flat, at, width, f_v, kernel, table, ns, firsts, rs):
    """Gain and loss sums, without 2 pi / r and q1, of circles stored back to back.

    flat is the padded state, read at at + the flat offset (x, y) ->
    x * width + y.  Circle c has rs[c] points from table index firsts[c]
    on.  Gain: sum over i < r, j < r/2 of f(v') f(v*') (q2(cos theta_ij)
    + q2(-cos theta_ij)).  Loss: sum over i of f(v) f(v + 2 zeta_i) sum_j
    q2(cos theta_ij).
    """
    m, half = len(rs), rs // 2
    counts = rs * half
    circ = np.repeat(np.arange(m), counts)  # circle of each pair
    i, j = np.divmod(np.arange(len(circ)) - (np.cumsum(counts) - counts)[circ], half[circ])
    pi = firsts[circ] + i
    pj = pi - i + j
    xi, yi, xj, yj = table.xs[pi], table.ys[pi], table.xs[pj], table.ys[pj]
    gain = flat[at + (xi + xj) * width + (yi + yj)] * flat[at + (xi - xj) * width + (yi - yj)]
    cos = (xi * xj + yi * yj) / ns[circ]
    weight = kernel.angular_factor(cos) + kernel.angular_factor(-cos)

    p0, p1 = firsts[0], firsts[-1] + rs[-1]
    qsum = np.bincount(pi - p0, weights=weight, minlength=p1 - p0)  # sum_j q2_ij
    loss = f_v * flat[at + 2 * (table.xs[p0:p1] * width + table.ys[p0:p1])] * qsum
    return (
        np.bincount(circ, weights=gain * weight, minlength=m),
        np.bincount(np.repeat(np.arange(m), rs), weights=loss, minlength=m),
    )


# Most (zeta_i, zeta_j) pairs one chunk of q_discrete_detailed gathers.  A
# chunk holds whole circles, so a circle with more pairs is a chunk alone.
# The chunk's index and value arrays peak at about 2.5 MB (traced) at 2**14.
Q_DISCRETE_CHUNK_PAIRS = 1 << 14


def q_discrete_detailed(
    f: LatticeDistribution,
    v: Array,
    kernel: KernelSpec,
    R: float,
) -> tuple[float, float]:
    """Q^h(f, f)(v) plus the gross magnitude of its summands.

    The second value, (2h)^2 * sum of weights * (gain + loss), is the
    natural scale against which the signed total cancels; it sets the
    roundoff floor for near-equilibrium states.

    Every lookup lies within 2 R/h of v, so the state is zero-padded only
    where that reach leaves its square and read through flat offsets; a v
    farther than that from the state's square gets (0.0, 0.0) at once.

    The circles of circle_table are taken in chunks of whole circles of at
    most Q_DISCRETE_CHUNK_PAIRS pairs, each gathered with flat index
    arrays.  In the table's angle order point j + r/2 of a circle is
    -zeta_j, and turning zeta' into -zeta' swaps v' and v*', so only the
    columns j < r/2 are gathered, each weighted by q2(cos) + q2(-cos); the
    loss of point i is f(v) f(v + 2 zeta_i) sum_j q2_ij.  np.bincount
    gives the per-circle sums, and the value and the gross magnitude are
    each one math.fsum over the per-circle terms, so neither depends on
    the chunk size.
    """
    if not (math.isfinite(R) and R > 0):
        raise PreconditionError(f"h and R must be positive and finite, got R = {R}")
    h = f.h
    zvx, zvy = lattice_coords(h, np.asarray(v, dtype=np.float64))
    b = f.bound
    reach = 2 * lattice_bound(h, R)  # farthest lookup from v, per coordinate
    dist = max(abs(zvx), abs(zvy))
    if dist > b + reach:
        return 0.0, 0.0
    pad = max(0, dist + reach - b)
    g = np.pad(f.grid, pad) if pad else f.grid
    width = g.shape[1]
    flat = g.reshape(-1)
    at = (zvx + b + pad) * width + (zvy + b + pad)  # v's flat index in g
    f_v = float(flat[at])

    table = circle_table(circle_limit(h, R))
    counts = np.diff(table.starts)
    ns = np.flatnonzero(counts)  # the circles that have points
    rs = counts[ns]
    firsts = table.starts[ns]
    pairs = rs * (rs // 2)
    ends = np.cumsum(pairs)
    coef = 2 * math.pi / rs * kernel.speed_factor(h * np.sqrt(ns))

    values: list[float] = []
    grosses: list[float] = []
    c0 = 0
    while c0 < len(ns):
        limit = ends[c0] - pairs[c0] + Q_DISCRETE_CHUNK_PAIRS
        c1 = max(c0 + 1, int(np.searchsorted(ends, limit, side="right")))
        gain, loss = _paired_circle_sums(
            flat, at, width, f_v, kernel, table, ns[c0:c1], firsts[c0:c1], rs[c0:c1]
        )
        values += (coef[c0:c1] * (gain - loss)).tolist()
        grosses += (coef[c0:c1] * (gain + loss)).tolist()
        c0 = c1
    return (2 * h) ** 2 * math.fsum(values), (2 * h) ** 2 * math.fsum(grosses)


def q_discrete(
    f: LatticeDistribution,
    v: Array,
    kernel: KernelSpec,
    R: float,
) -> float:
    """Lattice collision operator Q^h(f, f) at a single lattice velocity."""
    return q_discrete_detailed(f, v, kernel, R)[0]


def _harmonic_weights(xs: Array, ys: Array, m: int) -> tuple[Array, Array]:
    """cos(m phi) and sin(m phi) at the points (x, y), n = x^2 + y^2.

    Re and Im of the Gaussian integer (x + iy)^m (gaussian_pow) are exact
    integers.  For even m, the only harmonics the gain uses, n^(m/2) is an
    integer too, so each weight is one correctly rounded quotient and axis
    points give exactly 0 and +-1.  While n^m < 2^104 the powers run in
    int64: no intermediate reaches 2^63, and Re, Im and n^(m//2) stay below
    2^53, so the float quotient is the one Python ints give.  Beyond that
    they run on object arrays of Python ints.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    ns = xs * xs + ys * ys
    if len(xs) and int(ns.max()) ** m >= 1 << 104:
        xs, ys, ns = xs.astype(object), ys.astype(object), ns.astype(object)
    re, im = gaussian_pow(xs, ys, m)
    den = ns ** (m // 2)
    odd = np.sqrt(ns.astype(np.float64)) if m % 2 else 1.0
    return (re / den / odd).astype(np.float64), (im / den / odd).astype(np.float64)


# One RK4 step of relax_simulate, build and plan included, peaks at 43-304
# bytes per point of the operator's frame |v| <= bound + R/h (tracemalloc,
# circle table cached; Maxwell and product_power(0.5, (1, 0, 0.5)), R/h = 8,
# 20, 40 and 100 over widened states of 37^2, 119^2 and 343^2 points).  The
# top is Maxwell at R/h = 40 over 343^2, with its 32 row-offset accumulators
# (ACCUMULATED_OFFSETS) and its scaled state (<= 8 bytes); product-power, set
# by its r/2 x side x (side + R/h) products, reads 237 at R/h = 100 over
# 343^2.  The frame holds the state's square, so this cap binds before the
# state's own (CONVERGE_BYTES_PER_POINT on fewer points).  576 is 1.9 times
# the top, kept so that no refusal threshold moves.
RELAX_BYTES_PER_FRAME_POINT = 576

# The single-channel gain adds W for the points (a, b), 0 < a <=
# ACCUMULATED_OFFSETS, into one accumulator per row offset a, added at the
# rows -a and +a after the last circle (FastCollisionOperator._gain_plan).
# Each costs 8 bytes per gain-buffer point, fewer than the frame's.  Maxwell
# peaked at <= 178 + 8 bytes per frame point without them, so the cap must
# stay <= (576 - 186) / 8 = 48 to keep within RELAX_BYTES_PER_FRAME_POINT.
ACCUMULATED_OFFSETS = 32


def check_frame(h: float, R: float, bound: int) -> None:
    """Refuse an operator whose frame |v| <= bound + R/h, at
    RELAX_BYTES_PER_FRAME_POINT, passes the memory budget."""
    k = lattice_bound(h, R)
    side = 2 * (bound + k) + 1
    what = f"h = {h}, R/h = {k}, bound = {bound}: the operator's frame has {side}^2 points"
    check_memory(what, side * side, RELAX_BYTES_PER_FRAME_POINT)


class FastCollisionOperator:
    """Q^h on a whole grid of velocities; use it inside time-stepping loops.

    The state lives on the square [-bound, bound]^2 in integer
    coordinates (zero outside it), and apply_grid returns Q^h on that
    square.  Collisions keep |v|^2 + |v*|^2, so Q^h of a state on the disk
    |v| <= B vanishes off the energy disk |v|^2 <= 2 B^2: on the square of
    LatticeDistribution.widened the apply holds all of it.  An apply
    evaluates the sums of q_discrete at every velocity, arranged so that
    no work is spent on duplicate terms:

    * Gain.  Per circle |zeta|^2 = n the products P_j(x) = f(x + zeta_j)
      f(x - zeta_j) are formed for one point of each +-zeta pair, with
      weight 2, since both signs give the same product.  All gain arrays
      are flat, with rows at one stride: the state is copied into a
      buffer F of that stride with a zero row above and below, so P_j is
      one contiguous slice product, F[q + o_j] F[q - o_j] with o_j =
      zeta_x stride + zeta_y, over the mid-point rows |zeta_x| .. side -
      |zeta_x|.  The stride is side + R/h: the R/h zero columns past
      each state row absorb the row wrap.  As |zeta_y| <= R/h, a mid-point
      on the state reads at most R/h columns past either edge, which are
      zero columns of its own row or of the row before, so every product
      at a state mid-point off the box where both factors lie on the
      state is an exact 0.  A mid-point in zero column j past a row reads
      state at both ends only for a zeta with R/h - |zeta_y| <= j <
      |zeta_y|, so the plan zeroes those columns of W (or T) before adds.
      The kernel's cosine series splits the pair weight,
      cos(m(phi_i - phi_j)) = cos cos + sin sin, into channels
      W = sum_j 2 (cos, sin)(m phi_j) P_j; odd harmonics cancel exactly
      under zeta -> -zeta and are skipped.  The gain at v is
      sum_i (2 pi / r) q1 c_m (cos, sin)(m phi_i) . W(v + zeta_i), added as
      r shifted copies, each one contiguous slice over the rows where the
      circle's W can be nonzero, clipped to the square's rows.  With
      harmonic channels the copies come from one gemm per circle,
      T = outer[:r/2] @ (inner @ P): for even m the weights of zeta_i and
      of its antipode -zeta_i (table point i + r/2) are equal, so each row
      of T feeds two shifted adds.  A kernel whose series is one constant
      (Maxwell) has a single channel: circles of one weight run together,
      and their products, the widest first, go straight into W with one
      factor read from F scaled once per run.  Its points (a, b) and
      (-a, b), 0 < a <= ACCUMULATED_OFFSETS, shift W by b columns into the
      rows -a and +a, so W goes once into an accumulator V_a added there
      at the end.  The harmonic weights are exact integer quotients (see
      _harmonic_weights).
    * Loss.  f(v) sum_zeta w(zeta) f(v + 2 zeta), zero off the square, is
      one fixed 2-D correlation, and the operator keeps only its
      (2 R/h + 1)^2 weight table W[a + R/h, b + R/h] = w((a, b)).  Column
      v_y reads only columns of its own parity, and for a row offset
      a = zeta_x the map from a parity's columns to themselves is the
      Toeplitz matrix T_a[i, j] = W[a + R/h, i - j + R/h] = T_-a (W is
      symmetric under a -> -a).  So per parity and a >= 0, one gemm adds
      the state rows v_x + 2a plus v_x - 2a, times T_a, to the rows v_x
      (_loss).  The weight at zeta_i,
      (2 pi / r) sum_j q(|h zeta|, cos theta_ij), comes from the gain's
      channels: for even m, sum_j cos(m(phi_i - phi_j)) is
      cos(m phi_i) sum_j cos(m phi_j) + sin(m phi_i) sum_j sin(m phi_j),
      and odd m sum to zero over +-zeta_j.

    The slices of every apply are views over buffers the operator owns,
    one plan (_gain_plan), built on the first apply and kept.  apply_grid
    returns a fresh array, but an operator is not re-entrant: two applies
    must not run on one operator at the same time.

    Same operator as q_discrete up to floating-point association.
    """

    def __init__(self, h: float, R: float, kernel: KernelSpec, bound: int):
        if not (math.isfinite(h) and h > 0 and math.isfinite(R) and R > 0):
            raise PreconditionError(f"h and R must be positive and finite, got {h}, {R}")
        if bound < 0:
            raise PreconditionError(f"state bound must be >= 0, got {bound}")
        check_frame(h, R, bound)
        k = lattice_bound(h, R)
        self.h = h
        self.R = R
        self.kernel = kernel
        self.bound = bound
        self.reach = k
        side = 2 * bound + 1

        harmonics = [
            (m, c) for m, c in enumerate(kernel.cos_coeffs) if c != 0.0 and m % 2 == 0
        ]
        self._single_channel = [m for m, _ in harmonics] == [0]
        self._circles = []  # (coeffs, kept half points (x, y), xs, ys) per circle
        self._plan = None  # the gain plan, built on the first apply
        table = circle_table(circle_limit(h, R))
        # cos(m phi), sin(m phi) at every table point, per harmonic.
        weights = [_harmonic_weights(table.xs, table.ys, m) for m, _ in harmonics]
        # Loss weight of table point i: (2 pi / r) sum_j q(h sqrt(n), cos theta_ij).
        loss_w = np.empty(len(table.xs))
        ns = np.flatnonzero(np.diff(table.starts))
        # q1 per circle, the floats q_discrete_detailed takes.
        q1s = np.broadcast_to(kernel.speed_factor(h * np.sqrt(ns)), ns.shape).tolist()
        for n, q1 in zip(ns.tolist(), q1s):
            lo, hi = int(table.starts[n]), int(table.starts[n + 1])
            xs, ys = table.xs[lo:hi], table.ys[lo:hi]
            r = hi - lo
            half = (ys > 0) | ((ys == 0) & (xs > 0))
            inner, outer = [], []
            for (m, c), (cos_all, sin_all) in zip(harmonics, weights):
                cos_m, sin_m = cos_all[lo:hi], sin_all[lo:hi]
                coef = 2 * math.pi / r * q1 * c
                inner.append(2 * cos_m[half])
                outer.append(coef * cos_m)
                if m != 0:
                    inner.append(2 * sin_m[half])
                    outer.append(coef * sin_m)
            inner = np.array(inner).reshape(-1, r // 2)
            outer = np.array(outer).reshape(-1, r).T
            # The half circle's row sums are the full circle's (m is even).
            loss_w[lo:hi] = outer @ inner.sum(axis=1)
            # Half points (j, x, y) whose product is nonzero somewhere on the state.
            kept = [
                (j, x, y)
                for j, (x, y) in enumerate(zip(xs[half].tolist(), ys[half].tolist()))
                if 2 * abs(x) < side and 2 * abs(y) < side
            ]
            if not kept:
                continue
            if self._single_channel:
                coeffs = (inner[0, 0] * outer[0, 0],)  # 2 x circle weight
                kept.sort(key=lambda p: abs(p[1]))  # widest product first
            else:  # inner on the kept points, outer[:r/2]
                if len(kept) < r // 2:
                    inner = np.ascontiguousarray(inner[:, [j for j, _, _ in kept]])
                coeffs = (inner, outer[: r // 2].copy())
            self._circles.append((coeffs, [(x, y) for _, x, y in kept], xs, ys))
        if self._single_channel:  # one run per weight, in order of first use
            first = {}  # the keys are made in list order, before the sort
            self._circles.sort(key=lambda c: first.setdefault(c[0][0], len(first)))
        # Loss weight of the point (a, b) at W[a + K, b + K], 0 off the disk,
        # with bound zero columns on either side.  The windows of its rows
        # reversed, windows[a + K, s, l], hold the weight of (a, K + bound -
        # s - l), so that rows K .. K + bound of a window, reversed, are T_a.
        padded = np.zeros((2 * k + 1, 2 * (k + bound) + 1))
        self._loss_w = padded[:, bound : bound + 2 * k + 1]
        self._loss_w[table.xs + k, table.ys + k] = loss_w
        self._loss_windows = sliding_window_view(padded[:, ::-1], bound + 1, axis=1)

    def _gain_plan(self) -> tuple:
        """The views of every gain apply, over buffers built here once.

        Rows have stride side + R/h.  The state is copied to a buffer F at
        that stride with a zero row above and below it for the row wrap:
        state point (i, j) is at flat index stride + s, s = i stride + j, and
        so is mid-point s of W, P and T.  The gain buffer G has the square's
        side rows at the same stride, the square at its columns 0 .. side -
        1: the shifted add of mid-point s for the table point zeta is at G[s
        - zeta_x stride - zeta_y], clipped to [0, (side - 1) stride + side).
        Per circle, W (single channel) or T (harmonic channels) is nonzero
        only on the mid-point rows a .. side - a, a = min |zeta_x| over its
        kept points: the flat range [s0, s1), which ends at the state's last
        column; its pad columns that can hold a wrapped product
        (pad_columns) are zeroed before the adds.

        Returns (the state's view of F, G, the square's view of G, per
        circle (row parts to zero, per kept point (F[q + o], F[q - o], its
        row of W or P on its own rows), the channels, W's or T's columns to
        zero, per add that lands (its part of row i, its gain or V_a
        slice)), the V_a, per V_a add (its part that lands, its gain slice)).
        Single channel: (F, 2 x circle weight, S) on the first circle of each
        run of one weight, else (), and F[q + o] is read from S = F x weight;
        row i is W, which the widest product is written into first.  (a, b),
        0 < a <= n_acc, adds W to V_a[t], t = s - b, and (-a, b) adds
        nothing; V_a goes to G[t - a stride], then G[t + a stride].
        Harmonic channels: (inner on the kept points, outer[:r/2], P, T),
        and row i is row i mod r/2 of T.  P and T share one scratch buffer,
        as T is formed once P has been read; so each apply zeroes the P row
        parts outside a point's rows again.
        """
        k = self.reach
        side = 2 * self.bound + 1
        stride = side + k
        padded = np.zeros((side + 2, stride))
        reads = padded.reshape(-1)
        gain_rows = np.zeros((side, stride))
        gain = gain_rows.reshape(-1)
        end = (side - 1) * stride + side

        def span(a: int) -> tuple[int, int]:
            return a * stride, (side - 1 - a) * stride + side

        def pad_columns(rows: Array, kept: list) -> list[Array]:
            """The pad columns of `rows` (W, or T's rows) on [s0, s1) that
            can hold a wrapped product: k - ymax .. ymax - 1 past the state."""
            n = rows.shape[1] // stride  # the last row of [s0, s1) has no such columns
            y = max(abs(y) for _, y in kept)
            if not n or 2 * y <= k:
                return []
            return [rows[:, : n * stride].reshape(len(rows), n, stride)[:, :, side + k - y : side + y]]

        spans = [span(min(abs(x) for x, _ in kept)) for _, kept, _, _ in self._circles]
        single = self._single_channel
        # V_a[t] is acc[a - 1, t + k], over the mid-points -k <= t < end + k
        # that a column shift |zeta_y| <= k reaches; an offset a >= side lands
        # no add in the square's rows.
        n_acc = min(ACCUMULATED_OFFSETS, k, side - 1) if single else 0
        acc = np.zeros((n_acc, end + 2 * k))
        if single:
            w = np.zeros(side * stride)
            scaled = np.zeros_like(reads)  # S
        else:
            scratch = np.zeros(max(
                (len(xs) // 2 * (s1 - s0) for (*_, xs, _), (s0, s1) in zip(self._circles, spans)),
                default=0,
            ))
        plan, weight, plus_reads = [], None, scaled if single else reads
        for (coeffs, kept, xs, ys), (s0, s1) in zip(self._circles, spans):
            products, gaps = [], []
            for slot, (x, y) in enumerate(kept):
                lo, hi = span(abs(x))
                # buf[at + s] is mid-point s of W, or of P's row slot.
                buf, at = (w, 0) if single else (scratch, slot * (s1 - s0) - s0)
                if lo > s0 and not single:
                    gaps += [buf[at + s0 : at + lo], buf[at + hi : at + s1]]
                plus = stride + x * stride + y  # F index of mid-point 0 plus zeta_j
                minus = stride - x * stride - y
                out = buf[at + lo : at + hi]
                products.append((plus_reads[lo + plus : hi + plus], reads[lo + minus : hi + minus], out))
            if single:
                channels = (reads, coeffs[0], scaled) if coeffs[0] != weight else ()
                weight, rows = coeffs[0], [w[s0:s1]] * len(xs)
                pads = pad_columns(w[None, s0:s1], kept)
            else:
                prods = scratch[: len(kept) * (s1 - s0)].reshape(len(kept), -1)
                tab = scratch[: len(xs) // 2 * (s1 - s0)].reshape(len(xs) // 2, -1)
                channels, rows, pads = (*coeffs, prods, tab), list(tab) * 2, pad_columns(tab, kept)
            adds = []  # (row i, or its part that lands in [0, end), its V_a or gain slice)
            for row, x, y in zip(rows, xs.tolist(), ys.tolist()):
                if 0 < abs(x) <= n_acc:  # V_x[t] += W[t + y]; (-x, y) is in V_x's fold
                    if x > 0:
                        adds.append((row, acc[x - 1, s0 - y + k : s1 - y + k]))
                    continue
                off = -x * stride - y
                lo, hi = max(off + s0, 0), min(off + s1, end)
                if lo < hi:  # an unclipped add shares its row's view
                    part = row if hi - lo == s1 - s0 else row[lo - off - s0 : hi - off - s0]
                    adds.append((part, gain[lo:hi]))
            plan.append((gaps, products, channels, pads, adds))
        folds = []  # (the part of V_a that lands in [0, end), its gain slice)
        for a in range(1, n_acc + 1):
            for off in (-a * stride, a * stride):  # the points (a, b), then (-a, b)
                lo, hi = max(off - k, 0), min(off + end + k, end)
                folds.append((acc[a - 1, lo - off + k : hi - off + k], gain[lo:hi]))
        return padded[1 : side + 1, :side], gain_rows, gain_rows[:, :side], plan, acc, folds

    def apply_grid(self, grid: Array) -> Array:
        """Q^h on the square for the state grid[ix + bound, iy + bound]; a
        fresh array."""
        grid = np.asarray(grid, dtype=np.float64)
        side = 2 * self.bound + 1
        if grid.shape != (side, side):
            raise PreconditionError(
                f"state grid shape {grid.shape} does not match bound {self.bound}"
            )
        q = self._gain(grid)
        q -= grid * self._loss(grid)
        return q * (2 * self.h) ** 2

    def _gain(self, grid: Array) -> Array:
        """Gain term on the square, without the (2h)^2, in the operator's
        own buffer."""
        if self._plan is None:
            self._plan = self._gain_plan()
        state, gain_rows, q, plan, acc, folds = self._plan
        state[...] = grid
        gain_rows.fill(0.0)
        acc.fill(0.0)
        for gaps, products, channels, pads, adds in plan:
            for gap in gaps:
                gap.fill(0.0)
            if self._single_channel:
                if channels:  # a run of one weight starts: S = F x weight
                    np.multiply(*channels)
                (plus, minus, out), *rest = products
                np.multiply(plus, minus, out=out)
                for plus, minus, out in rest:
                    out += plus * minus
            else:
                for plus, minus, out in products:
                    np.multiply(plus, minus, out=out)
                inner, outer, prods, tab = channels
                np.matmul(outer, inner @ prods, out=tab)
            for pad in pads:
                pad.fill(0.0)
            for t, g in adds:
                g += t
        for v, g in folds:
            g += v
        return q

    def _loss(self, grid: Array) -> Array:
        """sum_zeta w(zeta) f(v + 2 zeta) on the square.

        Column v_y reads the columns v_y + 2 zeta_y of its own parity.  Per
        parity and row offset a = zeta_x >= 0, the parity's rows v_x + 2a
        plus v_x - 2a (0 off the square) times the Toeplitz matrix T_a[i, j]
        = W[a + K, i - j + K] = T_-a are added to the rows v_x.  T_a is
        (bound + 1)^2 for the even columns; the bound odd ones take its
        leading block.
        """
        side = grid.shape[0]
        k, n = self.reach, self.bound + 1
        parts = [np.ascontiguousarray(grid[:, p::2]) for p in (0, 1)]
        sums = [np.zeros_like(part) for part in parts]
        pair = np.empty(parts[0].size)  # row v: part[v + 2a] + part[v - 2a], 0 off the square
        pairs = [pair[: part.size].reshape(part.shape) for part in parts]
        for a in range(min(k, (side - 1) // 2) + 1):
            t = np.ascontiguousarray(self._loss_windows[a + k, k : k + n][::-1])
            for part, out, s in zip(parts, sums, pairs):
                s[: side - 2 * a] = part[2 * a :]
                s[side - 2 * a :] = 0.0
                if a:
                    s[2 * a :] += part[: side - 2 * a]
                out += s @ t[: part.shape[1], : part.shape[1]]
        del parts, pair, pairs  # the loss takes their place
        loss = np.empty((side, side))
        loss[:, 0::2], loss[:, 1::2] = sums
        return loss


@dataclass(frozen=True)
class InvariantRates:
    """Totals of Q^h against the collision invariants 1, v, |v|^2."""

    mass_rate: float
    momentum_rate: tuple[float, float]
    energy_rate: float
    normalization: float  # sum |Q^h| (1 + |v|^2)


def collision_invariants(
    f: LatticeDistribution, kernel: KernelSpec, R: float
) -> InvariantRates:
    """sum_v Q^h(v) (1, v, |v|^2) over every v where Q^h can be nonzero.

    That is the square of the widened state (LatticeDistribution.widened),
    whose operator is built, and its size checked, before the state is
    widened.  All totals are exactly rounded, each one math.fsum over
    numtheory.exact_terms.
    """
    op = FastCollisionOperator(f.h, R, kernel, widened_bound(f.bound))
    wide = f.widened()
    q = op.apply_grid(wide.grid)
    vx, vy = wide.velocities()
    v2 = vx**2 + vy**2
    mass = math.fsum(exact_terms(q))
    mom_x = math.fsum(exact_terms(q * vx))
    mom_y = math.fsum(exact_terms(q * vy))
    energy = math.fsum(exact_terms(q * v2))
    norm = math.fsum(exact_terms(np.abs(q) * (1 + v2)))
    return InvariantRates(mass, (mom_x, mom_y), energy, norm)
