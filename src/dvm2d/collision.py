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
q(-cos theta).

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
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .circles import circle_table
from .errors import PreconditionError, QuadratureError

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
        d2 = (v[..., 0] - self.ux) ** 2 + (v[..., 1] - self.uy) ** 2
        return self.rho / (2 * math.pi * self.T) * np.exp(-d2 / (2 * self.T))


@dataclass(frozen=True)
class MaxwellianMixture:
    components: tuple[Maxwellian, ...]

    def __call__(self, v: Array) -> Array:
        v = np.asarray(v, dtype=np.float64)
        out = np.zeros(v.shape[:-1])
        for c in self.components:
            out = out + c(v)
        return out


def bimaxwellian(
    rho1: float = 0.6,
    u1: tuple[float, float] = (1.0, 0.0),
    T1: float = 0.8,
    rho2: float = 0.4,
    u2: tuple[float, float] = (-0.7, 0.3),
    T2: float = 1.2,
) -> MaxwellianMixture:
    """Two-component Maxwellian mixture, asymmetric by default.

    The perfectly symmetric equal-temperature pair has Q(f, f)(0) = 0 by
    an exact gain/loss cancellation, which would make convergence studies
    at v = 0 compare roundoff to roundoff; generic parameters avoid that.
    """
    return MaxwellianMixture(
        (Maxwellian(rho1, u1[0], u1[1], T1), Maxwellian(rho2, u2[0], u2[1], T2))
    )


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


def widened_bound(bound: int) -> int:
    """Bound of the square that LatticeDistribution.widened puts a state of
    bound `bound` on: past sqrt(2) bound, the energy disk."""
    return int(math.ceil(math.sqrt(2.0) * bound)) + 1


@dataclass
class LatticeDistribution:
    """Nonnegative values f_zeta on the lattice points |h zeta| <= R_support.

    Stored densely on the covering square; lookups outside the support
    disk (or the square) return 0.
    """

    h: float
    support_radius: float
    grid: Array  # (2B+1, 2B+1), grid[ix + B, iy + B] = f at zeta=(ix, iy)

    def __post_init__(self) -> None:
        b = self.bound  # refuses h <= 0 and a negative support radius
        self.grid = np.array(self.grid, dtype=np.float64)
        if self.grid.shape != (2 * b + 1, 2 * b + 1):
            raise PreconditionError(
                f"grid shape {self.grid.shape} does not match support radius"
            )
        if not np.all(np.isfinite(self.grid)):
            raise PreconditionError("distribution values must be finite")
        if self.grid.min() < 0:
            raise PreconditionError("distribution values must be nonnegative")
        self.grid[~self.disk] = 0.0

    @property
    def bound(self) -> int:
        """Integer coordinate bound B = floor(R_support / h)."""
        return lattice_bound(self.h, self.support_radius)

    @property
    def disk(self) -> Array:
        """Mask of the grid points inside the support disk."""
        ix = np.arange(-self.bound, self.bound + 1)
        return ix[:, None] ** 2 + ix[None, :] ** 2 <= (self.support_radius / self.h) ** 2 + 1e-9

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
        """The zero state on the disk |h zeta| <= support_radius."""
        side = 2 * lattice_bound(h, support_radius) + 1
        return cls(h, support_radius, np.zeros((side, side)))

    @classmethod
    def from_values(
        cls, h: float, support_radius: float, values: dict[tuple[int, int], float]
    ) -> "LatticeDistribution":
        zero = cls.zeros(h, support_radius)
        b, grid, disk = zero.bound, zero.grid, zero.disk
        for (zx, zy), val in values.items():
            if abs(zx) > b or abs(zy) > b or not disk[zx + b, zy + b]:
                raise PreconditionError(f"point {(zx, zy)} outside declared support")
            grid[zx + b, zy + b] = val
        return cls(h, support_radius, grid)

    def value(self, zx: int, zy: int) -> float:
        return float(self.at(zx, zy))

    def at(self, zx, zy) -> Array:
        """Values at integer coordinates (arrays broadcast); 0 off the stored square."""
        b = self.bound
        inside = (np.abs(zx) <= b) & (np.abs(zy) <= b)
        return np.where(inside, self.grid[np.clip(zx, -b, b) + b, np.clip(zy, -b, b) + b], 0.0)

    def lattice_coords(self, v: Array) -> tuple[int, int]:
        """Integer coordinates of a velocity that must lie on the lattice."""
        z = np.asarray(v, dtype=np.float64) / self.h
        zr = np.rint(z)
        if not np.max(np.abs(z - zr)) <= 1e-9:  # NaN is off the lattice too
            raise PreconditionError(f"velocity {v} is not on the h-lattice")
        return int(zr[0]), int(zr[1])

    def __call__(self, v: Array) -> Array:
        """Evaluate at lattice velocities; 0 outside the stored support."""
        v = np.atleast_2d(np.asarray(v, dtype=np.float64))
        z = np.rint(v / self.h)
        if not np.max(np.abs(v / self.h - z)) <= 1e-9:
            raise PreconditionError("velocities are not on the h-lattice")
        z = z.astype(np.int64)
        return self.at(z[..., 0], z[..., 1])

    def scaled(self, factor: float) -> "LatticeDistribution":
        return LatticeDistribution(self.h, self.support_radius, self.grid * factor)


def sample_on_lattice(
    f: Callable[[Array], Array], h: float, support_radius: float
) -> LatticeDistribution:
    """Point-sample a closed-form distribution onto the lattice."""
    vx, vy = LatticeDistribution.zeros(h, support_radius).velocities()
    return LatticeDistribution(h, support_radius, f(np.stack([vx, vy], axis=-1)))


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
    (see angular_integral).  q_reference's fine level doubles both.
    """

    r_quad: float
    n_w: int = 96
    n_theta: int = 32
    rtol: float = 1e-6
    atol: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_quad) and self.r_quad > 0):
            raise PreconditionError(f"r_quad must be positive and finite, got {self.r_quad}")
        if self.n_w < 4 or self.n_w % 4:
            raise PreconditionError(f"n_w must be a positive multiple of 4, got {self.n_w}")
        _check_n_theta(self.n_theta)
        # A NaN tolerance would make q_reference's self-convergence check never fire.
        if not all(math.isfinite(t) and t >= 0 for t in (self.rtol, self.atol)):
            raise PreconditionError(
                f"rtol and atol must be nonnegative and finite, got {self.rtol}, {self.atol}"
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
    by q(|w|, cos theta_j) + q(|w|, -cos theta_j), which also holds for
    kernels with odd cosine harmonics, where q differs at theta + pi.
    """
    _check_n_theta(n_theta)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w_norm = np.hypot(w[:, 0], w[:, 1])
    thetas = -math.pi + 2 * math.pi * np.arange(n_theta // 2) / n_theta
    f_vv = float(np.asarray(f(v[None, :])).ravel()[0])
    loss = f_vv * np.asarray(f(v[None, :] + 2 * w))  # (M,)
    base = v[None, :] + w

    total = np.zeros(len(w))
    for th in thetas:
        c = math.cos(th)
        rw = rotate(w, c, math.sin(th))
        gain = np.asarray(f(base + rw)) * np.asarray(f(base - rw))
        total += (gain - loss) * (kernel.evaluate(w_norm, c) + kernel.evaluate(w_norm, -c))
    return total * (2 * math.pi / n_theta)


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
    """4 * sum of weights * values, exactly rounded: the polar rule's value."""
    return 4.0 * math.fsum((weights * values).tolist())


def q_reference(
    f: Callable[[Array], Array],
    v: Array,
    kernel: KernelSpec,
    quad: QuadratureConfig,
) -> QuadratureResult:
    """Reference Q(f, f)(v) with a Richardson-style self-convergence check.

    Evaluates the polar rule (polar_disk times the angular trapezoid) at
    (n_w, n_theta) and at (2 n_w, 2 n_theta); raises QuadratureError when
    the two levels disagree beyond quad.rtol (relative, floored by
    quad.atol).  The result keeps the fine level's nodes, weights and
    per-node angular integrals.
    """
    nodes, weights = polar_disk(quad.r_quad, quad.n_w)
    coarse = polar_sum(weights, angular_integral(f, v, kernel, nodes, quad.n_theta))
    # The fine level, kept whole for the result.
    nodes, weights = polar_disk(quad.r_quad, 2 * quad.n_w)
    angular = angular_integral(f, v, kernel, nodes, 2 * quad.n_theta)
    fine = polar_sum(weights, angular)
    err = abs(fine - coarse)
    if err > quad.rtol * max(abs(fine), abs(coarse)) + quad.atol:
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
    zvx, zvy = f.lattice_coords(np.asarray(v, dtype=np.float64))
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


def _harmonic_weights(xs: Array, ys: Array, n, m: int) -> tuple[Array, Array]:
    """cos(m phi) and sin(m phi) at the points (x, y) with x^2 + y^2 = n
    (one n, or one per point).

    Re and Im of the Gaussian integer (x + iy)^m are exact integers.
    For even m, the only harmonics the gain uses, n^(m/2) is an integer
    too, so each weight is one correctly rounded quotient and axis points
    give exactly 0 and +-1.  While n^m < 2^104 the powers run in int64 over
    all points at once: no intermediate reaches 2^63, and Re, Im and
    n^(m//2) stay below 2^53, so the float quotient is the one Python ints
    give.  Beyond that the powers are Python ints, point by point.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    ns = np.broadcast_to(np.asarray(n, dtype=np.int64), xs.shape)
    if m == 0:
        return np.ones(len(xs)), np.zeros(len(xs))
    if len(xs) == 0 or int(ns.max()) ** m < 1 << 104:
        re, im = xs, ys
        for _ in range(m - 1):
            re, im = re * xs - im * ys, re * ys + im * xs
        den = ns ** (m // 2)
        odd = np.sqrt(ns) if m % 2 else 1.0
        return re / den / odd, im / den / odd
    cos_m = np.empty(len(xs))
    sin_m = np.empty(len(xs))
    for k, (x, y, nk) in enumerate(zip(xs.tolist(), ys.tolist(), ns.tolist())):
        re, im = 1, 0
        for _ in range(m):
            re, im = re * x - im * y, re * y + im * x
        den = nk ** (m // 2)
        odd = math.sqrt(nk) if m % 2 else 1.0
        cos_m[k] = re / den / odd
        sin_m[k] = im / den / odd
    return cos_m, sin_m


# The loss band is dense, 8 bytes per (row offset, column in, column out) of
# each column parity: 8 (2K + 1) ((B + 1)^2 + B^2) bytes for K = R/h and
# B = bound, which grows as h^-3 at fixed radii (8 MB at h = 0.1 and 63 MB
# at h = 0.05 for the widened state of support 5 and R = 5).
# MAX_LOSS_BAND_BYTES keeps it within 1 GiB.
MAX_LOSS_BAND_BYTES = 1 << 30


# FastCollisionOperator._loss gathers the state rows v_x + 2a of a run of
# band rows a at once, a (side, run, columns of one parity) temporary, with
# runs as long as fit in LOSS_GATHER_BYTES, as Q_DISCRETE_CHUNK_PAIRS bounds
# q_discrete's gathers.  The relax and ladder sizes gather at most 0.7 MB:
# one run, one gemm.  At R/h = 100 over a 287^2 state one gather of every
# row would hold 66 MB, as much as the band.
LOSS_GATHER_BYTES = 4 << 20


def check_loss_band(h: float, R: float, bound: int) -> None:
    """Refuse an operator whose loss band exceeds MAX_LOSS_BAND_BYTES;
    nothing is allocated."""
    k = lattice_bound(h, R)
    band_bytes = 8 * (2 * k + 1) * ((bound + 1) ** 2 + bound**2)
    if band_bytes > MAX_LOSS_BAND_BYTES:
        raise PreconditionError(
            f"the loss band for R/h = {k} and bound = {bound} needs {band_bytes} "
            f"bytes, more than MAX_LOSS_BAND_BYTES = {MAX_LOSS_BAND_BYTES} (1 GiB)"
        )


class FastCollisionOperator:
    """Q^h on a whole grid of velocities; use it inside time-stepping loops.

    The state lives on the square [-bound, bound]^2 in integer
    coordinates (zero outside it).  Off that square the loss vanishes
    with f(v), and a gain product f(v + zeta + zeta') f(v + zeta - zeta')
    needs its mid-point v + zeta on the square; as |zeta| <= R/h, Q^h
    vanishes off the frame |v| <= bound + R/h (per coordinate).
    apply_frame returns Q^h on that frame, apply_grid its crop to the
    state's square.  An apply evaluates the sums of q_discrete at every
    velocity, arranged so that no work is spent on duplicate terms:

    * Gain.  Per circle |zeta|^2 = n the products P_j(x) = f(x + zeta_j)
      f(x - zeta_j) are formed for one point of each +-zeta pair, with
      weight 2, since both signs give the same product.  All gain arrays
      are flat, with rows at the frame's stride width = side + 2 R/h: the
      state is copied into a buffer F of that stride with a zero row above
      and below, so P_j is one contiguous slice product,
      F[q + o_j] F[q - o_j] with o_j = zeta_x width + zeta_y, over the
      mid-point rows |zeta_x| .. side - |zeta_x|.  The 2 R/h zero columns
      past each state row absorb the row wrap: as |zeta_y| <= R/h, a
      mid-point on the state reads at most R/h columns past either edge,
      which are zero columns of its own row or of the row before, and a
      mid-point in the zero columns has one factor there too.  So every
      product off the box where both factors lie on the state is an
      exact 0.
      The kernel's cosine series splits the pair weight,
      cos(m(phi_i - phi_j)) = cos cos + sin sin, into channels
      W = sum_j 2 (cos, sin)(m phi_j) P_j; odd harmonics cancel exactly
      under zeta -> -zeta and are skipped.  The gain at v is
      sum_i (2 pi / r) q1 c_m (cos, sin)(m phi_i) . W(v + zeta_i), added as
      r shifted copies, each one contiguous slice over the rows where the
      circle's W can be nonzero.  With harmonic channels the copies come
      from one gemm per circle, T = outer[:r/2] @ (inner @ P): for even m
      the weights of zeta_i and of its antipode -zeta_i (table point
      i + r/2) are equal, so each row of T feeds two shifted adds.  A
      kernel whose series is one constant (Maxwell) has a single channel:
      products go straight into W and the circle weight is applied once.
      The harmonic weights are exact integer quotients (see
      _harmonic_weights).
    * Loss.  f(v) sum_zeta w(zeta) f(v + 2 zeta), zero off the square, is
      one fixed 2-D correlation, evaluated as a banded matmul: rows
      v_x + 2 zeta_x of the state, side by side, times a band that maps
      columns to columns.
      Column v_y reads only columns of its own parity, so the band is kept
      as two halves.  It is built once per operator, for its one bound,
      and holds 8 (2 R/h + 1) ((bound + 1)^2 + bound^2) bytes, at most
      MAX_LOSS_BAND_BYTES.  Its weight at zeta_i, (2 pi / r) sum_j
      q(|h zeta|, cos theta_ij), comes from the gain's channels: for even
      m, sum_j cos(m(phi_i - phi_j)) is cos(m phi_i) sum_j cos(m phi_j) +
      sin(m phi_i) sum_j sin(m phi_j), and odd m sum to zero over +-zeta_j.

    The slices of every apply are views built once, in __init__, over
    buffers the operator owns.  apply_frame and apply_grid return fresh
    arrays, but an operator is not re-entrant: two applies must not run
    on one operator at the same time.

    Same operator as q_discrete up to floating-point association.
    """

    def __init__(self, h: float, R: float, kernel: KernelSpec, bound: int):
        if not (math.isfinite(h) and h > 0 and math.isfinite(R) and R > 0):
            raise PreconditionError(f"h and R must be positive and finite, got {h}, {R}")
        if bound < 0:
            raise PreconditionError(f"state bound must be >= 0, got {bound}")
        check_loss_band(h, R, bound)
        k = lattice_bound(h, R)
        self.h = h
        self.R = R
        self.kernel = kernel
        self.bound = bound
        self.reach = k
        side = 2 * bound + 1
        width = side + 2 * k

        harmonics = [
            (m, c) for m, c in enumerate(kernel.cos_coeffs) if c != 0.0 and m % 2 == 0
        ]
        self._single_channel = [m for m, _ in harmonics] == [0]
        circles = []  # (inner, outer, kept half points, offsets) per circle
        table = circle_table(circle_limit(h, R))
        # cos(m phi), sin(m phi) at every table point, per harmonic.
        weights = [
            _harmonic_weights(table.xs, table.ys, table.xs**2 + table.ys**2, m)
            for m, _ in harmonics
        ]
        # Loss weight of table point i: (2 pi / r) sum_j q(h sqrt(n), cos theta_ij).
        loss_w = np.empty(len(table.xs))
        for n in np.flatnonzero(np.diff(table.starts)).tolist():
            lo, hi = int(table.starts[n]), int(table.starts[n + 1])
            xs, ys = table.xs[lo:hi], table.ys[lo:hi]
            r = hi - lo
            q1 = float(h * math.sqrt(n)) ** kernel.alpha
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
            if kept:
                # Flat offset of the shift x -> x - zeta_i into the gain frame.
                circles.append((inner, outer, kept, ((k - xs) * width + (k - ys)).tolist()))
        self._plan = self._gain_plan(circles, side, width)
        del circles  # free the per-circle lists before the loss band's temporaries

        vel = np.arange(-bound, bound + 1)
        rows = vel[:, None] + 2 * np.arange(-k, k + 1)[None, :]
        # (side, 2K+1) state row of v_x + 2a, or side (a zero row).
        self._loss_rows = np.where(np.abs(rows) <= bound, rows + bound, side)
        # Column v_y reads column v_y + 2 zeta_y, of the same parity: per
        # parity class, (its columns, band of weights by (a, column in; column out)).
        # A point zeta fills row a = zeta_x at one column in per column out,
        # distinct across the points of a row: no entry is written twice.
        # Table points go in chunks of (2K + 1) n_col / 4, so the scatter's
        # (points, columns) temporaries hold a quarter of the band's entries,
        # not (R/h)^2 bound of them.
        self._loss_parts = []
        for parity in (0, 1):
            cols = slice(parity, None, 2)
            v_out = vel[cols]
            n_col = len(v_out)
            band = np.zeros((2 * k + 1, n_col, n_col))
            step = max(1, (2 * k + 1) * n_col // 4)
            for lo in range(0, len(table.ys), step):
                chunk = slice(lo, lo + step)
                y_in = v_out[None, :] + 2 * table.ys[chunk, None] + bound
                pt, col = np.nonzero((y_in >= 0) & (y_in < side))
                band[table.xs[chunk][pt] + k, y_in[pt, col] // 2, col] = loss_w[chunk][pt]
            self._loss_parts.append((cols, band.reshape((2 * k + 1) * n_col, n_col)))

    def _gain_plan(self, circles: list, side: int, width: int) -> list[tuple]:
        """The views of every gain apply, over buffers built here once.

        The state is copied to a buffer F at row stride width with a zero row
        above and below it for the row wrap: state point (i, j) is at flat
        index width + s, s = i width + j, and so is mid-point s of W, P and
        T.  Per circle, W (single channel) or T
        (harmonic channels) is nonzero only on the mid-point rows
        a .. side - a, a = min |zeta_x| over its kept points: the flat range
        [s0, s1), which ends at the state's last column.

        Single channel, per circle: (W on [s0, s1), per kept point
        (F[q + o], F[q - o], W on its own rows), 2 x circle weight, the r
        gain slices).  Harmonic channels: (inner on the kept points,
        outer[:r/2], P, T, per kept point (F[q + o], F[q - o], its P row on
        its own rows), the P row parts outside them, per table point i
        (row i mod r/2 of T, its gain slice)).  P and T share one scratch
        buffer, as T is formed once P has been read; so each apply zeroes
        the P row parts outside a point's rows again.
        """
        padded = np.zeros((side + 2, width))
        self._state = padded[1 : side + 1, :side]
        reads = padded.reshape(-1)
        self._gain_frame = np.zeros((width, width))
        gain = self._gain_frame.reshape(-1)

        def span(a: int) -> tuple[int, int]:
            return a * width, (side - 1 - a) * width + side

        spans = [span(min(abs(x) for _, x, _ in kept)) for _, _, kept, _ in circles]
        if self._single_channel:
            w = np.zeros(side * width)
        else:
            scratch = np.zeros(max(
                (len(offsets) // 2 * (s1 - s0)
                 for (*_, offsets), (s0, s1) in zip(circles, spans)),
                default=0,
            ))
        plan = []
        for (inner, outer, kept, offsets), (s0, s1) in zip(circles, spans):
            adds = [gain[off + s0 : off + s1] for off in offsets]
            products, gaps = [], []
            for slot, (_, x, y) in enumerate(kept):
                lo, hi = span(abs(x))
                plus = width + x * width + y  # F index of mid-point 0 plus zeta_j
                minus = width - x * width - y
                if self._single_channel:
                    out = w[lo:hi]
                else:  # row slot of P, which holds [s0, s1)
                    row = slot * (s1 - s0) - s0
                    out = scratch[row + lo : row + hi]
                    if lo > s0:
                        gaps += [scratch[row + s0 : row + lo], scratch[row + hi : row + s1]]
                products.append(
                    (reads[lo + plus : hi + plus], reads[lo + minus : hi + minus], out)
                )
            if self._single_channel:
                plan.append((w[s0:s1], products, inner[0, 0] * outer[0, 0], adds))
                continue
            r2 = len(offsets) // 2
            prods = scratch[: len(kept) * (s1 - s0)].reshape(len(kept), -1)
            tab = scratch[: r2 * (s1 - s0)].reshape(r2, -1)
            if len(kept) < r2:
                inner = np.ascontiguousarray(inner[:, [j for j, _, _ in kept]])
            rows = list(tab)
            adds = list(zip(rows + rows, adds))
            plan.append((inner, outer[:r2].copy(), prods, tab, products, gaps, adds))
        return plan

    def apply_frame(self, grid: Array) -> Array:
        """Q^h on the frame |v| <= bound + R/h, which holds all of it, for
        the state grid[ix + bound, iy + bound]; a fresh array."""
        grid = np.asarray(grid, dtype=np.float64)
        side = 2 * self.bound + 1
        if grid.shape != (side, side):
            raise PreconditionError(
                f"state grid shape {grid.shape} does not match bound {self.bound}"
            )
        k = self.reach
        q = self._gain(grid)
        q[k : k + side, k : k + side] -= grid * self._loss(grid)  # f = 0 off the square
        return q * (2 * self.h) ** 2

    def apply_grid(self, grid: Array) -> Array:
        """Q^h on the square for the state grid[ix + bound, iy + bound]."""
        k = self.reach
        side = 2 * self.bound + 1
        return self.apply_frame(grid)[k : k + side, k : k + side]

    def _gain(self, grid: Array) -> Array:
        """Gain term on the frame |v| <= bound + R/h, without the (2h)^2, in
        the operator's own buffer."""
        self._state[...] = grid
        self._gain_frame.fill(0.0)
        if self._single_channel:
            for w, products, weight, adds in self._plan:
                w.fill(0.0)
                for plus, minus, out in products:
                    out += plus * minus
                w *= weight
                for g in adds:
                    g += w
        else:
            for inner, outer, prods, tab, products, gaps, adds in self._plan:
                for gap in gaps:
                    gap.fill(0.0)
                for plus, minus, out in products:
                    np.multiply(plus, minus, out=out)
                np.matmul(outer, inner @ prods, out=tab)
                for t, g in adds:
                    g += t
        return self._gain_frame

    def _loss(self, grid: Array) -> Array:
        """sum_zeta w(zeta) f(v + 2 zeta) on the square, one gemm per run of
        band rows whose gathered state rows fit in LOSS_GATHER_BYTES."""
        stacked = np.vstack([grid, np.zeros((1, grid.shape[1]))])
        side, offsets = self._loss_rows.shape
        loss = np.empty((side, side))
        for cols, band in self._loss_parts:
            part = stacked[:, cols]
            n_col = band.shape[1]
            run = max(1, LOSS_GATHER_BYTES // (8 * side * max(n_col, 1)))
            for a in range(0, offsets, run):
                rows, weights = self._loss_rows[:, a : a + run], band[a * n_col : (a + run) * n_col]
                term = part[rows].reshape(side, -1) @ weights
                if a == 0:
                    loss[:, cols] = term
                else:
                    loss[:, cols] += term
        return loss

    def apply(self, f: LatticeDistribution) -> Array:
        if abs(f.h - self.h) > 1e-12:
            raise PreconditionError("distribution step does not match operator")
        return self.apply_grid(f.grid)


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

    That is the operator's frame |v| <= bound + R/h (apply_frame).  All
    reductions use compensated summation.
    """
    op = FastCollisionOperator(f.h, R, kernel, f.bound)
    q = op.apply_frame(f.grid)
    vs = f.h * np.arange(-(f.bound + op.reach), f.bound + op.reach + 1)
    vx, vy = np.meshgrid(vs, vs, indexing="ij")
    v2 = vx**2 + vy**2
    mass = math.fsum(q.ravel().tolist())
    mom_x = math.fsum((q * vx).ravel().tolist())
    mom_y = math.fsum((q * vy).ravel().tolist())
    energy = math.fsum((q * v2).ravel().tolist())
    norm = math.fsum((np.abs(q) * (1 + v2)).ravel().tolist())
    return InvariantRates(mass, (mom_x, mom_y), energy, norm)
