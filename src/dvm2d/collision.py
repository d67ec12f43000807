"""Collision operators: continuous reference quadrature and lattice Q^h.

The continuous operator is evaluated as

    Q(f, f)(v) = 4 * integral over w of integral over theta of
                 (f(v') f(v*') - f(v) f(v*)) q(|w|, cos theta),

with v' = v + w + R_theta w and v*' = v + w - R_theta w, by a tensor rule
that is spectrally accurate for smooth rapidly decaying f: uniform
trapezoid in theta (periodic) and a uniform midpoint grid in w.  Turning
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

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from typing import IO, Callable, Sequence

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
        energy_bound = int(math.ceil(math.sqrt(2.0) * self.bound)) + 1
        wide = LatticeDistribution.zeros(self.h, energy_bound * self.h)
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

@dataclass(frozen=True)
class CollisionPair:
    """Velocities before (v, v_star) and after (v_prime, v_star_prime)."""

    v: Array
    v_star: Array
    v_prime: Array
    v_star_prime: Array


def rotate(w: Array, c, s) -> Array:
    """R_theta w for cos theta = c, sin theta = s.

    w has shape (..., 2) and broadcasts against c and s.  Callers pass
    their own cosines (math.cos or np.cos), which may differ in the last
    bit, so each keeps its results bit for bit.
    """
    return np.stack([c * w[..., 0] - s * w[..., 1], s * w[..., 0] + c * w[..., 1]], axis=-1)


def post_collision(v: Array, w: Array, theta) -> CollisionPair:
    """v' = v + w + R_theta w, v*' = v + w - R_theta w, v* = v + 2w.

    theta may be an array; v' and v*' then gain its shape in front, and
    each angle gives bit for bit the pair of a scalar call.
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    th = np.asarray(theta, dtype=np.float64)
    c = np.array([math.cos(t) for t in th.ravel().tolist()]).reshape(th.shape)
    s = np.array([math.sin(t) for t in th.ravel().tolist()]).reshape(th.shape)
    rw = rotate(w, c, s)
    return CollisionPair(v, v + 2 * w, v + w + rw, v + w - rw)


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


@dataclass(frozen=True)
class GValue:
    """Integrand value g_v(w, theta) = (f(v')f(v*') - f(v)f(v*)) q."""

    w: Array
    theta: float
    value: float


def g_eval(
    f: Callable[[Array], Array],
    v: Array,
    w: Array,
    theta: float,
    kernel: KernelSpec,
) -> GValue:
    pair = post_collision(v, w, theta)
    fp = float(np.asarray(f(pair.v_prime[None, :])).ravel()[0])
    fsp = float(np.asarray(f(pair.v_star_prime[None, :])).ravel()[0])
    fv = float(np.asarray(f(pair.v[None, :])).ravel()[0])
    fs = float(np.asarray(f(pair.v_star[None, :])).ravel()[0])
    w_norm = float(np.hypot(w[0], w[1]))
    q = float(kernel.evaluate(w_norm, math.cos(theta)))
    return GValue(np.asarray(w, dtype=np.float64), theta, (fp * fsp - fv * fs) * q)


# ---------------------------------------------------------------------------
# Continuous reference operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    """Tensor rule: n_w midpoint cells per side on [-r_quad, r_quad]^2
    restricted to the disk, n_theta trapezoid nodes on [-pi, pi).

    n_theta must be even (see angular_integral).
    """

    r_quad: float
    n_w: int = 128
    n_theta: int = 128
    rtol: float = 1e-6
    atol: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_quad) and self.r_quad > 0):
            raise PreconditionError(f"r_quad must be positive and finite, got {self.r_quad}")
        if self.n_w < 1:
            raise PreconditionError(f"n_w must be >= 1, got {self.n_w}")
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

    nodes and angular are the fine level's midpoints w (cell side step) and
    G_v(w) there, integrated with 2 * config.n_theta angle nodes, so that a
    caller can reuse parts of the fine level without integrating it again.
    """

    value: float
    self_convergence: float
    config: QuadratureConfig
    nodes: Array = field(repr=False, compare=False)
    angular: Array = field(repr=False, compare=False)
    step: float


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


def midpoint_disk(r_quad: float, n_w: int) -> tuple[Array, float]:
    """Midpoints of the n_w x n_w cells of [-r, r]^2 inside the disk."""
    step = 2 * r_quad / n_w
    mids = -r_quad + step * (np.arange(n_w) + 0.5)
    wx, wy = np.meshgrid(mids, mids, indexing="ij")
    keep = wx**2 + wy**2 <= r_quad**2
    return np.stack([wx[keep], wy[keep]], axis=-1), step


def _tensor_level(
    f: Callable[[Array], Array],
    v: Array,
    kernel: KernelSpec,
    r_quad: float,
    n_w: int,
    n_theta: int,
) -> float:
    w, step = midpoint_disk(r_quad, n_w)
    angular = angular_integral(f, v, kernel, w, n_theta)
    return 4.0 * step * step * float(angular.sum())


def q_reference(
    f: Callable[[Array], Array],
    v: Array,
    kernel: KernelSpec,
    quad: QuadratureConfig,
) -> QuadratureResult:
    """Reference Q(f, f)(v) with a Richardson-style self-convergence check.

    Evaluates the tensor rule at the configured resolution and at double
    resolution; raises QuadratureError when the two levels disagree
    beyond quad.rtol (relative, floored by quad.atol).  The result keeps
    the fine level's nodes and per-node angular integrals.
    """
    coarse = _tensor_level(f, v, kernel, quad.r_quad, quad.n_w, quad.n_theta)
    # The fine level, kept whole for the result.
    nodes, step = midpoint_disk(quad.r_quad, 2 * quad.n_w)
    angular = angular_integral(f, v, kernel, nodes, 2 * quad.n_theta)
    fine = 4.0 * step * step * float(angular.sum())
    err = abs(fine - coarse)
    if err > quad.rtol * max(abs(fine), abs(coarse)) + quad.atol:
        raise QuadratureError(
            f"quadrature did not self-converge: levels {coarse:.6e} vs {fine:.6e}"
        )
    return QuadratureResult(fine, err, quad, nodes, angular, step)


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


def _harmonic_weights(xs: Array, ys: Array, n: int, m: int) -> tuple[Array, Array]:
    """cos(m phi) and sin(m phi) at the points (x, y) of the circle x^2 + y^2 = n.

    Re and Im of the Gaussian integer (x + iy)^m are exact Python ints.
    For even m, the only harmonics the gain uses, n^(m/2) is an integer
    too, so each weight is one correctly rounded quotient and axis points
    give exactly 0 and +-1.
    """
    cos_m = np.empty(len(xs))
    sin_m = np.empty(len(xs))
    den = n ** (m // 2)
    odd = math.sqrt(n) if m % 2 else 1.0
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        re, im = 1, 0
        for _ in range(m):
            re, im = re * x - im * y, re * y + im * x
        cos_m[k] = re / den / odd
        sin_m[k] = im / den / odd
    return cos_m, sin_m


# The loss band is dense, 8 bytes per (row offset, column in, column out) of
# each column parity: 8 (2K + 1) ((B + 1)^2 + B^2) bytes for K = R/h and
# B = bound, which grows as h^-3 at fixed radii (8 MB at h = 0.1 and 63 MB
# at h = 0.05 for the widened state of support 5 and R = 5).
# MAX_LOSS_BAND_BYTES keeps it within 1 GiB.
MAX_LOSS_BAND_BYTES = 1 << 30


class FastCollisionOperator:
    """Q^h on a whole grid of velocities; use it inside time-stepping loops.

    The state lives on the square [-bound, bound]^2 in integer
    coordinates (zero outside it), and an apply returns Q^h on that same
    square, as Q^h(f, f) is a function on the lattice of f.  Q^h can be
    nonzero up to sqrt(2) times the support radius (collisions conserve
    energy), so a caller that needs all of it applies the operator to
    the widened state (LatticeDistribution.widened).  An apply evaluates
    the sums of q_discrete at every velocity of the square, arranged so
    that no work is spent on exact zeros or duplicate terms:

    * Gain.  Per circle |zeta|^2 = n the products P_j(x) = f(x + zeta_j)
      f(x - zeta_j) are formed only on the box of mid-points x where both
      factors lie on the square, clipped to the inside of the ring on
      which the state is zero (the widened state has one), and only for
      one point of each +-zeta pair, with weight 2, since both signs give
      the same product.
      The kernel's cosine series splits the pair weight,
      cos(m(phi_i - phi_j)) = cos cos + sin sin, into channels
      W = sum_j 2 (cos, sin)(m phi_j) P_j; odd harmonics cancel exactly
      under zeta -> -zeta and are skipped.  The gain at v is
      sum_i (2 pi / r) q1 c_m (cos, sin)(m phi_i) . W(v + zeta_i), added as
      r shifted copies.  Gain arrays keep rows at the stride of the gain
      frame |v| <= bound + R/h, so the zero columns past the state absorb
      the row wrap and each shifted add is one contiguous slice.  A kernel
      whose series is one constant (Maxwell) has a single channel:
      products go straight into W and the circle weight is applied once.
      The harmonic weights are exact integer quotients (see
      _harmonic_weights).
    * Loss.  f(v) sum_zeta w(zeta) f(v + 2 zeta) is one fixed 2-D
      correlation, evaluated as a banded matmul: rows v_x + 2 zeta_x of the
      state, side by side, times a band that maps columns to columns.
      Column v_y reads only columns of its own parity, so the band is kept
      as two halves.  It is built once per operator, for its one bound,
      and holds 8 (2 R/h + 1) ((bound + 1)^2 + bound^2) bytes, at most
      MAX_LOSS_BAND_BYTES.  Its weight at zeta_i, (2 pi / r) sum_j
      q(|h zeta|, cos theta_ij), comes from the gain's channels: for even
      m, sum_j cos(m(phi_i - phi_j)) is cos(m phi_i) sum_j cos(m phi_j) +
      sin(m phi_i) sum_j sin(m phi_j), and odd m sum to zero over +-zeta_j.

    Same operator as q_discrete up to floating-point association.
    """

    def __init__(self, h: float, R: float, kernel: KernelSpec, bound: int):
        if not (math.isfinite(h) and h > 0 and math.isfinite(R) and R > 0):
            raise PreconditionError(f"h and R must be positive and finite, got {h}, {R}")
        if bound < 0:
            raise PreconditionError(f"state bound must be >= 0, got {bound}")
        k = lattice_bound(h, R)
        band_bytes = 8 * (2 * k + 1) * ((bound + 1) ** 2 + bound**2)
        if band_bytes > MAX_LOSS_BAND_BYTES:
            raise PreconditionError(
                f"the loss band for R/h = {k} and bound = {bound} needs {band_bytes} "
                f"bytes, more than MAX_LOSS_BAND_BYTES = {MAX_LOSS_BAND_BYTES} (1 GiB)"
            )
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
        # Per circle (_plan drops those without a product on the state):
        # (inner, outer, half, offsets).
        # inner (channels, r/2): 2 cos(m phi_j) / 2 sin(m phi_j) on the half
        # circle, one point of each +-zeta pair.  outer (r, channels):
        # (2 pi / r) q1 c_m cos(m phi_i) / sin(m phi_i).  half: the half
        # circle's points.  offsets, per point i: flat offset of the shift
        # x -> x - zeta_i into the gain frame.
        self._circles: list[tuple] = []
        table = circle_table(circle_limit(h, R))
        # Loss weight of table point i: (2 pi / r) sum_j q(h sqrt(n), cos theta_ij).
        loss_w = np.empty(len(table.xs))
        for n in np.flatnonzero(np.diff(table.starts)).tolist():
            lo, hi = int(table.starts[n]), int(table.starts[n + 1])
            xs, ys = table.xs[lo:hi], table.ys[lo:hi]
            r = hi - lo
            q1 = float(h * math.sqrt(n)) ** kernel.alpha
            half = (ys > 0) | ((ys == 0) & (xs > 0))
            inner, outer = [], []
            for m, c in harmonics:
                cos_m, sin_m = _harmonic_weights(xs, ys, n, m)
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
            self._circles.append((
                inner,
                outer,
                list(zip(xs[half].tolist(), ys[half].tolist())),
                ((k - xs) * width + (k - ys)).tolist(),
            ))

        vel = np.arange(-bound, bound + 1)
        rows = vel[:, None] + 2 * np.arange(-k, k + 1)[None, :]
        # (side, 2K+1) state row of v_x + 2a, or side (a zero row).
        self._loss_rows = np.where(np.abs(rows) <= bound, rows + bound, side)
        # Column v_y reads column v_y + 2 zeta_y, of the same parity: per
        # parity class, (its columns, band of weights by (a, column in; column out)).
        # A point zeta fills row a = zeta_x at one column in per column out,
        # distinct across the points of a row: no entry is written twice.
        self._loss_parts = []
        for parity in (0, 1):
            cols = slice(parity, None, 2)
            v_out = vel[cols]
            n_col = len(v_out)
            band = np.zeros((2 * k + 1, n_col, n_col))
            y_in = v_out[None, :] + 2 * table.ys[:, None] + bound
            pt, col = np.nonzero((y_in >= 0) & (y_in < side))
            band[table.xs[pt] + k, y_in[pt, col] // 2, col] = loss_w[pt]
            self._loss_parts.append((cols, band.reshape((2 * k + 1) * n_col, n_col)))

    @functools.cached_property
    def _whole_square_plan(self) -> list[tuple]:
        return self._plan(0)

    def _plan(self, ring: int) -> list[tuple]:
        """Per circle, (inner, outer, boxes, offsets) for a state that is zero
        on the outer ring of the square of that width.

        boxes, per half point j whose product can be nonzero: (j, mid box,
        box of x + zeta, box of x - zeta), clipped to the square inside the
        ring; circles without such a point are left out.
        """
        side = 2 * self.bound + 1
        plan = []
        for inner, outer, half_points, offsets in self._circles:
            boxes = []
            for j, (x, y) in enumerate(half_points):
                ax, ay = abs(x) + ring, abs(y) + ring
                if 2 * ax >= side or 2 * ay >= side:
                    continue
                boxes.append((
                    j,
                    (slice(ax, side - ax), slice(ay, side - ay)),
                    (slice(ax + x, side - ax + x), slice(ay + y, side - ay + y)),
                    (slice(ax - x, side - ax - x), slice(ay - y, side - ay - y)),
                ))
            if boxes:
                plan.append((inner, outer, boxes, offsets))
        return plan

    def _zero_ring(self, grid: Array) -> int:
        """Width of the outer ring of the square on which grid is zero."""
        rows = np.flatnonzero(grid.any(axis=1))
        cols = np.flatnonzero(grid.any(axis=0))
        if len(rows) == 0:
            return self.bound + 1
        return int(min(rows[0], cols[0], len(grid) - 1 - rows[-1], len(grid) - 1 - cols[-1]))

    def apply_grid(self, grid: Array) -> Array:
        """Q^h on the square for the state grid[ix + bound, iy + bound]."""
        grid = np.asarray(grid, dtype=np.float64)
        side = 2 * self.bound + 1
        if grid.shape != (side, side):
            raise PreconditionError(
                f"state grid shape {grid.shape} does not match bound {self.bound}"
            )
        k = self.reach
        gain = self._gain(grid)[k : k + side, k : k + side]
        return (2 * self.h) ** 2 * (gain - grid * self._loss(grid))

    def _gain(self, grid: Array) -> Array:
        """Gain term on the frame |v| <= bound + R/h, without the (2h)^2.

        Products are formed only inside the state's zero ring (none at
        all on an all-zero state), so the exact zeros that the ring would
        give are skipped; each shifted add covers the block that can hold
        a nonzero W.
        """
        side = 2 * self.bound + 1
        width = side + 2 * self.reach
        ring = self._zero_ring(grid)
        # A state with a zero ring is a one-off (collision_invariants, the
        # first stages of relax_simulate); only the whole square's plan is kept.
        plan = self._plan(ring) if ring else self._whole_square_plan
        lo = ring * (width + 1)  # W is zero outside rows and columns ring .. side - ring
        hi = (side - 1 - ring) * width + side - ring  # below lo only for an all-zero state
        gain = np.zeros(width * width)
        w = np.zeros((side, width))
        w_state = w[:, :side]
        w_inside = w[ring : side - ring, ring : side - ring]
        w_flat = w.reshape(-1)[lo:hi]
        for inner, outer, boxes, offsets in plan:
            if self._single_channel:
                w_inside.fill(0.0)
                for _, box, plus, minus in boxes:
                    w_state[box] += grid[plus] * grid[minus]
                w_inside *= inner[0, 0] * outer[0, 0]  # 2 x circle weight
                for off in offsets:
                    gain[off + lo : off + hi] += w_flat
            else:
                n_half = inner.shape[1]
                prods = np.zeros((n_half, side, width))
                for j, box, plus, minus in boxes:
                    np.multiply(grid[plus], grid[minus], out=prods[j][box])
                chans = inner @ prods.reshape(n_half, -1)[:, lo:hi]
                for weights, off in zip(outer, offsets):
                    gain[off + lo : off + hi] += weights @ chans
        return gain.reshape(width, width)

    def _loss(self, grid: Array) -> Array:
        """sum_zeta w(zeta) f(v + 2 zeta) on the square."""
        stacked = np.vstack([grid, np.zeros((1, grid.shape[1]))])
        side = len(grid)
        loss = np.empty((side, side))
        for cols, band in self._loss_parts:
            loss[:, cols] = stacked[:, cols][self._loss_rows].reshape(side, -1) @ band
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

    Gains vanish beyond sqrt(2) times the support radius (energy bound),
    so Q^h is taken on the state widened to that disk.  All reductions
    use compensated summation.
    """
    wide = f.widened()
    q = FastCollisionOperator(f.h, R, kernel, wide.bound).apply(wide)
    vx, vy = wide.velocities()
    v2 = vx**2 + vy**2
    mass = math.fsum(q.ravel())
    mom_x = math.fsum((q * vx).ravel())
    mom_y = math.fsum((q * vy).ravel())
    energy = math.fsum((q * v2).ravel())
    norm = math.fsum((np.abs(q) * (1 + v2)).ravel())
    return InvariantRates(mass, (mom_x, mom_y), energy, norm)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_lattice_csv(f: LatticeDistribution, fp: IO[str]) -> None:
    """JSON header line, then rows (zeta_x, zeta_y, value) inside the disk."""
    fp.write("# " + json.dumps({"h": f.h, "R_support": f.support_radius}) + "\n")
    w = csv.writer(fp)
    w.writerow(["zeta_x", "zeta_y", "value"])
    b = f.bound
    for ix, iy in np.argwhere(f.disk).tolist():
        w.writerow([ix - b, iy - b, f"{f.grid[ix, iy]:.17g}"])


def read_lattice_csv(fp: IO[str]) -> LatticeDistribution:
    """Inverse of write_lattice_csv; malformed input, a repeated point
    included, raises PreconditionError."""
    header = fp.readline()
    if not header.startswith("#"):
        raise PreconditionError("missing JSON header line")
    try:
        meta = json.loads(header[1:].strip())
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"header is not JSON: {exc}") from None
    if not isinstance(meta, dict) or not {"h", "R_support"} <= meta.keys():
        raise PreconditionError("header must give h and R_support")
    rows = [r for r in csv.reader(fp) if r]
    if rows and rows[0] == ["zeta_x", "zeta_y", "value"]:
        rows = rows[1:]
    try:
        h, support = float(meta["h"]), float(meta["R_support"])
        values = {}
        for r in rows:
            zx, zy, val = r  # ValueError unless exactly three fields
            point = int(zx), int(zy)
            if point in values:
                raise PreconditionError(f"lattice CSV repeats the row of point {point}")
            values[point] = float(val)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed lattice CSV: {exc}") from None
    return LatticeDistribution.from_values(h, support, values)


def write_qh_csv(q: Array, h: float, fp: IO[str]) -> None:
    """Rows (zeta_x, zeta_y, Qh_value) for Q^h on the square [-B, B]^2 of q."""
    b = len(q) // 2
    if q.shape != (2 * b + 1, 2 * b + 1):
        raise PreconditionError(f"Q^h grid shape {q.shape} is not an odd square")
    fp.write("# " + json.dumps({"h": h}) + "\n")
    w = csv.writer(fp)
    w.writerow(["zeta_x", "zeta_y", "Qh_value"])
    for ix in range(-b, b + 1):
        for iy in range(-b, b + 1):
            w.writerow([ix, iy, f"{q[ix + b, iy + b]:.17g}"])
