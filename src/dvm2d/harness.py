"""Experiment drivers: convergence studies, error budgets, figure data,
the max-point-count search, and the space-homogeneous relaxation run.

These are the operations behind the CLI.  They combine the exact circle
machinery with the collision operators and emit plain data structures
that dvm2d.tables writes as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import circles
from .collision import (
    Array,
    FastCollisionOperator,
    KernelSpec,
    LatticeDistribution,
    QuadratureConfig,
    angular_integral,
    check_frame,
    check_state_points,
    circle_limit,
    lattice_bound,
    lattice_coords,
    polar_sum,
    q_discrete,
    q_reference,
    rotate,
    sample_on_lattice,
    widened_bound,
)
from .errors import (
    NonFiniteStateError,
    PositivityLossError,
    PreconditionError,
    check_memory,
)
from .numtheory import exact_terms, is_prime

# ---------------------------------------------------------------------------
# Angular Fourier diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularFourier:
    """Trapezoid-rule Fourier coefficients of theta -> g_v(h zeta, theta)."""

    ks: np.ndarray  # -K .. K
    coeffs: np.ndarray  # complex, aligned with ks
    c3_fit: float  # max_k |g_hat(k)| * (1 + k^2)


def angular_fourier(
    f_spec: Callable[[Array], Array],
    kernel: KernelSpec,
    v: Array,
    zeta: tuple[int, int],
    h: float,
    K: int,
) -> AngularFourier:
    """Fourier coefficients g_hat(zeta, k) = (1/2pi) int g e^{-ik theta}.

    Sampled on a uniform grid and transformed with the FFT, so the
    coefficients are spectrally accurate for smooth integrands.
    """
    if K < 1:
        raise PreconditionError(f"K must be >= 1, got {K}")
    n = max(256, 4 * K + 4)
    j = np.arange(n)
    thetas = -math.pi + 2 * math.pi * j / n
    v = np.asarray(v, dtype=np.float64)
    w = h * np.asarray(zeta, dtype=np.float64)
    w_norm = float(np.hypot(w[0], w[1]))

    cos_t = np.cos(thetas)
    rw = rotate(w, cos_t, np.sin(thetas))
    vp = v[None, :] + w[None, :] + rw
    vsp = v[None, :] + w[None, :] - rw
    f_v = float(np.asarray(f_spec(v[None, :])).ravel()[0])
    f_star = float(np.asarray(f_spec(v[None, :] + 2 * w[None, :])).ravel()[0])
    g = (np.asarray(f_spec(vp)) * np.asarray(f_spec(vsp)) - f_v * f_star)
    g = g * kernel.evaluate(w_norm, cos_t)

    # theta_j = -pi + 2 pi j / n, so the DFT picks up a (-1)^k twiddle.
    spectrum = np.fft.fft(g) / n
    ks = np.arange(-K, K + 1)
    coeffs = np.where(ks % 2 == 0, 1.0, -1.0) * spectrum[ks % n]
    c3 = float(np.max(np.abs(coeffs) * (1 + ks.astype(np.float64) ** 2)))
    return AngularFourier(ks, coeffs, c3)


# ---------------------------------------------------------------------------
# Equidistribution error term
# ---------------------------------------------------------------------------

def equid_term(h: float, R: float, M: int) -> float:
    """(2h)^2 * max over 0 < |k| < M, 4 | k, of sum_{zeta} |S(|zeta|^2, k)| / r.

    The sum over lattice points zeta in the truncation disk collapses to
    sum over 1 <= n <= (R/h)^2 of |S(n, k)|; frequencies not divisible by
    4 contribute nothing, and -k gives the same sums as k.  One
    circles.abs_S_sweep over ks = range(4, M, 4) gives every k, carrying
    z^k from each k to the next, so the time is linear in M.  Each k's
    sum is one math.fsum per R2_SEGMENT segment, exactly rounded when
    (R/h)^2 fits one segment.
    """
    if M < 5:
        raise PreconditionError(f"M must be >= 5 so some 4 | k contributes, got {M}")
    sums = np.zeros((M - 1) // 4)
    for k, _, values in circles.abs_S_sweep(circle_limit(h, R), range(4, M, 4)):
        sums[k // 4 - 1] += math.fsum(values.tolist())
    return (2 * h) ** 2 * float(sums.max())


# ---------------------------------------------------------------------------
# Convergence study with the four-term error budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorBudget:
    """Observed four-term error decomposition for one ConvergenceRow.

    tail_R and riemann_h are measured directly by quadrature, both with
    the reference's fine angular rule (2 n_theta = 64); the Fourier tail
    and equidistribution terms are proportional to the fitted
    angular-decay constant C3.  All terms are nonnegative; only tail_R is
    a rigorous bound on the piece it describes, so no inequality against
    the row's abs_err is implied.
    """

    tail_R: float
    riemann_h: float
    fourier_tail_M: float
    equid: float


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    qh: float
    qref: float
    abs_err: float
    budget: ErrorBudget


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    qref: float
    qref_self_convergence: float


# angular_fourier samples 4M + 4 angle nodes at a traced peak of 128-132
# bytes per node (M = 10**4 .. 10**6, bi-Maxwellian); the budget counts 4M
# nodes at 132 bytes, which covers 4M + 4 at 128 for M >= 32.  Time is not
# bounded by it: one angular_fourier call takes 0.66 s at M = 10**5 and
# 5.6 s at M = 10**6 (converge_study makes three), and equid_term's one
# sweep grows linearly in M and in the disk's points, 9.8 ms at M = 4000 and
# 98 ms at M = 40000 for h = 0.125 and R = 3 (medians; 2 cores, Python 3.11,
# numpy 2.4).
FOURIER_BYTES_PER_NODE = 132


def sample_about(
    f_spec: Callable[[Array], Array], v: Array, h: float, R: float
) -> LatticeDistribution:
    """u -> f(u + v) on the disk |u| <= 2R + 2h, checked first for v on
    the h-lattice and against the memory budget (check_state_points).

    Q^h is translation invariant and Q^h(f, f)(v) reads f only within 2R
    of v, so Q^h of this state at 0 is Q^h(f, f)(v) up to the rounding of
    u + v, which is exact at v = 0."""
    lattice_coords(h, v)
    return sample_on_lattice(lambda u: f_spec(u + v), h, 2 * R + 2 * h)


def converge_study(
    f_spec: Callable[[Array], Array],
    kernel: KernelSpec,
    v: Array,
    h_list: Iterable[float],
    R: float,
    M_diag: int = 64,
) -> ConvergenceStudy:
    """Consistency experiment: Q^h against the quadrature reference.

    For each h the closed-form state is sampled about v (sample_about) on
    a disk wide enough that every velocity reached by the truncated sum
    sees the true f, so the comparison isolates discretization error.
    Everything is checked first: M_diag below 5, a v off some h's
    lattice, or 4 M_diag angle nodes, a circle table
    (circles.check_circle_table) or a sampled state (check_state_points)
    past the memory budget raises PreconditionError before anything is
    sampled.

    The reference's fine level (the polar rule on the disk of radius 2R,
    2 n_theta = 64 angle nodes) has its panel split at |w| = R.  So it also
    gives tail_R, the integral of |G_v| over the annulus R < |w| <= 2R, and
    the integral over the disk |w| <= R that riemann_h compares with each
    lattice Riemann sum; that sum takes the same 64 angle nodes.
    """
    h_list = list(h_list)
    if not h_list:
        raise PreconditionError("h_list must not be empty")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise PreconditionError("h_list must be strictly decreasing")
    if M_diag < 5:
        raise PreconditionError(f"M must be >= 5 so some 4 | k contributes, got {M_diag}")
    what = f"angular_fourier at M = {M_diag}: 4M angle nodes"
    check_memory(what, 4 * M_diag, FOURIER_BYTES_PER_NODE)
    v = np.asarray(v, dtype=np.float64)
    for h in h_list:
        lattice_bound(h, 2 * R + 2 * h)  # refuses a bad h or R
        circles.check_circle_table(circle_limit(h, R))
        check_state_points(h, 2 * R + 2 * h)
        lattice_coords(h, v)
    quad = QuadratureConfig(r_quad=2 * R)
    ref = q_reference(f_spec, v, kernel, quad)
    n_theta = 2 * quad.n_theta  # the fine level's angular rule

    # Shared diagnostics from the fine level, whose panels split at |w| = R:
    # the tail of |G_v| over the outer panel, and the inner panel's integral
    # that each h's lattice Riemann sum of the same exact-angular G_v is
    # compared with, which isolates the outer-discretization error.
    outside = np.hypot(ref.nodes[:, 0], ref.nodes[:, 1]) > R
    tail = polar_sum(ref.weights[outside], np.abs(ref.angular[outside]))
    inner = polar_sum(ref.weights[~outside], ref.angular[~outside])

    c3 = 0.0
    probe_radius = max(1, int(round(R / (2 * max(h_list)))))
    for zeta in ((probe_radius, 0), (0, probe_radius), (probe_radius, probe_radius)):
        af = angular_fourier(f_spec, kernel, v, zeta, max(h_list), K=M_diag)
        c3 = max(c3, af.c3_fit)
    s_m = 2 * sum(1.0 / (1 + k * k) for k in range(1, M_diag))

    rows = []
    for h in h_list:
        qh = q_discrete(sample_about(f_spec, v, h, R), np.zeros(2), kernel, R)
        abs_err = abs(qh - ref.value)

        # The Riemann nodes h zeta, 0 < |zeta|^2 <= circle_limit(h, R), are
        # the points of the circle table that q_discrete has just read.
        table = circles.circle_table(circle_limit(h, R))
        lattice_w = h * np.stack([table.xs, table.ys], axis=-1)
        riemann = (2 * h) ** 2 * float(
            angular_integral(f_spec, v, kernel, lattice_w, n_theta).sum()
        )
        riemann_err = abs(inner - riemann)

        n_zeta = len(table.xs)
        fourier_tail = (2 * h) ** 2 * n_zeta * 2 * math.pi * 2 * c3 / M_diag
        equid = 2 * math.pi * c3 * s_m * equid_term(h, R, M_diag)
        budget = ErrorBudget(tail, riemann_err, fourier_tail, equid)
        rows.append(ConvergenceRow(h, qh, ref.value, abs_err, budget))
    return ConvergenceStudy(tuple(rows), ref.value, ref.self_convergence)


# ---------------------------------------------------------------------------
# Figure data: lattice points on point-rich circles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureQuery:
    """Box [coord_min, coord_max]^2 filtered by a point-count threshold."""

    coord_min: int
    coord_max: int
    threshold: int
    comparison: str = "ge"  # "ge" for >=, "gt" for >

    def __post_init__(self) -> None:
        if not 0 <= self.coord_min <= self.coord_max <= 20000:
            raise PreconditionError("bounds must satisfy 0 <= min <= max <= 20000")
        if self.threshold % 4 != 0 or self.threshold <= 0:
            raise PreconditionError("threshold must be a positive multiple of 4")
        if self.comparison not in ("ge", "gt"):
            raise PreconditionError("comparison must be 'ge' or 'gt'")


@dataclass(frozen=True)
class FigureData:
    query: FigureQuery
    points: np.ndarray  # (N, 2) int64, lexicographically sorted
    n_values: np.ndarray  # (N,) squared radii
    r_values: np.ndarray  # (N,) point counts of the circles

    @property
    def count(self) -> int:
        return len(self.points)


# A kept point is held as four int64 values (x, y, n, r2) while the segments
# stream, a mirrored point as its own four, and the final lexsort and gathers
# add at most as much again.  Beyond that one segment is held at a time:
# r2_sweep's octant and counts and the box's r2 values, 4.9 MB for the box
# (0, 20000, 384), the most measured.  The traced peak is 64.1 bytes per
# point for the 361200 points of the box (0, 600, 4), 64.0 for the 2253000
# of (0, 1500, 4).
FIGURE_BYTES_PER_POINT = 64


def figure_data(query: FigureQuery) -> FigureData:
    """All box points whose circles meet the point-count threshold.

    circles.r2_sweep streams r2 over the reachable squared radii
    [2 lo^2, 2 hi^2] together with the octant points it binned.  A point
    lo <= y <= x on a radius n >= 2 lo^2 has x >= lo, so the points of
    the half box lo <= y <= x <= hi are the octant rows x <= hi, a prefix,
    less the points y < lo when lo > 0; each reads its r2 at the offset
    n - s that the bincount used, and the x of a kept point is its row's.
    The mirror (y, x) of a kept point lies on the same circle and in the
    box, so each kept point off the diagonal is kept mirrored too.  No
    circle is enumerated or factorized, and no lattice point is laid down
    twice.  One lexsort orders the kept points.  When the kept points
    would pass the memory budget the query raises PreconditionError
    before that segment is stored.
    """
    lo, hi = query.coord_min, query.coord_max
    cut = query.threshold if query.comparison == "ge" else query.threshold + 1

    kept: list[list[np.ndarray]] = [[], [], [], []]  # x, y, n, r2 per segment
    total = 0
    for s, r2_vals, x, count, y, n in circles.r2_sweep(max(1, 2 * lo * lo), 2 * hi * hi):
        rows = int(np.searchsorted(x, hi, side="right"))  # the rows x <= hi
        ends = np.cumsum(count[:rows])
        box = int(ends[-1]) if rows else 0
        rs = r2_vals[n[:box]]
        keep = rs >= cut
        if lo > 0:
            keep &= y[:box] >= lo
        keep = np.flatnonzero(keep)
        xs = x[np.searchsorted(ends, keep, side="right")]
        ys, ns, rs = y[keep], n[keep] + s, rs[keep]
        off = xs != ys
        total += len(xs) + int(np.count_nonzero(off))
        what = "figure_data's kept points (raise the threshold or shrink the box)"
        check_memory(what, total, FIGURE_BYTES_PER_POINT)
        for chunks, a, mirror in zip(kept, (xs, ys, ns, rs), (ys, xs, ns, rs)):
            chunks.append(np.concatenate((a, mirror[off])))
        del r2_vals, x, count, y, n  # with r2_sweep's own del, one segment at a time

    cols = []
    for chunks in kept:  # each column's chunks go as soon as it is joined
        cols.append(np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64))
        chunks.clear()
    order = np.lexsort((cols[1], cols[0]))
    points = np.empty((total, 2), dtype=np.int64)
    for j in range(2):
        np.take(cols[j], order, out=points[:, j])
        cols[j] = None
    return FigureData(query, points, cols[2][order], cols[3][order])


# ---------------------------------------------------------------------------
# Max point count search
# ---------------------------------------------------------------------------

def _primes_1mod4_ascending(limit_product: int) -> list[int]:
    """Consecutive primes p = 1 (mod 4) while their running product fits."""
    out: list[int] = []
    running = 1
    p = 5
    while running * p <= limit_product:
        if is_prime(p):
            out.append(p)
            running *= p
        p += 4
    return out


def max_r_search(radius_bound: float) -> tuple[int, int]:
    """(n, r2(n)) maximizing r2 over n <= radius_bound^2; smallest such n.

    Only primes p = 1 (mod 4) help: powers of two and squares of inert
    primes grow n without adding representations, so they are pruned.
    An optimal n can be rearranged to use consecutive such primes from 5
    up with non-increasing exponents, which the DFS enumerates.
    """
    if not 1 <= radius_bound <= 20000:
        raise PreconditionError("radius_bound must be in [1, 20000]")
    n_max = int(radius_bound) ** 2 if radius_bound == int(radius_bound) else int(
        radius_bound * radius_bound + 1e-9
    )
    primes = _primes_1mod4_ascending(n_max)
    best_d = 1  # n = 1 carries r2 = 4
    best_n = 1

    def rec(idx: int, n: int, d: int, max_exp: int) -> None:
        nonlocal best_d, best_n
        if d > best_d or (d == best_d and n < best_n):
            best_d, best_n = d, n
        if idx >= len(primes):
            return
        p = primes[idx]
        value = n
        for e in range(1, max_exp + 1):
            value *= p
            if value > n_max:
                break
            rec(idx + 1, value, d * (e + 1), e)

    rec(0, 1, 1, 64)
    return best_n, 4 * best_d


# ---------------------------------------------------------------------------
# Space-homogeneous relaxation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxState:
    """One snapshot of the homogeneous relaxation df/dt = Q^h(f, f); only
    the last snapshot of a run keeps its state f."""

    t: float
    f: LatticeDistribution | None
    H: float  # sum f log f over the support, 0 log 0 = 0
    mass: float
    momentum: tuple[float, float]
    energy: float


def _entropy(grid: Array) -> float:
    flat = grid.ravel()
    pos = flat[flat > 0]
    return math.fsum(exact_terms(pos * np.log(pos)))


def check_relax_size(h: float, support: float, R: float) -> None:
    """Refuse a relaxation of a state of support radius `support` whose
    operator, on the widened state, passes the memory budget (check_frame);
    nothing is allocated."""
    check_frame(h, R, widened_bound(lattice_bound(h, support)))


def relax_simulate(
    f0: LatticeDistribution,
    kernel: KernelSpec,
    R: float,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> list[RelaxState]:
    """Explicit RK4 integration of df/dt = Q^h(f, f) from f0.

    The state lives on a disk sqrt(2) wider than the initial support so
    every collision gain stays on the grid (up to exponentially small
    tails); moments and H are recorded per step, and the final state in
    the last snapshot only, so memory does not grow with the steps.  The
    sizes are checked first (check_relax_size).  Aborts, the sign that dt
    is too large, with NonFiniteStateError if a step overflows the state
    to inf or nan (each step runs with numpy's overflow and invalid-value
    warnings off, so that this error is the only report), and with
    PositivityLossError if any value drops below -1e-12 * max f.
    """
    if not (math.isfinite(dt) and dt > 0) or steps < 1:
        raise PreconditionError("dt must be positive and finite and steps >= 1")
    if record_every < 1:
        raise PreconditionError(f"record_every must be >= 1, got {record_every}")
    h = f0.h
    check_relax_size(h, f0.support_radius, R)
    wide = f0.widened()
    op = FastCollisionOperator(h, R, kernel, wide.bound)
    state = wide.grid
    disk = wide.disk
    vx, vy = wide.velocities()
    v2 = vx**2 + vy**2

    def rate(s: Array) -> Array:
        return op.apply_grid(s) * disk

    def snapshot(t: float, s: Array, last: bool = False) -> RelaxState:
        clamped = np.maximum(s, 0.0)

        def total(w) -> float:
            return math.fsum(exact_terms(clamped * w * (h * h)))

        f = LatticeDistribution(h, wide.support_radius, clamped) if last else None
        return RelaxState(t, f, _entropy(clamped), total(1.0), (total(vx), total(vy)), total(v2))

    trajectory = [snapshot(0.0, state)]
    for step in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rate(state)
            k2 = rate(state + 0.5 * dt * k1)
            k3 = rate(state + 0.5 * dt * k2)
            k4 = rate(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        low, high = float(state.min()), float(state.max())  # nan if any value is
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NonFiniteStateError(
                f"state not finite after step {step}: min f = {low:.3e}, "
                f"max f = {high:.3e}; reduce dt"
            )
        floor = -1e-12 * high
        if low < floor:
            raise PositivityLossError(
                f"positivity lost at step {step}: min f = {low:.3e}, "
                f"threshold {floor:.3e}; reduce dt"
            )
        if step % record_every == 0 or step == steps:
            trajectory.append(snapshot(step * dt, state, last=step == steps))
    return trajectory
