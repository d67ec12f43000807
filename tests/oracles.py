"""Retired implementations, kept as differential oracles.

``sieve_r2_range`` is the r2 fold of ``circles.factor_range`` that
``circles.r2_range`` was before it counted lattice points, and
``enumerated_figure_data`` is the ``harness.figure_data`` that enumerated
every point-rich circle with ``circle_points`` and filtered it to the box.
``all_nodes_angular_integral`` is ``collision.angular_integral`` before it
paired the nodes theta and theta + pi: it forms the gain product at every
node.  ``full_circle_q_discrete_detailed`` is
``collision.q_discrete_detailed`` before the flat, paired gather: one
iteration per circle over every (zeta_i, zeta_j) of the full circle.
"""

import math

import numpy as np

from dvm2d import circles, harness
from dvm2d.collision import _circles, lattice_bound, rotate


def all_nodes_angular_integral(f, v, kernel, w, n_theta):
    """Trapezoid rule over all n_theta nodes on [-pi, pi), one gain product each."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w_norm = np.hypot(w[:, 0], w[:, 1])
    thetas = -math.pi + 2 * math.pi * np.arange(n_theta) / n_theta
    f_vv = float(np.asarray(f(v[None, :])).ravel()[0])
    loss = f_vv * np.asarray(f(v[None, :] + 2 * w))  # (M,)

    total = np.zeros(len(w))
    for th in thetas:
        c = math.cos(th)
        rw = rotate(w, c, math.sin(th))
        gain = np.asarray(f(v[None, :] + w + rw)) * np.asarray(f(v[None, :] + w - rw))
        total += (gain - loss) * kernel.evaluate(w_norm, c)
    return total * (2 * math.pi / n_theta)


def sieve_r2_range(n_lo, n_hi, segment=circles.SIEVE_SEGMENT):
    """Yield (lo, r2 array) per segment of [n_lo, n_hi] from the prime-power sieve.

    4 * prod (alpha_p + 1) over p = 1 (mod 4), or 0 where some q = 3 (mod 4)
    has an odd exponent, read from that prime's own exponents.
    """
    for lo, powers, c in circles.factor_range(n_lo, n_hi, segment):
        dcount = np.where((c > 1) & (c & 3 == 1), 2, 1)
        bad = c & 3 == 3
        for p, start, e in powers:
            if p & 3 == 1:
                dcount[start::p] *= e + 1
            elif p & 3 == 3:
                bad[start::p] |= e & 1 == 1
        yield lo, np.where(bad, 0, 4 * dcount)


def enumerated_figure_data(query):
    """figure_data by sieving r2, then enumerating each circle with r2 >= cut."""
    lo, hi = query.coord_min, query.coord_max
    n_lo = max(1, 2 * lo * lo) if lo > 0 else 1
    n_hi = 2 * hi * hi
    cut = query.threshold if query.comparison == "ge" else query.threshold + 1

    pts_x, pts_y, pts_n, pts_r = [], [], [], []
    for seg_lo, r2_vals in sieve_r2_range(n_lo, n_hi):
        for off in np.nonzero(r2_vals >= cut)[0].tolist():
            n = seg_lo + off
            pts = circles.circle_points(n)
            keep = (pts.xs >= lo) & (pts.xs <= hi) & (pts.ys >= lo) & (pts.ys <= hi)
            for x, y in zip(pts.xs[keep].tolist(), pts.ys[keep].tolist()):
                pts_x.append(x)
                pts_y.append(y)
                pts_n.append(n)
                pts_r.append(pts.count)

    points = np.stack(
        [np.asarray(pts_x, dtype=np.int64), np.asarray(pts_y, dtype=np.int64)],
        axis=-1,
    ) if pts_x else np.zeros((0, 2), dtype=np.int64)
    n_arr = np.asarray(pts_n, dtype=np.int64)
    r_arr = np.asarray(pts_r, dtype=np.int64)
    if len(points):
        order = np.lexsort((points[:, 1], points[:, 0]))
        points, n_arr, r_arr = points[order], n_arr[order], r_arr[order]
    return harness.FigureData(query, points, n_arr, r_arr)


def full_circle_q_discrete_detailed(f, v, kernel, R):
    """(Q^h(f, f)(v), gross) by a loop over circles, r x r products each."""
    h = f.h
    zvx, zvy = f.lattice_coords(np.asarray(v, dtype=np.float64))
    b = f.bound
    reach = 2 * lattice_bound(h, R)  # farthest lookup from v, per coordinate
    dist = max(abs(zvx), abs(zvy))
    if dist > b + reach:
        return 0.0, 0.0
    pad = max(0, dist + reach - b)
    g = np.pad(f.grid, pad)
    ox, oy = zvx + b + pad, zvy + b + pad  # v's row and column in g
    f_v = float(g[ox, oy])

    per_circle = []
    gross = 0.0
    for _, xs, ys, q in _circles(h, R, kernel):
        r = len(xs)
        gain = (
            g[ox + xs[:, None] + xs[None, :], oy + ys[:, None] + ys[None, :]]
            * g[ox + xs[:, None] - xs[None, :], oy + ys[:, None] - ys[None, :]]
        )
        loss = f_v * g[ox + 2 * xs, oy + 2 * ys]  # (r,)
        per_circle.append(2 * math.pi / r * float(((gain - loss[:, None]) * q).sum()))
        gross += 2 * math.pi / r * float(((gain + loss[:, None]) * q).sum())
    return (2 * h) ** 2 * math.fsum(per_circle), (2 * h) ** 2 * gross
