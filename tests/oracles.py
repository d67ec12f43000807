"""Retired implementations, kept as differential oracles.

``factor_range`` is the segmented prime-power sieve that every range
statistic once read.  ``sieve_r2_range`` is its r2 fold, which
``circles.r2_range`` was before it counted lattice points, and
``sieve_abs_S_closed_range`` its |S| fold, which
``circles.abs_S_closed_range`` was before it summed lattice points;
``exact_abs_S`` is |S(n, k)| from exact Gaussian-integer powers.
``dense_abs_S_segments`` and ``dense_avg_abs_S`` are the lattice |S| sum
and its decade means before they skipped the m whose circle is empty:
one value for every m, zeros included, each put through ``math.fsum``.
``enumerated_figure_data`` is the ``harness.figure_data`` that enumerated
every point-rich circle with ``circle_points`` and filtered it to the box.
``all_nodes_angular_integral`` is ``collision.angular_integral`` before it
paired the nodes theta and theta + pi: it forms the gain product at every
node.  ``full_circle_q_discrete_detailed`` is
``collision.q_discrete_detailed`` before the flat, paired gather: one
iteration per circle over every (zeta_i, zeta_j) of the full circle.
``integer_dot_circles`` is ``collision._circles``, which gave that loop and
the grid operator's loss weights an r x r matrix of kernel values from the
integer dot products per circle; ``row_loop_loss_parts`` is the loss band
that ``FastCollisionOperator`` built from it with one loop pass per row
offset, before it took the weights from the gain's harmonic channels.
"""

import math
from itertools import chain, islice

import numpy as np

from dvm2d import circles, harness
from dvm2d.collision import circle_limit, lattice_bound, rotate
from dvm2d.errors import PreconditionError


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


SIEVE_SEGMENT = 1 << 20


def factor_range(n_lo, n_hi, segment=SIEVE_SEGMENT):
    """Factor every n in [n_lo, n_hi], yielding (lo, powers, cofactor) per segment.

    ``powers`` lists (p, start, e) for each prime p <= sqrt(segment end),
    ascending: e[j] is the exponent of p in n = lo + start + j*p.
    ``cofactor[i]`` is what is left of lo + i, 1 or a prime above every p
    in ``powers``.  Each power q = p^j touches only the multiples of q, so
    a segment costs about size * log log n instead of size * pi(sqrt n).
    """
    if n_lo < 1:
        raise PreconditionError(f"factor_range requires n_lo >= 1, got {n_lo}")
    primes = circles.smallest_prime_factor_sieve(math.isqrt(n_hi))
    primes = np.nonzero(primes == np.arange(len(primes)))[0][2:].tolist()
    for seg_lo in range(n_lo, n_hi + 1, segment):
        seg_hi = min(seg_lo + segment - 1, n_hi)
        rem = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
        ex = np.zeros(len(rem), dtype=np.int8)
        powers = []
        for p in primes:
            if p * p > seg_hi:
                break
            q = p
            while q <= seg_hi:
                start = -seg_lo % q
                rem[start::q] //= p
                ex[start::q] += 1
                q *= p
            start = -seg_lo % p
            powers.append((p, start, ex[start::p].copy()))
            ex[start::p] = 0
        yield seg_lo, powers, rem


def sieve_r2_range(n_lo, n_hi, segment=SIEVE_SEGMENT):
    """Yield (lo, r2 array) per segment of [n_lo, n_hi] from the prime-power sieve.

    4 * prod (alpha_p + 1) over p = 1 (mod 4), or 0 where some q = 3 (mod 4)
    has an odd exponent, read from that prime's own exponents.
    """
    for lo, powers, c in factor_range(n_lo, n_hi, segment):
        dcount = np.where((c > 1) & (c & 3 == 1), 2, 1)
        bad = c & 3 == 3
        for p, start, e in powers:
            if p & 3 == 1:
                dcount[start::p] *= e + 1
            elif p & 3 == 3:
                bad[start::p] |= e & 1 == 1
        yield lo, np.where(bad, 0, 4 * dcount)


def sieve_abs_S_closed_range(X, k):
    """|S(m, k)| for all 0 <= m <= X via the closed form (index 0 unused).

    From 4, each split prime p multiplies in
    |sin((alpha+1) k theta_p) / sin(k theta_p)| from a table indexed by
    alpha, in ascending p like the per-m product; odd inert powers give 0.
    """
    ps, thetas = circles.prime_angles(X)
    single = np.array([circles._split_factor_magnitude(k * t, 1) for t in thetas.tolist()])
    out = np.zeros(X + 1, dtype=np.float64)
    for lo, powers, c in factor_range(1, X):
        mag = out[lo : lo + len(c)]
        mag[:] = 4.0
        for p, start, e in powers:
            if p & 3 == 1:
                x = k * thetas[np.searchsorted(ps, p)]
                alphas = range(e.max(initial=0) + 1)
                table = np.array([circles._split_factor_magnitude(x, a) for a in alphas])
                mag[start::p] *= table[e]
            elif p & 3 == 3:
                mag[start::p][e & 1 == 1] = 0.0
        # The cofactor is a prime above every sieved p, so it comes last.
        split = (c > 1) & (c & 3 == 1)
        mag[split] *= single[np.searchsorted(ps, c[split])]
        mag[c & 3 == 3] = 0.0
    return out


def exact_abs_S(n, k):
    """|S(n, k)| = |sum of (x + iy)^k| / n^(k/2) over circle n, for k >= 0.

    The points come from circle_points and the powers are exact Gaussian
    integers; the only roundings are the correctly rounded int division and
    the square root, so the result is within one ulp of the true value.
    """
    re = im = 0
    for x, y in circles.circle_points(n).points:
        a, b = 1, 0
        for bit in bin(k)[2:]:
            a, b = a * a - b * b, 2 * a * b
            if bit == "1":
                a, b = a * x - b * y, a * y + b * x
        re += a
        im += b
    return math.sqrt((re * re + im * im) / n**k)


def dense_abs_S_segments(X, k):
    """Yield |S(m, k)| for 1 <= m <= X, one float64 array per R2_SEGMENT segment.

    Needs 4 | k.  z^4 is formed from exact integers and rounded once, and
    z^|k| is |k| / 4 multiplications of ones by it; every m of the segment
    gets a value, 0 where its circle is empty.
    """
    for s in range(1, X + 1, circles.R2_SEGMENT):
        e = min(s + circles.R2_SEGMENT - 1, X)
        r = math.isqrt(e)
        x, count, y = circles.annulus_points(s, e, 1, r, 0, r)
        x = np.repeat(x, count)
        n = x * x + y * y
        u, v = x * x - y * y, 2 * x * y
        m2 = n * n
        z4 = (u * u - v * v) / m2 + 1j * (2 * u * v / m2)
        w = np.ones(len(n), dtype=np.complex128)
        for _ in range(abs(k) // 4):
            w *= z4
        n -= s
        re = np.bincount(n, w.real, minlength=e - s + 1)
        im = np.bincount(n, w.imag, minlength=e - s + 1)
        yield 4 * np.hypot(re, im)


def dense_avg_abs_S(X, k):
    """circles.avg_abs_S with one math.fsum over every m of each decade."""
    if X < 100:
        raise PreconditionError(f"avg_abs_S requires X >= 100, got {X}")
    decades = [10**d for d in range(2, 1 + math.floor(math.log10(X)))]
    decades = [d for d in decades if d <= X]
    if not decades or decades[-1] != X:
        decades.append(X)

    if k % 4 != 0:
        table = tuple((d, 0.0) for d in decades)
        return circles.AngleStatistics(X, k, 0.0, table, vanishing_k=True)

    values = chain.from_iterable(v.tolist() for v in dense_abs_S_segments(X, k))
    partials = []
    lo = 1
    decade_means = []
    for hi in decades:
        partials.append(math.fsum(islice(values, hi - lo + 1)))
        decade_means.append((hi, math.fsum(partials) / hi))
        lo = hi + 1
    return circles.AngleStatistics(X, k, decade_means[-1][1], tuple(decade_means))


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


def integer_dot_circles(h, R, kernel):
    """Every circle |zeta|^2 = n <= (R/h)^2 that has points, as (n, xs, ys, q).

    The points are slices of the cached circles.circle_table, in angle
    order.  q[i, j] = q(h sqrt(n), cos theta_ij) for the collision
    zeta_i -> zeta_j, with cos theta_ij = zeta_i . zeta_j / n from the
    exact integer dot product.
    """
    table = circles.circle_table(circle_limit(h, R))
    starts = table.starts.tolist()
    for n in range(1, table.limit + 1):
        lo, hi = starts[n], starts[n + 1]
        if lo == hi:
            continue
        xs, ys = table.xs[lo:hi], table.ys[lo:hi]
        dots = xs[:, None] * xs[None, :] + ys[:, None] * ys[None, :]
        q = kernel.evaluate(h * math.sqrt(n), dots.astype(np.float64) / n)
        yield n, xs, ys, np.asarray(q, dtype=np.float64)


def row_loop_loss_parts(h, R, kernel, bound):
    """FastCollisionOperator._loss_parts: per column parity, (columns, band)."""
    k = lattice_bound(h, R)
    side = 2 * bound + 1
    loss_x, loss_y, loss_w = [], [], []
    for _, xs, ys, q in integer_dot_circles(h, R, kernel):
        r = len(xs)
        loss_x += xs.tolist()
        loss_y += ys.tolist()
        loss_w += ((2 * math.pi / r) * q.sum(axis=1)).tolist()
    loss_x = np.array(loss_x, dtype=np.int64)
    loss_y = np.array(loss_y, dtype=np.int64)
    loss_w = np.array(loss_w, dtype=np.float64)

    vel = np.arange(-bound, bound + 1)
    parts = []
    for parity in (0, 1):
        cols = slice(parity, None, 2)
        v_out = vel[cols]
        n_col = len(v_out)
        band = np.zeros((2 * k + 1, n_col, n_col))
        for a in range(-k, k + 1):
            on_a = loss_x == a
            y_in = v_out[None, :] + 2 * loss_y[on_a, None] + bound
            pt, col = np.nonzero((y_in >= 0) & (y_in < side))
            band[a + k, y_in[pt, col] // 2, col] = loss_w[on_a][pt]
        parts.append((cols, band.reshape((2 * k + 1) * n_col, n_col)))
    return parts


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
    for _, xs, ys, q in integer_dot_circles(h, R, kernel):
        r = len(xs)
        gain = (
            g[ox + xs[:, None] + xs[None, :], oy + ys[:, None] + ys[None, :]]
            * g[ox + xs[:, None] - xs[None, :], oy + ys[:, None] - ys[None, :]]
        )
        loss = f_v * g[ox + 2 * xs, oy + 2 * ys]  # (r,)
        per_circle.append(2 * math.pi / r * float(((gain - loss[:, None]) * q).sum()))
        gross += 2 * math.pi / r * float(((gain + loss[:, None]) * q).sum())
    return (2 * h) ** 2 * math.fsum(per_circle), (2 * h) ** 2 * gross
