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
``quarter_r2_range`` and ``quarter_figure_data`` are ``circles.r2_range``
and ``harness.figure_data`` before the octant sweep: they lay down every
point of the quarter plane x >= 1, y >= 0 (of the box, for the figure)
instead of the half at or below the diagonal and its mirror.
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
``widened_collision_invariants`` is ``collision.collision_invariants``
before it summed the operator's own frame: it widens the state onto the
energy disk and applies an operator built for that wider square.
``comprehension_angular_fourier`` is ``harness.angular_fourier`` with its
coefficients built one k at a time by a list comprehension.
``box_loop_gain`` is ``FastCollisionOperator._gain`` before its flat
plan: per circle, products on 2-D boxes of mid-points, a fresh product
array and one gemv per shifted add; ``box_loop_apply_frame`` puts it into
``apply_frame``.  ``int_loop_harmonic_weights`` is
``collision._harmonic_weights`` before it ran the powers in int64 over
all points at once: exact Python ints, one point at a time.
``midpoint_disk`` and ``midpoint_level`` are ``collision.q_reference``'s
rule in w before the polar rule: the midpoints of the n_w x n_w cells of
[-r, r]^2 inside the disk, each of weight step^2.  It converges only
algebraically where the integrand has the |w|^alpha kink at 0.
``per_k_equid_term`` is ``harness.equid_term`` with one
``circles.abs_S_closed_range`` per k, each powering z^4 afresh, and the
dense numpy sum of its values.
The ``csv_writer_*`` functions are the table writers before
``dvm2d.tables`` formatted every table with one %-format per chunk of
rows: csv.writer rows of ints and ``f"{x:.17g}"`` strings, the lattice
and Q^h files under a JSON line, and the figure one ``writerow`` per point.
"""

import csv
import json
import math
from itertools import chain, islice

import numpy as np

from dvm2d import circles, harness
from dvm2d.collision import (
    FastCollisionOperator,
    InvariantRates,
    angular_integral,
    circle_limit,
    lattice_bound,
    rotate,
)
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


def midpoint_disk(r_quad, n_w):
    """Midpoints of the n_w x n_w cells of [-r, r]^2 inside the disk, and the cell side."""
    step = 2 * r_quad / n_w
    mids = -r_quad + step * (np.arange(n_w) + 0.5)
    wx, wy = np.meshgrid(mids, mids, indexing="ij")
    keep = wx**2 + wy**2 <= r_quad**2
    return np.stack([wx[keep], wy[keep]], axis=-1), step


def midpoint_level(f, v, kernel, r_quad, n_w, n_theta):
    """4 * step^2 * sum of G_v over midpoint_disk: one level of the midpoint rule."""
    w, step = midpoint_disk(r_quad, n_w)
    angular = angular_integral(f, v, kernel, w, n_theta)
    return 4.0 * step * step * float(angular.sum())


def per_k_equid_term(h, R, M):
    """(2h)^2 * max over k = 4, 8, ..., < M of the dense sum of |S(n, k)|, n >= 1."""
    x = circle_limit(h, R)
    best = 0.0
    for k in range(4, M, 4):
        values = circles.abs_S_closed_range(x, k)
        best = max(best, float(values[1:].sum()))
    return (2 * h) ** 2 * best


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


def quarter_r2_range(n_lo, n_hi):
    """Yield (lo, r2 array) per R2_SEGMENT segment: 4 * bincount over the quarter plane."""
    for s in range(n_lo, n_hi + 1, circles.R2_SEGMENT):
        e = min(s + circles.R2_SEGMENT - 1, n_hi)
        k = math.isqrt(e)
        x, count, n = circles.annulus_points(s, e, 1, k, 0, k)
        n *= n
        n += np.repeat(x * x - s, count)
        yield s, 4 * np.bincount(n, minlength=e - s + 1)


def quarter_figure_data(query):
    """figure_data over every box point, its r2 read off quarter_r2_range."""
    lo, hi = query.coord_min, query.coord_max
    cut = query.threshold if query.comparison == "ge" else query.threshold + 1
    kept = [[], [], [], []]  # x, y, n, r2 per segment
    for s, r2_vals in quarter_r2_range(max(1, 2 * lo * lo), 2 * hi * hi):
        e = s + len(r2_vals) - 1
        x, count, ys = circles.annulus_points(s, e, lo, hi, lo, hi)
        xs = np.repeat(x, count)
        ns = xs * xs + ys * ys
        rs = r2_vals[ns - s]
        keep = rs >= cut
        for chunks, a in zip(kept, (xs, ys, ns, rs)):
            chunks.append(a[keep])
    cols = [np.concatenate(c) if c else np.zeros(0, dtype=np.int64) for c in kept]
    order = np.lexsort((cols[1], cols[0]))
    points = np.stack([cols[0][order], cols[1][order]], axis=-1)
    return harness.FigureData(query, points, cols[2][order], cols[3][order])


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


def widened_collision_invariants(f, kernel, R):
    """InvariantRates of Q^h over the square of f.widened()."""
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


def comprehension_angular_fourier(f_spec, kernel, v, zeta, h, K):
    """Trapezoid-rule Fourier coefficients of theta -> g_v(h zeta, theta), k = -K .. K."""
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

    spectrum = np.fft.fft(g) / n
    ks = np.arange(-K, K + 1)
    coeffs = np.array(
        [(-1.0) ** k * spectrum[k % n] for k in ks], dtype=np.complex128
    )
    c3 = float(np.max(np.abs(coeffs) * (1 + ks.astype(np.float64) ** 2)))
    return harness.AngularFourier(ks, coeffs, c3)


def box_loop_apply_frame(op, grid):
    """FastCollisionOperator.apply_frame with its gain from box_loop_gain."""
    k, side = op.reach, 2 * op.bound + 1
    q = box_loop_gain(op.h, op.R, op.kernel, op.bound, grid)
    q[k : k + side, k : k + side] -= grid * op._loss(grid)
    q *= (2 * op.h) ** 2
    return q


def box_loop_gain(h, R, kernel, bound, grid):
    """Gain of FastCollisionOperator on its frame, without the (2h)^2.

    Per circle, each half point's product is formed on the 2-D box of
    mid-points where both factors lie on the state and added into W with
    one get/add/set per box; a frame-sized product array is allocated per
    circle, and each of the r shifted adds is one channel-weight gemv.
    """
    k = lattice_bound(h, R)
    side = 2 * bound + 1
    width = side + 2 * k
    hi = (side - 1) * width + side  # W is zero past the state's last column
    harmonics = [(m, c) for m, c in enumerate(kernel.cos_coeffs) if c != 0.0 and m % 2 == 0]
    single_channel = [m for m, _ in harmonics] == [0]
    gain = np.zeros(width * width)
    w = np.zeros((side, width))
    w_state = w[:, :side]
    w_flat = w.reshape(-1)[:hi]
    table = circles.circle_table(circle_limit(h, R))
    for n in np.flatnonzero(np.diff(table.starts)).tolist():
        lo, hi_n = int(table.starts[n]), int(table.starts[n + 1])
        xs, ys = table.xs[lo:hi_n], table.ys[lo:hi_n]
        r = hi_n - lo
        q1 = float(h * math.sqrt(n)) ** kernel.alpha
        half = (ys > 0) | ((ys == 0) & (xs > 0))
        inner, outer = [], []
        for m, c in harmonics:
            cos_m, sin_m = int_loop_harmonic_weights(xs, ys, n, m)
            coef = 2 * math.pi / r * q1 * c
            inner.append(2 * cos_m[half])
            outer.append(coef * cos_m)
            if m != 0:
                inner.append(2 * sin_m[half])
                outer.append(coef * sin_m)
        inner = np.array(inner).reshape(-1, r // 2)
        outer = np.array(outer).reshape(-1, r).T
        boxes = []
        for j, (x, y) in enumerate(zip(xs[half].tolist(), ys[half].tolist())):
            ax, ay = abs(x), abs(y)
            if 2 * ax >= side or 2 * ay >= side:
                continue
            boxes.append((
                j,
                (slice(ax, side - ax), slice(ay, side - ay)),
                (slice(ax + x, side - ax + x), slice(ay + y, side - ay + y)),
                (slice(ax - x, side - ax - x), slice(ay - y, side - ay - y)),
            ))
        if not boxes:
            continue
        offsets = ((k - xs) * width + (k - ys)).tolist()
        if single_channel:
            w_state.fill(0.0)
            for _, box, plus, minus in boxes:
                w_state[box] += grid[plus] * grid[minus]
            w_state *= inner[0, 0] * outer[0, 0]  # 2 x circle weight
            for off in offsets:
                gain[off : off + hi] += w_flat
        else:
            n_half = inner.shape[1]
            prods = np.zeros((n_half, side, width))
            for j, box, plus, minus in boxes:
                np.multiply(grid[plus], grid[minus], out=prods[j][box])
            chans = inner @ prods.reshape(n_half, -1)[:, :hi]
            for weights, off in zip(outer, offsets):
                gain[off : off + hi] += weights @ chans
    return gain.reshape(width, width)


def int_loop_harmonic_weights(xs, ys, n, m):
    """cos(m phi), sin(m phi) on the circle x^2 + y^2 = n, as correctly
    rounded quotients of the Python ints Re, Im (x + iy)^m and n^(m/2)."""
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


def csv_writer_circle(pts, fp):
    w = csv.writer(fp)
    w.writerow(["n", "x", "y", "theta"])
    for x, y, t in zip(pts.xs.tolist(), pts.ys.tolist(), pts.angles.tolist()):
        w.writerow([pts.n, x, y, f"{t:.17g}"])


def csv_writer_angle_stats(stats, fp):
    w = csv.writer(fp)
    w.writerow(["X", "k", "mean_abs_S"])
    for x_i, mean_i in stats.decades:
        w.writerow([x_i, stats.k, f"{mean_i:.17g}"])


def csv_writer_figure(data, fp):
    w = csv.writer(fp)
    w.writerow(["zeta1", "zeta2", "n", "r2"])
    for (x, y), n, r in zip(data.points.tolist(), data.n_values.tolist(), data.r_values.tolist()):
        w.writerow([x, y, n, r])


def csv_writer_convergence(study, fp):
    w = csv.writer(fp)
    w.writerow(["h", "Qh", "Qref", "abs_err", "tail_R", "riemann_h", "fourier_tail_M", "equid"])
    for row in study.rows:
        b = row.budget
        w.writerow([f"{x:.17g}" for x in (row.h, row.qh, row.qref, row.abs_err, b.tail_R,
                                          b.riemann_h, b.fourier_tail_M, b.equid)])


def csv_writer_relax(trajectory, fp):
    w = csv.writer(fp)
    w.writerow(["t", "mass", "momentum_x", "momentum_y", "energy", "H"])
    for s in trajectory:
        w.writerow([f"{x:.17g}" for x in (s.t, s.mass, *s.momentum, s.energy, s.H)])


def csv_writer_qh(q, h, fp):
    b = len(q) // 2
    fp.write("# " + json.dumps({"h": h}) + "\n")
    w = csv.writer(fp)
    w.writerow(["zeta_x", "zeta_y", "Qh_value"])
    for ix in range(-b, b + 1):
        for iy in range(-b, b + 1):
            w.writerow([ix, iy, f"{q[ix + b, iy + b]:.17g}"])


def csv_writer_lattice(f, fp):
    fp.write("# " + json.dumps({"h": f.h, "R_support": f.support_radius}) + "\n")
    w = csv.writer(fp)
    w.writerow(["zeta_x", "zeta_y", "value"])
    b = f.bound
    for ix, iy in np.argwhere(f.disk).tolist():
        w.writerow([ix - b, iy - b, f"{f.grid[ix, iy]:.17g}"])
