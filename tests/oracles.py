"""Differential oracles: retired implementations, and exact references.

``divisor_r2_range`` is r2 over a range from Jacobi's two-square theorem,
r2(n) = 4 sum over d | n of chi_4(d): it walks divisor pairs, not lattice
points, and factorizes nothing.
``exact_abs_S`` is |S(n, k)| from exact Gaussian-integer powers, the
correctness oracle of every |S|.  ``dense_abs_S_segments`` and
``dense_avg_abs_S`` are the float reference that the ``==`` checks of
|S| and of its decade means read: the lattice |S| sum before it skipped
the m whose circle is empty, one value for every m, zeros included, and
one ``math.fsum`` over every m of each decade; they fold the octant of
``circles.annulus_points`` as ``circles.abs_S_sweep`` does, but form each
k's z^k afresh.
``enumerated_figure_data`` is the ``harness.figure_data`` that enumerated
every point-rich circle with ``circle_points`` and filtered it to the box;
it reads r2 from ``divisor_r2_range``.
``all_nodes_angular_integral`` is ``collision.angular_integral`` before it
paired the nodes theta and theta + pi: it forms the gain product at every
node.  ``exact_q`` is no former implementation: it is Q^h from its
definition, exactly, the oracle of both lattice operators.  Each collision
weight is 2 pi / r(|zeta|^2) times q at the exact cosine zeta . zeta' / n,
so for a float state Q^h / (2 pi (2h)^2) is a finite rational sum;
``exact_angular_factor`` is q2 at a rational cosine.
``comprehension_angular_fourier`` is ``harness.angular_fourier`` with its
coefficients built one k at a time by a list comprehension.
``box_loop_gain`` is ``FastCollisionOperator._gain`` before its flat
plan: per circle, products on 2-D boxes of mid-points, a fresh product
array and one gemv per shifted add; ``box_loop_frame`` is Q^h with that
gain on the frame |v| <= bound + R/h, the state's square widened by R/h.  ``int_loop_harmonic_weights`` is
``collision._harmonic_weights`` before it ran the powers in int64 over
all points at once: exact Python ints, one point at a time.
``midpoint_disk`` and ``midpoint_level`` are ``collision.q_reference``'s
rule in w before the polar rule: the midpoints of the n_w x n_w cells of
[-r, r]^2 inside the disk, each of weight step^2.  It converges only
algebraically where the integrand has the |w|^alpha kink at 0.
The ``csv_writer_*`` functions are the table writers before
``dvm2d.tables`` formatted every table with one %-format per chunk of
rows: csv.writer rows of ints and ``f"{x:.17g}"`` strings, the lattice
and Q^h files under a JSON line, and the figure one ``writerow`` per point.
"""

import csv
import functools
import json
import math
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from dvm2d import circles, harness
from dvm2d.collision import (
    ACCUMULATED_OFFSETS,
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


def divisor_r2_range(n_lo, n_hi):
    """r2(n) for n_lo <= n <= n_hi, one int64 array, from Jacobi's two-square theorem.

    r2(n) = 4 sum over d | n of chi(d), chi(d) = +1, 0, -1, 0 at d = 1, 2,
    3, 0 (mod 4) (Hardy & Wright, Thm 278).  Each pair n = d c, d <= c, is
    walked from d <= isqrt(n_hi): the cofactors c >= d of the range are
    consecutive, so chi(d) is one add at step d and chi(c) two, of +1 and
    -1, at step 4d.  At n = d^2 the pair is one divisor, counted twice.
    """
    total = np.zeros(max(n_hi - n_lo + 1, 0), dtype=np.int64)
    for d in range(1, math.isqrt(max(n_hi, 0)) + 1):
        c = max(d, -(-n_lo // d))  # the first cofactor
        chi = (0, 1, 0, -1)[d % 4]
        if chi:
            total[c * d - n_lo :: d] += chi
            if c == d:
                total[d * d - n_lo] -= chi
        for r, sign in ((1, 1), (3, -1)):
            total[(c + (r - c) % 4) * d - n_lo :: 4 * d] += sign
    return 4 * total


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

    Needs 4 | k.  Over the octant x >= 1, 0 <= y <= x, z^4 is formed from
    exact integers and rounded once, and z^|k| is |k| / 4 multiplications
    of ones by it; |S| is 8 |sum of Re z^k - [m = a^2] / 2 - (-1)^(k/4)
    [m = 2 a^2] / 2|, and every m of the segment gets a value, 0 where its
    circle is empty.
    """
    for s in range(1, X + 1, circles.R2_SEGMENT):
        e = min(s + circles.R2_SEGMENT - 1, X)
        r = math.isqrt(e)
        x, count, y = circles.annulus_points(s, e, 0, r)
        x = np.repeat(x, count)
        n = x * x + y * y
        u, v = x * x - y * y, 2 * x * y
        m2 = n * n
        z4 = (u * u - v * v) / m2 + 1j * (2 * u * v / m2)
        w = np.ones(len(n), dtype=np.complex128)
        for _ in range(abs(k) // 4):
            w *= z4
        n -= s
        total = np.bincount(n, w.real, minlength=e - s + 1).astype(np.float64)
        for d, sign in ((1, 1), (2, 1 if k % 8 == 0 else -1)):
            a = np.arange(math.isqrt((s - 1) // d) + 1, math.isqrt(e // d) + 1)
            total[d * a * a - s] -= 0.5 * sign
        yield 8 * np.abs(total)


def _decade_ends(X):
    """circles.avg_abs_S's decade ends: 100, 1000, ... up to X, then X."""
    if X < 100:
        raise PreconditionError(f"avg_abs_S requires X >= 100, got {X}")
    decades = [10**d for d in range(2, 1 + math.floor(math.log10(X)))]
    decades = [d for d in decades if d <= X]
    if not decades or decades[-1] != X:
        decades.append(X)
    return decades


def dense_avg_abs_S(X, k):
    """circles.avg_abs_S with one math.fsum over every m of each decade."""
    decades = _decade_ends(X)
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
    """figure_data by enumerating each circle with divisor_r2_range >= cut."""
    lo, hi = query.coord_min, query.coord_max
    n_lo = max(1, 2 * lo * lo) if lo > 0 else 1
    n_hi = 2 * hi * hi
    cut = query.threshold if query.comparison == "ge" else query.threshold + 1

    pts_x, pts_y, pts_n, pts_r = [], [], [], []
    for off in np.flatnonzero(divisor_r2_range(n_lo, n_hi) >= cut).tolist():
        n = n_lo + off
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


def exact_angular_factor(kernel, c):
    """q2 at the rational cosine c, exactly: sum of c_m T_m(c), each c_m at its exact value."""
    total, t_prev, t = Fraction(0), Fraction(1), c  # T_0(c), T_1(c)
    for cm in kernel.cos_coeffs:
        total += Fraction(cm) * t_prev
        t_prev, t = t, 2 * c * t - t_prev
    return total


def exact_q(grid, h, R, kernel, zx, zy):
    """(Q^h(f, f), its gross magnitude) / (2 pi (2h)^2) at the integer
    velocities (zx, zy), as Fractions (object arrays for array zx, zy).

    f = grid[ix + bound, iy + bound], 0 off that square, at its exact float
    values.  Per circle |zeta|^2 = n <= (R/h)^2 (a scan of |zeta| <= R/h),
    the sum over every (zeta, zeta') of (f(v') f(v*') - f(v) f(v*)) q2(zeta
    . zeta' / n) is exact, and q1(h sqrt n), the float the operators use,
    and 1 / r(n) multiply it; the gross magnitude sums |q2| (|f(v') f(v*')|
    + |f(v) f(v*)|).  The state times one power of two is integer, so the
    sums run on Python ints.
    """
    zx, zy = np.broadcast_arrays(np.asarray(zx, dtype=np.int64), np.asarray(zy, dtype=np.int64))
    limit = circle_limit(h, R)
    k = math.isqrt(limit)
    circles_by_n = {}
    for x in range(-k, k + 1):
        for y in range(-k, k + 1):
            if 0 < x * x + y * y <= limit:
                circles_by_n.setdefault(x * x + y * y, []).append((x, y))
    b = len(grid) // 2
    ratios = [value.as_integer_ratio() for value in np.ravel(grid).tolist()]
    scale = max(den for _, den in ratios)  # a power of two
    pad = max(b, int(np.abs(zx).max(initial=0)), int(np.abs(zy).max(initial=0))) + 2 * k
    ints = np.zeros((2 * pad + 1,) * 2, dtype=object)
    ints[pad - b : pad + b + 1, pad - b : pad + b + 1] = np.reshape(
        np.array([num * (scale // den) for num, den in ratios], dtype=object), np.shape(grid)
    )

    @functools.cache
    def at(dx, dy):  # scale * f(v + (dx, dy)), Python ints
        return ints[zx + dx + pad, zy + dy + pad]

    q2 = {}  # by the cosine
    terms = []  # (q1 q2 / r(n), sum of gain - loss, sum of |gain| + |loss|) per (n, zeta . zeta')
    for n, points in circles_by_n.items():
        net, mag = {}, {}
        for x, y in points:
            loss = at(0, 0) * at(2 * x, 2 * y)
            for px, py in points:
                gain = at(x + px, y + py) * at(x - px, y - py)
                d = x * px + y * py
                net[d] = net.get(d, 0) + (gain - loss)
                mag[d] = mag.get(d, 0) + (abs(gain) + abs(loss))
        q1 = Fraction(float(kernel.speed_factor(h * math.sqrt(n)))) / len(points)
        for d in net:
            c = Fraction(d, n)
            if c not in q2:
                q2[c] = exact_angular_factor(kernel, c)
            terms.append((q1 * q2[c], net[d], mag[d]))
    # Over one common denominator the sums stay Python ints.
    den = math.lcm(*(w.denominator for w, _, _ in terms))
    zero = np.zeros(zx.shape, dtype=object)
    value = sum((w.numerator * (den // w.denominator) * s for w, s, _ in terms), zero)
    gross = sum((abs(w.numerator) * (den // w.denominator) * m for w, _, m in terms), zero)
    exact = np.frompyfunc(lambda total: Fraction(total, den * scale * scale), 1, 1)
    return exact(value), exact(gross)


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


def box_loop_frame(op, grid):
    """Q^h of op's state on its frame |v| <= bound + R/h, with the gain from
    box_loop_gain and the loss from op._loss."""
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
    circle, and each of the r shifted adds is one channel-weight gemv.  A
    single channel sums in the operator's order: W of the points (a, b),
    0 < a <= ACCUMULATED_OFFSETS, into a frame-sized array per a, added at
    the rows -a, then +a, after the last circle.
    """
    k = lattice_bound(h, R)
    side = 2 * bound + 1
    width = side + 2 * k
    hi = (side - 1) * width + side  # W is zero past the state's last column
    harmonics = [(m, c) for m, c in enumerate(kernel.cos_coeffs) if c != 0.0 and m % 2 == 0]
    single_channel = [m for m, _ in harmonics] == [0]
    gain = np.zeros(width * width)
    accumulators = {}  # a: the single channel's W of the points (a, b), 0 < a
    w = np.zeros((side, width))
    w_state = w[:, :side]
    w_flat = w.reshape(-1)[:hi]
    table = circles.circle_table(circle_limit(h, R))
    for n in np.flatnonzero(np.diff(table.starts)).tolist():
        lo, hi_n = int(table.starts[n]), int(table.starts[n + 1])
        xs, ys = table.xs[lo:hi_n], table.ys[lo:hi_n]
        r = hi_n - lo
        q1 = float(kernel.speed_factor(h * math.sqrt(n)))
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
            for x, y, off in zip(xs.tolist(), ys.tolist(), offsets):
                if not 0 < abs(x) <= ACCUMULATED_OFFSETS:
                    gain[off : off + hi] += w_flat
                elif x > 0:  # W shifted by columns only; rows k + i
                    at = k * width + k - y
                    accumulators.setdefault(x, np.zeros(width * width))[at : at + hi] += w_flat
        else:
            n_half = inner.shape[1]
            prods = np.zeros((n_half, side, width))
            for j, box, plus, minus in boxes:
                np.multiply(grid[plus], grid[minus], out=prods[j][box])
            chans = inner @ prods.reshape(n_half, -1)[:, :hi]
            for weights, off in zip(outer, offsets):
                gain[off : off + hi] += weights @ chans
    # Each accumulator to the rows of the points (a, b), then of (-a, b).
    for a, acc in sorted(accumulators.items()):
        gain[: -a * width] += acc[a * width :]
        gain[a * width :] += acc[: -a * width]
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
