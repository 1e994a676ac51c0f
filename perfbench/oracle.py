"""Independent reference values for checking the library's outputs.

Nothing here calls into ``uavwpt``: the elliptic integrals, filament
mutual inductances, coil self-inductance, link circuit and breakeven time
are all re-derived so a shared bug cannot pass its own check.

Off-axis mutual inductance uses the single-integral (vector-potential)
form: the closed-form A_phi of each transmit winding is integrated along
the receive filament with the periodic midpoint rule, doubling the point
count until it has converged. This is a different discretisation from the
library's filament double sum, so agreement is a real check.
"""

import csv
import math
from pathlib import Path

import numpy as np

MU0 = 4e-7 * math.pi
E12 = (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)


def _agm_ks(m, kp):
    """K(m) and S(m) = sum_{n>=1} 2^n c_n^2 for parameter m = k^2.

    ``kp`` is the complementary modulus sqrt(1 - m), passed in so callers
    can form it without cancellation. S equals (2 - m) K - 2 E, computed
    without the cancellation that form suffers for small m. Works on
    floats or numpy arrays.
    """
    a = 0.5 * (1.0 + kp)
    b = np.sqrt(kp)
    c = m / (4.0 * a)  # c_1 = (1 - k') / 2
    s = 2.0 * c * c
    weight = 2.0
    for _ in range(40):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (4.0 * a)
        weight *= 2.0
        s = s + weight * c * c
        if np.all(np.abs(c) <= 1e-18 * a):
            break
    return math.pi / (2.0 * a), s


def coaxial_mutual(r1, r2, d):
    """Mutual inductance (H) of coaxial circular filaments d apart (arrays broadcast)."""
    r1, r2, d = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float), np.asarray(d, dtype=float)
    den = (r1 + r2) ** 2 + d * d
    m = 4.0 * r1 * r2 / den
    kp = np.sqrt(((r1 - r2) ** 2 + d * d) / den)
    k_val, s = _agm_ks(m, kp)
    return MU0 * np.sqrt(r1 * r2) * k_val * s / np.sqrt(m)


def coil_mutual_coaxial(tx_radii, rx_radii, d):
    """Summed winding-pair mutual inductance of coaxial coils, per distance in ``d``."""
    a = np.asarray(tx_radii, dtype=float)[:, None, None]
    b = np.asarray(rx_radii, dtype=float)[None, :, None]
    return coaxial_mutual(a, b, np.atleast_1d(d)[None, None, :]).sum(axis=(0, 1))


def coil_l(coil, frequency=6.78e6):
    """Round-wire loop formula with skin factor plus in-plane mutual terms."""
    radii, w = coil.winding_radii, coil.wire
    mu = MU0 * w.relative_permeability_mur
    y = 1.0 / (1.0 + w.radius_a * math.sqrt(mu * w.conductivity_sigma * math.pi * frequency / 4.0))
    total = sum(mu * r * (math.log(8.0 * r / w.radius_a) - 2.0 + 0.25 * y) for r in radii)
    pairs = [(ri, rj) for i, ri in enumerate(radii) for rj in radii[i + 1:]]
    if pairs:
        ri, rj = np.array(pairs).T
        total += 2.0 * float(coaxial_mutual(ri, rj, 0.0).sum())
    return total


def _loop_potential_line_integral(a, pts, dl):
    """oint A . dl of a unit-current loop of radius a (z = 0 plane, centred
    on the z axis) along the sampled path ``pts``/``dl`` (N x 3)."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho2 = x * x + y * y
    rho = np.sqrt(rho2)
    den = (a + rho) ** 2 + z * z
    m = 4.0 * a * rho / den
    kp = np.sqrt(((a - rho) ** 2 + z * z) / den)
    k_val, s = _agm_ks(m, kp)
    # A_phi / rho = mu0 sqrt(den) K S / (4 pi rho^2); phi_hat . dl = (x dly - y dlx) / rho
    cross = x * dl[:, 1] - y * dl[:, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        term = MU0 * np.sqrt(den) * k_val * s * cross / (4.0 * math.pi * rho2)
    term = np.where(rho2 > 0.0, term, 0.0)
    return float(np.sum(term)), float(np.sum(np.abs(term)))


def _receiver_path(r, n, dx, dy, dz, tilt_deg):
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    c, s = np.cos(theta), np.sin(theta)
    t = math.radians(tilt_deg)
    ct, st = math.cos(t), math.sin(t)
    # rotate about the receiver's own x axis, then translate
    pts = np.stack([r * c + dx, r * s * ct + dy, r * s * st + dz], axis=1)
    h = 2.0 * math.pi * r / n
    dl = np.stack([-s * h, c * h * ct, c * h * st], axis=1)
    return pts, dl


def posed_mutual(tx_radii, rx_radii, dx=0.0, dy=0.0, dz=0.0, tilt_deg=0.0):
    """Mutual inductance (H) for a receiver in an arbitrary pose.

    Coaxial poses use the elliptic closed form; others integrate the
    transmit vector potential along each receive winding, doubling the
    point count until two successive sums agree to 1e-14 of the sum of
    absolute terms.
    """
    if dx == 0.0 and dy == 0.0 and tilt_deg == 0.0:
        return float(coil_mutual_coaxial(tx_radii, rx_radii, dz)[0])
    total = 0.0
    for b in rx_radii:
        n = 64
        pts, dl = _receiver_path(b, n, dx, dy, dz, tilt_deg)
        prev = sum(_loop_potential_line_integral(a, pts, dl)[0] for a in tx_radii)
        while True:
            n *= 2
            if n > 1 << 18:
                raise RuntimeError("vector-potential integral did not converge")
            pts, dl = _receiver_path(b, n, dx, dy, dz, tilt_deg)
            parts = [_loop_potential_line_integral(a, pts, dl) for a in tx_radii]
            cur = sum(p[0] for p in parts)
            scale = sum(p[1] for p in parts)
            if abs(cur - prev) <= 1e-14 * scale:
                break
            prev = cur
        total += cur
    return total


# --- resonant link -------------------------------------------------------


def resonant_capacitor(l, f):
    w = 2.0 * math.pi * f
    return 1.0 / (w * w * l)


def nearest_e12(value):
    exponent = math.floor(math.log10(value))
    candidates = [m * 10.0 ** e for e in (exponent - 1, exponent, exponent + 1) for m in E12]
    return min(candidates, key=lambda c: abs(c - value))


def optimal_load_and_eta(l1, l2, k, r1, r2, rs, f):
    """Closed-form optimal load and efficiency of a series-tuned link."""
    w = 2.0 * math.pi * f
    q1, q2 = w * l1 / r1, w * l2 / r2
    rl = math.sqrt(r2 * r2 * (1.0 + k * k * q1 * q2 * r1 / (rs + r1)))
    return rl, tuned_eta(l1, l2, k, r1, r2, rs, rl, f)


def tuned_eta(l1, l2, k, r1, r2, rs, rl, f):
    w = 2.0 * math.pi * f
    qt = w * l1 / (rs + r1)
    qr = w * l2 / (r2 + rl)
    x = k * k * qt * qr
    return rl / (r2 + rl) * x / (1.0 + x)


def mesh_solve(l1, c1, r1, l2, c2, r2, rs, rl, k, f, vs):
    """Phasor solve of the coupled two-mesh T model: (i1, i2, ps, pl)."""
    w = 2.0 * math.pi * f
    xm = w * k * math.sqrt(l1 * l2)
    z1 = complex(rs + r1, w * l1 - 1.0 / (w * c1))
    z2 = complex(r2 + rl, w * l2 - 1.0 / (w * c2))
    det = z1 * z2 + xm * xm
    i1 = vs * z2 / det
    i2 = vs * 1j * xm / det
    return i1, i2, (vs * i1.conjugate()).real, abs(i2) ** 2 * rl


# --- mission and sustainability -----------------------------------------


def load_system_efficiency(root):
    path = Path(root) / "src" / "uavwpt" / "data" / "system_efficiency.csv"
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [(float(r["dz_mm"]), float(r["eff"])) for r in csv.DictReader(lines)]


def interp(table, x):
    for (x0, y0), (x1, y1) in zip(table, table[1:]):
        if x0 <= x <= x1:
            t = (x - x0) / (x1 - x0)
            return y0 * (1 - t) + y1 * t
    raise ValueError(f"{x} outside table")


def breakeven_linear_vs_periodic(a0, rate, b0, per_event, period, horizon):
    """First t in (0, horizon] with a0 + rate t <= b0 + per_event floor(t / period).

    Between events the gap only grows, so the crossing, if any, is at an
    event time n * period.
    """
    if a0 - b0 <= 0:
        return 0.0
    n = 1
    while n * period <= horizon:
        if a0 + rate * n * period - b0 - per_event * n <= 0:
            return n * period
        n += 1
    return None
