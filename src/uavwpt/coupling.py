"""Coupling factor between two planar coils under misalignment.

Two evaluation paths:

* coaxial: closed-form filament mutual inductance per winding pair (fast,
  exact for perfectly aligned coils);
* general: M = oint_tx A_rx . dl, the closed-form vector potential A_phi
  of each receive winding (complete elliptic integrals from a vectorised
  AGM) integrated along each transmit winding, expressed in the receiver
  frame. Valid for lateral and angular misalignment and sign-carrying for
  reversed orientation. The periodic trapezoid rule converges spectrally
  on this integrand, so the point count doubles from 32 until the sum
  changes by at most 1e-13 of its sum of absolute terms; each pose stops
  on its own, and sweeps evaluate all their poses in one array call.

An explicit :class:`LoopDiscretization` selects the midpoint-rule
filament double sum M = (mu0 / 4 pi) oint oint dl1 . dl2 / |x1 - x2|
with a fixed segment count instead; it converges to the same value.

Grid sweeps are deterministic and embarrassingly parallel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coils import (
    MU0,
    OperatingPoint,
    coaxial_mutual_inductance,
    coil_self_inductance,
    effective_inductance,
)
from .errors import (
    GeometryError,
    NumericalError,
    PhysicalityError,
    SingularityError,
    WptError,
)
from .numerics import _agm_ks

__all__ = [
    "Pose",
    "LoopDiscretization",
    "neumann_mutual",
    "coupling_factor",
    "coupling_vs_distance",
    "misalignment_grid",
]

# Default kernel: the point count per winding doubles from _N_START until
# the sum changes by at most _REL_CHANGE times the sum of absolute terms.
# Round-off in that sum is ~1e-16 of it, so the test stays resolvable.
_N_START = 32
_N_MAX = 1 << 16
_REL_CHANGE = 1e-13
_CHUNK_TERMS = 1 << 18


@dataclass(frozen=True)
class Pose:
    """Receiver placement relative to the transmitter coil center.

    ``dx``/``dy`` are lateral offsets, ``dz`` the vertical separation (m);
    ``tilt_deg`` rotates the receiver plane about its own x-axis
    (its own diameter), applied at the receiver center.
    """

    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0
    tilt_deg: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dx, self.dy, self.dz, self.tilt_deg))):
            raise GeometryError(f"pose fields must be finite: {self}")


@dataclass(frozen=True)
class LoopDiscretization:
    """Fixed segment count per winding for the filament double sum.

    Passing one as ``disc`` selects the midpoint-rule double sum with
    ``segments_per_turn`` segments per winding, O(n^2) per winding pair.
    ``disc=None``, the default everywhere, selects the converged
    single-integral kernel instead.
    """

    segments_per_turn: int = 720

    def __post_init__(self):
        if self.segments_per_turn < 36:
            raise WptError("segments_per_turn must be >= 36")


def _loop_segments(radius, n):
    """Midpoints and tangent vectors (length-weighted) of a discretized circle."""
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    pts = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), np.zeros(n)], axis=1
    )
    dl = np.stack([-np.sin(theta), np.cos(theta), np.zeros(n)], axis=1) * (
        2.0 * math.pi * radius / n
    )
    return pts, dl


def _pose_transform(pts, dl, pose):
    t = math.radians(pose.tilt_deg)
    if t != 0.0:
        rot = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.cos(t), -math.sin(t)],
                [0.0, math.sin(t), math.cos(t)],
            ]
        )
        pts = pts @ rot.T
        dl = dl @ rot.T
    return pts + np.array([pose.dx, pose.dy, pose.dz]), dl


def _level_sums(a, b, geometry, theta, guard):
    """Sum and sum of |terms| per pose of A_rx . dl at the transmit angles ``theta``.

    Axes are (pose, transmit winding, receive winding, sample). Each term
    is A_phi of a unit-current receive winding of radius ``b`` times
    phi_hat . dl, at a point of the transmit winding of radius ``a``
    expressed in the receiver frame, per unit angle and without mu0/4pi.
    """
    dx, dy, dz, ct, st = geometry
    cos, sin = np.cos(theta), np.sin(theta)
    # receiver frame: subtract the receiver centre, rotate by -tilt about x
    x = a * cos - dx
    y_off = a * sin - dy
    y = ct * y_off - st * dz
    z = (-st * y_off - ct * dz)[:, :, None, :]
    rho2 = (x * x + y * y)[:, :, None, :]
    # x dl_y - y dl_x for dl = a (-sin, ct cos, -st cos) dtheta in that frame
    cross = (a * (ct * x * cos + y * sin))[:, :, None, :]
    rho = np.sqrt(rho2)
    # distance of each sample to the receive filament, exactly
    dist = np.sqrt((rho - b) ** 2 + z * z)
    if dist.min() < guard:
        raise SingularityError("filaments intersect or nearly touch under this pose")
    den = (b + rho) ** 2 + z * z
    sden = np.sqrt(den)
    k_val, s_val = _agm_ks(4.0 * b * rho / den, dist / sden)
    # A_phi = sqrt(den) K S / rho (times mu0/4pi); the term is 0 on the
    # receiver axis, where S and cross vanish with rho
    terms = sden * k_val * s_val * cross / np.where(rho2 > 0.0, rho2, 1.0)
    return terms.sum(axis=(1, 2, 3)), np.abs(terms).sum(axis=(1, 2, 3))


def _posed_mutuals(tx, rx, poses):
    """Mutual inductance (H) of ``tx`` and ``rx`` at each of ``poses``.

    Evaluates M = oint_tx A_rx . dl: the closed-form vector potential of
    each receive winding, integrated along each transmit winding. The
    periodic trapezoid rule converges spectrally here; samples nest, so
    each doubling of the point count adds only the new midpoints. Each
    pose doubles from _N_START points until its sum changes by at most
    _REL_CHANGE times its sum of absolute terms.
    """
    a = np.array(tx.winding_radii)[None, :, None]
    b = np.array(rx.winding_radii)[None, None, :, None]
    guard = max(tx.wire.radius_a, rx.wire.radius_a)
    dx, dy, dz, tilt = np.array(
        [(p.dx, p.dy, p.dz, math.radians(p.tilt_deg)) for p in poses]
    ).reshape(-1, 4).T[:, :, None, None]
    geometry = (dx, dy, dz, np.cos(tilt), np.sin(tilt))
    total = np.zeros(len(poses))
    total_abs = np.zeros(len(poses))
    estimate = np.full(len(poses), np.nan)
    active = np.arange(len(poses))
    theta = np.arange(_N_START) * (2.0 * math.pi / _N_START)
    n = 0
    while active.size:
        # chunk the poses so that temporaries stay near _CHUNK_TERMS terms
        step = max(1, _CHUNK_TERMS // (a.size * b.size * theta.size))
        for lo in range(0, active.size, step):
            idx = active[lo : lo + step]
            part, part_abs = _level_sums(a, b, [g[idx] for g in geometry], theta, guard)
            total[idx] += part
            total_abs[idx] += part_abs
        n += theta.size
        h = 2.0 * math.pi / n
        change = np.abs(total[active] * h - estimate[active])
        estimate[active] = total[active] * h
        # NaN compares False here, so a NaN sum never counts as converged
        active = active[~(change <= _REL_CHANGE * h * total_abs[active])]
        if active.size and n >= _N_MAX:
            raise NumericalError(
                f"filament integral for {poses[active[0]]} did not converge "
                f"within {n} points",
                best_estimate=float(MU0 / (4.0 * math.pi) * estimate[active[0]]),
            )
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return MU0 / (4.0 * math.pi) * estimate


def neumann_mutual(tx, rx, pose, disc=None):
    """Mutual inductance (H) between two coils in an arbitrary pose.

    ``disc=None`` (default) gives the converged value: the closed-form
    vector potential of each receive winding integrated along each
    transmit winding, with the point count doubled until it has converged
    (:class:`NumericalError` carrying the best estimate if it has not at
    2**16 points). An explicit :class:`LoopDiscretization` instead gives
    the midpoint-rule filament double sum with that many segments per
    winding, summed over all winding pairs. Either way sign-carrying: a
    receiver flipped by 180 degrees yields the negated coaxial value.
    Raises :class:`SingularityError` if the filaments come closer than the
    larger wire radius: a transmit sample to a receive winding (default)
    or a segment midpoint to one of the other coil (double sum).
    """
    if disc is None:
        return _posed_mutuals(tx, rx, [pose])[0]
    n = disc.segments_per_turn
    guard = max(tx.wire.radius_a, rx.wire.radius_a)
    rx_loops = []
    for r in rx.winding_radii:
        pts, dl = _loop_segments(r, n)
        rx_loops.append(_pose_transform(pts, dl, pose))
    total = 0.0
    for r_t in tx.winding_radii:
        pts1, dl1 = _loop_segments(r_t, n)
        for pts2, dl2 in rx_loops:
            diff = pts1[:, None, :] - pts2[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            if dist.min() < guard:
                raise SingularityError(
                    "filaments intersect or nearly touch under this pose"
                )
            total += np.sum((dl1 @ dl2.T) / dist)
    return MU0 / (4.0 * math.pi) * total


def _mutuals(tx, rx, poses, disc):
    """Mutual inductance per pose: one batched call by default, else double sums."""
    if disc is None:
        return _posed_mutuals(tx, rx, poses)
    return [neumann_mutual(tx, rx, pose, disc) for pose in poses]


def coupling_factor(l1, l2, m):
    """k = M / sqrt(L1 * L2); must satisfy |k| < 1 for passive coils."""
    if l1 <= 0 or l2 <= 0:
        raise WptError("self-inductances must be > 0")
    k = m / math.sqrt(l1 * l2)
    if abs(k) >= 1.0:
        raise PhysicalityError(f"|M| >= sqrt(L1 L2): k = {k}")
    return k


def _coaxial_coil_mutual(tx, rx, dz):
    return sum(
        coaxial_mutual_inductance(r_t, r_r, dz)
        for r_t in tx.winding_radii
        for r_r in rx.winding_radii
    )


def coupling_vs_distance(tx, rx, dz_list, op=OperatingPoint()):
    """Coaxial sweep: per distance, (dz, k, receiver effective inductance).

    The effective inductance is the isolated receiver self-inductance
    scaled by (1 - k^2), reproducing the distance-dependent detuning of
    the receiver tank.
    """
    if not dz_list:
        raise WptError("dz_list must be non-empty")
    if any(dz <= 0 for dz in dz_list):
        raise GeometryError("all coil-to-coil distances must be > 0")
    l1 = coil_self_inductance(tx, op)
    l2 = coil_self_inductance(rx, op)
    out = []
    for dz in dz_list:
        k = coupling_factor(l1, l2, _coaxial_coil_mutual(tx, rx, dz))
        out.append((dz, k, effective_inductance(l2, k)))
    return out


def misalignment_grid(
    tx,
    rx,
    dz_list,
    lateral_list=None,
    tilt_list=None,
    disc=None,
    op=OperatingPoint(),
):
    """Coupling-factor grid over vertical distance x (lateral | angular) offset.

    Exactly one of ``lateral_list`` (m) or ``tilt_list`` (degrees) must be
    given. Returns a (len(dz_list), len(offsets)) array of k. With
    ``disc=None`` (default) every pose goes to the converged
    single-integral kernel in one array call, and each value equals
    :func:`neumann_mutual` for that pose; an explicit
    :class:`LoopDiscretization` evaluates the fixed-segment double sum
    pose by pose.
    """
    if (lateral_list is None) == (tilt_list is None):
        raise WptError("provide exactly one of lateral_list or tilt_list")
    l1 = coil_self_inductance(tx, op)
    l2 = coil_self_inductance(rx, op)
    if lateral_list is not None:
        offsets = lateral_list
        poses = [Pose(dx=off, dz=dz) for dz in dz_list for off in offsets]
    else:
        offsets = tilt_list
        poses = [Pose(dz=dz, tilt_deg=off) for dz in dz_list for off in offsets]
    grid = np.empty((len(dz_list), len(offsets)))
    for idx, m in enumerate(_mutuals(tx, rx, poses, disc)):
        grid.flat[idx] = coupling_factor(l1, l2, m)
    return grid
