"""Shared numerical kernels.

Complete elliptic integrals (AGM fast path), adaptive Simpson quadrature
(used as an independent oracle for the elliptic integrals and for the
filament double integral), and deterministic bracketed root finding.

All functions are pure; there is no shared mutable state.
"""

import math
from dataclasses import dataclass

from .errors import BracketingError, NumericalError, WptError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "elliptic_k",
    "elliptic_e",
    "integrate",
    "find_crossing",
]


@dataclass(frozen=True)
class Tolerance:
    """Convergence control for iterative numerics.

    At least one of ``absolute``/``relative`` must be strictly positive.
    ``max_iterations`` bounds recursion depth (quadrature) or bisection
    steps (root finding).
    """

    absolute: float = 1e-12
    relative: float = 1e-10
    max_iterations: int = 60

    def __post_init__(self):
        if self.absolute < 0 or self.relative < 0:
            raise WptError("tolerances must be non-negative")
        if self.absolute == 0 and self.relative == 0:
            raise WptError("at least one of absolute/relative must be > 0")
        if self.max_iterations < 1:
            raise WptError("max_iterations must be >= 1")


DEFAULT_TOLERANCE = Tolerance()


def _agm_ke(s):
    """AGM iteration returning (K(s), E(s)) for modulus 0 <= s < 1."""
    a, b = 1.0, math.sqrt(1.0 - s * s)
    c = s
    weight = 0.5
    c_sum = weight * c * c
    for _ in range(64):
        if abs(c) <= 1e-17 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        c_sum += weight * c * c
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - c_sum)


def _agm_ks(m, kp):
    """Elementwise AGM on numpy arrays: (K, S) for parameter m = s^2.

    ``kp`` is the complementary modulus sqrt(1 - m), which callers can
    form without cancellation near m = 1. S = sum_{n>=1} 2^n c_n^2, so
    (2 - m) K - 2 E = K S without the cancellation that difference
    suffers for small m. c_{n+1} = c_n^2 / (4 a_{n+1}), so once every
    c_n <= 1e-9 a_n the remaining corrections to a and S are below 1e-18
    relative.
    """
    import numpy as np

    a = 0.5 * (1.0 + kp)
    b = np.sqrt(kp)
    c = 0.25 * m / a  # c_1 = (1 - kp) / 2
    weight = 2.0
    s = weight * c * c
    for _ in range(64):
        if np.all(c <= 1e-9 * a):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = 0.25 * c * c / a
        weight *= 2.0
        s += weight * c * c
    return math.pi / (2.0 * a), s


def elliptic_k(s):
    """Complete elliptic integral of the first kind, modulus convention.

    K(s) = integral_0^{pi/2} dtheta / sqrt(1 - s^2 sin^2 theta).
    Diverges logarithmically as s -> 1.
    """
    if s < 0 or s >= 1:
        raise WptError(f"modulus must satisfy 0 <= s < 1, got {s}")
    return _agm_ke(s)[0]


def elliptic_e(s):
    """Complete elliptic integral of the second kind, modulus convention.

    E(s) = integral_0^{pi/2} sqrt(1 - s^2 sin^2 theta) dtheta.
    """
    if s < 0 or s > 1:
        raise WptError(f"modulus must satisfy 0 <= s <= 1, got {s}")
    if s == 1.0:
        return 1.0
    return _agm_ke(s)[1]


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f, a, b, tol=DEFAULT_TOLERANCE):
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    Interval bisection with the classic 1/15 Richardson error estimate.
    Raises :class:`NumericalError` (carrying the best estimate) if the
    recursion depth budget ``tol.max_iterations`` is exhausted anywhere.
    """
    if a > b:
        raise WptError("integration requires a <= b")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)

    def adaptive(a, fa, b, fb, m, fm, whole, abs_tol, depth):
        lm, flm, left = _simpson(f, a, fa, m, fm)
        rm, frm, right = _simpson(f, m, fm, b, fb)
        delta = left + right - whole
        budget = abs_tol + tol.relative * abs(left + right)
        if abs(delta) <= 15.0 * budget:
            return left + right + delta / 15.0
        if depth >= tol.max_iterations:
            raise NumericalError(
                f"quadrature did not converge within depth {tol.max_iterations}",
                best_estimate=left + right + delta / 15.0,
            )
        return adaptive(a, fa, m, fm, lm, flm, left, abs_tol / 2.0, depth + 1) + adaptive(
            m, fm, b, fb, rm, frm, right, abs_tol / 2.0, depth + 1
        )

    return adaptive(a, fa, b, fb, m, fm, whole, tol.absolute, 0)


def find_crossing(f, lo, hi, tol=DEFAULT_TOLERANCE):
    """Deterministic bisection root finder on ``[lo, hi]``.

    Requires a sign change (``f(lo) * f(hi) <= 0``). Returns the bracket
    midpoint once the bracket is narrower than the tolerance.
    """
    if lo > hi:
        raise WptError("bracket requires lo <= hi")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketingError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(max(tol.max_iterations, 60)):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width <= tol.absolute + tol.relative * abs(mid):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
