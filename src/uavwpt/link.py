"""Series-series resonant link analysis.

Covers tank tuning, quality factors, the closed-form link efficiency and
its optimal load, a full phasor mesh solve of the coupled two-loop
T-model, source-voltage sizing, coupling-induced detuning diagnosis, and
maximum-efficiency sweeps over misalignment.

Phasor convention: RMS amplitudes, P = |I|^2 R.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .coils import OperatingPoint, coil_self_inductance, effective_inductance
from .coupling import Pose, _mutuals, coupling_factor
from .errors import InfeasibleError, NumericalError, WptError

__all__ = [
    "TankCircuit",
    "LinkCircuit",
    "LinkSolution",
    "QualityFactors",
    "resonant_capacitor",
    "snap_to_e12",
    "quality_factors",
    "link_efficiency",
    "optimal_load",
    "solve_link",
    "required_source_voltage",
    "detuning_report",
    "max_link_efficiency",
    "max_efficiency_map",
    "series_tuned_link",
]

# measured tank parameters of the prototype at 6.78 MHz:
# transmitter coil 0.1 + j84 ohm, receiver coil 1 + j143 ohm, ideal source
MEASURED_TX_REACTANCE = 84.0
MEASURED_RX_REACTANCE = 143.0
MEASURED_TX_ESR = 0.1
MEASURED_RX_ESR = 1.0
MEASURED_SOURCE_RESISTANCE = 0.0


@dataclass(frozen=True)
class TankCircuit:
    """Series LC tank with its coil equivalent series resistance."""

    inductance_L: float
    capacitance_C: float
    esr_R: float

    def __post_init__(self):
        if self.inductance_L <= 0 or self.capacitance_C <= 0 or self.esr_R <= 0:
            raise WptError("tank L, C and ESR must all be > 0")

    @property
    def resonance_frequency(self):
        return 1.0 / (2.0 * math.pi * math.sqrt(self.inductance_L * self.capacitance_C))


@dataclass(frozen=True)
class LinkCircuit:
    """Series-series resonant link: source, two tanks, coupling, load."""

    source_resistance_RS: float
    tx: TankCircuit
    rx: TankCircuit
    coupling_k: float
    load_RL: float
    frequency_f: float

    def __post_init__(self):
        if self.source_resistance_RS < 0:
            raise WptError("source resistance must be >= 0")
        if not 0 <= self.coupling_k < 1:
            raise WptError("coupling factor must satisfy 0 <= k < 1")
        if self.load_RL <= 0:
            raise WptError("load must be > 0")
        if self.frequency_f <= 0:
            raise WptError("frequency must be > 0")

    @property
    def omega(self):
        return 2.0 * math.pi * self.frequency_f

    @property
    def mutual_inductance(self):
        return self.coupling_k * math.sqrt(self.tx.inductance_L * self.rx.inductance_L)


@dataclass(frozen=True)
class LinkSolution:
    """Mesh-solve result: RMS current phasors, powers and efficiency."""

    primary_current: complex
    secondary_current: complex
    input_power_PS: float
    load_power_PL: float
    efficiency: float


class QualityFactors(NamedTuple):
    q_transmitter: float  # loaded by the source resistance
    q_receiver: float  # loaded by the load resistance
    q1: float  # coil-only, transmitter
    q2: float  # coil-only, receiver


def resonant_capacitor(inductance, f0):
    """Series capacitance tuning ``inductance`` to resonance at ``f0``."""
    if inductance <= 0 or f0 <= 0:
        raise WptError("inductance and frequency must be > 0")
    w0 = 2.0 * math.pi * f0
    return 1.0 / (w0 * w0 * inductance)


_E12 = (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)


def snap_to_e12(value):
    """Nearest E12 standard component value (any positive quantity)."""
    if value <= 0:
        raise WptError("value must be > 0")
    exponent = math.floor(math.log10(value))
    candidates = [m * 10.0**e for e in (exponent - 1, exponent, exponent + 1) for m in _E12]
    return min(candidates, key=lambda c: abs(c - value))


def quality_factors(link):
    """Loaded and coil-only quality factors at the link frequency."""
    w = link.omega
    qt = w * link.tx.inductance_L / (link.source_resistance_RS + link.tx.esr_R)
    q2 = w * link.rx.inductance_L / link.rx.esr_R
    qr = w * link.rx.inductance_L / (link.rx.esr_R + link.load_RL)
    q1 = w * link.tx.inductance_L / link.tx.esr_R
    return QualityFactors(qt, qr, q1, q2)


def link_efficiency(link):
    """Closed-form link efficiency of the tuned series-series circuit.

    eta = [RL / (R2 + RL)] * [k^2 Qt Qr / (1 + k^2 Qt Qr)]
    (valid when both tanks are resonant at the operating frequency; use
    :func:`detuning_report` / :func:`solve_link` otherwise).
    """
    q = quality_factors(link)
    k2qq = link.coupling_k**2 * q.q_transmitter * q.q_receiver
    return (link.load_RL / (link.rx.esr_R + link.load_RL)) * (k2qq / (1.0 + k2qq))


def optimal_load(link):
    """Load resistance maximizing the tuned link efficiency.

    RL_opt = sqrt(R2^2 * (1 + k^2 Q1 Q2 * R1 / (RS + R1))).
    """
    q = quality_factors(link)
    r1, r2 = link.tx.esr_R, link.rx.esr_R
    factor = link.coupling_k**2 * q.q1 * q.q2 * r1 / (link.source_resistance_RS + r1)
    return math.sqrt(r2 * r2 * (1.0 + factor))


def solve_link(link, source_voltage_VS):
    """Solve the two coupled mesh equations of the T-model at the
    operating frequency and return phasor currents and powers.

    Works for detuned tanks too; at exact resonance the efficiency matches
    the closed form to machine precision.
    """
    if source_voltage_VS < 0:
        raise WptError("source voltage must be >= 0")
    w = link.omega
    xm = w * link.mutual_inductance
    z1 = complex(
        link.source_resistance_RS + link.tx.esr_R,
        w * link.tx.inductance_L - 1.0 / (w * link.tx.capacitance_C),
    )
    z2 = complex(
        link.rx.esr_R + link.load_RL,
        w * link.rx.inductance_L - 1.0 / (w * link.rx.capacitance_C),
    )
    # [z1, -j xm; -j xm, z2] [i1; i2] = [VS; 0]
    det = z1 * z2 + xm * xm
    if det == 0:
        raise NumericalError("singular mesh system")
    i1 = source_voltage_VS * z2 / det
    i2 = source_voltage_VS * 1j * xm / det
    ps = (source_voltage_VS * i1.conjugate()).real
    pl = abs(i2) ** 2 * link.load_RL
    eta = pl / ps if ps > 0 else 0.0
    return LinkSolution(i1, i2, ps, pl, eta)


def required_source_voltage(link, target_PL):
    """RMS source voltage delivering ``target_PL`` watts into the load.

    Uses linearity: power scales with VS^2, so one unit solve suffices.
    """
    if target_PL < 0:
        raise WptError("target load power must be >= 0")
    if target_PL == 0:
        return 0.0
    if link.coupling_k == 0:
        raise InfeasibleError("no power reaches the load at k = 0")
    unit = solve_link(link, 1.0)
    if unit.load_power_PL <= 0:
        raise InfeasibleError("load receives no power in this configuration")
    return math.sqrt(target_PL / unit.load_power_PL)


class DetuningReport(NamedTuple):
    effective_f0_tx: float
    effective_f0_rx: float
    relative_shift: float
    efficiency_penalty: float


def detuning_report(link):
    """Resonance shift and efficiency penalty caused by coupling.

    The coupled coils present L * (1 - k^2) to their tanks, moving both
    resonances up by the factor 1 / sqrt(1 - k^2). The penalty compares
    the mesh-solved efficiency of the detuned circuit (capacitors still
    tuned for the isolated inductances) against the tuned one, both at the
    link's operating frequency.
    """
    k = link.coupling_k
    shift = 1.0 / math.sqrt(1.0 - k * k) - 1.0
    f_tx = link.tx.resonance_frequency * (1.0 + shift)
    f_rx = link.rx.resonance_frequency * (1.0 + shift)
    if k == 0:
        return DetuningReport(f_tx, f_rx, 0.0, 0.0)
    detuned = LinkCircuit(
        link.source_resistance_RS,
        TankCircuit(
            effective_inductance(link.tx.inductance_L, k),
            link.tx.capacitance_C,
            link.tx.esr_R,
        ),
        TankCircuit(
            effective_inductance(link.rx.inductance_L, k),
            link.rx.capacitance_C,
            link.rx.esr_R,
        ),
        k,
        link.load_RL,
        link.frequency_f,
    )
    eta_detuned = solve_link(detuned, 1.0).efficiency
    eta_tuned = solve_link(link, 1.0).efficiency
    penalty = 1.0 - eta_detuned / eta_tuned if eta_tuned > 0 else 0.0
    return DetuningReport(f_tx, f_rx, shift, penalty)


def series_tuned_link(l1, l2, k, load_RL, r1=MEASURED_TX_ESR, r2=MEASURED_RX_ESR,
                      rs=MEASURED_SOURCE_RESISTANCE, frequency=6.78e6):
    """Convenience constructor: both tanks series-tuned exactly at ``frequency``."""
    return LinkCircuit(
        rs,
        TankCircuit(l1, resonant_capacitor(l1, frequency), r1),
        TankCircuit(l2, resonant_capacitor(l2, frequency), r2),
        k,
        load_RL,
        frequency,
    )


def max_link_efficiency(l1, l2, k, r1=MEASURED_TX_ESR, r2=MEASURED_RX_ESR,
                        rs=MEASURED_SOURCE_RESISTANCE, frequency=6.78e6):
    """Peak attainable efficiency at optimal load. Returns (eta, RL_opt)."""
    if k == 0:
        return 0.0, r2
    probe = series_tuned_link(l1, l2, k, r2, r1, r2, rs, frequency)
    rl_opt = optimal_load(probe)
    tuned = series_tuned_link(l1, l2, k, rl_opt, r1, r2, rs, frequency)
    return link_efficiency(tuned), rl_opt


def max_efficiency_map(tx, rx, dz, lateral_list, circuit_esr,
                       frequency=6.78e6, disc=None):
    """Maximum-efficiency sweep over lateral offset at fixed vertical distance.

    ``circuit_esr`` is the (R1, R2, RS) triple; coil inductances come from
    the coil model and coupling from the filament mutual inductance: with
    ``disc=None`` (default) all offsets go to the converged single-integral
    kernel in one array call, and each k equals the one-pose
    :func:`~uavwpt.coupling.neumann_mutual` value; an explicit
    :class:`~uavwpt.coupling.LoopDiscretization` evaluates the
    fixed-segment double sum per offset. Returns a list of
    (lateral_offset, k, RL_opt, eta_max) rows.
    """
    r1, r2, rs = circuit_esr
    op = OperatingPoint(frequency)
    l1 = coil_self_inductance(tx, op)
    l2 = coil_self_inductance(rx, op)
    poses = [Pose(dx=off, dz=dz) for off in lateral_list]
    rows = []
    for off, m in zip(lateral_list, _mutuals(tx, rx, poses, disc)):
        k = coupling_factor(l1, l2, m)
        eta, rl_opt = max_link_efficiency(l1, l2, abs(k), r1, r2, rs, frequency)
        rows.append((off, k, rl_opt, eta))
    return rows
