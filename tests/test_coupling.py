"""Coupling factor: coaxial sweeps, filament double integral, misalignment."""

import math
import random

import numpy as np
import pytest

from uavwpt.coils import (
    OperatingPoint,
    PlanarCoil,
    WireSpec,
    coaxial_mutual_inductance,
    coil_self_inductance,
)
from uavwpt.coupling import (
    LoopDiscretization,
    Pose,
    coupling_factor,
    coupling_vs_distance,
    misalignment_grid,
    neumann_mutual,
)
from uavwpt.errors import (
    GeometryError,
    NumericalError,
    PhysicalityError,
    SingularityError,
    WptError,
)
from uavwpt.link import max_efficiency_map
from uavwpt.presets import COILS

OP = OperatingPoint()
TX = COILS["default-uav"]

# published coupling-factor coordinates of the receive-coil study
# (digitized curves; this model reproduces them to ~1e-4 relative)
STUDY_K = {
    "d75w4": [0.147390714, 0.075932284, 0.027916606, 0.011778231, 0.005789029],
    "d100w4": [0.245296167, 0.110924996, 0.04028655, 0.017253615, 0.008581866],
    "d125w4": [0.396725941, 0.142531452, 0.051778514, 0.0226555, 0.0114453],
    "d150w4": [0.775946757, 0.165203676, 0.061508011, 0.027688345, 0.014255924],
}
STUDY_DZ = [1e-3, 50e-3, 100e-3, 150e-3, 200e-3]


class TestCouplingFactor:
    def test_definition(self):
        assert coupling_factor(4e-6, 1e-6, 1e-6) == pytest.approx(0.5)

    def test_sign_carries(self):
        assert coupling_factor(4e-6, 1e-6, -1e-6) == pytest.approx(-0.5)

    def test_rejects_unphysical(self):
        with pytest.raises(PhysicalityError):
            coupling_factor(1e-6, 1e-6, 1.5e-6)

    def test_rejects_bad_inductance(self):
        with pytest.raises(WptError):
            coupling_factor(0.0, 1e-6, 1e-7)


class TestCoaxialSweep:
    @pytest.mark.parametrize("name", sorted(STUDY_K))
    def test_study_series(self, name):
        rows = coupling_vs_distance(TX, COILS[name], STUDY_DZ, OP)
        for (_, k, _), expected in zip(rows, STUDY_K[name]):
            assert k == pytest.approx(expected, rel=1e-3)

    def test_effective_inductance_column(self):
        rows = coupling_vs_distance(TX, COILS["d100w4"], STUDY_DZ, OP)
        l2 = coil_self_inductance(COILS["d100w4"], OP)
        for _, k, l2_eff in rows:
            assert l2_eff == pytest.approx(l2 * (1 - k * k), rel=1e-12)
        # far receiver approaches its isolated inductance
        assert rows[-1][2] == pytest.approx(2.9061e-6, rel=2e-3)

    def test_k_monotone_in_distance(self):
        dz = [d * 1e-3 for d in range(10, 200, 10)]
        ks = [k for _, k, _ in coupling_vs_distance(TX, COILS["d100w4"], dz, OP)]
        assert ks == sorted(ks, reverse=True)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(GeometryError):
            coupling_vs_distance(TX, COILS["d100w4"], [0.05, 0.0], OP)

    def test_rejects_empty_sweep(self):
        with pytest.raises(WptError):
            coupling_vs_distance(TX, COILS["d100w4"], [], OP)


def closest_approach(tx, rx, pose, n=20000):
    """Smallest distance from dense transmit-filament samples to any receive filament."""
    theta = np.arange(n) * (2.0 * math.pi / n)
    t = math.radians(pose.tilt_deg)
    best = math.inf
    for a in tx.winding_radii:
        x = a * np.cos(theta) - pose.dx
        y0 = a * np.sin(theta) - pose.dy
        y = math.cos(t) * y0 - math.sin(t) * pose.dz
        z = -math.sin(t) * y0 - math.cos(t) * pose.dz
        rho = np.hypot(x, y)
        for b in rx.winding_radii:
            best = min(best, float(np.hypot(rho - b, z).min()))
    return best


def random_posed_pairs(seed, count, min_approach=3e-3):
    """One- and two-winding coil pairs in lateral and tilted poses."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coils = []
        for _ in range(2):
            outer = rng.uniform(30e-3, 80e-3)
            radii = (outer,) if rng.random() < 0.5 else (outer, outer - rng.uniform(2e-3, 6e-3))
            coils.append(PlanarCoil(radii, WireSpec(0.5e-3)))
        if rng.random() < 0.5:
            pose = Pose(dx=rng.uniform(0.0, 120e-3), dy=rng.uniform(-30e-3, 30e-3),
                        dz=rng.uniform(3e-3, 20e-3))
        else:
            pose = Pose(dx=rng.uniform(0.0, 40e-3), dz=rng.uniform(6e-3, 50e-3),
                        tilt_deg=rng.uniform(5.0, 60.0))
        if closest_approach(*coils, pose) >= min_approach:
            out.append((*coils, pose))
    return out


class TestPose:
    @pytest.mark.parametrize("field", ["dx", "dy", "dz", "tilt_deg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(GeometryError):
            Pose(**{field: value})


class TestNeumannMutual:
    def test_matches_closed_form_coaxial(self):
        rng = random.Random(7)
        disc = LoopDiscretization(720)
        for _ in range(10):
            r1 = rng.uniform(20e-3, 80e-3)
            r2 = rng.uniform(20e-3, 80e-3)
            d = rng.uniform(20e-3, 150e-3)
            c1 = PlanarCoil((r1,), WireSpec(0.5e-3))
            c2 = PlanarCoil((r2,), WireSpec(0.5e-3))
            got = neumann_mutual(c1, c2, Pose(dz=d), disc)
            ref = coaxial_mutual_inductance(r1, r2, d)
            assert got == pytest.approx(ref, rel=1e-3)

    def test_refinement_improves(self):
        # nearly touching loops converge slowly enough to expose the rate
        c1 = PlanarCoil((50e-3,), WireSpec(0.2e-3))
        c2 = PlanarCoil((48e-3,), WireSpec(0.2e-3))
        ref = coaxial_mutual_inductance(50e-3, 48e-3, 2e-3)
        err = [
            abs(neumann_mutual(c1, c2, Pose(dz=2e-3), LoopDiscretization(n)) - ref)
            for n in (36, 72, 144)
        ]
        assert err[2] < err[1] < err[0]

    def test_flipped_receiver_negates(self):
        pose_up = Pose(dz=80e-3)
        pose_down = Pose(dz=80e-3, tilt_deg=180.0)
        m_up = neumann_mutual(TX, COILS["d100w4"], pose_up)
        m_down = neumann_mutual(TX, COILS["d100w4"], pose_down)
        assert m_down == pytest.approx(-m_up, rel=1e-9)

    def test_small_tilt_insensitive(self):
        # a 10-degree tilt moves k by only a few percent
        m0 = neumann_mutual(TX, COILS["d100w4"], Pose(dz=100e-3))
        m10 = neumann_mutual(TX, COILS["d100w4"], Pose(dz=100e-3, tilt_deg=10.0))
        assert abs(m10 - m0) / m0 < 0.05

    def test_lateral_offset_reduces_coupling(self):
        m0 = neumann_mutual(TX, COILS["d100w4"], Pose(dz=100e-3))
        m_off = neumann_mutual(TX, COILS["d100w4"], Pose(dx=40e-3, dz=100e-3))
        assert 0 < m_off < m0

    def test_touching_filaments_rejected(self):
        c = PlanarCoil((50e-3,), WireSpec(1e-3))
        with pytest.raises(SingularityError):
            neumann_mutual(c, c, Pose(dz=0.5e-3))

    def test_default_matches_fine_double_sum(self):
        cases = random_posed_pairs(11, 20)
        for c1, c2, pose in cases:
            got = neumann_mutual(c1, c2, pose)
            ref = neumann_mutual(c1, c2, pose, LoopDiscretization(1440))
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_nearly_touching_coaxial_loops(self):
        # 1 um apart: the 720-segment double sum is 20x off here, while the
        # single integral stays exact (mpmath: 6.848181787693142e-07 H)
        c = PlanarCoil((50e-3,), WireSpec(0.1e-6))
        got = neumann_mutual(c, c, Pose(dz=1e-6))
        assert got == pytest.approx(6.848181787693142e-07, rel=1e-14)
        assert got == pytest.approx(coaxial_mutual_inductance(50e-3, 50e-3, 1e-6), rel=1e-8)

    def test_doubling_cap_reports_best_estimate(self):
        # 0.1 um above a crossing point: far too sharp for 2**16 points,
        # but the 1 nm wire keeps it clear of the singularity guard
        c = PlanarCoil((50e-3,), WireSpec(1e-9))
        with pytest.raises(NumericalError) as exc:
            neumann_mutual(c, c, Pose(dx=1e-3, dz=1e-7))
        assert math.isfinite(exc.value.best_estimate)
        assert exc.value.best_estimate > 0

    def test_discretization_floor(self):
        with pytest.raises(WptError):
            LoopDiscretization(10)


class TestMisalignmentGrid:
    def test_shape_and_monotonicity(self):
        grid = misalignment_grid(
            TX,
            COILS["d100w4"],
            [80e-3, 120e-3],
            lateral_list=[0.0, 20e-3, 40e-3],
            disc=LoopDiscretization(144),
        )
        assert grid.shape == (2, 3)
        # k decreases along both axes in this regime
        assert np.all(np.diff(grid, axis=0) < 0)
        assert np.all(np.diff(grid, axis=1) < 0)

    def test_lateral_zero_column_matches_coaxial(self):
        grid = misalignment_grid(
            TX,
            COILS["d100w4"],
            [100e-3],
            lateral_list=[0.0],
            disc=LoopDiscretization(720),
        )
        (_, k_coax, _), = coupling_vs_distance(TX, COILS["d100w4"], [100e-3], OP)
        assert grid[0, 0] == pytest.approx(k_coax, rel=1e-3)

    def test_batched_values_equal_single_pose(self):
        rx = COILS["d100w4"]
        l1, l2 = coil_self_inductance(TX, OP), coil_self_inductance(rx, OP)
        dz = [9e-3, 60e-3, 180e-3]
        axes = {"lateral_list": [0.0, 35e-3, 77e-3, 130e-3], "tilt_list": [0.0, 12.0, 25.0]}
        for axis, offsets in axes.items():
            grid = misalignment_grid(TX, rx, dz, **{axis: offsets})
            for i, d in enumerate(dz):
                for j, off in enumerate(offsets):
                    pose = Pose(dx=off, dz=d) if axis == "lateral_list" else Pose(dz=d, tilt_deg=off)
                    k = coupling_factor(l1, l2, neumann_mutual(TX, rx, pose))
                    assert grid[i, j] == pytest.approx(k, rel=1e-14, abs=0.0)
        lateral = [0.0, 20e-3, 76e-3, 110e-3]
        rows = max_efficiency_map(TX, rx, 12e-3, lateral, (0.1, 1.0, 0.0))
        for (off, k, _, _), expected in zip(rows, lateral):
            m = neumann_mutual(TX, rx, Pose(dx=expected, dz=12e-3))
            assert off == expected
            assert k == pytest.approx(coupling_factor(l1, l2, m), rel=1e-14, abs=0.0)

    def test_requires_exactly_one_offset_axis(self):
        with pytest.raises(WptError):
            misalignment_grid(TX, COILS["d100w4"], [0.1])
        with pytest.raises(WptError):
            misalignment_grid(
                TX, COILS["d100w4"], [0.1], lateral_list=[0.0], tilt_list=[0.0]
            )
