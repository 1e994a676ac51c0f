"""The three in-process benchmark workloads (cli-cold is in cli_cold.py).

Each workload is a closed loop with one client. ``call(i)`` builds the
inputs of the i-th top-level call from the seed alone (negative ``i`` are
warm-up calls, drawn from their own stream); ``run`` is the timed part and
only passes those inputs to the library; ``check`` compares the outputs
with ``oracle`` and is never timed.

Why these workloads (see also BENCHMARK.json):

* pose-sweep: filament coupling under misalignment, > 95% of its time in
  ``coupling.neumann_mutual``. A faster or adaptive kernel shows here,
  including its cost on the hard near-field poses.
* design-loop: the elliptic/coaxial path, link analysis, mission and
  breakeven, with no filament work, so a kernel change must not move it.
* ingest: the only workload where ``touchstone`` does real work; reads and
  writes both, so a parse speed-up paid for in serialization shows.
* cli-cold: the README CLI examples as fresh processes, dominated by
  interpreter start and imports.
"""

import math
import random
from pathlib import Path

import oracle

REL_TOL = 1e-9
K_TOL = 1e-9  # |dk| <= K_TOL * max|k| per call


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Workload:
    in_process = True
    window_calls = 1  # throughput windows hold a multiple of this many calls

    def __init__(self, seed, root):
        self.seed = seed
        self.root = Path(root)
        self.max_err_k = 0.0  # largest |dk| / max|k| over checked coupling outputs

    def rng(self, i):
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def parse_bytes(self, spec, output):
        return 0

    def check_k(self, got, want):
        """Coupling factors against the oracle: |dk| <= K_TOL * max|k|."""
        if len(got) != len(want):
            return False
        scale = max(abs(k) for k in want)
        err = max(abs(g - w) for g, w in zip(got, want)) / scale
        self.max_err_k = max(self.max_err_k, err)
        return err <= K_TOL


# --- pose-sweep ----------------------------------------------------------

DZ_STRATA_MM = {"near": (8.0, 12.0), "mid": (30.0, 90.0), "far": (150.0, 200.0)}
RX_BY_WINDINGS = {
    2: ("d100w2",), 3: ("d100w3",), 4: ("d75w4", "d100w4", "d125w4", "d150w4"), 5: ("d100w5",),
}
# One cycle of calls: (kind, dz strata, offsets, receive windings). The
# sequence is fixed so every seed gives the same mix of call sizes, and
# poses x receive windings is about 24 in every call, so the latency
# percentiles do not jump between call sizes from run to run. The seed
# draws the poses, receive diameters and circuit values.
POSE_DECK = (
    ("lateral", ("near",), 3, 4),
    ("tilt", ("mid", "far"), 2, 3),
    ("map", ("near",), 4, 3),
    ("lateral", ("near", "mid", "far"), 2, 2),
    ("tilt", ("near",), 3, 4),
    ("map", ("far",), 2, 5),
    ("lateral", ("mid", "far"), 3, 2),
    ("map", ("mid",), 3, 4),
    ("tilt", ("near", "far"), 2, 3),
    ("lateral", ("far",), 2, 5),
)
TILT_CLEARANCE_M = 4e-3  # lowest receiver point stays this far above the transmitter


class PoseSweep(Workload):
    name = "pose-sweep"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import uavwpt
        from uavwpt.presets import COILS

        self.uavwpt = uavwpt
        self.coils = COILS
        self.tx = COILS["default-uav"]
        self._l = {}

    def call(self, i):
        rng = self.rng(i)
        kind, strata, n_off, windings = POSE_DECK[i % len(POSE_DECK)]
        rx = self.coils[rng.choice(RX_BY_WINDINGS[windings])]
        dz = [rng.uniform(*DZ_STRATA_MM[s]) * 1e-3 for s in strata]
        r_tx = self.tx.winding_radii[0]
        if kind == "tilt":
            r_rx = rx.winding_radii[0]
            max_tilt = math.degrees(math.asin(min(1.0, (min(dz) - TILT_CLEARANCE_M) / r_rx)))
            max_tilt = min(max_tilt, 60.0)
            offs = [0.0] + [max_tilt * (j + rng.random()) / n_off for j in range(1, n_off)]
        else:
            # coaxial or mid, then near the transmit winding radius, then beyond it
            pool = [
                0.0 if rng.random() < 0.5 else rng.uniform(10e-3, 60e-3),
                rng.uniform(r_tx - 6e-3, r_tx + 6e-3),
                rng.uniform(10e-3, 60e-3),
                rng.uniform(90e-3, 150e-3),
            ]
            offs = sorted(pool[:n_off])
        spec = {"kind": kind, "rx": rx, "dz": dz, "offsets": offs}
        if kind == "map":
            spec["dz"] = dz[0]
            spec["esr"] = (rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.5))
        return spec

    def items(self, spec):
        n_dz = 1 if spec["kind"] == "map" else len(spec["dz"])
        return n_dz * len(spec["offsets"])

    def run(self, spec):
        u = self.uavwpt
        if spec["kind"] == "map":
            return u.max_efficiency_map(self.tx, spec["rx"], spec["dz"], spec["offsets"], spec["esr"])
        if spec["kind"] == "lateral":
            return u.misalignment_grid(self.tx, spec["rx"], spec["dz"], lateral_list=spec["offsets"])
        return u.misalignment_grid(self.tx, spec["rx"], spec["dz"], tilt_list=spec["offsets"])

    def _inductance(self, coil):
        if coil.label not in self._l:
            self._l[coil.label] = oracle.coil_l(coil)
        return self._l[coil.label]

    def _k(self, rx, dz, off, kind):
        pose = {"dz": dz, "tilt_deg": off} if kind == "tilt" else {"dx": off, "dz": dz}
        m = oracle.posed_mutual(self.tx.winding_radii, rx.winding_radii, **pose)
        return m / math.sqrt(self._inductance(self.tx) * self._inductance(rx))

    def check(self, spec, out):
        kind, rx = spec["kind"], spec["rx"]
        if kind == "map":
            r1, r2, rs = spec["esr"]
            l1, l2 = self._inductance(self.tx), self._inductance(rx)
            got_k, want_k, ok = [], [], len(out) == len(spec["offsets"])
            for row, off in zip(out, spec["offsets"]):
                k = self._k(rx, spec["dz"], off, kind)
                rl, eta = oracle.optimal_load_and_eta(l1, l2, abs(k), r1, r2, rs, 6.78e6)
                ok &= row[0] == off and _close(row[2], rl) and _close(row[3], eta)
                got_k.append(row[1])
                want_k.append(k)
        else:
            ok = out.shape == (len(spec["dz"]), len(spec["offsets"]))
            got_k = [float(v) for v in out.ravel()]
            want_k = [self._k(rx, dz, off, kind) for dz in spec["dz"] for off in spec["offsets"]]
        return ok and self.check_k(got_k, want_k)


# --- design-loop ---------------------------------------------------------


class DesignLoop(Workload):
    name = "design-loop"
    horizon = 15.0

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import uavwpt
        from uavwpt.presets import COILS

        self.uavwpt = uavwpt
        self.tx = COILS["default-uav"]
        self._system = None

    def call(self, i):
        u, rng = self.uavwpt, self.rng(i)
        outer = rng.uniform(20e-3, 80e-3)
        windings = rng.randint(1, 8)
        max_pitch = 3e-3 if windings == 1 else min(3e-3, (outer - 5e-3) / (windings - 1))
        pitch = rng.uniform(1e-3, max_pitch)
        return {
            "rx": u.concentric_coil(outer, windings, pitch),
            "f": rng.uniform(1e6, 13.56e6),
            "dz_mm": sorted(rng.uniform(50.0, 100.0) for _ in range(8)),
            "esr": (rng.uniform(0.05, 0.5), rng.uniform(0.2, 2.0), rng.uniform(0.0, 1.0)),
            "vs": rng.uniform(1.0, 20.0),
            "target_w": rng.uniform(0.05, 2.0),
            "cell": u.BatteryCell(rng.uniform(20.0, 200.0), 2.4, 10.0),
            "hover_w": rng.uniform(50.0, 300.0),
            "rate_c": rng.uniform(1.0, 10.0),
            "scenarios": self._scenarios(rng),
        }

    def _scenarios(self, rng):
        # A drone-serviced line (high upfront, slow accrual) against periodic
        # replacement. Every crossing is kept at least 0.1 kgCO2eq deep, so it
        # lasts at least 1/3 year: breakeven's fixed 4096-point scan cannot
        # see a crossing shorter than one scan step (horizon / 4096).
        u = self.uavwpt
        while True:
            b0 = rng.uniform(2.5, 3.5)
            a0 = b0 + rng.uniform(0.5, 2.5)
            rate = rng.uniform(0.05, 0.3)
            period = rng.uniform(1.0, 5.0)
            per_event = rng.uniform(0.5, 4.0)
            n_max = int(self.horizon / period)
            gaps = [a0 - b0 + n * (rate * period - per_event) for n in range(1, n_max + 1)]
            edges = [abs(n * period - self.horizon) for n in range(1, n_max + 2)]
            if min(abs(g) for g in gaps) >= 0.1 and min(edges) > 1e-3:
                return (
                    u.ServicingScenario.linear("uav", a0, rate),
                    u.ServicingScenario.periodic("replace", b0, per_event, period),
                )

    def items(self, spec):
        return 1

    def run(self, spec):
        u = self.uavwpt
        f, (r1, r2, rs), tx, rx = spec["f"], spec["esr"], self.tx, spec["rx"]
        op = u.OperatingPoint(f)
        l1 = u.coil_self_inductance(tx, op)
        l2 = u.coil_self_inductance(rx, op)
        rows = u.coupling_vs_distance(tx, rx, [d * 1e-3 for d in spec["dz_mm"]], op)
        per_dz = []
        for (_, k, _), dz_mm in zip(rows, spec["dz_mm"]):
            eta, rl = u.max_link_efficiency(l1, l2, k, r1, r2, rs, f)
            link = u.series_tuned_link(l1, l2, k, rl, r1, r2, rs, f)
            sol = u.solve_link(link, spec["vs"])
            det = u.detuning_report(link)
            vs_req = u.required_source_voltage(link, spec["target_w"])
            c2 = u.resonant_capacitor(l2, f)
            c2_e12 = u.snap_to_e12(c2)
            budget = u.mission_energy(spec["cell"], dz_mm, spec["hover_w"], spec["rate_c"])
            per_dz.append((eta, rl, sol, det, vs_req, c2, c2_e12, budget))
        t_be = u.breakeven(*spec["scenarios"], self.horizon)
        return l1, l2, rows, per_dz, t_be

    def check(self, spec, out):
        l1_got, l2_got, rows, per_dz, t_be = out
        f, (r1, r2, rs), rx = spec["f"], spec["esr"], spec["rx"]
        if self._system is None:
            self._system = oracle.load_system_efficiency(self.root)
        l1, l2 = oracle.coil_l(self.tx, f), oracle.coil_l(rx, f)
        ok = _close(l1_got, l1) and _close(l2_got, l2) and len(rows) == len(per_dz) == 8
        norm = math.sqrt(l1 * l2)
        dz_m = [d * 1e-3 for d in spec["dz_mm"]]
        ks = (oracle.coil_mutual_coaxial(self.tx.winding_radii, rx.winding_radii, dz_m)
              / norm).tolist()
        ok &= self.check_k([r[1] for r in rows], ks)
        w = 2.0 * math.pi * f
        cell = spec["cell"]
        for (dz, _, l2_eff), k, dz_mm, got in zip(rows, ks, spec["dz_mm"], per_dz):
            eta_got, rl_got, sol, det, vs_req, c2_got, c2_e12, budget = got
            rl, eta = oracle.optimal_load_and_eta(l1, l2, k, r1, r2, rs, f)
            c1, c2 = oracle.resonant_capacitor(l1, f), oracle.resonant_capacitor(l2, f)
            i1, i2, ps, pl = oracle.mesh_solve(l1, c1, r1, l2, c2, r2, rs, rl, k, f, spec["vs"])
            shift = 1.0 / math.sqrt(1.0 - k * k) - 1.0
            eff_l1, eff_l2 = l1 * (1 - k * k), l2 * (1 - k * k)
            eta_tuned = oracle.mesh_solve(l1, c1, r1, l2, c2, r2, rs, rl, k, f, 1.0)
            eta_det = oracle.mesh_solve(eff_l1, c1, r1, eff_l2, c2, r2, rs, rl, k, f, 1.0)
            penalty = 1.0 - (eta_det[3] / eta_det[2]) / (eta_tuned[3] / eta_tuned[2])
            sys_eff = oracle.interp(self._system, dz_mm)
            energy = cell.capacity_mah * 1e-3 * cell.nominal_voltage
            ok &= (
                dz == dz_mm * 1e-3
                and _close(l2_eff, l2 * (1 - k * k))
                and _close(eta_got, eta) and _close(rl_got, rl)
                and _close(sol.input_power_PS, ps) and _close(sol.load_power_PL, pl)
                and _close(sol.efficiency, pl / ps) and _close(sol.efficiency, eta)
                and _close(abs(sol.primary_current), abs(i1))
                and _close(abs(sol.secondary_current), abs(i2))
                and _close(det.relative_shift, shift)
                and _close(det.effective_f0_tx, (1 + shift) / (2 * math.pi * math.sqrt(l1 * c1)))
                and _close(det.effective_f0_rx, (1 + shift) / (2 * math.pi * math.sqrt(l2 * c2)))
                and abs(det.efficiency_penalty - penalty) <= REL_TOL
                and _close(vs_req, math.sqrt(spec["target_w"] / eta_tuned[3]))
                and _close(c2_got, 1.0 / (w * w * l2))
                and _close(c2_e12, oracle.nearest_e12(c2), 1e-12)
                and _close(budget.energy_transferred, energy)
                and _close(budget.energy_drawn_from_uav, energy / sys_eff)
                and _close(budget.hover_energy, spec["hover_w"] / spec["rate_c"])
                and _close(budget.charge_duration, 1.0 / spec["rate_c"])
            )
        a, b = spec["scenarios"]
        want = oracle.breakeven_linear_vs_periodic(
            a.initial_gwp, a.annual_rate, b.base_gwp, b.per_event_gwp, b.replacement_period,
            self.horizon,
        )
        if want is None or t_be is None:
            ok &= want is None and t_be is None
        else:
            ok &= abs(t_be - want) <= 1e-8
        return bool(ok)


# --- ingest --------------------------------------------------------------

FORMATS = ("RI", "MA", "DB")
UNITS = (("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6), ("GHz", 1e9))
INGEST_FILES = 12
MIN_POINTS, MAX_POINTS = 201, 10001


def _encode(c, fmt):
    if fmt == "RI":
        return c.real, c.imag
    mag, ang = abs(c), math.degrees(math.atan2(c.imag, c.real))
    return (mag if fmt == "MA" else 20.0 * math.log10(mag)), ang


def synthesize_touchstone(rng, n, fmt, unit, scale):
    """A reciprocal series-RL two-port with known coupling, as Touchstone v1.

    Returns (text, k, frequencies, [(s11, s21, s12, s22), ...]).
    """
    import numpy as np

    l1, l2 = rng.uniform(0.5e-6, 5e-6), rng.uniform(0.5e-6, 5e-6)
    k = rng.uniform(0.01, 0.5)
    r1, r2, z0 = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), 50.0
    f0 = rng.uniform(0.1e6, 5e6)
    freqs = np.linspace(f0, f0 * rng.uniform(2.0, 10.0), n)
    w = 2.0 * np.pi * freqs
    z11, z22, z12 = r1 + 1j * w * l1, r2 + 1j * w * l2, 1j * w * k * math.sqrt(l1 * l2)
    det = (z11 + z0) * (z22 + z0) - z12 * z12
    s11 = ((z11 - z0) * (z22 + z0) - z12 * z12) / det
    s22 = ((z22 - z0) * (z11 + z0) - z12 * z12) / det
    s21 = 2.0 * z0 * z12 / det
    params = list(zip(s11.tolist(), s21.tolist(), s21.tolist(), s22.tolist()))
    lines = [
        "! synthetic VNA sweep: series-RL coil pair",
        f"! L1={l1!r} H L2={l2!r} H k={k!r}",
        f"# {unit} S {fmt} R {z0:g}",
        "! freq s11 s21 s12 s22",
    ]
    for j, (f, sp) in enumerate(zip(freqs.tolist(), params)):
        row = [f / scale]
        for c in sp:
            row.extend(_encode(c, fmt))
        line = " ".join(repr(v) for v in row)
        if j % 97 == 13:
            line += "  ! marker"
        lines.append(line)
        if j % 211 == 7:
            lines.append("! --- segment ---")
    return "\n".join(lines) + "\n", k, freqs.tolist(), params


class Ingest(Workload):
    name = "ingest"
    window_calls = INGEST_FILES  # whole passes over the files, which differ in size

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import uavwpt

        self.uavwpt = uavwpt
        self.files = []
        combos = [(f, u) for u in UNITS for f in FORMATS]
        for j in range(INGEST_FILES):
            rng = self.rng(j)
            # sizes log-spaced from MIN_POINTS to MAX_POINTS, the same for every
            # seed, so that the latency percentiles depend on the program only
            n = round(MIN_POINTS * (MAX_POINTS / MIN_POINTS) ** (j / (INGEST_FILES - 1)))
            fmt, (unit, scale) = combos[j]
            text, k, freqs, params = synthesize_touchstone(rng, n, fmt, unit, scale)
            out_fmt, (out_unit, _) = combos[(j + 5) % len(combos)]
            self.files.append({
                "text": text, "k": k, "freqs": freqs, "params": params,
                "out_unit": out_unit, "out_fmt": out_fmt,
            })

    def call(self, i):
        return self.files[i % len(self.files)]

    def items(self, spec):
        return len(spec["freqs"])

    def run(self, spec):
        u = self.uavwpt
        samples = u.parse_touchstone(spec["text"])
        ks = [u.coupling_from_z(u.s_to_z(s), s.frequency).k for s in samples]
        text = u.serialize_touchstone(samples, unit=spec["out_unit"], fmt=spec["out_fmt"])
        again = u.parse_touchstone(text)
        return samples, ks, again, len(text)

    def parse_bytes(self, spec, output):
        return len(spec["text"]) + output[3]

    def check(self, spec, out):
        samples, ks, again, _ = out
        n = len(spec["freqs"])
        if not (len(samples) == len(ks) == len(again) == n):
            return False
        k = spec["k"]
        if any(abs(x - k) > REL_TOL * k for x in ks):
            return False
        for s, t, f, sp in zip(samples, again, spec["freqs"], spec["params"]):
            got = (s.s11, s.s21, s.s12, s.s22)
            back = (t.s11, t.s21, t.s12, t.s22)
            if not (_close(s.frequency, f, 1e-12) and _close(t.frequency, f, 1e-12)):
                return False
            if any(abs(a - b) > 1e-12 or abs(c - b) > 1e-12 for a, b, c in zip(got, sp, back)):
                return False
            if s.z0 != 50.0 or t.z0 != 50.0:
                return False
        return True
