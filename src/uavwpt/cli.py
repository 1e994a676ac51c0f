"""Command-line front end.

Subcommands: ``coupling`` (distance / misalignment sweeps), ``inductance``,
``tune``, ``link``, ``ingest`` (.s2p to coupling report), ``mission`` and
``gwp`` (inventory / curve / breakeven). Tabular results go to stdout as
CSV (or one JSON document with ``--json``); diagnostics go to stderr.

Exit codes: 0 success, 1 domain/physics error, 2 usage error.

Unit policy: flags carry explicit unit suffixes (mm, MHz, pF, ohm, mAh, W,
yr) and are converted to SI at this boundary; the library is strict SI.
"""

import argparse
import json
import sys

from . import presets
from .coils import (
    CALIBRATED_WIRE_RADIUS,
    OperatingPoint,
    PlanarCoil,
    WireSpec,
    coil_self_inductance,
)
from .coupling import LoopDiscretization, coupling_vs_distance, misalignment_grid
from .errors import WptError
from .link import (
    detuning_report,
    link_efficiency,
    optimal_load,
    required_source_voltage,
    resonant_capacitor,
    series_tuned_link,
    snap_to_e12,
    solve_link,
)
from .mission import BatteryCell, autonomy_from_leakage, mission_energy
from .sustainability import (
    ServicingScenario,
    breakeven,
    cumulative_gwp,
    inventory_total,
    scenario_table,
)
from .touchstone import compare_report, coupling_from_z, parse_touchstone, report_csv, s_to_z

__all__ = ["main", "entrypoint"]


def _cell(value):
    # numpy scalars repr as np.float64(...); normalize to plain floats
    return value if isinstance(value, str) else float(value)


def _emit_csv(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(v if isinstance(v, str) else repr(v) for v in map(_cell, row)))


def _emit(args, header, rows):
    if args.json:
        doc = [dict(zip(header, map(_cell, row))) for row in rows]
        print(json.dumps(doc, indent=2))
    else:
        _emit_csv(header, rows)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _coil_from_config(spec):
    wire_radius_mm = spec.get("wire_radius_mm")
    if wire_radius_mm is not None:
        wire = WireSpec(wire_radius_mm * 1e-3)
    else:
        wire = WireSpec(CALIBRATED_WIRE_RADIUS)
    radii = tuple(r * 1e-3 for r in spec["radii_mm"])
    return PlanarCoil(radii, wire, spec.get("label", ""))


def _resolve_coil(name, config):
    coils = config.get("coils", {})
    if name in coils:
        return _coil_from_config(coils[name])
    return presets.coil_preset(name)


def _scenario_from_config(spec):
    if "replacement_period" in spec:
        return ServicingScenario.periodic(
            spec.get("label", ""),
            spec.get("base_gwp", 0.0),
            spec["per_event_gwp"],
            spec["replacement_period"],
        )
    return ServicingScenario.linear(
        spec.get("label", ""), spec["initial_gwp"], spec["annual_rate"]
    )


def _resolve_scenario(name, config):
    scenarios = config.get("scenarios", {})
    if name in scenarios:
        spec = dict(scenarios[name])
        spec.setdefault("label", name)
        return _scenario_from_config(spec)
    return presets.scenario_preset(name)


def _resolve_esr(args, config):
    r1, r2, rs = config.get("circuits", {}).get("esr", presets.CIRCUIT_ESR)
    if getattr(args, "r1_ohm", None) is not None:
        r1 = args.r1_ohm
    if getattr(args, "r2_ohm", None) is not None:
        r2 = args.r2_ohm
    if getattr(args, "rs_ohm", None) is not None:
        rs = args.rs_ohm
    return r1, r2, rs


def _cmd_coupling(args, config):
    tx = _resolve_coil(args.tx, config)
    rx = _resolve_coil(args.rx, config)
    op = OperatingPoint(args.freq_mhz * 1e6)
    dz = [d * 1e-3 for d in args.dz_mm]
    if args.lateral_mm or args.tilt_deg:
        disc = None if args.segments is None else LoopDiscretization(args.segments)
        if args.lateral_mm:
            offs = args.lateral_mm
            grid = misalignment_grid(
                tx, rx, dz, lateral_list=[o * 1e-3 for o in offs], disc=disc, op=op
            )
            off_name = "lateral_mm"
        else:
            offs = args.tilt_deg
            grid = misalignment_grid(tx, rx, dz, tilt_list=offs, disc=disc, op=op)
            off_name = "tilt_deg"
        header = ["dz_mm"] + [f"k_{off_name}_{o:g}" for o in offs]
        rows = [[d * 1e3] + list(grid[i]) for i, d in enumerate(dz)]
    else:
        header = ["dz_mm", "k", "l2_eff_uH"]
        rows = [
            [d * 1e3, k, l2_eff * 1e6] for d, k, l2_eff in coupling_vs_distance(tx, rx, dz, op)
        ]
    _emit(args, header, rows)
    return 0


def _cmd_inductance(args, config):
    op = OperatingPoint(args.freq_mhz * 1e6)
    header = ["coil", "l_uH"]
    rows = []
    for name in args.coil:
        coil = _resolve_coil(name, config)
        rows.append([name, coil_self_inductance(coil, op) * 1e6])
    _emit(args, header, rows)
    return 0


def _cmd_tune(args, config):
    if (args.l_uh is None) == (args.coil is None):
        raise UsageError("provide exactly one of --l-uh or --coil")
    if args.coil is not None:
        coil = _resolve_coil(args.coil, config)
        l = coil_self_inductance(coil, OperatingPoint(args.freq_mhz * 1e6))
    else:
        l = args.l_uh * 1e-6
    c = resonant_capacitor(l, args.freq_mhz * 1e6)
    header = ["l_uH", "freq_MHz", "c_pF"]
    row = [l * 1e6, args.freq_mhz, c * 1e12]
    if args.e12:
        header.append("c_e12_pF")
        row.append(snap_to_e12(c) * 1e12)
    _emit(args, header, [row])
    return 0


def _cmd_link(args, config):
    r1, r2, rs = _resolve_esr(args, config)
    link = series_tuned_link(
        args.l1_uh * 1e-6,
        args.l2_uh * 1e-6,
        args.k,
        args.rl_ohm,
        r1,
        r2,
        rs,
        args.freq_mhz * 1e6,
    )
    sol = solve_link(link, args.vs_v)
    det = detuning_report(link)
    header = [
        "efficiency",
        "efficiency_closed_form",
        "rl_opt_ohm",
        "input_power_W",
        "load_power_W",
        "detuning_shift",
        "detuning_penalty",
    ]
    row = [
        sol.efficiency,
        link_efficiency(link),
        optimal_load(link),
        sol.input_power_PS,
        sol.load_power_PL,
        det.relative_shift,
        det.efficiency_penalty,
    ]
    if args.target_w is not None:
        header.append("required_vs_V")
        row.append(required_source_voltage(link, args.target_w))
    _emit(args, header, [row])
    return 0


def _cmd_ingest(args, config):
    measured = []
    f_target = args.freq_mhz * 1e6
    if len(args.dz_mm) != len(args.files):
        raise UsageError("need one --dz-mm value per input file")
    for dz, path in zip(args.dz_mm, args.files):
        with open(path) as fh:
            samples = parse_touchstone(fh.read())
        sample = min(samples, key=lambda s: abs(s.frequency - f_target))
        if abs(sample.frequency - f_target) / f_target > 0.01:
            print(
                f"warning: {path}: nearest sample at {sample.frequency} Hz "
                f"is over 1% away from {f_target} Hz",
                file=sys.stderr,
            )
        extraction = coupling_from_z(s_to_z(sample), sample.frequency)
        measured.append((dz, extraction.k))
    if args.tx and args.rx:
        tx = _resolve_coil(args.tx, config)
        rx = _resolve_coil(args.rx, config)
        op = OperatingPoint(f_target)
        analytic = [
            (dz * 1e3, k)
            for dz, k, _ in coupling_vs_distance(tx, rx, [d * 1e-3 for d in args.dz_mm], op)
        ]
        rows = compare_report(analytic, measured)
        if args.json:
            print(json.dumps([r._asdict() for r in rows], indent=2))
        else:
            sys.stdout.write(report_csv(rows))
    else:
        _emit(args, ["dz_mm", "k_measured"], [[dz, k] for dz, k in measured])
    return 0


def _cmd_mission(args, config):
    cell = BatteryCell(args.capacity_mah, args.nominal_v, args.max_rate_c)
    header = []
    row = []
    if args.leakage_ua is not None:
        header.append("autonomy_yr")
        row.append(autonomy_from_leakage(cell, args.leakage_ua))
    budget = mission_energy(cell, args.dz_mm, args.hover_w, args.rate_c)
    header += [
        "energy_transferred_Wh",
        "energy_drawn_from_uav_Wh",
        "hover_energy_Wh",
        "charge_duration_h",
    ]
    row += [
        budget.energy_transferred,
        budget.energy_drawn_from_uav,
        budget.hover_energy,
        budget.charge_duration,
    ]
    print(
        f"note: hover energy assumes user-supplied hover power of {args.hover_w} W",
        file=sys.stderr,
    )
    _emit(args, header, [row])
    return 0


def _cmd_gwp(args, config):
    if args.gwp_command == "inventory":
        try:
            inv = presets.INVENTORIES[args.name]
        except KeyError:
            raise WptError(
                f"unknown inventory {args.name!r}; available: "
                f"{', '.join(sorted(presets.INVENTORIES))}"
            ) from None
        header = ["component", "gwp_kgCO2eq"]
        rows = [[label, value] for label, value in inv.components.items()]
        rows.append(["total", inventory_total(inv)])
        _emit(args, header, rows)
    elif args.gwp_command == "curve":
        scenarios = [_resolve_scenario(name, config) for name in args.scenario]
        header, rows = scenario_table(scenarios, args.horizon_yr, args.step_yr)
        _emit(args, header, rows)
    else:  # breakeven
        a = _resolve_scenario(args.a, config)
        b = _resolve_scenario(args.b, config)
        t = breakeven(a, b, args.horizon_yr)
        header = ["scenario_a", "scenario_b", "breakeven_yr"]
        rows = [[args.a, args.b, "no-crossing" if t is None else t]]
        _emit(args, header, rows)
    return 0


class UsageError(Exception):
    """Bad flag combination detected after argparse (exit code 2)."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uavwpt",
        description="UAV wireless-charging design toolkit (CSV/JSON output)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    parser.add_argument("--config", help="JSON config file (coils/circuits/scenarios)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coupling", help="coupling-factor sweeps over distance/misalignment")
    p.add_argument("--tx", required=True, help="transmit coil preset or config name")
    p.add_argument("--rx", required=True, help="receive coil preset or config name")
    p.add_argument("--dz-mm", type=float, nargs="+", required=True)
    p.add_argument("--lateral-mm", type=float, nargs="+")
    p.add_argument("--tilt-deg", type=float, nargs="+")
    p.add_argument("--freq-mhz", type=float, default=6.78)
    p.add_argument(
        "--segments",
        type=int,
        help="force the filament double sum with this many segments per turn "
        "(default: the converged single-integral kernel)",
    )
    p.set_defaults(func=_cmd_coupling)

    p = sub.add_parser("inductance", help="coil self-inductance")
    p.add_argument("--coil", nargs="+", required=True)
    p.add_argument("--freq-mhz", type=float, default=6.78)
    p.set_defaults(func=_cmd_inductance)

    p = sub.add_parser("tune", help="series tuning capacitor")
    p.add_argument("--l-uh", type=float)
    p.add_argument("--coil")
    p.add_argument("--freq-mhz", type=float, default=6.78)
    p.add_argument("--e12", action="store_true", help="also snap to the E12 series")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("link", help="tuned-link efficiency, loading, detuning")
    p.add_argument("--l1-uh", type=float, required=True)
    p.add_argument("--l2-uh", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--rl-ohm", type=float, required=True)
    p.add_argument("--r1-ohm", type=float)
    p.add_argument("--r2-ohm", type=float)
    p.add_argument("--rs-ohm", type=float)
    p.add_argument("--freq-mhz", type=float, default=6.78)
    p.add_argument("--vs-v", type=float, default=1.0, help="RMS source voltage")
    p.add_argument("--target-w", type=float, help="also size VS for this load power")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("ingest", help="two-port .s2p files to a coupling report")
    p.add_argument("files", nargs="+")
    p.add_argument("--dz-mm", type=float, nargs="+", required=True)
    p.add_argument("--freq-mhz", type=float, default=6.78)
    p.add_argument("--tx", help="compare against this analytic transmit coil")
    p.add_argument("--rx", help="compare against this analytic receive coil")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("mission", help="battery autonomy and recharge energy budget")
    p.add_argument("--capacity-mah", type=float, default=60.0)
    p.add_argument("--nominal-v", type=float, default=2.4)
    p.add_argument("--max-rate-c", type=float, default=10.0)
    p.add_argument("--rate-c", type=float, default=10.0)
    p.add_argument("--dz-mm", type=float, required=True)
    p.add_argument(
        "--hover-w",
        type=float,
        required=True,
        help="UAV hover power in W (user-supplied; no default exists)",
    )
    p.add_argument("--leakage-ua", type=float, help="also report standby autonomy")
    p.set_defaults(func=_cmd_mission)

    p = sub.add_parser("gwp", help="carbon-footprint inventories and comparisons")
    gsub = p.add_subparsers(dest="gwp_command", required=True)
    g = gsub.add_parser("inventory", help="component inventory totals")
    g.add_argument("--name", required=True)
    g.set_defaults(func=_cmd_gwp)
    g = gsub.add_parser("curve", help="cumulative-GWP table for scenarios")
    g.add_argument("--scenario", nargs="+", required=True)
    g.add_argument("--horizon-yr", type=float, default=15.0)
    g.add_argument("--step-yr", type=float, default=1.0)
    g.set_defaults(func=_cmd_gwp)
    g = gsub.add_parser("breakeven", help="crossing time of two scenarios")
    g.add_argument("--a", required=True)
    g.add_argument("--b", required=True)
    g.add_argument("--horizon-yr", type=float, default=15.0)
    g.set_defaults(func=_cmd_gwp)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
