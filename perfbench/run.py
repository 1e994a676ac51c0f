"""uavwpt benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload pose-sweep --seed 1 --seconds 15 --trace 0

Workloads: pose-sweep, design-loop, ingest (workloads.py) and cli-cold
(cli_cold.py).
The program is the library in ``src/`` of the current directory; nothing
is installed or built. Every output is checked against independent
references (oracle.py, golden.json); oracle time is never measured.

--trace 0 prints the end-to-end metrics: setup time (median of several
fresh processes that import and generate inputs), throughput, call
latency median and tail, and peak memory.

--trace 1 prints the per-layer metrics. Each call runs twice, untraced
and traced, alternating which goes first, so the tracing overhead is
measured on the same work. Then come the five ROADMAP baseline calls and
the cold-start breakdown (bare interpreter, numpy import, uavwpt.cli
import), each measured from outside in child processes.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import os

# One process and no worker threads: BLAS is pinned to one thread, set
# before numpy loads so that child processes inherit it too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROBES = 11
BREAKDOWN_ROUNDS = 7
FOLD_SPANS = 300_000
WARMUP_S = 1.0
WINDOW_S = 1.0  # throughput is the median over windows of at least this much busy time
WALL_LIMIT_S = 150.0  # stop measuring here so the run ends well within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Put ``src`` of the checkout on the path and check that it is what loads."""
    src = ROOT / "src"
    if not (src / "uavwpt" / "__init__.py").is_file():
        fail(f"no uavwpt package under {src}; run from the repository root")
    sys.path.insert(0, str(src))


WORKLOADS = {
    "pose-sweep": ("workloads", "PoseSweep"),
    "design-loop": ("workloads", "DesignLoop"),
    "ingest": ("workloads", "Ingest"),
    "cli-cold": ("cli_cold", "CliCold"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print 'ready' and exit")
    return p.parse_args(argv)


def make_workload(args):
    module, cls = WORKLOADS[args.workload]
    wl = getattr(importlib.import_module(module), cls)(args.seed, ROOT)
    if wl.in_process:
        import uavwpt

        if Path(uavwpt.__file__).resolve().parent != (ROOT / "src" / "uavwpt").resolve():
            fail(f"imported uavwpt from {uavwpt.__file__}, not from {ROOT / 'src'}")
    return wl


class SetupProbes:
    """Set-up time: process start to inputs ready, in fresh processes.

    The probes are spread over the timed run (between calls, never inside
    one) so that their median is not set by one slow stretch of the host.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
        self.every_s = args.seconds / SETUP_PROBES
        self.times = []

    def probe(self):
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            fail("setup probe failed")
        self.times.append(t1 - t0)

    def due(self, busy_s):
        if len(self.times) < SETUP_PROBES and busy_s >= len(self.times) * self.every_s:
            self.probe()

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


class Run:
    """Calls made, latencies, items and check results of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.call_items = []
        self.attempted = 0
        self.failed = 0
        self.parse_bytes = 0
        self.busy_s = 0.0

    def call(self, i, spec, tracer=None):
        wl = self.wl
        trace_file = None
        if tracer is not None:
            tracer.call_id = i
            if wl.in_process:
                tracer.install()
            else:
                trace_file = SCRATCH / f"span-{os.getpid()}-{i}.json"
        t0 = time.perf_counter()
        try:
            out = wl.run(spec) if trace_file is None else wl.run(spec, trace_file)
            err = None
        except Exception as exc:  # counted as a failed call, reported once below
            out, err = None, exc
        latency = time.perf_counter() - t0
        if tracer is not None and wl.in_process:
            tracer.uninstall()
        self.attempted += 1
        self.latencies.append(latency)
        self.busy_s += latency
        ok = False
        if err is None:
            try:
                ok = wl.check(spec, out)
            except Exception as exc:  # an output the oracle cannot digest is wrong
                err = exc
        self.call_items.append(wl.items(spec) if ok else 0)
        if ok:
            self.parse_bytes += wl.parse_bytes(spec, out)
        else:
            if self.failed == 0:
                print(f"perfbench: call {i} failed: {spec!r:.300}", file=sys.stderr)
                if err is not None:
                    traceback.print_exception(err, file=sys.stderr)
            self.failed += 1
        return trace_file

    def items_per_s(self):
        """Median throughput over consecutive windows of >= WINDOW_S busy time.

        Each window is a whole number of the workload's ``window_calls``
        calls. The host's speed drifts by tens of percent for seconds at a
        time; the median over windows keeps such a phase from moving the
        figure unless it covers most of the run.
        """
        rates, items, busy = [], 0, 0.0
        for i, (n, latency) in enumerate(zip(self.call_items, self.latencies)):
            items += n
            busy += latency
            if busy >= WINDOW_S and (i + 1) % self.wl.window_calls == 0:
                rates.append(items / busy)
                items, busy = 0, 0.0
        if busy > 0 and not rates:
            rates.append(items / busy)
        return statistics.median(rates)


def warm_up(wl):
    t0, i = time.perf_counter(), -1
    while True:
        wl.run(wl.call(i))
        i -= 1
        if time.perf_counter() - t0 >= WARMUP_S:
            return


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    idx = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def measuring(args, wl, i, busy_s, t_start):
    """Keep calling until --seconds of busy time, then to the end of a
    window, so that every run holds the same mix of call sizes."""
    if time.perf_counter() - t_start >= WALL_LIMIT_S:
        return False
    return busy_s < args.seconds or i % wl.window_calls != 0


def untraced_run(args, wl, t_start):
    run, probes = Run(wl), SetupProbes(args)
    i = 0
    while measuring(args, wl, i, run.busy_s, t_start):
        probes.due(run.busy_s)
        run.call(i, wl.call(i))
        i += 1
    return run, probes.median()


def traced_run(args, wl, t_start):
    """Each call untraced and traced, alternating which goes first."""
    from tracer import Totals, Tracer

    tracer = Tracer()
    plain, traced = Run(wl), Run(wl)
    child_totals, child_run_s = Totals(), []
    i = 0
    while measuring(args, wl, i, plain.busy_s + traced.busy_s, t_start):
        spec = wl.call(i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.call(i, spec)
                continue
            trace_file = traced.call(i, spec, tracer)
            if trace_file is not None and trace_file.exists():
                doc = json.loads(trace_file.read_text())
                trace_file.unlink()
                child_totals.merge(Totals.from_dict(doc["totals"]))
                child_run_s.append(doc["run_s"])
            elif tracer.pending() > FOLD_SPANS:
                tracer.fold()
        i += 1
    tracer.fold()
    totals = tracer.totals if wl.in_process else child_totals
    return plain, traced, totals, child_run_s


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def cold_start_breakdown():
    """Bare interpreter, numpy import and uavwpt.cli import, from outside (s)."""
    from cli_cold import cli_env

    probes = {"pass": "pass", "numpy": "import numpy", "cli": "import uavwpt.cli"}
    times = {k: [] for k in probes}
    for _ in range(BREAKDOWN_ROUNDS):
        for key, code in probes.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(ROOT),
                           check=True, timeout=60)
            times[key].append(time.perf_counter() - t0)
    return {k: statistics.median(v) for k, v in times.items()}


def roadmap_baselines():
    """The ROADMAP's five baseline calls, untraced: (metrics, outputs correct).

    ROADMAP names the calls but not every argument; these follow its
    default-uav/d100w4 pair and the README examples: the coaxial sweep and
    the 4x4 grid over dz 50-200 mm (x lateral 0-30 mm), the map over 0-90 mm
    at 100 mm, one 720-segment mutual at 100 mm, and the README link.
    """
    import oracle
    import uavwpt as u
    from uavwpt.presets import CIRCUIT_ESR, COILS

    tx, rx = COILS["default-uav"], COILS["d100w4"]
    dz = [0.05, 0.10, 0.15, 0.20]
    lateral = [0.0, 0.01, 0.02, 0.03]
    offsets = [j * 0.01 for j in range(10)]

    def median_time(reps, fn, *args):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn(*args)
            times.append(time.perf_counter() - t0)
        return out, statistics.median(times)

    m, t_neumann = median_time(3, u.neumann_mutual, tx, rx, u.Pose(dz=0.1),
                               u.LoopDiscretization(720))
    grid, t_grid = median_time(1, lambda: u.misalignment_grid(tx, rx, dz, lateral_list=lateral))
    rows, t_map = median_time(1, u.max_efficiency_map, tx, rx, 0.1, offsets, CIRCUIT_ESR)
    coax, t_coax = median_time(200, u.coupling_vs_distance, tx, rx, dz)
    l1, l2, k, rl = 1.9718e-6, 3.3568e-6, 0.042, 14.59  # the README link example
    link = u.series_tuned_link(l1, l2, k, rl)
    batch = 1000

    def solve_batch():
        for _ in range(batch):
            sol = u.solve_link(link, 1.0)
        return sol

    sol, t_solve = median_time(20, solve_batch)

    norm = math.sqrt(oracle.coil_l(tx) * oracle.coil_l(rx))

    def k_of(**pose):
        return oracle.posed_mutual(tx.winding_radii, rx.winding_radii, **pose) / norm

    want_grid = [k_of(dx=x, dz=d) for d in dz for x in lateral]
    want_map = [k_of(dx=x, dz=0.1) for x in offsets]
    want_coax = [k_of(dz=d) for d in dz]
    ok = (
        abs(m / norm - k_of(dz=0.1)) <= 1e-9 * abs(k_of(dz=0.1))
        and max(abs(a - b) for a, b in zip(grid.ravel(), want_grid)) <= 1e-9 * max(want_grid)
        and max(abs(r[1] - b) for r, b in zip(rows, want_map)) <= 1e-9 * max(want_map)
        and max(abs(r[1] - b) for r, b in zip(coax, want_coax)) <= 1e-9 * max(want_coax)
        and abs(sol.efficiency - oracle.tuned_eta(l1, l2, k, *CIRCUIT_ESR, rl, 6.78e6)) <= 1e-9
    )
    return {
        "baseline.neumann_720_ms": (t_neumann * 1e3, "ms"),
        "baseline.grid_4x4_ms": (t_grid * 1e3, "ms"),
        "baseline.map_10_ms": (t_map * 1e3, "ms"),
        "baseline.coaxial_sweep_4_ms": (t_coax * 1e3, "ms"),
        "baseline.solve_link_us": (t_solve / batch * 1e6, "us"),
    }, ok


def blas_threads():
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_info(seed):
    import platform

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def end_to_end_metrics(wl, run, setup_s):
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tail_s, pct = tail(run.latencies)
    print(f"call_tail_ms is p{pct:.1f} of {len(run.latencies)} calls")
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (run.items_per_s(), "1/s"),
        "call_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer_metrics(wl, plain, traced, totals, child_run_s):
    ms = {}
    for layer, seconds in totals.self_s.items():
        ms[f"{layer}.self_ms"] = (seconds * 1e3, "ms")
    for layer in ("numerics.elliptic", "coils.coaxial_mutual", "coils.self_inductance",
                  "coupling.neumann", "link.solve"):
        ms[f"{layer}.calls"] = (totals.calls[layer], "count")
    ms["coupling.neumann.p50_ms"] = (
        median_or_zero(totals.durations["coupling.neumann_mutual"]) * 1e3, "ms")
    parse_s = totals.self_s["touchstone.parse"]
    ms["touchstone.parse.mb_per_s"] = (
        traced.parse_bytes / 1e6 / parse_s if parse_s > 0 else 0.0, "MB/s")
    ms["sustainability.breakeven.calls"] = (totals.counted["sustainability.breakeven"], "count")
    for module, count in totals.errors.items():
        ms[f"{module}.errors"] = (count, "count")
    ms["coupling.max_err_k"] = (wl.max_err_k, "rel")
    attempted = plain.attempted + traced.attempted
    ms["failed_frac"] = ((plain.failed + traced.failed) / attempted, "frac")
    ips_plain, ips_traced = plain.items_per_s(), traced.items_per_s()
    ms["trace.items_per_s_untraced"] = (ips_plain, "1/s")
    ms["trace.items_per_s_traced"] = (ips_traced, "1/s")
    ms["trace.overhead_frac"] = (ips_plain / ips_traced - 1.0, "frac")
    self_sum = sum(totals.self_s.values())
    ms["trace.wall_ms"] = (traced.busy_s * 1e3, "ms")
    ms["trace.self_sum_ms"] = (self_sum * 1e3, "ms")
    ms["trace.outside_ms"] = ((traced.busy_s - self_sum) * 1e3, "ms")
    ms["cli.run_ms"] = (median_or_zero(child_run_s) * 1e3, "ms")
    # self times must partition the root spans exactly
    consistent = (abs(self_sum - totals.root_s) <= 1e-9 * max(1.0, totals.root_s)
                  and totals.min_self_s >= -1e-6 and self_sum <= traced.busy_s)
    return ms, consistent


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    load_program()
    if args.setup_probe:
        make_workload(args)
        print("ready", flush=True)
        return 0
    SCRATCH.mkdir(exist_ok=True)
    wl = make_workload(args)
    warm_up(wl)
    if args.trace == 0:
        run, setup_s = untraced_run(args, wl, t_start)
        metrics = end_to_end_metrics(wl, run, setup_s)
        attempted, failed, consistent = run.attempted, run.failed, True
    else:
        plain, traced, totals, child_run_s = traced_run(args, wl, t_start)
        metrics, consistent = per_layer_metrics(wl, plain, traced, totals, child_run_s)
        (SCRATCH / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(totals.as_dict(), indent=1))
        base, base_ok = roadmap_baselines()
        metrics.update(base)
        cold = cold_start_breakdown()
        metrics["cli.interpreter_ms"] = (cold["pass"] * 1e3, "ms")
        metrics["cli.numpy_import_ms"] = ((cold["numpy"] - cold["pass"]) * 1e3, "ms")
        metrics["cli.import_ms"] = ((cold["cli"] - cold["pass"]) * 1e3, "ms")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        consistent = consistent and base_ok
        print(f"untraced {plain.items_per_s():.6g} items/s, traced "
              f"{traced.items_per_s():.6g} items/s over {plain.attempted} paired calls")
    print(json.dumps({"machine": machine_info(args.seed), "workload": args.workload}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
