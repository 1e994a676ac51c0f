"""The cli-cold workload: README CLI examples run as fresh processes.

Kept apart from the in-process workloads so that its own process imports
neither numpy nor uavwpt: its set-up time and memory are its own.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-9

FIXTURES = "src/uavwpt/data/fixtures"
# Every README CLI example except the misalignment one (pose-sweep covers
# it), with the bundled fixtures for ingest, plus two that must fail.
CLI_INVOCATIONS = (
    ("coupling", ["coupling", "--tx", "default-uav", "--rx", "d100w4",
                  "--dz-mm", "50", "100", "150", "200"]),
    ("inductance", ["inductance", "--coil", "default-uav", "d100w4"]),
    ("tune", ["tune", "--l-uh", "1.9718", "--freq-mhz", "6.78", "--e12"]),
    ("link", ["link", "--l1-uh", "1.9718", "--l2-uh", "3.3568", "--k", "0.042",
              "--rl-ohm", "14.59", "--target-w", "0.25"]),
    ("ingest", ["ingest"] + [f"{FIXTURES}/openair_dz{d}.s2p" for d in (50, 100, 150, 200)]
     + ["--dz-mm", "50", "100", "150", "200", "--tx", "default-uav", "--rx", "d100w4"]),
    ("mission", ["mission", "--dz-mm", "50", "--hover-w", "120", "--rate-c", "10",
                 "--leakage-ua", "1.5"]),
    ("gwp-inventory", ["gwp", "inventory", "--name", "node-low-power"]),
    ("gwp-curve", ["gwp", "curve", "--scenario", "uav-low", "replace-5yr-low",
                   "--horizon-yr", "15", "--step-yr", "1"]),
    ("gwp-breakeven", ["gwp", "breakeven", "--a", "uav-low", "--b", "replace-5yr"]),
    ("unknown-preset", ["coupling", "--tx", "no-such-coil", "--rx", "d100w4", "--dz-mm", "100"]),
    ("bad-flags", ["tune", "--l-uh", "1.9718", "--coil", "d100w4"]),
)
GOLDEN = HERE / "golden.json"
ENTRY = "from uavwpt.cli import entrypoint; entrypoint()"


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def run_cli(root, argv, trace_path=None, timeout=120):
    """One CLI invocation as a fresh process: (exit code, stdout)."""
    if trace_path is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "clichild.py"), str(trace_path), *argv]
    proc = subprocess.run(cmd, cwd=root, env=cli_env(root), capture_output=True, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout


def _field_equal(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return a == b
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def same_output(got, want):
    """CSV stdout compared field by field: numbers to 1e-9 relative, text exactly."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for g, w in zip(got_lines, want_lines):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf) or not all(_field_equal(a, b) for a, b in zip(gf, wf)):
            return False
    return True


class CliCold:
    name = "cli-cold"
    in_process = False
    window_calls = len(CLI_INVOCATIONS)  # whole passes over the invocations
    max_err_k = 0.0  # no coupling factors are checked against the oracle here

    def __init__(self, seed, root):
        self.seed = seed
        self.root = Path(root)
        self.golden = json.loads(GOLDEN.read_text())
        self.fixture_bytes = sum(
            (self.root / p).stat().st_size
            for p in CLI_INVOCATIONS[4][1] if p.endswith(".s2p")
        )

    def call(self, i):
        n = len(CLI_INVOCATIONS)
        order = random.Random(f"{self.name}:{self.seed}:{i // n}").sample(range(n), n)
        return CLI_INVOCATIONS[order[i % n]]

    def items(self, spec):
        return 1

    def run(self, spec, trace_path=None):
        return run_cli(self.root, spec[1], trace_path)

    def parse_bytes(self, spec, output):
        return self.fixture_bytes if spec[0] == "ingest" else 0

    def check(self, spec, out):
        want = self.golden[spec[0]]
        code, stdout = out
        return code == want["exit"] and same_output(stdout, want["stdout"])
