"""Record the golden stdout and exit code of every cli-cold invocation.

Run from the repository root, at the commit whose output is the
reference: python3 perfbench/capture_golden.py
"""

import json
from pathlib import Path

from cli_cold import CLI_INVOCATIONS, GOLDEN, run_cli


def main():
    golden = {}
    for name, argv in CLI_INVOCATIONS:
        code, stdout = run_cli(Path.cwd(), argv)
        golden[name] = {"argv": argv, "exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
