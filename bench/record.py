"""Record the expected outputs of every pool member into expected.json.

    python3 bench/record.py

Run it at the commit whose behaviour is the reference. For each pool it
generates every member, runs the member's CLI command, and stores the
member's digest with the discrete verdict fields the benchmark's checks
compare against.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=BENCH_DIR
    ).stdout.strip()
    pools = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "member.json"
        for spec in [*workloads.SCAN_POOLS.values(), *workloads.STRUCTURE_POOLS.values()]:
            members = []
            for index in range(spec.size):
                a = spec.member(index)
                path.write_text(workloads.matrix_json(a))
                code, stdout = workloads.cli_call(spec.argv(str(path)))()
                members.append(
                    {
                        "digest": workloads.digest(a),
                        "expect": workloads.report_fields(spec.command, code, stdout),
                    }
                )
            pools[spec.key] = members
            print(spec.key, len(members), file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(
        json.dumps({"recorded_at": commit or "unknown", "pools": pools}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
