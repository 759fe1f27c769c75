"""``scripts/traffic_lines.py`` runs: its workloads' checks pass, and it
ends with the count of the package statements that nothing it runs
executes, one listed line per statement."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traffic_lines_runs_and_counts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "traffic_lines.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    *listed, last = result.stdout.splitlines()
    match = re.fullmatch(r"(\d+) statements never executed", last)
    assert match, last
    assert int(match.group(1)) == len(listed)
    for line in listed:
        assert re.match(r"src/molscreen/\S+\.py:\d+: ", line), line
