"""The bit-identity script: one fingerprint line per corpus program."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_prints_one_line_per_program():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--seeds", "3"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # 600 random programs and the 3 desk programs, 2 geo-chains, 2 dec-ladders, 8 sugar programs
    assert len(lines) == 615
    assert [int(line.split()[0]) for line in lines] == list(range(615))
    assert all(" posterior=" in line or " error=" in line for line in lines)
