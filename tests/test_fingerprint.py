"""The bit-identity script: one fingerprint line per corpus program."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fingerprint_lines(*flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--seeds", "3", *flags],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_fingerprint_prints_one_line_per_program():
    lines = fingerprint_lines()
    # 600 random programs and the 3 desk programs, 2 geo-chains, 2 dec-ladders,
    # 8 sugar programs, 4 programs with a prior
    assert len(lines) == 619
    assert [int(line.split()[0]) for line in lines] == list(range(619))
    assert all(" posterior=" in line or " error=" in line for line in lines)
    # every program parses, so every line carries the sampler's column
    assert all(re.search(r" mc=[0-9a-f]{16}( |$)", line) for line in lines)
    # every line carries the oracle's column, error lines too
    assert all(re.search(r" oracle=[0-9a-f]{16}( |$)", line) for line in lines)


def test_answers_only_drops_the_automaton_columns():
    full, answers = fingerprint_lines(), fingerprint_lines("--answers-only")
    assert len(answers) == len(full) == 619
    assert not any("posterior=" in line or "steps=" in line for line in answers)
    assert all(" z=" in line or " error=" in line for line in answers)
    assert all(" mc=" in line and " oracle=" in line for line in answers)
    # every other column is kept as it is
    assert answers == [re.sub(r" (posterior|steps)=[0-9a-f]{16}", "", line) for line in full]
