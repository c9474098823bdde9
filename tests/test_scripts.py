"""The demo and differential scripts run end to end as their docstrings say."""

import os
import subprocess
import sys
from pathlib import Path

from redip.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_posterior_demo_reads_a_prior_file(tmp_path, capsys):
    program = str(ROOT / "programs" / "insurance.redip")
    prior = tmp_path / "posterior.json"
    assert main(["infer", program, "-o", str(prior)]) == 0
    capsys.readouterr()
    run = run_script("posterior_demo.py", program, "--prior", str(prior), "--upto", "3")
    assert run.returncode == 0, run.stderr
    # the prior already satisfies observe(x >= 2), so conditioning keeps all its mass
    assert "normalizing constant: 1 (= 1)" in run.stdout
    assert "posterior marginal of x" in run.stdout


def test_differential_runner_agrees_on_a_few_programs():
    run = run_script("differential_runner.py", "--programs", "20", "--seed", "7")
    assert run.returncode == 0, run.stdout + run.stderr
    assert "OK: translation and interpreter agree everywhere" in run.stdout
