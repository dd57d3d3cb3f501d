"""Every script under ``scripts/`` runs end to end on small arguments, in a
subprocess, so a public name a script uses cannot vanish unnoticed."""

import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# script -> (small arguments, lines printed); "{tmp}" stands for a fresh
# directory
CASES = {
    "abort_grid.py": (["--betas", "0.99", "--fidelities", "0.99",
                       "--n-pairs", "256", "--trials", "100"], 2),
    "convergence_report.py": (["--points", "2"], 3),
    "make_figure_data.py": (["--outdir", "{tmp}"], 8),
}


def test_every_script_has_a_case():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path):
    src = str(SCRIPTS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    args, lines = CASES[name]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args]
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == lines
    if name == "make_figure_data.py":
        assert len(list(tmp_path.glob("*.csv"))) == lines
