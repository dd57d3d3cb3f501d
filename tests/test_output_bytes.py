"""Byte-exact CLI outputs.

A refactor that claims "same results" must leave these outputs
byte-identical, so each one is pinned by its sha256: the eight figure
CSVs, a dejmps scan on a white and a corr2 grid, the full 16-variable
trace, a 300-state steering audit (two audit chunks) and three Monte Carlo
runs: the JSON of a criterion-10 cell on a 64-bit seed, the trial table of
a small-ensemble cell that aborts in estimation on a 32-bit seed, and a
70 000-trial table, which spans two sampler blocks.  The trial tables
carry every trial's fidelity estimate and final pair count, so they pin
the estimation stream and every round's stream.

The digests were recorded with numpy 2.4.6 on Python 3.11.7 (x86-64).
Another numpy may move a last bit (an eigensolver, a summation order);
then check that the change is that and nothing more, and re-record with
``PYTHONPATH=src python tests/test_output_bytes.py``, which prints the
digests of the current code.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from qdistill import cli

OUTPUTS = {
    **{f"figure-{name}": ["trace", "--figure", name]
       for name in cli.FIGURE_NAMES},
    "scan-dejmps-white": ["scan", "--protocol", "dejmps", "--noise-kind",
                          "white", "--noise-grid", "0.88:1:0.02"],
    "scan-dejmps-corr2": ["scan", "--protocol", "dejmps", "--noise-kind",
                          "corr2", "--noise-grid", "0.8:1:0.02"],
    "trace-full-white": ["trace", "--full", "--noise", "white:0.99"],
    "steering-audit-300": ["steering-audit", "--states", "300",
                           "--seed", "11"],
    "montecarlo-criterion10-json": [
        "montecarlo", "--n-pairs", "16384", "--beta", "0.98",
        "--noise", "corr2:0.999", "--rounds", "4", "--f-min", "auto",
        "--trials", "1000", "--seed", str(2 ** 64 - 59)],
    "montecarlo-aborts-csv": [
        "montecarlo", "--n-pairs", "256", "--beta", "0.6",
        "--noise", "corr2:0.99", "--rounds", "4", "--f-min", "auto",
        "--trials", "1000", "--seed", str(2 ** 32 - 1), "--emit", "csv"],
    "montecarlo-two-block-csv": [
        "montecarlo", "--n-pairs", "1024", "--beta", "0.7",
        "--noise", "corr2:0.99", "--rounds", "4", "--f-min", "auto",
        "--trials", "70000", "--seed", str(2 ** 63 + 5), "--emit", "csv"],
}

DIGESTS = {
    "figure-dejmps-convergence":
        "8cbf446369857e1b387154db161286e2f2cd38ed4b78430ba5f3e178070d9b66",
    "figure-lambda-max":
        "cf83ae54b2b795445f8580399ec231a895e560e88e4fd619661b5a0551375e45",
    "figure-p0000-fixed":
        "548c83bccdefe3b104585831049c2145ef345b3b390359005a707b4b54558275",
    "figure-bbpssw-convergence":
        "c4f6cdf74b4a79bfa3ec7170996b22092f042d2407f033e637f4d1377e5ffa31",
    "figure-discriminant":
        "2252448a96f92790962001b1acfb4841eb1bd4266b96a546e81e546927dad09a",
    "figure-gfix":
        "d5ab2e14bdaceb5b6b8d1d6c67822bed89ae9820295871a844105611c618e053",
    "figure-worstcase-attractivity":
        "0796a957af05638ebaae576b1ced8eee89e2d6ecc2b082d7b992a01b6eeac69a",
    "figure-binary-postselect":
        "7098d2f17013e141e05c5ca69e88f97c534e4924fbb5e79b692eb5d6b032bf95",
    "scan-dejmps-white":
        "a151fe0af69a31c0387b59d8beb09491a5b29a0cfdaa42daa74c0e7f66ef2e37",
    "scan-dejmps-corr2":
        "0047fee11c14b65fb325d864675db6a70523fc49da640abdf124f75c89b5841e",
    "trace-full-white":
        "5136cfbb25cdc258f63b0adf80a5eaf44253186bb0e868f59cd662fb1b1d7db1",
    "steering-audit-300":
        "256ae208486bf37f9fc29df1456d5b5dbba625a2bb14809c03ff18b58074ea1b",
    "montecarlo-criterion10-json":
        "33d9f997895db1d7b2308d907088d0f3a2e10a1494b1f56ec9fc485c39302de7",
    "montecarlo-aborts-csv":
        "6677d245ae28b6a7a05cff0f05847caaaeb1e1eeba21e19d3bee833d0bd90aa0",
    "montecarlo-two-block-csv":
        "17fce95b749458fae0007e0eeade0a651a5b3cc73e6f5cdce07cb8669b1b96e5",
}


def output_digest(argv, path) -> str:
    """sha256 of the bytes ``qdistill argv --out path`` writes; what goes
    to stdout (the JSON summary of a ``--emit csv`` run) is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_output_has_a_digest():
    assert sorted(DIGESTS) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_bytes(name, tmp_path):
    assert output_digest(OUTPUTS[name], tmp_path / "out") == DIGESTS[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in OUTPUTS.items():
            digest = output_digest(argv, pathlib.Path(tmp) / "out")
            sys.stdout.write(f'    "{name}":\n        "{digest}",\n')
