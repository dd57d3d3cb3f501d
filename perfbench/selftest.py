"""Smoke self-test of the benchmark at minimum size.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first failed
assertion.  Three parts:

1. every workload in ``BENCHMARK.json`` runs in both modes at
   ``--seconds 1``, and every metric listed there is emitted, with its
   unit, and nothing fails;
2. tampered copies of real outputs (a wrong abort count, a dropped audit
   row, a shifted q00, ...) are each counted as failed;
3. without the program's sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")})
sys.path.insert(0, str(ROOT / "src"))

from worker import Pass, serve  # noqa: E402  (needs the path and BLAS pin above)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics_emitted():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", wl, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (wl, trace, set(got) ^ set(want))
            for name, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), name
                assert math.isfinite(v["value"]), name
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values())
            if wl == "mc-aborts" and trace == 1:
                assert result["metrics"]["montecarlo.abort_frac"]["value"] > 0
            print(f"ok  {wl} --trace {trace}: {len(got)} metrics")


def _json_edit(edit):
    def tamper(out):
        payload = json.loads(out)
        edit(payload)
        return json.dumps(payload)
    return tamper


def _flip_first_ok_row(out):
    lines = out.splitlines()
    for i, line in enumerate(lines[1:-1], 1):
        fields = line.split(",")
        if fields[1] == "ok":
            fields[1:3] = ["fail", "parameter_estimation"]
            lines[i] = ",".join(fields)
            break
    return "\n".join(lines) + "\n"


def _drop_csv_row(out):
    lines = out.splitlines()
    return "\n".join(lines[:1] + lines[2:]) + "\n"


def _shift_q00(payload):
    if "rows" in payload:
        payload["rows"][0][1] += 1e-6
    else:
        payload["location"][0] += 1e-6


def _drop_audit_row(payload):
    del payload["audits"][-1]
    payload["summary"]["count"] -= 1


TAMPERS = {
    "mc-campaign": [
        # The first cell (beta 0.95, f~ 0.99) has a robustness bound of 0.94.
        _json_edit(lambda p: p.update(abort_rate=1.0)),
        _json_edit(lambda p: p.update(trials=p["trials"] - 1)),
        _json_edit(lambda p: p.update(config_hash="0" * 64)),
    ],
    "mc-aborts": [_flip_first_ok_row, _drop_csv_row],
    "stability-scan": [_json_edit(_shift_q00)],
    "steering-audit": [
        _json_edit(_drop_audit_row),
        _json_edit(lambda p: p["summary"].update(violations=1)),
        lambda out: out[: len(out) // 2],  # truncated JSON
    ],
}


def check_tampering_counted():
    for name, tampers in TAMPERS.items():
        wl = WORKLOADS[name]
        reqs = list(islice(wl.requests(1), len(tampers)))
        p = Pass(wl)
        for i, (req, tamper) in enumerate(zip(reqs, tampers)):
            rc, dt, out, err = serve(req)
            p.record(req, rc, dt, out, err)
            assert len(p.failures) == i, p.failures
            p.record(req, rc, dt, tamper(out), err)
            assert len(p.failures) == i + 1, (name, i)
        assert p.attempted == 2 * len(tampers)
        print(f"ok  {name}: {len(tampers)} tampered outputs counted as failed")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "mc-campaign", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's sources")


if __name__ == "__main__":
    check_metrics_emitted()
    check_tampering_counted()
    check_refuses_without_sources()
