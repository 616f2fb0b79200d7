"""The benchmark's layer trace still binds to cmcalc.

cmbench/tracer.py rebinds the public functions it names in TARGETS and
unpacks what smith_normal_form returns.  One traced worker pass over a ray
class group, a battery enumeration and a short zeta sweep fails here if a
target disappears or the Smith form stops unpacking.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_worker_pass():
    ops = [
        ["rayclass", "--d", "-1", "--modulus", "gen:3,0"],
        ["enumerate", "--battery", "C4"],
        ["zeta", "--curve=-1,0", "--d", "-1", "--pmax", "50"],
    ]
    job = {
        "ops": [{"kind": "cli", "argv": argv} for argv in ops],
        "setup_only": False,
        "trace": True,
        "trace_file": None,
    }
    proc = subprocess.run(
        [sys.executable, "-m", "cmbench.worker"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads(proc.stdout.splitlines()[-1])
    assert meta["rc"] == [0, 0, 0], proc.stdout
    layers = meta["layers"]
    assert layers["intlinalg.snf.calls"] >= 1
    assert layers["intlinalg.hnf.calls"] >= 1
