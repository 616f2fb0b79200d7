"""Which cmcalc modules a process loads.

`import cmcalc` loads no submodule; the package imports each on first use.
The CLI loads the arithmetic half (quadratic, zeta) at import, and each
Galois command loads the Galois half (groups, cmtypes, serre, cocycle,
battery) when it runs, so `cm rayclass` and `cm zeta` never compile it.
No stage loads `dataclasses` or `inspect`.
Each check runs in a fresh interpreter that imports the same cmcalc as
this process (a mutated copy included).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmcalc

ARITHMETIC = ["cli", "errors", "intlinalg", "quadratic", "zeta"]
GALOIS = ["battery", "cmtypes", "cocycle", "groups", "serre"]

PRELUDE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cmcalc."))
def heavy():
    return sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
stages = {}
"""


def fresh_stages(body: str) -> dict:
    """Run PRELUDE + body in a fresh interpreter and return its `stages`."""
    env = dict(os.environ, PYTHONPATH=str(Path(cmcalc.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body + "\nprint(json.dumps(stages))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def stages():
    return fresh_stages("""
import cmcalc
stages["package"] = loaded()
import cmcalc.cli
stages["cli"] = loaded()
stages["cli heavy"] = heavy()
with contextlib.redirect_stdout(io.StringIO()):
    stages["rc"] = [
        cmcalc.cli.main(["rayclass", "--d", "-1", "--modulus", "gen:3,0"]),
        cmcalc.cli.main(["zeta", "--curve=-1,0", "--d", "-1", "--pmax", "50"]),
    ]
stages["arithmetic commands"] = loaded()
stages["arithmetic commands heavy"] = heavy()
cmcalc.battery_field("C4")
stages["battery"] = loaded()
stages["battery heavy"] = heavy()
""")


def test_package_import_loads_no_submodule(stages):
    assert stages["package"] == []


def test_cli_loads_the_arithmetic_half(stages):
    assert stages["cli"] == ARITHMETIC


def test_arithmetic_commands_load_nothing_more(stages):
    assert stages["rc"] == [0, 0]
    assert stages["arithmetic commands"] == ARITHMETIC


def test_battery_field_loads_the_galois_half(stages):
    assert stages["battery"] == sorted(ARITHMETIC + GALOIS)


@pytest.mark.parametrize("stage", ["cli", "arithmetic commands", "battery"])
def test_no_stage_loads_dataclasses_or_inspect(stages, stage):
    # records are plain classes on errors.Record: no code generated at import
    assert stages[f"{stage} heavy"] == []


def test_submodule_loaded_on_first_use_of_its_name():
    # cmbench/worker.py reads cmcalc.cocycle.cocycle_report
    stages = fresh_stages("""
import cmcalc
stages["same"] = cmcalc.cocycle is sys.modules["cmcalc.cocycle"]
stages["report"] = callable(cmcalc.cocycle.cocycle_report)
stages["intlinalg"] = cmcalc.intlinalg is sys.modules["cmcalc.intlinalg"]
""")
    assert stages == {"same": True, "report": True, "intlinalg": True}


def test_exports_are_the_defining_modules_objects():
    assert len(cmcalc.__all__) == len(set(cmcalc.__all__)) == 65
    for name in cmcalc.__all__:
        value = getattr(cmcalc, name)
        # a class or function names its module; a constant is its table entry's
        home = getattr(value, "__module__", None) or f"cmcalc.{cmcalc._OWNER[name]}"
        assert getattr(sys.modules[home], name) is value, name
    assert set(cmcalc.__all__) <= set(dir(cmcalc))
    assert {"cocycle", "zeta", "cli"} <= set(dir(cmcalc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cmcalc.no_such_name  # noqa: B018
    assert not hasattr(cmcalc, "no_such_name")
