"""Golden reports: sha256 of in-process ``cm`` output, fixed across refactors.

A change that alters one of these reports on purpose says why and records
the new hash.
"""

import contextlib
import hashlib
import io
import json

import pytest

from cmcalc import cli
from cmcalc.battery import BATTERY_NAMES
from cmcalc.cmtypes import CMFieldHandle
from cmcalc.cocycle import cocycle_report
from cmcalc.groups import cyclic_group, dihedral_group, direct_product

GOLDEN = {
    "zeta_gauss": (
        ["zeta", "--curve=-1,0", "--d", "-1", "--pmax", "1000", "--res-scalars", "60",
         "--verbose"],
        "c91e9b1f808d96ebb2401ea5fa9893a160366784798f5fc2a0916ac77434efac",
    ),
    "zeta_eisenstein": (
        ["zeta", "--curve=0,16", "--d", "-3", "--pmax", "1000", "--res-scalars", "60",
         "--verbose"],
        "82d4c7cf2395b60967b66b517ab95cdc566e925e2ca34469ae25ca8ae6682f58",
    ),
    "zeta_eisenstein_pmax_1e4": (
        ["zeta", "--curve=0,16", "--d", "-3", "--pmax", "10000", "--res-scalars", "210",
         "--verbose"],
        "ce23fd71bbc9693ff9523eccf79c73404e9d58e29b1611adadceff3aa5d3e9a4",
    ),
    "zeta_gauss_pmax_1e5": (
        ["zeta", "--curve=-1,0", "--d", "-1", "--pmax", "100000"],
        "6a1e0dedf0358b0b65f01016ff2bc6eb674b9f323b4c8b6322606a6fc0e75dff",
    ),
    "zeta_eisenstein_pmax_1e5": (
        ["zeta", "--curve=0,16", "--d", "-3", "--pmax", "100000"],
        "25c760c69c46144ab334b5a7cb395ddf8e6d5e5b1ccc3fc73f12d656414a3274",
    ),
    "rayclass_gauss_97": (
        ["rayclass", "--d", "-1", "--modulus", "gen:97,0"],
        "0bf5e89613324914a121233a2abad45e10fa95986b848bb597573bd2eee85093",
    ),
    "rayclass_eisenstein_97": (
        ["rayclass", "--d", "-3", "--modulus", "gen:97,0"],
        "fbbaa4d55881ab57971e4dcc030d8d49f020da8517574e6bf149d81f4b3d67a3",
    ),
    "check": (
        ["check", "--suite", "all", "--battery", "all", "--seed", "7", "--trials", "20"],
        "9987cd74a36bb0bbca5002078c17debda8261b2996db2f0abdd9bcfd72e1279c",
    ),
}
ENUMERATE_ALL = "522e9d379bfe474a55a10174868d80adcd0921e57cd38582638ca58c8606f50f"
# concatenated over BATTERY_NAMES
BATTERY_ALL = {
    "serre": "4b25579f954946e99c43d260042d3b0870af611bd1fc588765c352fa132811d5",
    "transfer": "98ebe5d4c1c068625fb414b2ddd56a029ffc2954ea20a57b72692b968d478a20",
}
# the order-16 field file D4 x C2, iota 4, H = [0, 8], read as ORDER16_FILE
ORDER16_FILE = "order16.json"
ORDER16 = {
    "serre": "5fb22c22947d4e2e5afefe8cf9d596f14da69c3201c503714f0a1c5548ad17cc",
    "enumerate": "c91899fb9cf98e5593017c3e923db86038d64f06f496b3a78216bd99cde66f96",
}
# cm serre on D4 x C2 x C2, iota 1, H = [0] (2^16 types), read as ORDER32_FILE, and the
# sha256 of its "report" part, which the per-type sweep also produced
ORDER32_FILE = "order32.json"
ORDER32_SERRE = "0b94d3ec960813ae846179c5c82d25aa5aad62fb4e1fb9f5ab9d207259de96e7"
ORDER32_REPORT = "a37e0c7826f67625d01e933890109dff57dfb0d0ddf1acabf0f7ea12585da3a6"
# cocycle_report(trials=4, seed=0) on the same field and on its closure,
# the two order-16 reports of the galois benchmark workload
COCYCLE16 = {
    "field": "fd987b76b38afca9a530d8b13d0871ed2764b95b937c2a93b4594de188a480c6",
    "closure": "1713c0623715481cbc19ab01683f9a57ebf1cee9bd47b531194d73af22118486",
}


def report_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name):
    argv, digest = GOLDEN[name]
    assert sha256(report_text(argv)) == digest


def test_golden_battery_enumerate():
    text = "".join(report_text(["enumerate", "--battery", n]) for n in BATTERY_NAMES)
    assert sha256(text) == ENUMERATE_ALL


@pytest.mark.parametrize("command", sorted(BATTERY_ALL))
def test_golden_battery_report(command):
    text = "".join(report_text([command, "--battery", n]) for n in BATTERY_NAMES)
    assert sha256(text) == BATTERY_ALL[command]


@pytest.mark.parametrize("command", sorted(ORDER16))
def test_golden_order16_field_file(command, tmp_path, monkeypatch):
    group = direct_product(dihedral_group(4), cyclic_group(2))
    payload = {"group": {"table": [list(r) for r in group.table]}, "iota": 4, "H": [0, 8]}
    # the report names its field file, so the file is read by a fixed relative name
    monkeypatch.chdir(tmp_path)
    (tmp_path / ORDER16_FILE).write_text(json.dumps(payload))
    assert sha256(report_text([command, ORDER16_FILE])) == ORDER16[command]


def test_golden_order32_serre(tmp_path, monkeypatch):
    group = direct_product(direct_product(dihedral_group(4), cyclic_group(2)), cyclic_group(2))
    payload = {"group": {"table": [list(r) for r in group.table]}, "iota": 1, "H": [0]}
    monkeypatch.chdir(tmp_path)
    (tmp_path / ORDER32_FILE).write_text(json.dumps(payload))
    text = report_text(["serre", ORDER32_FILE])
    assert sha256(text) == ORDER32_SERRE
    report = json.loads(text)["report"]
    assert sha256(json.dumps(report, sort_keys=True, indent=2) + "\n") == ORDER32_REPORT


@pytest.mark.parametrize("which", sorted(COCYCLE16))
def test_golden_order16_cocycle(which):
    group = direct_product(dihedral_group(4), cyclic_group(2))
    field = CMFieldHandle(group=group, iota=4, fixer=group.subgroup([0, 8]))
    target = field.closure if which == "closure" else field
    text = json.dumps(cocycle_report(target, trials=4, seed=0), sort_keys=True, indent=2) + "\n"
    assert sha256(text) == COCYCLE16[which]
