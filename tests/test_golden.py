"""Golden reports: sha256 of in-process ``cm`` output, fixed across refactors.

A change that alters one of these reports on purpose says why and records
the new hash.
"""

import contextlib
import hashlib
import io

import pytest

from cmcalc import cli
from cmcalc.battery import BATTERY_NAMES

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
    "check": (
        ["check", "--suite", "all", "--battery", "all", "--seed", "7", "--trials", "20"],
        "9987cd74a36bb0bbca5002078c17debda8261b2996db2f0abdd9bcfd72e1279c",
    ),
}
ENUMERATE_ALL = "522e9d379bfe474a55a10174868d80adcd0921e57cd38582638ca58c8606f50f"


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
