"""Command-line driver: subcommands, exit codes, determinism, file input."""

import json
import os
import subprocess
import sys
import time

import pytest

from cmcalc.cli import MAX_PMAX, MAX_RES_SCALARS, main


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_battery_c4(self, capsys):
        code, out, _ = run_main(capsys, "enumerate", "--battery", "C4")
        assert code == 0
        rep = json.loads(out)
        assert rep["degree"] == 4
        assert len(rep["types"]) == 4
        assert all(t["primitive"] and t["mt_rank"] == 3 for t in rep["types"])

    def test_battery_klein_flags_imprimitive(self, capsys):
        code, out, _ = run_main(capsys, "enumerate", "--battery", "C2xC2")
        rep = json.loads(out)
        assert code == 0
        assert all(not t["primitive"] and t["mt_rank"] == 2 for t in rep["types"])

    def test_unknown_battery(self, capsys):
        code, _, err = run_main(capsys, "enumerate", "--battery", "Q8")
        assert code == 2 and "unknown battery" in err

    def test_field_file(self, tmp_path, capsys):
        payload = {
            "group": {"table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]},
            "iota": 2,
            "H": [0],
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_main(capsys, "enumerate", str(path))
        assert code == 0
        assert json.loads(out)["degree"] == 4

    def test_one_element_field_file(self, tmp_path, capsys):
        # the degenerate rational context carries no CM-types: enumerate
        # refuses it as input, and serre keeps its rank-one report
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"group": {"table": [[0]]}, "H": [0], "iota": 0}))
        code, out, err = run_main(capsys, "enumerate", str(path))
        assert code == 2 and out == ""
        assert err == "error: degenerate rational context carries no CM-types\n"
        code, out, _ = run_main(capsys, "serre", str(path))
        report = json.loads(out)["report"]
        assert code == 0 and report["passed"] and report["serre_basis"] == [[1]]

    def test_field_file_with_group_path(self, tmp_path, capsys):
        group_path = tmp_path / "group.json"
        group_path.write_text(
            json.dumps({"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "c"]})
        )
        field_path = tmp_path / "field.json"
        field_path.write_text(
            json.dumps({"group": str(group_path), "iota": 1, "H": [0]})
        )
        code, out, _ = run_main(capsys, "enumerate", str(field_path))
        assert code == 0
        assert json.loads(out)["degree"] == 2

    def test_field_file_with_missing_group_path(self, tmp_path, capsys):
        field_path = tmp_path / "field.json"
        missing = tmp_path / "no_such_group.json"
        field_path.write_text(json.dumps({"group": str(missing), "iota": 1, "H": [0]}))
        code, out, err = run_main(capsys, "enumerate", str(field_path))
        assert code == 2 and out == ""
        assert f"cannot read {missing}" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_main(capsys, "enumerate", str(path))
        assert code == 2
        assert "bad.json:1" in err

    @pytest.mark.parametrize("iota", [99, -2])
    def test_iota_out_of_range(self, tmp_path, capsys, iota):
        cyclic4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"group": {"table": cyclic4}, "iota": iota, "H": [0]}))
        code, out, err = run_main(capsys, "enumerate", str(path))
        assert code == 2 and out == ""
        assert f"iota {iota} out of range 0..3" in err

    @pytest.mark.parametrize("command", ["enumerate", "serre"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_type_enumeration_bound(self, tmp_path, capsys, command, n):
        # C_n has 2^(n/2) CM-types: refused before any type is built
        cyclic = [[(a + b) % n for b in range(n)] for a in range(n)]
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"group": {"table": cyclic}, "iota": n // 2, "H": [0]}))
        start = time.perf_counter()
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2 and out == ""
        assert "exceed the enumeration bound" in err
        assert time.perf_counter() - start < 1.0

    def test_invalid_field_data(self, tmp_path, capsys):
        c2 = [[0, 1], [1, 0]]
        cases = [
            (c2, 0, "iota must differ from the identity"),
            # non-integers are refused, not truncated or read as 0 and 1
            ([[0, 1.7], [1, 0.2]], 1, "entry 1.7 in row 0 is not an integer"),
            ([[0, True], [True, 0]], 1, "entry True in row 0 is not an integer"),
            (c2, 1.9, "iota 1.9 is not an integer"),
            (c2, True, "iota True is not an integer"),
        ]
        path = tmp_path / "bad_field.json"
        for table, iota, message in cases:
            path.write_text(json.dumps({"group": {"table": table}, "iota": iota, "H": [0]}))
            code, _, err = run_main(capsys, "enumerate", str(path))
            assert code == 2 and "invalid field data" in err, (table, iota)
            assert message in err, err

    @pytest.mark.parametrize("command", ["enumerate", "transfer", "serre"])
    def test_non_group_above_order_64(self, tmp_path, capsys, command):
        # C200 with one entry changed: associativity fails at (3, 4, 1) only
        table = [[(a + b) % 200 for b in range(200)] for a in range(200)]
        table[3][5] = 9
        path = tmp_path / "field.json"
        payload = {"group": {"table": table}, "iota": 100, "H": list(range(0, 200, 8))}
        path.write_text(json.dumps(payload))
        code, out, err = run_main(capsys, command, str(path))
        assert code == 2 and out == ""
        assert "associativity fails" in err


class TestCheck:
    def test_single_battery_cocycle(self, capsys):
        code, out, _ = run_main(
            capsys, "check", "--suite", "cocycle", "--battery", "C2xC4",
            "--trials", "5", "--seed", "3",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["summary"]["failures"] == 0

    def test_injected_fault_fails_with_witness(self, capsys, monkeypatch):
        import cmcalc.cocycle
        from cmcalc.cocycle import cocycle_report
        from test_cocycle import TestNegativeControl

        def with_broken_system(field, **kwargs):
            broken = TestNegativeControl()._broken(field)
            return cocycle_report(field, extra_system=broken, **kwargs)

        # cm check imports cocycle_report from its module when it runs
        monkeypatch.setattr(cmcalc.cocycle, "cocycle_report", with_broken_system)
        code, out, _ = run_main(
            capsys, "check", "--suite", "cocycle", "--battery", "D4", "--trials", "3",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["summary"]["failures"] > 0
        witnesses = [
            f
            for c in rep["fields"]["D4"]["cocycle"]["checks"]
            if not c["passed"]
            for f in c["failures"]
        ]
        assert witnesses

    def test_unknown_battery(self, capsys):
        code, _, err = run_main(capsys, "check", "--battery", "nope")
        assert code == 2

    def test_negative_trials(self, capsys):
        code, out, err = run_main(capsys, "check", "--battery", "C2", "--trials", "-3")
        assert code == 2 and out == "" and "--trials" in err

    def test_trials_above_bound(self, capsys):
        from cmcalc.cli import MAX_TRIALS

        assert MAX_TRIALS == 10**4
        code, out, err = run_main(
            capsys, "check", "--battery", "C2", "--trials", str(MAX_TRIALS + 1)
        )
        assert code == 2 and out == "" and "--trials" in err
        # the bound itself is accepted; the serre suite draws no trial
        code, out, _ = run_main(
            capsys, "check", "--suite", "serre", "--battery", "C2", "--trials", str(MAX_TRIALS)
        )
        assert code == 0 and json.loads(out)["trials"] == MAX_TRIALS


    def test_closure_report_shared_when_field_is_its_closure(self, capsys, monkeypatch):
        # C2, C4 and C2xC2 have trivial fixers: one Serre report serves as
        # field and closure; C2xC4 needs two and D4 (not Galois) one
        import cmcalc.serre
        from cmcalc.serre import serre_report

        calls = []

        def counted(field):
            calls.append(field)
            return serre_report(field)

        monkeypatch.setattr(cmcalc.serre, "serre_report", counted)
        code, out, _ = run_main(capsys, "check", "--suite", "serre", "--battery", "all")
        assert code == 0 and len(calls) == 6
        fields = json.loads(out)["fields"]
        for name in ("C2", "C4", "C2xC2"):
            assert fields[name]["serre"]["closure"] == fields[name]["serre"]["field"]


class TestParser:
    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        # every build looks up a translation per help string, so main builds
        # its parser once and parses each call with it
        import argparse

        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        first = run_main(capsys, "serre", "--battery", "C4")
        second = run_main(capsys, "serre", "--battery", "C4")
        assert first[0] == 0 and first == second
        assert len(parsers) == 2 and parsers[0] is parsers[1]


class TestZeta:
    def test_quick(self, capsys):
        code, out, _ = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", "13", "--verbose"
        )
        assert code == 0
        rep = json.loads(out)
        traces = {e["p"]: e["a_p_count"] for e in rep["primes"]}
        assert traces[5] == -2 and traces[13] == 6

    def test_bad_curve_format(self, capsys):
        code, _, err = run_main(capsys, "zeta", "--curve", "1;2", "--d", "-1")
        assert code == 2

    def test_unsupported_field(self, capsys):
        code, _, err = run_main(capsys, "zeta", "--curve", "-1,0", "--d", "-5")
        assert code == 2

    def test_pmax_below_three(self, capsys):
        for pmax in ("-5", "2"):
            code, out, err = run_main(
                capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", pmax
            )
            assert code == 2 and out == "" and "--pmax" in err

    def test_pmax_above_bound(self, capsys):
        code, out, err = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", str(MAX_PMAX + 1)
        )
        assert code == 2 and out == "" and "--pmax" in err

    def test_res_scalars_above_bound(self, capsys):
        code, out, err = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", "13",
            "--res-scalars", str(MAX_RES_SCALARS + 1),
        )
        assert code == 2 and out == "" and "--res-scalars" in err

    def test_negative_res_scalars(self, capsys):
        code, out, err = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", "13",
            "--res-scalars", "-1",
        )
        assert code == 2 and out == "" and "--res-scalars" in err

    @pytest.mark.parametrize("res", ["1", "2"])
    def test_res_scalars_without_odd_prime(self, capsys, res):
        code, out, err = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", "5",
            "--res-scalars", res,
        )
        assert code == 2 and out == "" and "--res-scalars" in err

    def test_failed_scalar_restriction_exits_one(self, capsys, monkeypatch):
        from cmcalc import cli
        from cmcalc.zeta import verify_res_scalars

        def with_mismatch(curve, p_max):
            rep = verify_res_scalars(curve, p_max)
            rep["primes"][0]["match"] = False
            rep["summary"]["mismatches"] = 1
            rep["passed"] = False
            return rep

        monkeypatch.setattr(cli, "verify_res_scalars", with_mismatch)
        code, out, _ = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", "13",
            "--res-scalars", "13",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["passed"] and not rep["scalar_restriction"]["passed"]

    def test_large_prime_coefficient_returns_at_once(self, capsys):
        # bad primes are read from the discriminant modulo each swept prime,
        # never by factoring 16 * 27 * (10^9 + 7)^2
        start = time.perf_counter()
        code, _, _ = run_main(
            capsys, "zeta", "--curve=0,1000000007", "--d", "-3", "--pmax", "50"
        )
        assert code in (0, 1) and time.perf_counter() - start < 1.0

    def test_res_scalars_zero_means_off(self, capsys):
        code, out, _ = run_main(
            capsys, "zeta", "--curve", "-1,0", "--d", "-1", "--pmax", "13",
            "--res-scalars", "0",
        )
        assert code == 0 and "scalar_restriction" not in json.loads(out)


class TestRayclass:
    def test_conductor(self, capsys):
        code, out, _ = run_main(
            capsys, "rayclass", "--d", "-1", "--modulus", "gen:1,1^3"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["order"] == 1 and rep["structure"] == []

    def test_three(self, capsys):
        code, out, _ = run_main(capsys, "rayclass", "--d", "-1", "--modulus", "gen:3,0")
        rep = json.loads(out)
        assert rep["order"] == 2 and rep["structure"] == [2]

    def test_unit_modulus(self, capsys):
        code, out, _ = run_main(capsys, "rayclass", "--d", "-1", "--modulus", "gen:1,0")
        assert json.loads(out)["order"] == 1

    def test_hnf_form(self, capsys):
        code, out, _ = run_main(
            capsys, "rayclass", "--d", "-1", "--modulus", "hnf:4,2,2"
        )
        assert code == 0 and json.loads(out)["modulus_norm"] == 8

    @pytest.mark.parametrize(
        "modulus, code",
        [("gen:1,1^40", 2), ("gen:1,0^3000000", 0)],  # norms 2^40 and 1
    )
    def test_large_powers_return_at_once(self, capsys, modulus, code):
        start = time.perf_counter()
        got, _, _ = run_main(capsys, "rayclass", "--d", "-1", "--modulus", modulus)
        assert got == code and time.perf_counter() - start < 1.0

    def test_norm_above_bound(self, capsys):
        # (101) has norm 10201, just above the bound of 10^4
        code, out, err = run_main(capsys, "rayclass", "--d", "-1", "--modulus", "gen:101,0")
        assert code == 2 and out == "" and "norm exceeds 10000" in err

    @pytest.mark.parametrize("p, structure", [(11, [30]), (13, [3, 12])])
    def test_primes_below_bound(self, capsys, p, structure):
        code, out, _ = run_main(capsys, "rayclass", "--d", "-1", "--modulus", f"gen:{p},0")
        assert code == 0 and json.loads(out)["structure"] == structure


class TestTransferAndSerre:
    def test_transfer_d4(self, capsys):
        code, out, _ = run_main(capsys, "transfer", "--battery", "D4")
        assert code == 0
        rep = json.loads(out)
        assert rep["quotient_invariants"] == [2]
        assert set(rep["transfer"]) == {str(g) for g in range(8)}

    def test_transfer_custom_subgroup(self, capsys):
        code, out, _ = run_main(
            capsys, "transfer", "--battery", "C4", "--subgroup", "[0, 2]",
            "--element", "1",
        )
        rep = json.loads(out)
        assert rep["transfer"]["1"] == [1]

    def test_transfer_element_out_of_range(self, capsys):
        code, out, err = run_main(capsys, "transfer", "--battery", "C4", "--element", "99")
        assert code == 2 and out == ""
        assert "--element 99 out of range" in err

    def test_field_file_subgroup_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        for elements, message in (([0, 5], "element 5 out of range"),
                                  ([0, True], "element True is not an integer"),
                                  ([0, 1, True], "element True is not an integer"),
                                  ([0, 1.0], "element 1.0 is not an integer"),
                                  ([0, [1]], "element [1] is not an integer")):
            payload = {"group": {"table": [[0, 1], [1, 0]]}, "iota": 1, "H": elements}
            path.write_text(json.dumps(payload))
            code, out, err = run_main(capsys, "transfer", str(path))
            assert code == 2 and out == ""
            assert message in err
            # the same elements as --subgroup
            code, out, err = run_main(capsys, "transfer", "--battery", "C2",
                                      "--subgroup", json.dumps(elements))
            assert code == 2 and out == ""
            assert message in err

    def test_serre_galois_field(self, capsys):
        code, out, _ = run_main(capsys, "serre", "--battery", "C2")
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["serre_rank"] == 2

    def test_serre_non_galois_uses_closure(self, capsys):
        code, out, _ = run_main(capsys, "serre", "--battery", "D4")
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["degree"] == 8 and "note" in rep


class TestDeterminism:
    def _invoke(self, env_threads=None):
        env = dict(os.environ)
        if env_threads is not None:
            env["CM_THREADS"] = env_threads
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cmcalc.cli",
                "check",
                "--suite",
                "all",
                "--battery",
                "C4",
                "--trials",
                "10",
                "--seed",
                "7",
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        return proc.stdout

    def test_byte_identical_runs(self):
        assert self._invoke() == self._invoke()

    def test_thread_env_irrelevant(self):
        assert self._invoke("1") == self._invoke("16")

    def test_reports_contain_no_floats(self):
        # flags are dict values; list entries are indices and coefficients,
        # so a bool there is an integer read wrongly
        def walk(node):
            assert not isinstance(node, float), node
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(k)
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    assert not isinstance(v, bool), node
                    walk(v)

        walk(json.loads(self._invoke()))

    def test_seed_changes_nothing_on_passing_suite(self):
        # values are representative independent, so even different seeds
        # produce identical pass/fail structure
        a = json.loads(self._invoke())
        a.pop("seed")
        proc = subprocess.run(
            [
                sys.executable, "-m", "cmcalc.cli", "check", "--suite", "all",
                "--battery", "C4", "--trials", "10", "--seed", "8",
            ],
            capture_output=True,
        )
        b = json.loads(proc.stdout)
        b.pop("seed")
        assert a == b
