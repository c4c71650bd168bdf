import contextlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import resource
import signal
import subprocess
import sys

import pytest

import frobdet
from frobdet import cli, determinant, groupoids, poly, semigroups
from frobdet.cli import form_poly, run
from frobdet.cyclotomic import CycNum, parse_cyc
from frobdet.factorization import Factorization
from frobdet.groupoids import inverse_determinant
from frobdet.poly import TERM_BUDGET, Poly
from frobdet.semigroups import (adjoin_zero, build_family, emit_sgp,
                                group_of_units)

from corpus import zmult

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
WENGER = str(DATA / "wenger.sgp")
ELEVEN = str(DATA / "eleven.sgp")


def run_cli(argv, stdin=None):
    """Run the CLI in process, capturing (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_smith():
    code, out, _ = run_cli(["smith", "6"])
    assert code == 0
    assert "32" in out
    code, out, _ = run_cli(["smith", "8", "--json"])
    data = json.loads(out)
    assert data["determinant"] == 768
    assert data["phi_factors"] == [1, 1, 2, 2, 4, 2, 6, 4]


def test_gen_validate_round_trip():
    code, sgp, _ = run_cli(["gen", "gcd", "4"])
    assert code == 0
    code, echoed, _ = run_cli(["validate", "-"], stdin=sgp)
    assert code == 0
    assert echoed == sgp


def test_gen_pipe_factor():
    _, sgp, _ = run_cli(["gen", "gcd", "4"])
    code, out, _ = run_cli(["factor", "-", "--json"], stdin=sgp)
    assert code == 0
    data = json.loads(out)
    assert data["provenance"] == "wilf-lindstrom"
    assert data["status"] == "factored"
    assert len(data["factors"]) == 4
    assert data["verification"]["mode"] == "exact"
    assert data["verification"]["equal"] is True


def test_text_prints_every_factor_at_the_common_order():
    # Z/3 above Z/4: factors of orders 3 and 4, printed under one z of
    # order 12 in text as in JSON
    path = str(DATA / "clifford_z3_z4.sgp")
    code, text, _ = run_cli(["factor", path])
    assert code == 0
    _, out, _ = run_cli(["factor", path, "--json"])
    data = json.loads(out)
    assert data["cyclotomic_order"] == 12
    assert ("cyclotomic order: 12 (z = a primitive root of unity of "
            "order 12)") in text.splitlines()
    names = tuple(data["variables"][f"x{i}"]
                  for i in range(len(data["variables"])))
    assert [ln for ln in text.splitlines() if ln.startswith("  (")] == [
        f"  ({form_poly(f['form'], 12).to_str(names)})"
        + (f"^{f['multiplicity']}" if f["multiplicity"] > 1 else "")
        for f in data["factors"]]
    assert "  (x_a0+(-z^2)*x_a1+(z^2-1)*x_a2)" in text.splitlines()
    assert f"constant: {data['constant']}" in text.splitlines()


def test_factor_dispatch_provenances():
    cases = [
        (emit_sgp(build_family("chain_semilattice", 3)), "wilf-lindstrom"),
        (emit_sgp(build_family("zmod_add", 4)), "dedekind"),
        (emit_sgp(build_family("adjoin_zero",
                               build_family("zmod_add", 3))), "clifford-mobius"),
        (emit_sgp(build_family("cyclic_nilpotent", 3)), "nilpotent-annihilator"),
        (emit_sgp(zmult(8)), "commutative-pipeline"),
    ]
    for sgp, provenance in cases:
        code, out, err = run_cli(["factor", "-", "--json"], stdin=sgp)
        assert code == 0, err
        assert json.loads(out)["provenance"] == provenance


def test_factor_general_inverse_route():
    sgp = emit_sgp(build_family("rook", 2))
    code, out, _ = run_cli(["factor", "-", "--json"], stdin=sgp)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "frobenius"
    assert data["provenance"] == "groupoid-mobius"
    assert data["determinant"] != "0"
    assert data["verification"]["mode"] == "exact"


def test_inverse_route_expands_the_groupoid_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return inverse_determinant(*args, **kwargs)

    monkeypatch.setattr(cli, "inverse_determinant", counting)
    sgp = emit_sgp(build_family("rook", 3))
    code, out, _ = run_cli(["factor", "-"], stdin=sgp)
    assert code == 0
    assert len(calls) == 1
    assert "note: inverse route skipped: symbolic determinant of dimension" \
        in out



def test_inverse_route_builds_the_groupoid_once(monkeypatch):
    calls = []

    def counting(S):
        calls.append(S.n)
        return groupoid_of(S)

    groupoid_of = groupoids.groupoid_of
    monkeypatch.setattr(groupoids, "groupoid_of", counting)
    S = build_family("rook", 2)
    code, out, err = run_cli(["factor", "-", "--json"], stdin=emit_sgp(S))
    assert (code, err, calls) == (0, "", [7])
    data = json.loads(out)
    assert data["groupoid"] == [
        {"base": "01", "n_objects": 1, "group_order": 2},
        {"base": "0x", "n_objects": 2, "group_order": 1},
        {"base": "xx", "n_objects": 1, "group_order": 1}]
    assert data["determinant"] == \
        determinant.paratrophic_determinant(S).to_str()


def test_raised_cap_stops_at_the_term_budget():
    # with --cap 20 the inverse route expands rook 3's 18x18 groupoid block;
    # the expansion stops at poly.TERM_BUDGET instead of exhausting memory
    # (the child gets a 2 GB address space), and factor falls back to the
    # vanishing test
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(pathlib.Path(frobdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "frobdet.cli", "factor", "-", "--cap", "20"],
        input=emit_sgp(build_family("rook", 3)), capture_output=True,
        text=True, timeout=60, env=env, preexec_fn=limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    notes = [line for line in proc.stdout.splitlines()
             if line.startswith("note: inverse route skipped")]
    assert notes == ["note: inverse route skipped: symbolic determinant of "
                     f"dimension 18 exceeds the budget of {TERM_BUDGET} "
                     "terms"]
    assert proc.stdout.startswith("status: frobenius\n")


def test_a_check_error_is_not_a_skipped_route(monkeypatch):
    # the commutative answer of zmult 8 carries no characters, and its
    # exact check runs past the term budget: the error ends the request,
    # and the determinant is expanded once, at dimension n - 1 since S has
    # a zero
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return paratrophic_determinant(*args, **kwargs)

    paratrophic_determinant = determinant.paratrophic_determinant
    monkeypatch.setattr(determinant, "paratrophic_determinant", counting)
    monkeypatch.setattr(poly, "TERM_BUDGET", 40)
    code, out, err = run_cli(["factor", "-"], stdin=emit_sgp(zmult(8)))
    assert (code, out) == (1, "")
    assert err == ("error: symbolic determinant of dimension 7 exceeds the "
                   "budget of 40 terms\n")
    assert len(calls) == 1


def det_and_factorization(tmp_path, S):
    """Paths of the det output and of the factor --json output for S."""
    sgp = emit_sgp(S)
    det, fact = tmp_path / "theta.det", tmp_path / "fact.json"
    det.write_text(run_cli(["det", "-"], stdin=sgp)[1])
    fact.write_text(run_cli(["factor", "-", "--json"], stdin=sgp)[1])
    return str(det), str(fact)


def test_the_exact_check_has_a_term_budget(monkeypatch, tmp_path):
    # multiplying out zmod_add 6's six character forms peaks at 198 terms
    det, fact = det_and_factorization(tmp_path, build_family("zmod_add", 6))
    monkeypatch.setattr(poly, "TERM_BUDGET", 100)
    code, out, err = run_cli(["verify", det, fact])
    assert (code, out) == (1, "")
    assert err == ("error: expansion of a factorization exceeds the budget "
                   "of 100 terms\n")
    monkeypatch.setattr(poly, "TERM_BUDGET", 198)
    assert run_cli(["verify", det, fact])[0] == 0


def test_the_exact_check_does_no_poly_or_field_arithmetic(monkeypatch,
                                                          tmp_path):
    # the check by characters works on integer coordinates, and the
    # expansion check multiplies F out modulo primes on packed integer
    # keys
    S = build_family("zmod_add", 6)
    det, fact = det_and_factorization(tmp_path, S)
    checks = []

    def refuse(*args):
        raise AssertionError("Poly or CycNum arithmetic in the exact check")

    def guarded(check):
        def run_check(*args, **kwargs):
            checks.append(check.__name__)
            with monkeypatch.context() as m:
                for cls, name in ((Factorization, "expand"),
                                  (Poly, "__mul__"), (CycNum, "__mul__")):
                    m.setattr(cls, name, refuse)
                return check(*args, **kwargs)
        return run_check

    monkeypatch.setattr(determinant, "checked", guarded(determinant.checked))
    monkeypatch.setattr(determinant, "_character_check",
                        guarded(determinant._character_check))
    monkeypatch.setattr(cli, "verify_factorization",
                        guarded(cli.verify_factorization))
    code, out, err = run_cli(["factor", "-", "--exact"], stdin=emit_sgp(S))
    assert (code, err) == (0, "")
    assert "verification: exact" in out.splitlines()
    # an answer without characters: the first check declines at once
    code, out, err = run_cli(["factor", "-", "--exact"],
                             stdin=emit_sgp(zmult(8)))
    assert (code, err) == (0, "")
    assert "verification: exact" in out.splitlines()
    code, out, err = run_cli(["verify", det, fact])
    assert (code, out, err) == (0, "status: verified\nverification: exact\n",
                                "")
    assert checks == ["_character_check", "_character_check", "checked",
                      "verify_factorization"]


def test_factor_scans_for_weak_inverses_once(monkeypatch):
    # the Clifford route reads the star map in groupoid_of and again in
    # mobius_forms(S, "inverse")
    scans = []

    def counting(S):
        scans.append(S.n)
        return weak_inverses(S)

    weak_inverses = semigroups._weak_inverses
    monkeypatch.setattr(semigroups, "_weak_inverses", counting)
    sgp = emit_sgp(adjoin_zero(build_family("zmod_add", 5)))
    code, out, err = run_cli(["factor", "-"], stdin=sgp)
    assert (code, err) == (0, "")
    assert "provenance: clifford-mobius" in out.splitlines()
    assert scans == [6]


def test_a_plain_answer_with_a_zero_is_checked_on_the_contracted_theta(
        monkeypatch):
    # theta of adjoin_zero(zmod_add 5) has 446 terms, thetac 84
    monkeypatch.setattr(poly, "TERM_BUDGET", 200)
    sgp = emit_sgp(adjoin_zero(build_family("zmod_add", 5)))
    code, out, err = run_cli(["factor", "-"], stdin=sgp)
    assert (code, err) == (0, "")
    assert "verification: exact" in out.splitlines()


def test_a_zero_at_the_cap_is_checked_exactly():
    # gcd 6 has 6 elements and its zero leaves 5 = cap
    sgp = emit_sgp(build_family("gcd", 6))
    code, out, err = run_cli(["factor", "-", "--cap", "5"], stdin=sgp)
    assert (code, err) == (0, "")
    assert "verification: exact" in out.splitlines()


def test_the_trivial_monoid_has_no_contracted_factorizer():
    code, out, err = run_cli(["factor", "-", "--contracted"],
                             stdin="n 1\ntable\n1\n")
    assert (code, out) == (1, "")
    assert err == "error: no contracted factorizer applies: no nonunit\n"


FACTORIZERS = ["factor_semilattice", "factor_group_determinant",
               "factor_clifford", "inverse_determinant", "factor_nil_adjoined",
               "factor_local", "factor_commutative", "frobenius_test"]


def factorizers_called(monkeypatch, argv, S):
    """Run factor on S and return (exit code, stdout, stderr, the
    factorizers it called in order, by their names in the cli module)."""
    called = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in FACTORIZERS:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    return (*run_cli(["factor", "-", *argv], stdin=emit_sgp(S)), called)


@pytest.mark.parametrize("S, argv, route", [
    (build_family("gcd", 4), [], ["factor_semilattice"]),
    (build_family("zmod_add", 4), [], ["factor_group_determinant"]),
    (adjoin_zero(build_family("zmod_add", 3)), [], ["factor_clifford"]),
    (build_family("rook", 2), [], ["inverse_determinant"]),
    (build_family("cyclic_nilpotent", 3), [],
     ["factor_clifford", "inverse_determinant", "factor_nil_adjoined"]),
    (zmult(8), [],
     ["factor_clifford", "inverse_determinant", "factor_nil_adjoined",
      "factor_commutative"]),
    (build_family("left_zero", 3), [],
     ["inverse_determinant", "factor_nil_adjoined", "frobenius_test"]),
    (build_family("cyclic_nilpotent", 3), ["--contracted"],
     ["factor_nil_adjoined"]),
], ids=["gcd 4", "zmod_add 4", "adjoin_zero zmod_add 3", "rook 2",
        "cyclic_nilpotent 3", "zmult 8", "left_zero 3",
        "cyclic_nilpotent 3 contracted"])
def test_factor_tries_the_routes_in_order(monkeypatch, S, argv, route):
    code, _, err, called = factorizers_called(monkeypatch, argv, S)
    assert code == 0, err
    assert called == route


def test_each_table_is_analyzed_once_per_request(monkeypatch):
    # analyze keeps its report on the Semigroup: during one request the
    # report of each table, input or derived, is computed once
    analyzed = []

    def recording(S, analysis=semigroups._analysis):
        analyzed.append(S)  # kept alive, so no two share an id
        return analysis(S)

    monkeypatch.setattr(semigroups, "_analysis", recording)
    S3, _ = group_of_units(build_family("full_transform", 3))
    for text in (emit_sgp(zmult(8)), emit_sgp(build_family("rook", 2)),
                 emit_sgp(adjoin_zero(S3)), pathlib.Path(WENGER).read_text()):
        analyzed.clear()
        code, _, err = run_cli(["factor", "-"], stdin=text)
        assert code == 0, err
        assert len(analyzed) > 1
        assert len({id(T) for T in analyzed}) == len(analyzed)


def test_skip_notes_carry_the_clifford_reason(monkeypatch):
    S3, _ = group_of_units(build_family("full_transform", 3))
    code, out, _, called = factorizers_called(monkeypatch, ["--cap", "5"],
                                              adjoin_zero(S3))
    assert code == 0
    assert called == ["factor_clifford", "inverse_determinant",
                      "factor_nil_adjoined", "frobenius_test"]
    notes = [line for line in out.splitlines() if line.startswith("note: ")]
    assert notes == [
        "note: inverse route skipped: group at 012 is nonabelian and no "
        "representations were supplied",
        "note: no factorization theorem applies; staged vanishing test only"]


def test_flagged_requests_without_a_factorizer(monkeypatch, tmp_path):
    code, out, err, called = factorizers_called(
        monkeypatch, ["--contracted"], build_family("left_zero", 3))
    assert (code, out) == (1, "")
    assert err == ("error: no contracted factorizer applies: multiplication "
                   "is not commutative\n")
    assert called == ["factor_nil_adjoined", "factor_local"]
    cocycle = tmp_path / "c.coc"
    cocycle.write_text("order 2\n")
    code, out, err, called = factorizers_called(
        monkeypatch, ["--twist", str(cocycle)], build_family("zmod_add", 3))
    assert (code, out, err) == (1, "", "error: no zero element\n")
    assert called == ["factor_nil_adjoined"]


def test_each_factor_request_checks_its_answer_once(monkeypatch, tmp_path):
    outcomes, dims = [], []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            outcomes.append(name)
            return fn(*args, **kwargs)
        return wrapped

    def measuring(mat, *args, **kwargs):
        dims.append(len(mat))
        return det_poly_matrix(mat, *args, **kwargs)

    def by_characters(*args, **kwargs):
        passed = character_check(*args, **kwargs)
        if passed:
            outcomes.append("exact")
        return passed

    det_poly_matrix = determinant.det_poly_matrix
    character_check = determinant._character_check
    monkeypatch.setattr(determinant, "checked",
                        counting("exact", determinant.checked))
    monkeypatch.setattr(determinant, "_character_check", by_characters)
    monkeypatch.setattr(determinant, "random_table_check",
                        counting("randomized",
                                 determinant.random_table_check))
    monkeypatch.setattr(determinant, "det_poly_matrix", measuring)

    def table(name, S):
        path = tmp_path / f"{name}.sgp"
        path.write_text(emit_sgp(S))
        return str(path)

    twist = tmp_path / "twist.coc"
    twist.write_text("order 4\ns1 s1 z\n")
    # (argv, outcome, whether the check expands a determinant)
    requests = [
        ([table("gcd6", build_family("gcd", 6))], "exact", False),
        ([table("zmod4", build_family("zmod_add", 4))], "exact", False),
        ([table("z5z", adjoin_zero(build_family("zmod_add", 5)))], "exact",
         False),
        ([table("zmult27", zmult(27))], "randomized", False),
        ([table("zmult8", zmult(8))], "exact", True),
        ([WENGER, "--contracted"], "exact", True),
        ([table("three_nil", build_family("three_nil", "10,01")),
          "--twist", str(twist)], "exact", True),
        ([table("cn10", build_family("cyclic_nilpotent", 10))], "exact",
         True),
    ]
    for argv, mode, expands in requests:
        outcomes.clear()
        dims.clear()
        code, _, err = run_cli(["factor", *argv])
        assert code == 0, err
        assert outcomes == [mode], argv
        assert bool(dims) == expands, argv
    # the plain nilpotent answer is checked on the contracted determinant
    assert dims == [10]


def test_factor_fallback_reports_vanishing():
    sgp = emit_sgp(build_family("left_zero", 2))
    code, out, _ = run_cli(["factor", "-", "--json"], stdin=sgp)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "not_frobenius"
    assert data["provenance"] is None
    assert any("no factorization theorem" in n for n in data["notes"])


def test_wenger_contracted():
    code, out, _ = run_cli(["factor", WENGER, "--contracted",
                            "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["constant"] == "-1"
    forms = [(f["form"], f["multiplicity"]) for f in data["factors"]]
    assert forms == [({"x6": "1", "x7": "1"}, 4),
                     ({"x6": "1", "x7": "-1"}, 4)]


def test_eleven_contracted_vanishes():
    code, out, _ = run_cli(["factor", ELEVEN, "--contracted",
                            "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "zero"
    assert any("det A = 0" in n for n in data["notes"])


def test_det_verify_round_trip(tmp_path):
    _, sgp, _ = run_cli(["gen", "gcd", "4"])
    _, det_out, _ = run_cli(["det", "-"], stdin=sgp)
    _, fact_out, _ = run_cli(["factor", "-", "--json"], stdin=sgp)
    (tmp_path / "t.det").write_text(det_out)
    (tmp_path / "t.json").write_text(fact_out)
    code, out, _ = run_cli(["verify", str(tmp_path / "t.det"),
                            str(tmp_path / "t.json")])
    assert code == 0
    assert "verified" in out
    code, out, _ = run_cli(["verify", str(tmp_path / "t.det"),
                            str(tmp_path / "t.json"), "--randomized"])
    assert code == 0


def test_verify_cyclotomic_round_trip(tmp_path):
    code, det_out, _ = run_cli(["det", WENGER, "--contracted"])
    assert code == 0
    _, fact_out, _ = run_cli(["factor", WENGER, "--contracted",
                              "--json"])
    (tmp_path / "w.det").write_text(det_out)
    (tmp_path / "w.json").write_text(fact_out)
    code, out, _ = run_cli(["verify", str(tmp_path / "w.det"),
                            str(tmp_path / "w.json")])
    assert code == 0, out


def test_verify_mismatch_exits_1(tmp_path):
    _, z4, _ = run_cli(["gen", "zmod_add", "4"])
    _, z5, _ = run_cli(["gen", "zmod_add", "5"])
    _, det_out, _ = run_cli(["det", "-"], stdin=z5)
    _, fact_out, _ = run_cli(["factor", "-", "--json"], stdin=z4)
    (tmp_path / "m.det").write_text(det_out)
    (tmp_path / "m.json").write_text(fact_out)
    code, out, _ = run_cli(["verify", str(tmp_path / "m.det"),
                            str(tmp_path / "m.json")])
    assert code == 1
    assert "mismatch" in out


def test_verify_rejects_test_reports(tmp_path):
    _, z5, _ = run_cli(["gen", "zmod_add", "5"])
    _, det_out, _ = run_cli(["det", "-"], stdin=z5)
    _, rep, _ = run_cli(["frobenius", "-", "--json"], stdin=z5)
    (tmp_path / "r.det").write_text(det_out)
    (tmp_path / "r.json").write_text(rep)
    code, _, err = run_cli(["verify", str(tmp_path / "r.det"),
                            str(tmp_path / "r.json")])
    assert code == 1
    assert "status" in err


def test_twisted_det_and_factor_agree(tmp_path):
    _, sgp, _ = run_cli(["gen", "three_nil", "10,01"])
    (tmp_path / "tn.sgp").write_text(sgp)
    (tmp_path / "tw.coc").write_text("s1 s1 -1\ns2 s2 -1\n")
    code, det_out, _ = run_cli(["det", str(tmp_path / "tn.sgp"),
                                "--twist", str(tmp_path / "tw.coc")])
    assert code == 0
    code, fact_out, _ = run_cli(["factor", str(tmp_path / "tn.sgp"),
                                 "--twist", str(tmp_path / "tw.coc"),
                                 "--json"])
    assert code == 0
    (tmp_path / "tn.det").write_text(det_out)
    (tmp_path / "tn.json").write_text(fact_out)
    code, out, _ = run_cli(["verify", str(tmp_path / "tn.det"),
                            str(tmp_path / "tn.json")])
    assert code == 0, out


def test_frobenius_reports():
    _, t2, _ = run_cli(["gen", "full_transform", "2"])
    code, out, _ = run_cli(["frobenius", "-", "--json"], stdin=t2)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "not_frobenius"
    assert "fixes" in data["reason"]
    _, z5, _ = run_cli(["gen", "zmod_add", "5"])
    code, out, _ = run_cli(["frobenius", "-", "--json"], stdin=z5)
    data = json.loads(out)
    assert data["status"] == "frobenius"
    assert set(data["witness"]["point"]) == {f"x{i}" for i in range(5)}
    assert data["witness"]["determinant"] != 0


def test_info_and_mobius():
    _, sgp, _ = run_cli(["gen", "gcd", "4"])
    code, out, _ = run_cli(["info", "-", "--json"], stdin=sgp)
    data = json.loads(out)
    assert data["is_semilattice"] and data["is_commutative"]
    code, out, _ = run_cli(["mobius", "-", "--mode", "semilattice"],
                           stdin=sgp)
    assert code == 0
    code, out, _ = run_cli(["mobius", "-", "--mode", "semilattice",
                            "--json"], stdin=sgp)
    data = json.loads(out)
    assert data["matrix"][0][0] == 1
    rook = emit_sgp(build_family("rook", 2))
    code, _, _ = run_cli(["mobius", "-", "--mode", "inverse"], stdin=rook)
    assert code == 0


def test_groupoid_report():
    rook = emit_sgp(build_family("rook", 2))
    code, out, _ = run_cli(["groupoid", "-", "--json"], stdin=rook)
    assert code == 0
    data = json.loads(out)
    assert data["total_arrows"] == 7
    sizes = sorted((c["n_objects"], c["group_order"])
                   for c in data["components"])
    assert sum(k * k * g for k, g in sizes) == 7


def test_ringcheck():
    code, out, _ = run_cli(["ringcheck", "zmod", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "frobenius"
    assert data["determinant"] == "-2"
    code, out, _ = run_cli(["ringcheck", "matmonoid", "1", "4", "--json"])
    data = json.loads(out)
    assert data["status"] == "frobenius"
    assert data["size"] == 4
    code, out, _ = run_cli(["ringcheck", "matmonoid", "2", "2"])
    assert code == 0
    assert "det [lambda(st)] = 4294967296\n" in out


@pytest.mark.parametrize("n", range(2, 25))
def test_ringcheck_zmod_is_a_dft_determinant(n):
    # [zeta^(ab)] is the DFT matrix of Z/n: M * conj(M)^T = n I, so the
    # printed determinant d satisfies d * conj(d) = n^n
    code, out, _ = run_cli(["ringcheck", "zmod", str(n), "--json"])
    assert code == 0
    data = json.loads(out)
    d = parse_cyc(data["determinant"], data["cyclotomic_order"])
    assert d * d.conj() == n ** n


def test_kovacs():
    code, out, _ = run_cli(["kovacs", "2", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["q_binomials"] == [1, 3, 1]
    assert data["subspaces_agree"] is True


def test_byte_determinism():
    for argv in (["factor", WENGER, "--contracted", "--json",
                  "--seed", "3"],
                 ["factor", WENGER, "--contracted"],
                 ["smith", "12", "--json"]):
        a = run_cli(list(argv))
        b = run_cli(list(argv))
        assert a == b


def test_exit_codes():
    code, _, err = run_cli(["factor", "/no/such/file.sgp"])
    assert code == 1 and "error:" in err
    code, _, err = run_cli(["kovacs", "5", "2"])
    assert code == 1 and "outside" in err
    code, _, err = run_cli(["gen", "nosuch", "1"])
    assert code == 1
    code, _, _ = run_cli(["smith"])
    assert code == 2
    code, _, _ = run_cli(["nosuchcommand"])
    assert code == 2
    code, _, err = run_cli(["smith", "6", "--threads", "0"])
    assert code == 2


def test_smith_rejects_sizes_outside_1_to_256():
    for n in ("-3", "0", "257"):
        assert run_cli(["smith", n]) == (
            1, "", f"error: gcd matrix size {n} outside 1..256\n")
    assert run_cli(["smith", "1"])[0] == 0


@pytest.mark.parametrize("family, n", [("rook", "0"), ("rook", "-1"),
                                       ("rook", "4"), ("full_transform", "0"),
                                       ("full_transform", "4")])
def test_map_families_reject_sizes_outside_1_to_3(family, n):
    assert run_cli(["gen", family, n]) == (
        1, "", f"error: {family} family size {n} outside 1..3\n")


@pytest.mark.parametrize("argv", [["factor", "-"], ["factor", "-", "--json"],
                                  ["det", "-"], ["frobenius", "-"]])
def test_a_negative_cap_exits_2(argv):
    sgp = emit_sgp(build_family("gcd", 4))
    assert run_cli(argv + ["--cap", "-1"], stdin=sgp) == (
        2, "", "error: --cap must be at least 0\n")


def test_gen_adjoin_takes_sgp_input():
    _, z3, _ = run_cli(["gen", "zmod_add", "3"])
    code, out, _ = run_cli(["gen", "adjoin_zero", "-"], stdin=z3)
    assert code == 0
    assert "zero z" in out
    code, out, _ = run_cli(["factor", "-", "--json"], stdin=out)
    assert json.loads(out)["provenance"] == "clifford-mobius"


def test_det_contracted_excludes_zero_variable():
    code, out, _ = run_cli(["det", WENGER, "--contracted",
                            "--json"])
    assert code == 0
    data = json.loads(out)
    assert "x8" not in data["determinant"]
    assert data["degree"] == 8


def leibniz_det(S):
    """det [x_{st}] as a signed sum over permutations, independent of the
    library's determinant code."""
    det = Poly.zero()
    for perm in itertools.permutations(range(S.n)):
        inversions = sum(1 for i, j in itertools.combinations(range(S.n), 2)
                         if perm[i] > perm[j])
        term = Poly.const(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * Poly.variable(S.table[row][col])
        det = det + term
    return det


def test_plain_factor_of_every_small_commutative_table(commutative_tables):
    wrong = []
    for tables in commutative_tables.values():
        for S in tables:
            sgp = emit_sgp(S)
            code, out, err = run_cli(["factor", "-", "--json"], stdin=sgp)
            assert code == 0, err
            data = json.loads(out)
            theta = leibniz_det(S)
            if data["status"] in ("zero", "factored"):
                order = data["cyclotomic_order"]
                p = Poly.const(parse_cyc(data["constant"], order))
                for item in data["factors"]:
                    p = p * form_poly(item["form"], order) \
                        ** item["multiplicity"]
                ok = p == theta and data["verification"]["mode"] == "exact"
            else:
                ok = (data["status"] == "not_frobenius") == theta.is_zero()
            if not ok:
                wrong.append(sgp)
    assert not wrong, f"{len(wrong)} wrong, first:\n{wrong[0]}"


GOOD_FACTOR = {"status": "factored", "constant": "1", "cyclotomic_order": 1,
               "factors": [{"form": {"x0": "1", "x1": "1"},
                            "multiplicity": 1},
                           {"form": {"x0": "1", "x1": "-1"},
                            "multiplicity": 1}]}


@pytest.mark.parametrize("bad", [
    dict(GOOD_FACTOR, factors=5),
    dict(GOOD_FACTOR, factors=[{"form": {"x0": "1", "x1": "1"}}]),
    [GOOD_FACTOR],
    dict(GOOD_FACTOR, cyclotomic_order="7"),
    dict(GOOD_FACTOR, factors=[{"form": {"x0": "1", "x1": "1"},
                                "multiplicity": -3}]),
], ids=["factors-not-a-list", "missing-multiplicity", "top-level-list",
        "order-as-string", "negative-multiplicity"])
def test_verify_rejects_malformed_factorization_json(tmp_path, bad):
    (tmp_path / "z2.det").write_text("x0^2-x1^2\n")
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    src = str(pathlib.Path(frobdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a separate process, so that a hang fails the test instead of the run
    proc = subprocess.run(
        [sys.executable, "-m", "frobdet.cli", "verify",
         str(tmp_path / "z2.det"), str(tmp_path / "bad.json")],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_verify_rejects_a_wrong_degree_without_expanding(tmp_path):
    src = str(pathlib.Path(frobdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "z2.det").write_text("x0^2-x1^2\n")
    # expanding (x0+x1)^3200 takes minutes, and evaluating (x0+x1)^10^7
    # at a point takes long too; the degrees decide at once
    for mode, multiplicity in (("exact", 3200), ("randomized", 10 ** 7)):
        fact = dict(GOOD_FACTOR, factors=[{"form": {"x0": "1", "x1": "1"},
                                           "multiplicity": multiplicity}])
        (tmp_path / "big.json").write_text(json.dumps(fact))
        proc = subprocess.run(
            [sys.executable, "-m", "frobdet.cli", "verify",
             str(tmp_path / "z2.det"), str(tmp_path / "big.json"), "--json",
             f"--{mode}"],
            capture_output=True, text=True, timeout=20, env=env)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout) == {
            "status": "mismatch",
            "verification": {"equal": False, "mode": mode, "rounds": 0,
                             "seed": 0}}


def run_fresh(argv, stdin=None):
    """Run the CLI in a new interpreter: (exit code, stdout, stderr)."""
    src = str(pathlib.Path(frobdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "frobdet.cli", *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=60, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_leaks_no_state(tmp_path):
    gcd4 = emit_sgp(build_family("gcd", 4))
    _, det_out, _ = run_cli(["det", "-"], stdin=gcd4)
    _, fact_out, _ = run_cli(["factor", "-", "--json"], stdin=gcd4)
    (tmp_path / "g.det").write_text(det_out)
    (tmp_path / "g.json").write_text(fact_out)
    verify = ["verify", str(tmp_path / "g.det"), str(tmp_path / "g.json")]
    # --cap 2 sits below the table's size less its zero, so only --exact
    # makes the check exact and a leaked --exact would show in the second
    # call
    calls = [(["factor", "-", "--exact", "--cap", "2", "--json"], gcd4),
             (["factor", "-", "--cap", "2", "--json"], gcd4),
             (["det", WENGER, "--contracted"], None),
             (["det", WENGER], None),
             (["factor", "-", "--exact", "--randomized"], gcd4),
             (["factor", "-"], gcd4),
             (verify + ["--randomized", "--json"], None),
             (verify + ["--json"], None)]
    results = [run_cli(argv, stdin) for argv, stdin in calls]
    assert [r[0] for r in results] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert '"mode": "exact"' in results[0][1]
    assert '"mode": "randomized"' in results[1][1]
    for (argv, stdin), result in zip(calls, results):
        assert result == run_fresh(argv, stdin), argv
    assert cli.build_parser() is cli.build_parser()


BAD_INPUT = [  # (argv, stdin); FACT names a well-formed factorization file
    (["gen", "gcd", "abc"], None),
    (["gen", "gcd"], None),
    (["gen", "gcd", "4", "5"], None),
    (["gen", "rook"], None),
    (["gen", "rook", "2", "3"], None),
    (["gen", "cyclic_nilpotent", "x"], None),
    (["gen", "three_nil"], None),
    (["gen", "three_nil", "2"], None),
    (["gen", "gcd", "²"], None),
    (["gen", "gcd", "5000"], None),
    (["gen", "cyclic_nilpotent", "5000"], None),
    (["gen", "adjoin_zero"], None),
    (["factor", "-"], "n 2\ntable\n1 1\n² 2\n"),
    (["det", WENGER, "--twist", "-"], "order ²\n"),
    (["det", WENGER, "--twist", "-"], "order 4\na a 1/0\n"),
    (["det", WENGER, "--twist", "-"], "order 4\na a z^²\n"),
    (["verify", "-", "FACT"], "x0^²-x1^2\n"),
]


@pytest.mark.parametrize("argv, stdin", BAD_INPUT,
                         ids=[" ".join(a[:1] + a[1:][-2:]) + f" {i}"
                              for i, (a, _) in enumerate(BAD_INPUT)])
def test_bad_input_exits_1_with_one_line(tmp_path, argv, stdin):
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(GOOD_FACTOR))
    argv = [str(fact) if a == "FACT" else a for a in argv]
    code, out, err = run_cli(argv, stdin=stdin)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("bits, entry", [("1", "zp"), ("0", "z")])
def test_gen_three_nil_of_a_one_by_one_matrix(bits, entry):
    code, out, err = run_cli(["gen", "three_nil", bits])
    assert code == 0, err
    assert f"s1 {entry} z z" in out.splitlines()


class CaseTimeout(BaseException):
    """Raised by the alarm in a fuzz case that runs past its limit."""


def _alarm(signum, frame):
    raise CaseTimeout()


FUZZ_TOKEN = re.compile(r"\w+|[^\s\w]")
FUZZ_TOKENS = ["0", "1", "-1", "2", "7", "99", "1/0", "3/2", "z", "z^3",
               "x9", "x0^2", "²", "٣", "é", "order", "table", "zero",
               "identity", "null", "true", "[]", "{}", "-", "#", ","]


def mutate(text, rng):
    """One or two random edits at a word of text: delete it, repeat it,
    swap it with another token (a word or a punctuation mark), or replace
    it by another token of the text or of FUZZ_TOKENS."""
    for _ in range(rng.randint(1, 2)):
        spans = [m.span() for m in FUZZ_TOKEN.finditer(text)]
        words = [(i, j) for i, j in spans if text[i:j][0].isalnum()]
        if not words:
            break
        i, j = rng.choice(words)
        tok = text[i:j]
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + tok + " " + tok + text[j:]
        elif op == 2:
            k, l = rng.choice(spans)
            if (k, l) < (i, j):
                (i, j), (k, l) = (k, l), (i, j)
            if k >= j:
                text = text[:i] + text[k:l] + text[j:k] + text[i:j] + text[l:]
        else:
            pool = FUZZ_TOKENS + [text[k:l] for k, l in spans]
            text = text[:i] + rng.choice(pool) + text[j:]
    return text


def fuzz_cases(tmp_path):
    """(argv, stdin text) pairs: mutated .sgp tables of order <= 5 for
    factor, det and info; mutated cocycle files for a twisted det and
    factor; mutated `factor --json` output for verify."""
    rng = random.Random(20211)
    tables = [emit_sgp(build_family(*p)) for p in
              [("gcd", 4), ("zmod_add", 3), ("cyclic_nilpotent", 3),
               ("three_nil", "10,01"), ("chain_semilattice", 2),
               ("left_zero", 2), ("rook", 1)]]
    tables.append("n 3\ntable\n1 2 3\n2 2 3\n3 3 3\nidentity 1\n")
    commands = [["factor", "-"], ["factor", "-", "--json"],
                ["factor", "-", "--contracted"], ["det", "-"], ["info", "-"]]
    cases = [(rng.choice(commands), mutate(rng.choice(tables), rng))
             for _ in range(80)]
    monoid = tmp_path / "tn.sgp"
    monoid.write_text(emit_sgp(build_family("three_nil", "10,01")))
    cocycles = ["s1 s1 -1\ns2 s2 -1\n", "order 4\ns1 s1 z\n",
                "# a comment\norder 6\ns1 s1 z^2\ns2 s2 -z\n"]
    for _ in range(60):
        argv = [rng.choice(["det", "factor"]), str(monoid), "--twist", "-"]
        cases.append((argv, mutate(rng.choice(cocycles), rng)))
    facts = []
    for family, param in [("gcd", 3), ("zmod_add", 3), ("three_nil", "10,01")]:
        sgp = emit_sgp(build_family(family, param))
        det_file = tmp_path / f"{family}.det"
        det_file.write_text(run_cli(["det", "-"], stdin=sgp)[1])
        fact = run_cli(["factor", "-", "--json"], stdin=sgp)[1]
        facts.append((str(det_file), fact))
    for _ in range(60):
        det_file, fact = rng.choice(facts)
        cases.append((["verify", det_file, "-"], mutate(fact, rng)))
    return cases


def test_fuzzed_inputs_end_in_an_exit_code_and_one_line(tmp_path):
    failures = []
    saved = signal.signal(signal.SIGALRM, _alarm)
    try:
        for argv, text in fuzz_cases(tmp_path):
            signal.alarm(5)
            try:
                code, _, err = run_cli(argv, stdin=text)
            except (Exception, CaseTimeout) as e:
                failures.append((argv, text, repr(e)))
                continue
            finally:
                signal.alarm(0)
            if code not in (0, 1, 2) or len(err.splitlines()) > 1:
                failures.append((argv, text, (code, err)))
    finally:
        signal.signal(signal.SIGALRM, saved)
    assert not failures, f"{len(failures)} failures, first: {failures[0]!r}"


def test_answers_are_checked_exactly_without_expanding_theta(monkeypatch):
    # rook 2 under cap 5: the groupoid check is exact at every size;
    # zmod_add 13 under --exact: checked by its characters, where
    # expanding theta would pass the term budget
    def refuse(*args, **kwargs):
        raise AssertionError("plain determinant expanded")
    monkeypatch.setattr(determinant, "cayley_matrix", refuse)
    sgp = emit_sgp(build_family("rook", 2))
    code, out, err = run_cli(["factor", "-", "--cap", "5"], stdin=sgp)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "verification: exact"
    sgp = emit_sgp(build_family("zmod_add", 13))
    code, out, err = run_cli(["factor", "-", "--exact", "--json"], stdin=sgp)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["provenance"] == "dedekind" and len(data["factors"]) == 13
    assert data["verification"] == {"equal": True, "mode": "exact",
                                    "rounds": 0, "seed": 0}


def test_a_request_renders_only_what_it_prints(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("output built and not printed")

    sgp = emit_sgp(build_family("zmod_add", 4))
    for flags, unused in (([], "factorization_data"),
                          (["--json"], "factorization_lines")):
        with monkeypatch.context() as m:
            m.setattr(cli, unused, refuse)
            assert run_cli(["factor", "-", *flags], stdin=sgp)[0] == 0
    for flags, unused in (([], "frobenius_data"),
                          (["--json"], "frobenius_lines")):
        with monkeypatch.context() as m:
            m.setattr(cli, unused, refuse)
            code, out, _ = run_cli(["factor", "-", *flags],
                                   stdin=emit_sgp(build_family("left_zero",
                                                               2)))
            assert code == 0 and "not_frobenius" in out
    # theta of rook 2 has 238 terms: each request writes it once
    written = []

    def counting(p, *args):
        if len(p.terms) == 238:
            written.append(args)
        return to_str(p, *args)

    to_str = Poly.to_str
    monkeypatch.setattr(Poly, "to_str", counting)
    rook = emit_sgp(build_family("rook", 2))
    for argv in (["factor", "-"], ["factor", "-", "--json"], ["det", "-"],
                 ["det", "-", "--json"]):
        written.clear()
        assert run_cli(argv, stdin=rook)[0] == 0
        assert len(written) == 1, argv
