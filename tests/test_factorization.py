"""Normalized factorizations and their canonical print.

Each factor's print is built once and serves the merge and sort of
Factorization.normalized as well as the text and JSON output; a composite
route normalizes its answer once.
"""

import contextlib
import io
import json
import pathlib

import pytest

from frobdet import cli, cyclotomic, factorization
from frobdet.cyclotomic import CycNum
from frobdet.errors import FrobdetError
from frobdet.factorization import Factorization
from frobdet.poly import Poly, parse_poly
from frobdet.semigroups import adjoin_zero, build_family, emit_sgp, parse_sgp

from corpus import eleven_monoid, wenger_monoid, zmult

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_factors_merge_only_when_equal():
    # x0 + zeta_3 x1 and x0 + zeta_6 x1 both print x0+(z)*x1, each at its
    # own order; they are different factors
    x0, x1 = Poly.variable(0), Poly.variable(1)
    z3, z6 = CycNum.root_of_unity(3), CycNum.root_of_unity(6)
    F = Factorization.of(1, [(x0 + x1.scale(z6), 1), (x0 + x1.scale(z3), 1)],
                         "t")
    assert [(f.to_str(), f.order, m) for f, m in F.factors] == \
        [("x0+(z)*x1", 3, 1), ("x0+(z)*x1", 6, 1)]
    assert F.expand() == (x0 + x1.scale(z3)) * (x0 + x1.scale(z6))
    # an equal factor at the same order still merges
    G = Factorization.of(1, [(x0 + x1.scale(z3), 1), (x0 + x1.scale(z3), 2)],
                         "t")
    assert [(f.to_str(), m) for f, m in G.factors] == [("x0+(z)*x1", 3)]


def test_factors_sort_on_degree_then_string():
    x0, x1 = Poly.variable(0), Poly.variable(1)
    F = Factorization.of(2, [(x0 * x1 + x1 ** 2, 1), (x1.scale(3), 2),
                             (x0 - x1, 1)], "t")
    assert [f.to_str() for f, _ in F.factors] == ["x0-x1", "x1", "x0*x1+x1^2"]
    assert F.constant == 18


def corpus_semigroups():
    yield from (zmult(n) for n in range(2, 13))
    yield from (build_family("zmod_add", n) for n in range(1, 9))
    yield from (build_family("gcd", n) for n in range(2, 9))
    yield adjoin_zero(build_family("zmod_add", 5))
    yield build_family("rook", 2)
    yield wenger_monoid()
    yield eleven_monoid()
    yield parse_sgp((DATA / "clifford_z3_z4.sgp").read_text())


def answers(S):
    """The factorization that a plain factor request, and a contracted one
    when S has a zero, answers S with, if any."""
    for flags in ([], ["--contracted"])[:1 if S.zero is None else 2]:
        args = cli.build_parser().parse_args(["factor", "-"] + flags)
        for applies, factorize in cli.factor_routes(S, args, None):
            if not applies:
                continue
            try:
                F = factorize(S)
            except FrobdetError:
                continue
            if isinstance(F, Factorization):
                yield F
            break


def test_the_cached_print_is_the_fresh_print():
    seen = 0
    for S in corpus_semigroups():
        for F in answers(S):
            for f, _ in F.factors:
                fresh = Poly(f.order, dict(f.terms))
                assert f._printed is not None  # built by normalized
                assert f.to_str() == fresh.to_str()
                assert f.to_str(S.names) == fresh.to_str(S.names)
                assert f.printed() == fresh.printed()
                assert cli.poly_form(f) == cli.poly_form(fresh)
                assert parse_poly(f.to_str(), f.order) == f
                seen += 1
    assert seen > 150


def run_json(S, monkeypatch, owner, name):
    """Output of factor --json on S and the number of calls of
    owner.name it made."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_sgp(S)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["factor", "-", "--json"]) == 0
    monkeypatch.setattr(owner, name, original)
    return json.loads(out.getvalue()), len(calls)


@pytest.mark.parametrize("S, provenance", [
    (adjoin_zero(build_family("zmod_add", 5)), "clifford-mobius"),
    (zmult(16), "commutative-pipeline"),
    (build_family("gcd", 8), "wilf-lindstrom"),
], ids=["adjoin_zero-zmod_add5", "zmult16", "gcd8"])
def test_one_normalization_per_request(S, provenance, monkeypatch):
    data, calls = run_json(S, monkeypatch, factorization.Factorization,
                           "normalized")
    assert data["provenance"] == provenance
    assert calls == 1


def test_each_coefficient_is_printed_once(monkeypatch):
    # in adjoin_zero(zmod_add 5), x_z has order 1 and the other factors 5
    for S, mode, coefficients in (
            (build_family("zmod_add", 16), "randomized", 256),
            (adjoin_zero(build_family("zmod_add", 5)), "exact", 27)):
        data, calls = run_json(S, monkeypatch, cyclotomic.CycNum, "to_str")
        assert data["verification"]["mode"] == mode
        assert sum(len(f["form"]) for f in data["factors"]) == coefficients
        assert calls == coefficients + 1
