from fractions import Fraction

import pytest

from frobdet.determinant import paratrophic_determinant, verify_against
from frobdet.errors import (CocycleDomainMismatch, CocycleInvalid, FormatError,
                            NotNilpotentAdjoined)
from frobdet.factorization import lift_zero
from frobdet.nilpotent import (Cocycle, analyze_nilpotent, annihilator_matrix,
                               factor_nil_adjoined, parse_cocycle)
from frobdet.poly import Poly
from frobdet.semigroups import build_family

from oracles import backnforth_check


def test_analyze_cyclic():
    M = build_family("cyclic_nilpotent", 4)
    rep = analyze_nilpotent(M)
    assert rep.is_nilpotent_adjoined
    assert rep.index == 4  # a, a2, a3 with a4 = z: products of length 4 die
    assert rep.unique_annihilator == M.names.index("a3")
    assert rep.annihilators == (M.names.index("a3"),)


def test_analyze_degenerate():
    M = build_family("cyclic_nilpotent", 1)  # {I, z}
    rep = analyze_nilpotent(M)
    assert rep.is_nilpotent_adjoined
    assert rep.index == 1
    assert rep.unique_annihilator == 0  # the identity annihilates S = {z}


def test_analyze_rejects():
    assert not analyze_nilpotent(build_family("zmod_add", 3)).is_nilpotent_adjoined
    assert not analyze_nilpotent(build_family("gcd", 4)).is_nilpotent_adjoined
    chain = build_family("chain_semilattice", 3)
    rep = analyze_nilpotent(chain)
    assert not rep.is_nilpotent_adjoined
    with pytest.raises(NotNilpotentAdjoined):
        factor_nil_adjoined(build_family("zmod_add", 3))


def test_cyclic_nilpotent_factored():
    # theta-contracted for <a : a^k = a^(k+1)> is sign(k) x_{a^(k-1)}^k
    signs = {2: -1, 3: -1, 4: 1, 5: 1}
    for k, sign in signs.items():
        M = build_family("cyclic_nilpotent", k)
        F = verify_against(M, factor_nil_adjoined(M), "contracted")
        assert F.status == "factored"
        assert F.constant == sign, k
        assert len(F.factors) == 1
        f, m = F.factors[0]
        assert m == k + 1 - 1 == k
        assert f == Poly.variable(M.names.index(f"a{k - 1}" if k > 2 else "a"))
        assert F.verification["mode"] == "exact" and F.verification["equal"]


def test_degenerate_factorization():
    M = build_family("cyclic_nilpotent", 1)
    F = factor_nil_adjoined(M)
    assert F.constant == 1
    assert F.factors == ((Poly.variable(0), 1),)


def test_three_nil_factored():
    # B = [[1,1,0],[1,0,1],[0,1,1]] has determinant -2
    M = build_family("three_nil", "110,101,011")
    F = verify_against(M, factor_nil_adjoined(M), "contracted")
    zp = M.names.index("zp")
    assert F.constant == 2  # -det B
    assert F.factors == ((Poly.variable(zp), M.n - 1),)
    assert F.verification["equal"]


def test_three_nil_singular_is_zero():
    M = build_family("three_nil", "11,11")
    F = factor_nil_adjoined(M)
    assert F.status == "zero"
    assert any("singular" in n for n in F.notes)


def test_no_unique_annihilator_is_zero():
    # B diagonal: s1 s1 = zp, s2 s2 = zp, s1 s2 = z; fine, zp unique.
    # Take instead B = 0 matrix: every s_i is an annihilator next to zp.
    M = build_family("three_nil", "00,00")
    rep = analyze_nilpotent(M)
    assert rep.unique_annihilator is None
    assert len(rep.annihilators) == 3
    F = factor_nil_adjoined(M)
    assert F.status == "zero"
    assert any("annihilating" in n for n in F.notes)


def test_annihilator_matrix_shape():
    M = build_family("cyclic_nilpotent", 3)
    zp = analyze_nilpotent(M).unique_annihilator
    assert zp == 2
    mat = annihilator_matrix(M, zp)
    got = [[0 if v.is_zero() else 1 for v in row] for row in mat]
    # I a2 = a2, a a = a2, a2 I = a2: the antidiagonal
    assert got == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_cocycle_validation():
    M = build_family("three_nil", "11,11")
    s1, s2 = 1, 2
    c = Cocycle.for_monoid(M, {(s1, s2): Fraction(-1)})
    assert c.value(s1, s2) == -1
    assert c.value(s1, s1) == 1
    with pytest.raises(CocycleInvalid):
        Cocycle.for_monoid(M, {(s1, s2): 0})
    with pytest.raises(CocycleInvalid):
        # s1 * zp = z: outside the domain
        Cocycle.for_monoid(M, {(s1, M.names.index("zp")): -1})
    with pytest.raises(CocycleInvalid):
        # breaks normalization
        Cocycle.for_monoid(M, {(0, s1): -1})


def test_cocycle_twisted_associativity_enforced():
    # adjoin structure where a twist matters: I, a, a2, a3, z chain; the
    # pair (a, a2) and (a2, a) sit inside products a * a * a2 != z? no:
    # a a a2 = a4 = z, so in the chain every triple dies and any values
    # pass; force a failure on a monoid with longer fuse
    M = build_family("cyclic_nilpotent", 4)
    a, a2 = 1, 2
    # c(a, a) = -1 with c(a2, a) = 1: triple (a, a, a) has a^3 = a3 != z,
    # lhs c(a,a) c(a2,a) = -1, rhs c(a,a) c(a,a2) = -1 ... consistent;
    # instead break it with c(a, a2) alone
    with pytest.raises(CocycleInvalid):
        Cocycle.for_monoid(M, {(a, a2): -1})


def test_twisted_rescues_singular():
    M = build_family("three_nil", "11,11")
    s1, s2 = 1, 2
    c = Cocycle.for_monoid(M, {(s2, s2): -1})
    F = factor_nil_adjoined(M, cocycle=c)
    assert F.status == "factored"
    # det of [[1,1],[1,-1]] is -2, and det A = -det of the twisted block
    assert F.constant == 2
    theta = paratrophic_determinant(M, mode="twisted", cocycle=c)
    assert F.expand() == theta


def test_parse_cocycle():
    M = build_family("three_nil", "11,11")
    text = "# twist\norder 4\ns2 s2 z^2\n"
    c = parse_cocycle(text, M)
    assert c.order == 4
    assert c.value(2, 2) == -1
    with pytest.raises(FormatError):
        parse_cocycle("s2 s2\n", M)
    with pytest.raises(FormatError):
        parse_cocycle("order x\ns2 s2 1\n", M)
    with pytest.raises(FormatError):
        parse_cocycle("s2 s2 1\ns2 s2 1\n", M)
    with pytest.raises(FormatError):
        parse_cocycle("nope s2 1\n", M)


def test_cocycle_domain_mismatch():
    M = build_family("three_nil", "11,11")
    N = build_family("cyclic_nilpotent", 2)
    c = Cocycle.for_monoid(N)
    with pytest.raises(CocycleDomainMismatch):
        factor_nil_adjoined(M, cocycle=c)


def test_lift_to_plain_determinant():
    # theta = x_z * thetac(x - x_z): lifting the contracted factorization
    # of a nilpotent-adjoined monoid gives the plain determinant
    for fam, arg in [("cyclic_nilpotent", 2), ("cyclic_nilpotent", 3),
                     ("three_nil", "10,01")]:
        M = build_family(fam, arg)
        F = factor_nil_adjoined(M)
        lifted = lift_zero(F, M.zero)
        assert lifted.expand() == paratrophic_determinant(M)
        assert backnforth_check(M)["equal"]
