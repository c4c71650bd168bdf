import time
from fractions import Fraction

import pytest

from frobdet.commutative import chain_fastpath, factor_commutative
from frobdet.cyclotomic import CycNum
from frobdet.errors import OutOfRange, SizeOverflow
from frobdet.factorization import equivalent
from frobdet.linalg import cyc_det
from frobdet.rings import (FiniteFieldSpec, frobenius_form_check,
                           kovacs_check, matrix_monoid, zmod_monoid)
from frobdet.semigroups import analyze


def test_field_modulus_conventions():
    assert FiniteFieldSpec.make(2, 2).modulus == (1, 1)       # x^2+x+1
    assert FiniteFieldSpec.make(3, 2).modulus == (1, 0)       # x^2+1
    assert FiniteFieldSpec.make(2, 4).modulus == (1, 1, 0, 0)  # x^4+x+1
    assert FiniteFieldSpec.make(5, 1).modulus == (0,)


def test_field_rejections():
    with pytest.raises(OutOfRange):
        FiniteFieldSpec.make(4, 1)
    with pytest.raises(OutOfRange):
        FiniteFieldSpec.make(2, 9)
    with pytest.raises(OutOfRange):
        FiniteFieldSpec.make(3, 0)


def test_field_arithmetic():
    F4 = FiniteFieldSpec.make(2, 2)
    # the generator squares to itself plus one
    assert F4.mul(2, 2) == 3
    assert F4.add(2, 3) == 1
    assert F4.absolute_trace(2) == 1
    assert F4.absolute_trace(1) == 0
    F9 = FiniteFieldSpec.make(3, 2)
    # x * x = -1 = 2 under the modulus x^2+1
    assert F9.mul(3, 3) == 2
    orders = set()
    for a in range(1, 9):
        k, x = 1, a
        while x != 1:
            x = F9.mul(x, a)
            k += 1
        orders.add(k)
    assert max(orders) == 8  # multiplicative group is cyclic of order 8


def test_zmod_monoid_range():
    with pytest.raises(OutOfRange):
        zmod_monoid(1)
    with pytest.raises(OutOfRange):
        zmod_monoid(513)


def test_zmod_structure():
    S, lam = zmod_monoid(6)
    assert analyze(S).idempotents == (0, 1, 3, 4)
    S4, lam4 = zmod_monoid(4)
    assert analyze(S4).group_of_units == (1, 3)
    assert lam4.value(1).to_str() == "z"
    assert lam4.order == 4


def test_frobenius_form_zmod2():
    S, lam = zmod_monoid(2)
    assert frobenius_form_check(S, lam) == -2


def test_frobenius_form_nonzero_for_small_zmod():
    for n in range(2, 13):
        S, lam = zmod_monoid(n)
        assert not frobenius_form_check(S, lam).is_zero()


def test_frobenius_form_zmod20_is_fast():
    S, lam = zmod_monoid(20)
    t0 = time.perf_counter()
    d = frobenius_form_check(S, lam)
    assert time.perf_counter() - t0 < 1.0
    assert d * d.conj() == 20 ** 20


def test_cyc_det_does_no_field_arithmetic(monkeypatch):
    # the exact determinant works on integer coordinates modulo primes;
    # no elimination over Q(zeta_N) may come back
    S, lam = zmod_monoid(12)
    form = [[lam.value(S.table[a][b]) for b in range(S.n)]
            for a in range(S.n)]
    z3, z4 = CycNum.root_of_unity(3), CycNum.root_of_unity(4)
    mixed = [[z3 * Fraction(2, 7), CycNum.one(), z4],
             [CycNum.from_rational(Fraction(-1, 3)), z4 - z3, z3 * 5],
             [z4 * Fraction(1, 2), z3 + 1, CycNum.from_rational(3, 2)]]
    expected = [cyc_det(form), cyc_det(mixed)]

    def refuse(*args):
        raise AssertionError("field arithmetic inside cyc_det")
    for name in ("inverse", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycNum, name, refuse)
    assert [cyc_det(form), cyc_det(mixed)] == expected


def test_matrix_monoid_m2f2():
    F2 = FiniteFieldSpec.make(2, 1)
    M, lam = matrix_monoid(2, F2)
    assert M.n == 16
    rep = analyze(M)
    assert len(rep.group_of_units) == 6
    assert rep.zero == 0 and rep.identity is not None
    d = frobenius_form_check(M, lam)
    assert d == 2 ** 32


def test_matrix_monoid_m1f4_units():
    M, lam = matrix_monoid(1, FiniteFieldSpec.make(2, 2))
    rep = analyze(M)
    assert M.n == 4
    assert rep.group_of_units == (1, 2, 3)
    assert lam.order == 2


def test_matrix_monoid_size_cap():
    with pytest.raises(SizeOverflow):
        matrix_monoid(2, FiniteFieldSpec.make(2, 4))


def test_kovacs_reports():
    r = kovacs_check(2, 2)
    assert r["q_binomials"] == [1, 3, 1]
    assert r["gl_orders"] == [1, 1, 6]
    assert r["sum"] == 16 and r["equal"]
    assert r["subspace_counts"] == [1, 3, 1] and r["subspaces_agree"]
    r = kovacs_check(2, 3)
    assert r["q_binomials"] == [1, 4, 1]
    assert r["gl_orders"] == [1, 2, 48]
    assert r["sum"] == 81 and r["equal"]
    r = kovacs_check(3, 2)
    assert r["q_binomials"] == [1, 7, 7, 1]
    assert r["gl_orders"] == [1, 1, 6, 168]
    assert r["sum"] == 512 and r["equal"]
    assert r["subspace_counts"] == [1, 7, 7, 1]


def test_kovacs_prime_power_q():
    r = kovacs_check(1, 4)
    assert r["equal"] and r["q_binomials"] == [1, 1]
    r = kovacs_check(2, 4)
    assert r["equal"]


def test_kovacs_rejections():
    with pytest.raises(OutOfRange):
        kovacs_check(5, 2)
    with pytest.raises(OutOfRange):
        kovacs_check(2, 6)
    with pytest.raises(OutOfRange):
        kovacs_check(2, 17)


def test_prime_power_monoid_factors_through_chain():
    S, _ = zmod_monoid(8)
    F = factor_commutative(S)
    assert F.status == "factored"
    G = chain_fastpath(S)
    assert G.status == "factored"
    S9, _ = zmod_monoid(9)
    assert chain_fastpath(S9).status == "factored"
