import random
from dataclasses import replace
from fractions import Fraction

import pytest

from frobdet.commutative import factor_commutative, factor_local
from frobdet.cyclotomic import CycNum
from frobdet import determinant
from frobdet.determinant import (RepMatrix, backnforth_check, cayley_matrix,
                                 factor_group_determinant, frobenius_test,
                                 paratrophic_determinant, transport_basis,
                                 verify_against)
from frobdet.errors import (CocycleDomainMismatch, FrobdetError, NoZero,
                            NotAbelianWithoutReps, NotAGroup,
                            NotMultiplicative, RepDimensionMismatch,
                            SingularP, VerificationFailed)
from frobdet.factorization import (Factorization, checked, equivalent,
                                   lift_zero, random_points,
                                   random_table_check)
from frobdet.groupoids import factor_clifford
from frobdet.linalg import int_det
from frobdet.nilpotent import Cocycle, factor_nil_adjoined, parse_cocycle
from frobdet.poly import DEFAULT_CAP, Poly, det_poly_matrix, parse_poly
from frobdet.posets import factor_semilattice
from frobdet.semigroups import (adjoin_zero, analyze, build_family,
                                direct_product, group_of_units, subsemigroup,
                                validate_table)

from corpus import wenger_monoid, zmult


def test_plain_matrix_and_det_z2():
    G = build_family("zmod_add", 2)
    pm = cayley_matrix(G)
    assert pm.mode == "plain" and pm.basis == (0, 1)
    assert pm.entries[0][1].to_str() == "x1"
    theta = paratrophic_determinant(G)
    assert theta == parse_poly("x0^2-x1^2")


def test_left_zero_det_vanishes():
    S = build_family("left_zero", 2)
    assert paratrophic_determinant(S).is_zero()


def test_contracted_matrix():
    M = build_family("cyclic_nilpotent", 2)  # I, a, z
    pm = cayley_matrix(M, mode="contracted")
    assert pm.basis == (0, 1)
    assert pm.entries[1][1].is_zero()  # a * a = z
    thetac = paratrophic_determinant(M, mode="contracted")
    assert thetac == parse_poly("-x1^2")
    with pytest.raises(NoZero):
        cayley_matrix(build_family("zmod_add", 2), mode="contracted")


def test_contracted_matrix_is_twisted_by_ones():
    M = build_family("three_nil", "10,01")  # I, s1, s2, zp, z
    t, z = M.table, M.zero
    z4 = CycNum.root_of_unity(4)
    c = Cocycle.for_monoid(M, {(1, 1): z4, (2, 2): -z4}, order=4)
    twisted = cayley_matrix(M, "twisted", c)
    ones = cayley_matrix(M, "twisted", Cocycle.for_monoid(M))
    contracted = cayley_matrix(M, "contracted")
    assert twisted.basis == ones.basis == contracted.basis == (0, 1, 2, 3)
    assert ones.entries == contracted.entries
    for i, a in enumerate(twisted.basis):
        for j, b in enumerate(twisted.basis):
            want = Poly.zero(4) if t[a][b] == z else \
                Poly.variable(t[a][b], 4).scale(c.value(a, b))
            assert twisted.entries[i][j] == want
            assert twisted.entries[i][j].order == 4
    # errors in order: the mode, then the zero, then the cocycle
    G = build_family("zmod_add", 2)
    with pytest.raises(ValueError):
        cayley_matrix(G, "groupoid", c)
    with pytest.raises(NoZero):
        cayley_matrix(G, "twisted")
    with pytest.raises(CocycleDomainMismatch):
        cayley_matrix(M, "twisted")
    with pytest.raises(CocycleDomainMismatch):
        cayley_matrix(build_family("cyclic_nilpotent", 2), "twisted", c)


def test_backnforth_translations():
    for fam, arg in [("cyclic_nilpotent", 2), ("cyclic_nilpotent", 3),
                     ("gcd", 4), ("chain_semilattice", 3),
                     ("three_nil", "10,01")]:
        S = build_family(fam, arg)
        rec = backnforth_check(S)
        assert rec["equal"], (fam, arg, rec)


def test_matrix_unit_semigroup_det():
    # elements E_ij with E_ij E_kl = E_il when j = k, else zero
    for n in (2, 3):
        units = [(i, j) for i in range(n) for j in range(n)]
        z = len(units)
        idx = {u: k for k, u in enumerate(units)}
        size = z + 1
        rows = []
        for a in range(size):
            row = []
            for b in range(size):
                if a == z or b == z:
                    row.append(z)
                else:
                    (i, j), (k, l) = units[a], units[b]
                    row.append(idx[(i, l)] if j == k else z)
            rows.append(row)
        S = validate_table(rows)
        thetac = paratrophic_determinant(S, mode="contracted", cap=16)
        generic = det_poly_matrix(
            [[Poly.variable(idx[(i, j)]) for j in range(n)] for i in range(n)])
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert thetac == (generic ** n).scale(CycNum.from_rational(sign))


def test_frobenius_test_not_square_surjective():
    M = build_family("cyclic_nilpotent", 2)
    S, _ = subsemigroup(M, [1, 2])  # {a, z} with all products z
    r = frobenius_test(S)
    assert r.status == "not_frobenius"
    assert "products miss" in r.reason


def test_frobenius_test_profile():
    T2 = build_family("full_transform", 2)
    r = frobenius_test(T2)
    assert r.status == "not_frobenius"
    assert "fixes" in r.reason
    r2 = frobenius_test(build_family("left_zero", 2))
    assert r2.status == "not_frobenius"


def test_frobenius_test_positive():
    r = frobenius_test(build_family("zmod_add", 3))
    assert r.status == "frobenius"
    assert r.witness is not None and r.witness["determinant"] != 0
    r2 = frobenius_test(build_family("chain_semilattice", 4))
    assert r2.status == "frobenius"


def test_frobenius_test_zero_and_inconclusive():
    # symmetric singular pattern: determinant vanishes identically
    M = build_family("three_nil", "11,11")
    r = frobenius_test(M)
    assert r.status == "not_frobenius"
    assert r.verification["mode"] == "exact"
    r2 = frobenius_test(M, cap=4)
    assert r2.status == "inconclusive"


def test_transport_basis_scalar():
    theta = parse_poly("x0")
    out = transport_basis(theta, [[2]])
    assert out == parse_poly("2*x0")
    with pytest.raises(SingularP):
        transport_basis(theta, [[0]])


def test_transport_basis_group_algebra_idempotents():
    # C2 in the basis {1+g, 1-g}: determinant 4 y0 y1; moving back to
    # {1, g} must give x0^2 - x1^2
    theta_prime = parse_poly("4*x0*x1")
    P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]]
    out = transport_basis(theta_prime, P)
    assert out == parse_poly("x0^2-x1^2")


def test_transport_basis_identity_is_noop():
    theta = parse_poly("x0^2-3*x1^2+x0*x2")
    out = transport_basis(theta, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert out == theta


def test_dedekind_z2():
    G = build_family("zmod_add", 2)
    F = verify_against(G, factor_group_determinant(G))
    assert F.provenance == "dedekind"
    assert F.constant == 1
    strs = [f.to_str() for f, _ in F.factors]
    assert sorted(strs) == ["x0+x1", "x0-x1"]
    assert F.verification["equal"]


def test_dedekind_z3_constant():
    F = factor_group_determinant(build_family("zmod_add", 3))
    assert F.constant == -1
    assert len(F.factors) == 3
    assert F.factors[0][0].order in (1, 3)
    assert F.expand() == paratrophic_determinant(build_family("zmod_add", 3))


def test_dedekind_z4_and_klein():
    F = factor_group_determinant(build_family("zmod_add", 4))
    assert F.constant == -1
    C2 = build_family("zmod_add", 2)
    K = direct_product(C2, C2)
    FK = factor_group_determinant(K)
    assert FK.constant == 1
    strs = sorted(f.to_str() for f, _ in FK.factors)
    assert strs == ["x0+x1+x2+x3", "x0+x1-x2-x3", "x0-x1+x2-x3",
                    "x0-x1-x2+x3"]


def test_dedekind_above_cap_ratio():
    G = build_family("zmod_add", 16)
    F = verify_against(G, factor_group_determinant(G), cap=12)
    assert F.constant == -1
    assert F.verification["mode"] == "randomized"
    assert len(F.factors) == 16


def test_group_determinant_rejections():
    with pytest.raises(NotAGroup):
        factor_group_determinant(build_family("chain_semilattice", 2))
    T3 = build_family("full_transform", 3)
    S3, _ = group_of_units(T3)
    with pytest.raises(NotAbelianWithoutReps):
        factor_group_determinant(S3)


def _perm_of(name):
    return tuple(int(c) for c in name)


def _s3_reps(S3):
    """Trivial, sign, and the 2-dim standard rep on e0-e1, e1-e2."""
    def parity(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if p[i] > p[j])
        return -1 if inv % 2 else 1

    def standard(p):
        # sigma e_i = e_{sigma(i)}; a zero-sum vector (v0, v1, v2) is
        # v0 * f0 - v2 * f1 in the basis f0 = e0-e1, f1 = e1-e2
        cols = []
        for f in ((1, -1, 0), (0, 1, -1)):
            img = [0, 0, 0]
            for i, c in enumerate(f):
                img[p[i]] += c
            cols.append((img[0], -img[2]))
        return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))

    perms = [_perm_of(S3.name_of(g)) for g in range(S3.n)]
    triv = RepMatrix.make(S3, [((1,),)] * 6)
    sign = RepMatrix.make(S3, [((parity(p),),) for p in perms])
    std = RepMatrix.make(S3, [standard(p) for p in perms])
    return [triv, sign, std]


def test_frobenius_s3():
    T3 = build_family("full_transform", 3)
    S3, _ = group_of_units(T3)
    reps = _s3_reps(S3)
    F = factor_group_determinant(S3, reps=reps)
    assert F.provenance == "frobenius"
    assert F.constant.is_rational()
    mults = sorted(m for _, m in F.factors)
    assert mults == [1, 1, 2]
    assert F.expand() == paratrophic_determinant(S3)


def test_rep_validation():
    G = build_family("zmod_add", 2)
    with pytest.raises(NotMultiplicative):
        RepMatrix.make(G, [((1,),), ((2,),)])
    with pytest.raises(RepDimensionMismatch):
        RepMatrix.make(G, [((1,),)])
    triv = RepMatrix.make(G, [((1,),), ((1,),)])
    with pytest.raises(RepDimensionMismatch):
        # sum of squared dims wrong
        factor_group_determinant(G, reps=[triv])
    sign = RepMatrix.make(G, [((1,),), ((-1,),)])
    with pytest.raises(RepDimensionMismatch):
        # duplicate traces
        factor_group_determinant(G, reps=[triv, triv])
    F = factor_group_determinant(G, reps=[triv, sign])
    assert F.constant == 1


def test_group_constant_is_leading_coefficient():
    groups = [(build_family("zmod_add", n), None) for n in range(2, 8)]
    S3, _ = group_of_units(build_family("full_transform", 3))
    groups.append((S3, _s3_reps(S3)))
    for G, reps in groups:
        F = factor_group_determinant(G, reps=reps)
        assert F.constant == paratrophic_determinant(G).leading()[1], G.n


def test_the_group_sign_is_the_permutation_parity(commutative_tables):
    # every group of the commutative tables of order 4 or less (element 0
    # is not always the identity there), Z/n up to 32, unit groups of
    # Z/n under multiplication, and S3
    groups = [S for tables in commutative_tables.values() for S in tables
              if analyze(S).is_group]
    groups += [build_family("zmod_add", n) for n in range(1, 33)]
    groups += [group_of_units(zmult(n))[0] for n in range(2, 25)]
    groups.append(group_of_units(build_family("full_transform", 3))[0])
    assert any(S.identity != 0 for S in groups)
    for G in groups:
        column = [G.table[g].index(0) for g in range(G.n)]
        assert determinant._permutation_sign(column) == int_det(
            [[int(G.table[g][h] == 0) for h in range(G.n)]
             for g in range(G.n)]), G.n
    rng = random.Random(20)
    for n in range(1, 41):
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert determinant._permutation_sign(perm) == int_det(
                [[int(perm[i] == j) for j in range(n)] for i in range(n)])


def _answer(S, route, mode="plain"):
    return S, route(S), mode, None


def _three_nil_twist():
    M = build_family("three_nil", "10,01")
    cocycle = parse_cocycle("order 4\ns1 s1 z\n", M)
    return M, factor_nil_adjoined(M, cocycle), "twisted", cocycle


# One small input per factorization route: the table, the route's
# unchecked answer, and the determinant that answer names.
ROUTES = {
    "semilattice": lambda: _answer(build_family("gcd", 4),
                                   factor_semilattice),
    "abelian-group": lambda: _answer(build_family("zmod_add", 4),
                                     factor_group_determinant),
    "clifford": lambda: _answer(adjoin_zero(build_family("zmod_add", 3)),
                                factor_clifford),
    "nilpotent-contracted": lambda: _answer(
        build_family("cyclic_nilpotent", 3), factor_nil_adjoined,
        "contracted"),
    "nilpotent-twisted": _three_nil_twist,
    "local": lambda: _answer(wenger_monoid(), factor_local, "contracted"),
    "commutative": lambda: _answer(zmult(8), factor_commutative),
}


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_checks_exactly_and_at_random_points(route):
    S, F, mode, cocycle = ROUTES[route]()
    randomized = verify_against(S, F, mode, cocycle, cap=0)
    exact = verify_against(S, F, mode, cocycle, cap=DEFAULT_CAP)
    assert randomized.verification["mode"] == "randomized"
    assert exact.verification["mode"] == "exact"
    assert randomized.verification["equal"] and exact.verification["equal"]
    assert equivalent(randomized, exact)


def expanded_modes(monkeypatch):
    """The modes of the determinants that determinant.py expands, in order."""
    modes = []

    def recording(S, mode="plain", *args, **kwargs):
        modes.append(mode)
        return paratrophic_determinant(S, mode, *args, **kwargs)
    monkeypatch.setattr(determinant, "paratrophic_determinant", recording)
    return modes


def plain_answer(S):
    """An unchecked factorization of the plain determinant of S from the
    first of these routes that applies."""
    for route in (factor_semilattice, factor_clifford,
                  lambda S: lift_zero(factor_nil_adjoined(S), S.zero),
                  factor_commutative):
        try:
            return route(S)
        except FrobdetError:
            continue
    return None


def test_a_plain_answer_with_a_zero_is_checked_at_n_minus_1(
        monkeypatch, commutative_tables):
    # theta = x_z * thetac(x_s - x_z): the record of the contracted check
    # is the record of the plain one. An answer that carries characters is
    # checked by them on C0S and expands nothing; otherwise only thetac is
    # expanded
    tables = [S for n in (2, 3, 4) for S in commutative_tables[n]]
    tables += [build_family("gcd", 8), zmult(6), zmult(8), wenger_monoid(),
               adjoin_zero(build_family("zmod_add", 5)),
               build_family("cyclic_nilpotent", 8),
               build_family("three_nil", "10,01")]
    modes = expanded_modes(monkeypatch)
    count = 0
    for S in tables:
        F = plain_answer(S) if S.zero is not None else None
        if F is None:
            continue
        count += 1
        modes.clear()
        translated = verify_against(S, F).verification
        assert modes == ([] if F.characters else ["contracted"])
        assert translated == checked(paratrophic_determinant(S), F).verification
        thetac = paratrophic_determinant(S, "contracted")
        Fc = (Factorization.zero("thetac") if thetac.is_zero()
              else Factorization.of(1, [(thetac, 1)], "thetac"))
        assert verify_against(S, lift_zero(Fc, S.zero)).verification == \
            verify_against(S, Fc, "contracted").verification
    assert count > 500


def _with_factors(F, factors):
    return Factorization(F.status, F.constant, tuple(factors), F.provenance)


def test_a_plain_answer_of_another_shape_is_checked_on_theta(monkeypatch):
    S = build_family("gcd", 4)
    F = plain_answer(S)
    xz = Poly.variable(S.zero)
    assert (xz, 1) in F.factors
    others = [(f, m) for f, m in F.factors if f != xz]
    theta = paratrophic_determinant(S)
    wrong = {
        # x_z with multiplicity 2
        "x_z twice": _with_factors(F, others[1:] + [(xz, 2)]),
        # a factor that keeps x_z after x_s -> x_s + x_z
        "x_z kept": _with_factors(F, [(others[0][0] + xz, others[0][1])]
                                  + others[1:] + [(xz, 1)]),
    }
    modes = expanded_modes(monkeypatch)
    for name, G in wrong.items():
        modes.clear()
        with pytest.raises(VerificationFailed):
            verify_against(S, G)
        assert modes == ["plain"], name
    # theta as one factor: no factor x_z, so theta itself is expanded
    modes.clear()
    one = Factorization.of(1, [(theta, 1)], "theta")
    assert verify_against(S, one).verification["equal"]
    assert modes == ["plain"]


def test_randomized_and_tiny_checks_stay_plain(monkeypatch):
    # n - 1 = 0, or n - 1 above the cap: the check is on theta, by the
    # characters of CS when exact, and a wrong answer is expanded on
    # theta, never on thetac
    for n, cap in ((1, DEFAULT_CAP), (1, 0), (2, 0)):
        S = build_family("gcd", n)
        F = plain_answer(S)
        wrong = replace(F, constant=CycNum.from_rational(2))
        modes = expanded_modes(monkeypatch)
        record = verify_against(S, F, cap=cap).verification
        assert record["mode"] == ("exact" if cap else "randomized")
        assert modes == []
        with pytest.raises(VerificationFailed):
            verify_against(S, wrong, cap=cap)
        assert modes == (["plain"] if cap else [])


def character_corpus(commutative_tables):
    """Every corpus table within the cap whose answer carries characters,
    with some that have none."""
    tables = [S for n in (1, 2, 3, 4) for S in commutative_tables[n]]
    tables += [build_family("gcd", n) for n in range(2, 13)]
    tables += [build_family("zmod_add", n) for n in range(1, 13)]
    tables += [adjoin_zero(build_family("zmod_add", n)) for n in range(1, 12)]
    return tables + [zmult(6), zmult(10)]


def character_answers(tables):
    """(S, F) for each table whose answer, from the first of the
    semilattice, abelian group and Clifford routes that applies, carries
    characters."""
    for S in tables:
        for route in (factor_semilattice, factor_group_determinant,
                      factor_clifford):
            try:
                F = route(S)
            except FrobdetError:
                continue
            if F.characters is not None:
                yield S, F
            break


def refuse(*args, **kwargs):
    raise AssertionError("determinant expanded")


def test_the_character_check_agrees_with_the_expansion(monkeypatch,
                                                       commutative_tables):
    count = 0
    for S, F in character_answers(character_corpus(commutative_tables)):
        count += 1
        seed = S.n
        with monkeypatch.context() as m:
            m.setattr(determinant, "paratrophic_determinant", refuse)
            record = verify_against(S, F, seed=seed).verification
        dim = S.n - 1 if S.zero is not None else S.n
        if F.provenance != "wilf-lindstrom" and dim >= 11:
            # expanding theta takes seconds to minutes here (zmod_add 11
            # and 12, adjoin_zero(zmod_add 11)): the record is the one the
            # expansion gives a right answer, and the answer agrees with
            # theta at random points
            assert record == {"equal": True, "mode": "exact", "rounds": 0,
                              "seed": seed}
            assert random_table_check(S, F, seed=seed)["equal"]
            continue
        with monkeypatch.context() as m:
            m.setattr(determinant, "_character_check", lambda *args: False)
            assert verify_against(S, F, seed=seed).verification == record
    assert count > 300


def corruptions(F):
    """F with one coefficient changed, with its constant changed, with a
    factor dropped and with a multiplicity doubled; each keeps F's
    characters."""
    (f, m), rest = F.factors[-1], F.factors[:-1]
    x, c = next(iter(f.terms.items()))
    changed = Poly(f.order, {**f.terms, x: c + 1})
    return {
        "coefficient": replace(F, factors=rest + ((changed, m),)),
        "constant": replace(F, constant=F.constant * 2),
        "dropped": replace(F, factors=rest),
        "doubled": replace(F, factors=rest + ((f, 2 * m),)),
    }


def test_a_corrupted_answer_fails_the_character_check(monkeypatch,
                                                      commutative_tables):
    passed = []

    def spying(*args, **kwargs):
        passed.append(character_check(*args, **kwargs))
        return passed[-1]

    character_check = determinant._character_check
    monkeypatch.setattr(determinant, "_character_check", spying)
    tables = [S for n in (1, 2, 3, 4) for S in commutative_tables[n]]
    tables += [build_family("gcd", 6), build_family("zmod_add", 4),
               build_family("zmod_add", 6), zmult(6), zmult(10),
               adjoin_zero(build_family("zmod_add", 3))]
    answers = list(character_answers(tables))
    assert len(answers) > 100
    for S, F in answers:
        for name, wrong in corruptions(F).items():
            passed.clear()
            with pytest.raises(VerificationFailed):
                verify_against(S, wrong)
            assert passed and not any(passed), (S.table, name)


def test_a_column_that_is_not_multiplicative_falls_through(monkeypatch):
    for S, route in ((build_family("zmod_add", 4), factor_group_determinant),
                     (build_family("gcd", 6), factor_semilattice)):
        F = route(S)
        order, columns = F.characters
        bad = list(columns[1])
        bad[1] = 0 if bad[1] is None else None
        G = replace(F, characters=(order, (columns[0], tuple(bad))
                                   + columns[2:]))
        assert not determinant._character_check(S, G, "plain", 0)
        modes = expanded_modes(monkeypatch)
        assert verify_against(S, G).verification == \
            verify_against(S, F).verification
        assert modes == ["contracted" if S.zero is not None else "plain"]


def forged(S, forms, characters, seed=0):
    """A wrong answer with the given rational linear factors, each of
    multiplicity 1, whose constant makes it agree with theta at the first
    seeded point where no factor vanishes."""
    factors = tuple((parse_poly(f), 1) for f in forms)
    t = S.table
    for point in random_points(range(S.n), seed, 5):
        values = [f.evaluate(point).as_fraction() for f, _ in factors]
        if all(values):
            break
    value = Fraction(int_det([[point[t[a][b]] for b in range(S.n)]
                              for a in range(S.n)]))
    for v in values:
        value /= v
    return Factorization("factored", CycNum.from_rational(value), factors,
                         "forged", characters=characters)


def test_each_step_of_the_character_check_rejects_a_forgery():
    # theta of Z/2 is x0^2 - x1^2 = (x0 + x1)(x0 - x1); each forgery
    # agrees with theta at the point that pins the constant, and only the
    # named step tells it apart
    S = build_family("zmod_add", 2)
    characters = (2, ((0, 0), (0, 1)))
    forgeries = {
        "columns not multiplicative": forged(
            S, ["x0", "x1"], (1, ((0, None), (None, 0)))),
        "two factors on one column": forged(
            S, ["x0+x1", "x0+x1"], characters),
        "a factor on two columns": forged(S, ["x0", "x0-x1"], characters),
        "fewer factors than columns": forged(S, ["x0+x1"], characters),
    }
    for name, F in forgeries.items():
        assert not determinant._character_check(S, F, "plain", 0), name
        with pytest.raises(VerificationFailed):
            verify_against(S, F)
