import random

import pytest

from frobdet.determinant import verify_against
from frobdet.errors import ModeHypothesisFailed, NotAPartialOrder, NotSemilattice
from frobdet.posets import (FinitePoset, factor_semilattice, mobius,
                            mobius_forms, natural_order, smith_determinant,
                            smith_matrix, splus_map)
from frobdet.semigroups import adjoin_zero, analyze, build_family

from corpus import eleven_monoid, wenger_monoid, zmult
from oracles import direct_product, is_inverse, unitriangular_inverse


def divisor_poset(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    leq = [[divs[j] % divs[i] == 0 for j in range(len(divs))]
           for i in range(len(divs))]
    return FinitePoset.from_leq(leq), divs


def test_poset_validation():
    with pytest.raises(NotAPartialOrder):
        FinitePoset.from_leq([[True, True], [True, True]])  # antisymmetry
    with pytest.raises(NotAPartialOrder):
        FinitePoset.from_leq([[True, False], [True, False]])  # reflexivity
    with pytest.raises(NotAPartialOrder):
        FinitePoset.from_leq([[True, True, False],
                              [False, True, True],
                              [False, False, True]])  # transitivity


def test_linear_extension_minimal_first():
    # 2 < 0, 2 < 1 with 0, 1 incomparable
    leq = [[True, False, False], [False, True, False], [True, True, True]]
    p = FinitePoset.from_leq(leq)
    assert p.extension == (2, 0, 1)


def test_mobius_divisors_of_12():
    p, divs = divisor_poset(12)
    mu = mobius(p)
    one = divs.index(1)
    # classical mu(n) values read off mu(1, d)
    expect = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0}
    for j, d in enumerate(divs):
        assert mu[one][j] == expect[d]


def test_mobius_inverts_zeta():
    p, _ = divisor_poset(30)
    mu = mobius(p)
    z = p.zeta()
    n = p.n
    for i in range(n):
        for j in range(n):
            s = sum(z[i][k] * mu[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def random_order(rng, n):
    """A random partial order on 0..n-1 as a list of lists of bools: the
    transitive closure of random edges between the elements of a random
    ranking."""
    rank = list(range(n))
    rng.shuffle(rank)
    leq = [[a == b or (rank[a] < rank[b] and rng.random() < 0.3)
            for b in range(n)] for a in range(n)]
    for c in range(n):
        for a in range(n):
            if leq[a][c]:
                for b in range(n):
                    leq[a][b] = leq[a][b] or leq[c][b]
    return leq


def test_mobius_against_unitriangular_inverse(commutative_tables):
    """On every natural order of the commutative tables of order 1 to 4 and
    of larger family members, in all three modes, and on random posets."""
    tables = [S for n in (1, 2, 3, 4) for S in commutative_tables[n]]
    tables += [build_family(*f) for f in (
        ("gcd", 24), ("gcd", 60), ("chain_semilattice", 8), ("rook", 2),
        ("rook", 3), ("zmod_add", 6), ("cyclic_nilpotent", 5))]
    tables += [adjoin_zero(build_family("rook", 2)), zmult(12),
               wenger_monoid(), eleven_monoid()]
    orders = 0
    for S in tables:
        for mode in ("semilattice", "inverse", "central_idempotent"):
            try:
                p = natural_order(S, mode)
            except ModeHypothesisFailed:
                continue
            assert mobius(p) == unitriangular_inverse(p.zeta(), p.extension)
            orders += 1
    assert orders == 918
    rng = random.Random(18)
    for n in list(range(1, 12)) + [30, 40]:
        for _ in range(5):
            p = FinitePoset.from_leq(random_order(rng, n))
            assert mobius(p) == unitriangular_inverse(p.zeta(), p.extension)


def first_order_error(leq):
    """from_leq's message on a relation that is not a partial order, by
    the triple loop over (a, b, c); None for a partial order."""
    n = len(leq)
    for a in range(n):
        if len(leq[a]) != n:
            return "ragged relation matrix"
        if not leq[a][a]:
            return f"relation not reflexive at {a}"
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                return f"antisymmetry fails at ({a}, {b})"
            if leq[a][b]:
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        return f"transitivity fails at ({a}, {b}, {c})"
    return None


def test_from_leq_reports_the_first_failure():
    rng = random.Random(19)
    seen = set()
    for n in list(range(1, 10)) + [20, 70]:
        for _ in range(30):
            leq = random_order(rng, n)
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randrange(n), rng.randrange(n)
                leq[a][b] = not leq[a][b]
            want = first_order_error(leq)
            if want is None:
                assert FinitePoset.from_leq(leq).n == n
            else:
                with pytest.raises(NotAPartialOrder) as e:
                    FinitePoset.from_leq(leq)
                assert str(e.value) == want
            seen.add(want and want.split()[0])
    assert seen == {None, "relation", "antisymmetry", "transitivity"}


def test_natural_order_gcd6():
    S = build_family("gcd", 6)
    p = natural_order(S, "semilattice")
    # i <= j in the order iff gcd(i, j) = i iff i divides j (as labels 1..6)
    for i in range(6):
        for j in range(6):
            assert p.leq[i][j] == ((j + 1) % (i + 1) == 0)


def test_natural_order_rejects_wrong_mode():
    S = build_family("zmod_add", 3)
    with pytest.raises(ModeHypothesisFailed):
        natural_order(S, "semilattice")
    with pytest.raises(ModeHypothesisFailed):
        natural_order(S, "nonsense")
    LZ = build_family("left_zero", 2)
    with pytest.raises(ModeHypothesisFailed):
        natural_order(LZ, "inverse")  # two weak inverses everywhere


def test_natural_order_inverse_on_group_is_trivial():
    G = build_family("zmod_add", 4)
    p = natural_order(G, "inverse")
    for a in range(4):
        for b in range(4):
            assert p.leq[a][b] == (a == b)


def test_splus_map_chain():
    S = build_family("cyclic_nilpotent", 3)
    # only I acts as identity on the powers of a, so their s+ is I
    assert splus_map(S) == (0, 0, 0, 3)
    p = natural_order(S, "central_idempotent")
    assert p.leq[3][1]  # z <= a since a * z+ = a * z = z
    assert not p.leq[1][2]  # a2 * I = a2, not a


def test_factor_semilattice_chain():
    S = build_family("chain_semilattice", 3)
    F = verify_against(S, factor_semilattice(S))
    assert F.status == "factored"
    assert F.constant == 1
    # factors are normalized so the least variable has coefficient 1,
    # and the 3-chain picks up two sign flips that cancel
    strs = [f.to_str() for f, m in F.factors]
    assert strs == ["x0", "x0-x1", "x1-x2"]
    assert F.verification["mode"] == "exact" and F.verification["equal"]


def test_factor_semilattice_gcd5():
    S = build_family("gcd", 5)
    F = factor_semilattice(S)
    # mu is the number-theoretic one; the factor at 4 is x4 - x2, which
    # normalizes to x2 - x4 (indices 1 and 3)
    named = {f.to_str(): m for f, m in F.factors}
    assert "x1-x3" in named  # divisors of 4: mu(1,4)=0, mu(2,4)=-1
    assert "x0" in named
    # four factors flip sign under normalization, so the constant is +1
    assert F.constant == 1


def test_factor_semilattice_boolean_square():
    two = build_family("chain_semilattice", 2)
    B = direct_product(two, two)
    F = factor_semilattice(B)
    strs = sorted(f.to_str() for f, m in F.factors)
    assert strs == ["x0", "x0-x1", "x0-x1-x2+x3", "x0-x2"]


def test_factor_semilattice_rejects():
    with pytest.raises(NotSemilattice):
        factor_semilattice(build_family("left_zero", 2))
    with pytest.raises(NotSemilattice):
        factor_semilattice(build_family("zmod_add", 2))


def test_factor_semilattice_large_randomized():
    # 3-cube semilattice, 8 elements with cap lowered to force the
    # randomized path, then the exact path at default cap for agreement
    two = build_family("chain_semilattice", 2)
    cube = direct_product(direct_product(two, two), two)
    F = verify_against(cube, factor_semilattice(cube), cap=4)
    assert F.verification["mode"] == "randomized" and F.verification["equal"]
    F2 = verify_against(cube, factor_semilattice(cube))
    assert F2.verification["mode"] == "exact" and F2.verification["equal"]


def test_mobius_forms_agree_where_the_natural_orders_coincide(
        commutative_tables):
    """On a semilattice all three natural orders are s <= t iff st = s; on
    any other commutative inverse semigroup the inverse and the
    central-idempotent orders agree."""
    semilattices = others = 0
    for n, tables in commutative_tables.items():
        for S in tables:
            if analyze(S).is_semilattice:
                forms = mobius_forms(S, "semilattice")
                assert mobius_forms(S, "inverse") == forms
                assert mobius_forms(S, "central_idempotent") == forms
                semilattices += 1
            elif is_inverse(S):
                assert mobius_forms(S, "inverse") == \
                    mobius_forms(S, "central_idempotent")
                others += 1
    assert (semilattices, others) == (88, 213)


def test_smith_values():
    assert smith_determinant(6) == 32
    assert smith_determinant(8) == 768
    assert smith_matrix(3) == [[1, 1, 1], [1, 2, 1], [1, 1, 3]]
    # first few: 1, 1, 2, 4, 16, 32, 192, 768
    assert [smith_determinant(k) for k in range(1, 9)] == \
        [1, 1, 2, 4, 16, 32, 192, 768]
