import random
from itertools import product as iproduct
from pathlib import Path

import pytest

from frobdet.errors import (AssociativityViolation, DeclaredIdentityNotIdentity,
                            DeclaredZeroNotZero, DuplicateName, IndexOutOfRange,
                            NotAGroup, ParamOutOfRange, SizeOverflow,
                            SizeTooLarge, UnknownFamily)
from frobdet.semigroups import (analyze, adjoin_identity, adjoin_zero,
                                build_family, element_order, group_exponent,
                                group_of_units, parse_sgp, subsemigroup,
                                validate_table)

from corpus import zmult
from oracles import direct_product, enumerate_commutative, maximal_subgroup


def test_validate_basic():
    S = build_family("zmod_add", 4)
    assert S.n == 4
    assert S.identity == 0
    assert S.zero is None
    assert S.mul(3, 3) == 2


def test_validate_rejects_nonassociative():
    # subtraction mod 3 is not associative
    t = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(AssociativityViolation) as e:
        validate_table(t)
    s, u, v = e.value.triple
    assert t[t[s][u]][v] != t[s][t[u][v]]


def first_violation(t):
    """The message for the lexicographically first non-associative
    triple, or None: the check as one loop over all triples."""
    n = len(t)
    for s in range(n):
        for u in range(n):
            for v in range(n):
                if t[t[s][u]][v] != t[s][t[u][v]]:
                    return f"associativity fails at ({s}, {u}, {v})"
    return None


def test_validate_reports_first_violation():
    rng = random.Random(19)
    tables = [[[0]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]]
    for n in (2, 3, 4, 5, 6):
        for _ in range(40):
            tables.append([[rng.randrange(n) for _ in range(n)]
                           for _ in range(n)])
    # one corrupted entry of a chain, at the largest size the row-wise
    # byte check takes and above it
    for n in (256, 300):
        chain = [[min(i, j) for j in range(n)] for i in range(n)]
        chain[rng.randrange(1, n)][rng.randrange(1, n)] = 0
        tables.append(chain)
    seen = set()
    for t in tables:
        want = first_violation(t)
        if want is None:
            assert validate_table(t).n == len(t)
        else:
            with pytest.raises(AssociativityViolation) as e:
                validate_table(t)
            assert str(e.value) == want
        seen.add(want is None)
    assert seen == {True, False}


def test_validate_rejects_bad_entries():
    with pytest.raises(IndexOutOfRange):
        validate_table([[0, 1], [1, 2]])


def test_declared_zero_checked():
    chain = build_family("chain_semilattice", 3)
    assert chain.zero == 0
    with pytest.raises(DeclaredZeroNotZero):
        validate_table(chain.table, zero=1)
    with pytest.raises(DeclaredIdentityNotIdentity):
        validate_table(chain.table, identity=0)
    assert chain.identity == 2


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        validate_table([[0, 1], [1, 0]], names=("a", "a"))


def test_analyze_left_zero():
    S = build_family("left_zero", 3)
    rep = analyze(S)
    assert rep.is_band
    assert not rep.is_semilattice
    assert not rep.is_commutative
    assert rep.zero is None and rep.identity is None
    # st = s fixes only t = s; ts = t fixes everything
    assert rep.fixed_points == ((1, 3), (1, 3), (1, 3))


def test_analyze_full_transform_2():
    T2 = build_family("full_transform", 2)
    assert T2.n == 4
    rep = analyze(T2)
    assert rep.is_surjective_square
    consts = [i for i in range(4) if T2.names[i] in ("00", "11")]
    for c in consts:
        assert rep.fixed_points[c] == (1, 2)
    # the profile is unbalanced, so some element fails the necessary condition
    assert any(l != r for l, r in rep.fixed_points)


def test_gcd_family():
    S = build_family("gcd", 6)
    rep = analyze(S)
    assert rep.is_semilattice
    assert S.zero == 0
    assert S.identity is None  # gcd(i, 6) = i only for divisors
    S2 = build_family("gcd", 2)
    assert S2.identity == 1


def test_chain_and_gcd_agree_on_small_cases():
    # gcd on {1, 2, 4} relabels to a chain; sanity for divisor chains
    chain = build_family("chain_semilattice", 2)
    assert analyze(chain).is_semilattice


def test_cyclic_nilpotent_family():
    M = build_family("cyclic_nilpotent", 3)
    # I, a, a2, z
    assert M.n == 4
    assert M.names == ("I", "a", "a2", "z")
    assert M.identity == 0 and M.zero == 3
    a = 1
    assert M.mul(a, a) == 2
    assert M.mul(2, a) == 3
    assert M.mul(2, 2) == 3
    M1 = build_family("cyclic_nilpotent", 1)
    assert M1.n == 2 and M1.names == ("I", "z")


def test_three_nil_family():
    M = build_family("three_nil", "10,01")
    assert M.names == ("I", "s1", "s2", "zp", "z")
    assert M.mul(1, 1) == 3 and M.mul(1, 2) == 4
    assert M.zero == 4 and M.identity == 0
    rep = analyze(M)
    assert rep.is_commutative  # diagonal matrix is symmetric
    M2 = build_family("three_nil", [[1, 1], [0, 1]])
    assert not analyze(M2).is_commutative
    with pytest.raises(ParamOutOfRange):
        build_family("three_nil", "10,0")


def test_rook_sizes():
    assert build_family("rook", 1).n == 2
    assert build_family("rook", 2).n == 7
    assert build_family("rook", 3).n == 34
    with pytest.raises(SizeTooLarge):
        build_family("rook", 4)


def test_rook_2_structure():
    S = build_family("rook", 2)
    rep = analyze(S)
    assert S.zero is not None and S.identity is not None
    assert S.names[S.zero] == "xx"
    assert S.names[S.identity] == "01"
    assert len(rep.idempotents) == 4  # restrictions of the identity
    units, ids = group_of_units(S)
    assert units.n == 2  # identity and the swap


def test_left_zero_and_unknown_family():
    with pytest.raises(UnknownFamily):
        build_family("nope", 2)
    with pytest.raises(ParamOutOfRange):
        build_family("left_zero", 0)


def test_adjoin_identity_and_zero():
    LZ = build_family("left_zero", 2)
    M = adjoin_identity(LZ)
    assert M.identity == 2 and M.n == 3
    Z = adjoin_zero(M)
    assert Z.zero == 3 and Z.identity == 2
    # adjoined structure keeps the old products
    assert Z.mul(0, 1) == 0


def test_direct_product_klein():
    C2 = build_family("zmod_add", 2)
    K = direct_product(C2, C2)
    rep = analyze(K)
    assert rep.is_group and rep.is_commutative
    assert group_exponent(K) == 2
    assert K.names == ("0.0", "0.1", "1.0", "1.1")


def test_direct_product_overflow():
    C = build_family("zmod_add", 70)
    with pytest.raises(SizeOverflow):
        direct_product(C, C)


def test_subsemigroup_closure_check():
    T2 = build_family("full_transform", 2)
    with pytest.raises(ParamOutOfRange):
        # the two constants and the swap do not close (swap*swap = identity)
        swap = T2.names.index("10")
        c0 = T2.names.index("00")
        subsemigroup(T2, [swap, c0])


def test_units_of_t3_is_s3():
    T3 = build_family("full_transform", 3)
    S3, ids = group_of_units(T3)
    assert S3.n == 6
    rep = analyze(S3)
    assert rep.is_group and not rep.is_commutative
    assert group_exponent(S3) == 6
    orders = sorted(element_order(S3, g) for g in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_maximal_subgroup_full_transform():
    T2 = build_family("full_transform", 2)
    c0 = T2.names.index("00")
    G, ids = maximal_subgroup(T2, c0)
    assert G.n == 1 and ids == [c0]
    e = T2.names.index("01")
    G2, ids2 = maximal_subgroup(T2, e)
    assert G2.n == 2


def test_element_order_requires_group_reachability():
    M = build_family("cyclic_nilpotent", 2)
    with pytest.raises(NotAGroup):
        element_order(M, 1)


def _commutative_count_oracle(n):
    """Count associative symmetric tables by scanning every full table."""
    count = 0
    for flat in iproduct(range(n), repeat=n * n):
        t = [flat[i * n:(i + 1) * n] for i in range(n)]
        if any(t[i][j] != t[j][i] for i in range(n) for j in range(n)):
            continue
        if all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            count += 1
    return count


def test_enumerate_commutative_counts_small():
    for n in (1, 2, 3):
        got = enumerate_commutative(n)
        assert len(got) == _commutative_count_oracle(n)
    assert len(enumerate_commutative(2)) == 6


def test_enumerate_commutative_caps():
    with pytest.raises(SizeTooLarge):
        enumerate_commutative(5)


def _corpus():
    """Family members, the two data tables and a few zmult monoids."""
    out = [build_family(family, p) for family, params in [
        ("gcd", range(1, 7)), ("cyclic_nilpotent", range(1, 5)),
        ("three_nil", ["1", "11,01", "110,011,001"]), ("rook", range(1, 4)),
        ("full_transform", range(1, 4)), ("left_zero", range(1, 4)),
        ("chain_semilattice", range(1, 4)), ("zmod_add", range(1, 7))]
        for p in params]
    out += [zmult(n) for n in (4, 6, 8, 9, 12)]
    data = Path(__file__).resolve().parent.parent / "data"
    out += [parse_sgp(p.read_text()) for p in sorted(data.glob("*.sgp"))]
    return out


def _same_as_validated(S):
    # validate_table scans associativity again; the zero and the
    # identity are checked against their definitions
    assert S == validate_table(S.table, S.names)
    t, r = S.table, range(S.n)
    zeros = [z for z in r if all(t[z][s] == z == t[s][z] for s in r)]
    identities = [e for e in r if all(t[e][s] == s == t[s][e] for s in r)]
    assert S.zero == (zeros[0] if zeros else None)
    assert S.identity == (identities[0] if identities else None)


def test_derived_tables_match_validated_ones():
    # subsemigroup, adjoin_zero, adjoin_identity and direct_product skip
    # the associativity scan; what they build is what validation builds
    corpus = _corpus()
    sources = corpus + [S for n in (1, 2, 3) for S in enumerate_commutative(n)]
    cut = 0
    for S in sources:
        if S.identity is not None:
            _same_as_validated(group_of_units(S)[0])
            cut += 1
        for e in analyze(S).idempotents:
            corner, _ = subsemigroup(
                S, {S.table[e][S.table[s][e]] for s in range(S.n)})
            _same_as_validated(corner)
            _same_as_validated(maximal_subgroup(S, e)[0])
            cut += 2
    assert cut > 300
    for S in corpus:
        _same_as_validated(adjoin_zero(S))
        _same_as_validated(adjoin_identity(S))
    for A in corpus[::7]:
        for B in corpus[::11]:
            _same_as_validated(direct_product(A, B))


def test_analysis_is_kept_on_the_semigroup():
    S = build_family("full_transform", 3)
    assert analyze(S) is analyze(S)
    T = build_family("full_transform", 3)
    assert T == S and analyze(T) is not analyze(S)
    assert analyze(T) == analyze(S)
