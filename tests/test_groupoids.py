import pytest

from frobdet import determinant, poly
from frobdet.determinant import paratrophic_determinant, verify_against
from frobdet.errors import (DimensionCap, NotApplicable, NotClifford,
                            NotInverse, VerificationFailed)
from frobdet.groupoids import (_check_groupoid_order, connected_components,
                               factor_clifford, groupoid_determinant,
                               groupoid_of,
                               groupoid_structure, inverse_determinant,
                               star_map)
from frobdet.posets import mobius_forms, natural_order
from frobdet.semigroups import adjoin_zero, build_family

from oracles import direct_product, is_inverse


def z2_with_zero():
    # multiplicative {1, -1, 0}
    return adjoin_zero(build_family("zmod_add", 2))


def test_star_map_rook2():
    S = build_family("rook", 2)
    star = star_map(S)
    names = S.names
    # the star of a partial injection is its relational inverse
    assert names[star[names.index("1x")]] == "x0"
    assert names[star[names.index("01")]] == "01"
    assert names[star[names.index("10")]] == "10"
    assert all(S.table[S.table[s][star[s]]][s] == s for s in range(S.n))


def test_is_inverse():
    assert is_inverse(build_family("rook", 2))
    assert is_inverse(build_family("zmod_add", 5))
    assert is_inverse(build_family("chain_semilattice", 3))
    assert not is_inverse(build_family("left_zero", 2))
    assert not is_inverse(build_family("full_transform", 2))
    with pytest.raises(NotInverse):
        star_map(build_family("left_zero", 2))


def test_groupoid_of_group_is_one_object():
    G = build_family("zmod_add", 4)
    g = groupoid_of(G)
    assert g.objects == (0,)
    assert all(d == 0 for d in g.dom)
    assert connected_components(g) == [(0,)]


def test_groupoid_rook2_components():
    S = build_family("rook", 2)
    g = groupoid_of(S)
    assert len(g.objects) == 4
    comps = connected_components(g)
    # rank 0, rank 1 (two objects joined), rank 2
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 2]
    st = groupoid_structure(S)
    assert st.total_arrows == 7
    # sum n_i^2 |G_i| = 1 + 4 + 2
    got = sorted(n * n * go for _, _, n, go in st.components)
    assert got == [1, 2, 4]


def test_groupoid_structure_identity_count():
    for fam, arg in [("rook", 2), ("rook", 3), ("chain_semilattice", 4),
                     ("zmod_add", 6)]:
        S = build_family(fam, arg)
        st = groupoid_structure(S)
        assert sum(n * n * go for _, _, n, go in st.components) == S.n


def test_inverse_determinant_rook2_matches_plain():
    S = build_family("rook", 2)
    theta, components = inverse_determinant(S)
    assert theta == paratrophic_determinant(S)
    assert components == groupoid_structure(S).components
    assert not theta.is_zero()
    assert theta.total_degree() == 7


def test_inverse_determinant_semilattice():
    S = build_family("chain_semilattice", 3)
    theta, components = inverse_determinant(S)
    assert theta == paratrophic_determinant(S)
    assert components == groupoid_structure(S).components
    # groupoid determinant of a semilattice is just prod y_e
    gd = groupoid_determinant(S)
    assert gd.total_degree() == 3
    assert len(gd.terms) == 1


def test_groupoid_determinant_blocks():
    S = build_family("rook", 2)
    gd = groupoid_determinant(S)
    assert gd.is_homogeneous() and gd.total_degree() == 7


def test_groupoid_block_product_has_a_term_budget(monkeypatch):
    # two Z/3 blocks of 4 terms, each expanded within 8 live terms
    S = direct_product(build_family("zmod_add", 3), build_family("gcd", 2))
    monkeypatch.setattr(poly, "TERM_BUDGET", 15)
    message = ("product of groupoid blocks of 4 and 4 terms exceeds the "
               "budget of 15 terms")
    with pytest.raises(DimensionCap, match=f"^{message}$"):
        groupoid_determinant(S)
    with pytest.raises(NotApplicable, match=f"^{message}$"):
        inverse_determinant(S)
    monkeypatch.setattr(poly, "TERM_BUDGET", 16)
    assert len(groupoid_determinant(S).terms) == 16


def test_factor_clifford_z2_with_zero():
    S = z2_with_zero()
    F = verify_against(S, factor_clifford(S))
    assert F.status == "factored"
    assert F.provenance == "clifford-mobius"
    assert F.verification["mode"] == "exact" and F.verification["equal"]
    strs = sorted(f.to_str() for f, _ in F.factors)
    # y_1 = x0 - x2, y_a = x1 - x2 at the group; y_z = x2 at the zero
    assert strs == ["x0+x1-2*x2", "x0-x1", "x2"]
    assert F.constant == 1


def test_factor_clifford_two_groups():
    # Clifford monoid: Z/3 with a zero adjoined
    S = adjoin_zero(build_family("zmod_add", 3))
    F = factor_clifford(S)
    assert len(F.factors) == 4
    assert F.expand() == paratrophic_determinant(S)


def test_factor_clifford_rejects_non_clifford():
    with pytest.raises(NotClifford):
        factor_clifford(build_family("rook", 2))
    with pytest.raises(NotInverse):
        factor_clifford(build_family("left_zero", 2))


def test_clifford_commutative_inverse_distinct_linear_factors():
    # commutative inverse semigroups get distinct linear factors
    S = adjoin_zero(direct_product(build_family("zmod_add", 2),
                                   build_family("zmod_add", 2)))
    F = factor_clifford(S)
    assert all(f.total_degree() == 1 for f, _ in F.factors)
    assert all(m == 1 for _, m in F.factors)
    strs = [f.to_str() for f, _ in F.factors]
    assert len(set(strs)) == len(strs)
    assert F.expand() == paratrophic_determinant(S)


def test_mobius_forms_group_trivial():
    G = build_family("zmod_add", 3)
    sub = mobius_forms(G, "inverse")
    for s in range(3):
        assert sub[s].to_str() == f"x{s}"


def test_the_groupoid_order_check_accepts_inverse_semigroups():
    for S in (build_family("rook", 2), build_family("rook", 3),
              build_family("chain_semilattice", 4),
              build_family("zmod_add", 6)):
        _check_groupoid_order(groupoid_of(S),
                              natural_order(S, "inverse").leq)


def test_a_corrupted_order_fails_the_groupoid_check():
    for S in (build_family("rook", 2), build_family("rook", 3),
              build_family("chain_semilattice", 4),
              build_family("zmod_add", 6)):
        leq = natural_order(S, "inverse").leq
        pairs = [(a, b) for a in range(S.n) for b in range(S.n) if a != b]
        # drop the first strict relation, or relate two group elements
        a, b = next(((a, b) for a, b in pairs if leq[a][b]), (1, 0))
        bad = [list(row) for row in leq]
        bad[a][b] = not bad[a][b]
        with pytest.raises(VerificationFailed):
            _check_groupoid_order(groupoid_of(S), bad)
    # relating both elements of Z/2 each way makes (g, h) -> gh onto but
    # two to one
    with pytest.raises(VerificationFailed):
        _check_groupoid_order(groupoid_of(build_family("zmod_add", 2)),
                              [[True, True], [True, True]])


def test_the_inverse_route_expands_no_plain_determinant(monkeypatch):
    # rook 2 under cap 5: the blocks fit, theta (dimension 7) does not,
    # and the check is exact
    S = build_family("rook", 2)
    theta = paratrophic_determinant(S)

    def refuse(*args, **kwargs):
        raise AssertionError("plain determinant expanded")
    monkeypatch.setattr(determinant, "cayley_matrix", refuse)
    got, components = inverse_determinant(S, cap=5)
    assert got == theta
    assert components == groupoid_structure(S).components
