import pytest

from frobdet import determinant, groupoids, poly
from frobdet.determinant import paratrophic_determinant, verify_against
from frobdet.errors import (DimensionCap, NonabelianWithoutReps,
                            NotApplicable, NotClifford, NotInverse,
                            VerificationFailed)
from frobdet.groupoids import (_check_groupoid_order, factor_clifford,
                               groupoid_determinant, groupoid_of,
                               groupoid_structure, inverse_determinant,
                               star_map)
from frobdet.posets import mobius_forms, natural_order
from frobdet.semigroups import (adjoin_zero, build_family, group_of_units,
                                subsemigroup)

from oracles import direct_product, is_inverse, maximal_subgroup


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
    assert g.components == (((0,), (0, 1, 2, 3)),)
    assert all(d == 0 for d in g.dom)


def test_groupoid_rook2_components():
    S = build_family("rook", 2)
    g = groupoid_of(S)
    # rank 0, rank 1 (two objects joined), rank 2
    sizes = sorted(len(objs) for objs, _ in g.components)
    assert sizes == [1, 1, 2]
    assert sorted(s for _, arrows in g.components for s in arrows) \
        == list(range(7))
    # sum n_i^2 |G_i| = 1 + 4 + 2
    got = sorted(n * n * go for _, _, n, go in groupoid_structure(g))
    assert got == [1, 2, 4]


def test_groupoid_structure_identity_count():
    for fam, arg in [("rook", 2), ("rook", 3), ("chain_semilattice", 4),
                     ("zmod_add", 6)]:
        S = build_family(fam, arg)
        st = groupoid_structure(groupoid_of(S))
        assert sum(n * n * go for _, _, n, go in st) == S.n


def test_inverse_determinant_rook2_matches_plain():
    S = build_family("rook", 2)
    theta, components = inverse_determinant(S)
    assert theta == paratrophic_determinant(S)
    assert components == groupoid_structure(groupoid_of(S))
    assert not theta.is_zero()
    assert theta.total_degree() == 7


def test_inverse_determinant_semilattice():
    S = build_family("chain_semilattice", 3)
    theta, components = inverse_determinant(S)
    assert theta == paratrophic_determinant(S)
    assert components == groupoid_structure(groupoid_of(S))
    # groupoid determinant of a semilattice is just prod y_e
    gd = groupoid_determinant(groupoid_of(S))
    assert gd.total_degree() == 3
    assert len(gd.terms) == 1


def test_groupoid_determinant_blocks():
    S = build_family("rook", 2)
    gd = groupoid_determinant(groupoid_of(S))
    assert gd.is_homogeneous() and gd.total_degree() == 7


def test_groupoid_block_product_has_a_term_budget(monkeypatch):
    # two Z/3 blocks of 4 terms, each expanded within 8 live terms
    S = direct_product(build_family("zmod_add", 3), build_family("gcd", 2))
    monkeypatch.setattr(poly, "TERM_BUDGET", 15)
    message = ("product of groupoid blocks of 4 and 4 terms exceeds the "
               "budget of 15 terms")
    with pytest.raises(DimensionCap, match=f"^{message}$"):
        groupoid_determinant(groupoid_of(S))
    with pytest.raises(NotApplicable, match=f"^{message}$"):
        inverse_determinant(S)
    monkeypatch.setattr(poly, "TERM_BUDGET", 16)
    assert len(groupoid_determinant(groupoid_of(S)).terms) == 16


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


def groupoid_inputs():
    S3, _ = group_of_units(build_family("full_transform", 3))
    return [build_family("rook", 2), build_family("rook", 3),
            adjoin_zero(build_family("zmod_add", 5)),
            build_family("chain_semilattice", 4), adjoin_zero(S3),
            build_family("zmod_add", 6), build_family("full_transform", 2)]


def test_isotropy_and_clifford_groups_are_the_maximal_subgroups(monkeypatch):
    # the loops at each base are the maximal subgroup there, and the
    # group factor_clifford takes from a one-object component is the
    # maximal subgroup at its object, table and names alike
    built = []

    def recording(S, elements):
        built.append(subsemigroup(S, elements))
        return built[-1]

    monkeypatch.setattr(groupoids, "subsemigroup", recording)
    clifford = 0
    for S in groupoid_inputs():
        if not is_inverse(S):
            with pytest.raises(NotInverse):
                groupoid_of(S)
            continue
        g = groupoid_of(S)
        for (_, base, _, order), (_, arrows) in zip(groupoid_structure(g),
                                                    g.components):
            G, ids = maximal_subgroup(S, base)
            assert ids == [s for s in arrows if g.dom[s] == base == g.ran[s]]
            assert order == G.n
        if any(len(objects) > 1 for objects, _ in g.components):
            continue
        clifford += 1
        built.clear()
        try:
            factor_clifford(S)
        except NonabelianWithoutReps:
            assert len(built) == 1  # the group of S3 comes first
        assert built
        for (G, ids), ((e,), _) in zip(built, g.components):
            assert (G, ids) == maximal_subgroup(S, e)
        for (e,), arrows in g.components:
            assert subsemigroup(S, arrows) == maximal_subgroup(S, e)
    assert clifford == 4


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
    assert components == groupoid_structure(groupoid_of(S))
