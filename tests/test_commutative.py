import pytest
from corpus import eleven_monoid, wenger_monoid, zmult
from oracles import (enumerate_commutative, equivalent,
                     global_decomposition_check)

from frobdet.commutative import (chain_fastpath, factor_commutative,
                                 factor_local, local_spectrum,
                                 splus_decompose)
from frobdet.determinant import (factor_group_determinant,
                                 paratrophic_determinant, verify_against)
from frobdet.errors import (IdempotentsNotCentral, NotChain, NotCommutative,
                            NotIdempotentSemigroup, NotLocalShape)
from frobdet.posets import factor_semilattice, mobius_forms
from frobdet.semigroups import adjoin_zero, build_family, validate_table


def strs(F):
    return [(f.to_str(), m) for f, m in F.factors]


def test_splus_decompose_zmult8():
    dec = splus_decompose(zmult(8))
    assert dec.splus == (0, 1, 1, 1, 1, 1, 1, 1)
    assert dec.classes == {0: (0,), 1: (1, 2, 3, 4, 5, 6, 7)}
    assert dec.ideals == {0: (), 1: (0,)}
    local, ambient = dec.local_monoids[1]
    assert local.n == 8 and ambient == (1, 2, 3, 4, 5, 6, 7, None)
    assert local.identity == 0 and local.zero == 7


def test_splus_decompose_requires_surjective_square():
    S = validate_table([[0, 0], [0, 0]])
    with pytest.raises(NotIdempotentSemigroup):
        splus_decompose(S)


def test_splus_decompose_requires_central_idempotents():
    with pytest.raises(IdempotentsNotCentral):
        splus_decompose(build_family("left_zero", 2))


def test_local_shape_rejects_extra_idempotents():
    with pytest.raises(NotLocalShape):
        local_spectrum(build_family("chain_semilattice", 3))


def test_spectrum_group_with_zero():
    spec = local_spectrum(adjoin_zero(build_family("zmod_add", 3)))
    assert spec.reps == (0,)
    assert spec.orbit_sizes == (3,)
    for rec in spec.records:
        assert rec.J == (0,)
        assert rec.annihilating == 0
        assert rec.detA.is_one()
        assert rec.quotient.n == 2


def test_spectrum_quotient_cocycle_trivial_on_closed_transversal():
    # powers of 2 are a multiplicatively closed transversal in Z/8
    spec = local_spectrum(zmult(8))
    assert spec.reps == (1, 2, 4)
    assert spec.orbit_sizes == (4, 2, 1)
    for rec in spec.records:
        assert rec.cocycle.values == ()
        assert len(rec.quotient.elements()) == len(rec.J) + 1
        assert (len(rec.ideal) == 0) == rec.chi.is_trivial()


def test_wenger_spectrum_matrices():
    spec = local_spectrum(wenger_monoid())
    assert spec.reps == (0, 2, 4, 6)
    assert [len(r.J) for r in spec.records] == [4, 4]
    plain, signed = spec.records
    def ints(rec):
        return [[v.as_fraction() if v.is_rational() else None for v in row]
                for row in rec.A]
    assert ints(plain) == [[0, 0, 0, 1],
                           [0, 1, 0, 0],
                           [0, 0, 1, 0],
                           [1, 0, 0, 0]]
    assert ints(signed) == [[0, 0, 0, 1],
                            [0, 1, 0, 0],
                            [0, 0, -1, 0],
                            [1, 0, 0, 0]]
    assert plain.detA == -1
    assert signed.detA == 1
    # s*s = a*zp carries the sign of a through the second character
    assert signed.cocycle.value(2, 2) == -1


def test_wenger_factorization():
    M = wenger_monoid()
    F = verify_against(M, factor_local(M), "contracted")
    assert F.constant == -1
    assert strs(F) == [("x6+x7", 4), ("x6-x7", 4)]
    assert F.verification == {"equal": True, "mode": "exact", "rounds": 0,
                              "seed": 0}


def test_eleven_vanishes_through_singular_matrix():
    M = eleven_monoid()
    spec = local_spectrum(M)
    assert spec.reps == (0, 2, 4, 6, 8)
    plain, signed = spec.records
    assert plain.detA == 2
    assert signed.detA.is_zero()
    F = verify_against(M, factor_local(M), "contracted")
    assert F.status == "zero"
    assert "character 1: det A = 0" in F.notes
    # the exact contracted determinant really is the zero polynomial
    assert F.verification["equal"] and F.verification["mode"] == "exact"


def test_zmult4_local_and_chain():
    M = zmult(4)
    F = factor_local(M)
    assert F.constant == -2
    assert strs(F) == [("x1-x3", 1), ("x2", 2)]
    assert equivalent(chain_fastpath(M), F)


def test_zmult4_full_pipeline():
    M = zmult(4)
    F = verify_against(M, factor_commutative(M))
    assert F.constant == -2
    assert strs(F) == [("x0", 1), ("x0-x2", 2), ("x1-x3", 1)]
    assert F.verification["mode"] == "exact" and F.verification["equal"]


def test_zmult8_local_chain_full():
    M = zmult(8)
    F = factor_local(M)
    assert F.constant == 16
    assert strs(F) == [("x1+x3-x5-x7", 1), ("x1-x3-x5+x7", 1),
                       ("x2-x6", 2), ("x4", 3)]
    assert equivalent(chain_fastpath(M), F)
    G = factor_commutative(M)
    assert G.constant == -16
    assert strs(G) == [("x0", 1), ("x0-x4", 3), ("x1+x3-x5-x7", 1),
                       ("x1-x3-x5+x7", 1), ("x2-x6", 2)]


def test_zmult9_chain_equals_local():
    M = zmult(9)
    F = factor_local(M)
    assert F.constant == 9
    table = strs(F)
    assert ("x3+x6", 2) in table and ("x3-x6", 2) in table
    assert sorted(m for _, m in table) == [1, 1, 1, 1, 2, 2]
    assert equivalent(chain_fastpath(M), F)


def test_zmult5_nonreal_characters():
    F = factor_local(zmult(5))
    assert F.constant == -1
    table = strs(F)
    assert ("x1+x2+x3+x4", 1) in table
    assert ("x1-x2-x3+x4", 1) in table
    assert len(table) == 4 and all(m == 1 for _, m in table)


def test_global_decomposition_check():
    rec = global_decomposition_check(zmult(8))
    assert rec["equal"]
    assert {c["idempotent"]: c["class_size"] for c in rec["components"]} \
        == {0: 1, 1: 7}
    rec = global_decomposition_check(build_family("gcd", 5))
    assert rec["equal"]
    assert all(c["class_size"] == 1 for c in rec["components"])


def test_semilattice_degeneration():
    L = build_family("gcd", 5)
    assert equivalent(factor_commutative(L), factor_semilattice(L))


def test_group_degeneration():
    G = build_family("zmod_add", 4)
    assert equivalent(factor_commutative(G), factor_group_determinant(G))


def test_group_with_zero_full_pipeline():
    F = factor_commutative(adjoin_zero(build_family("zmod_add", 3)))
    assert F.constant == -1
    table = strs(F)
    assert ("x3", 1) in table
    assert ("x0+x1+x2-3*x3", 1) in table
    assert len(table) == 4


def test_squared_vanishing():
    S = validate_table([[0, 0], [0, 0]])
    F = verify_against(S, factor_commutative(S))
    assert F.status == "zero"
    assert F.provenance == "squared-vanishing"
    assert F.verification["equal"] and F.verification["mode"] == "exact"


def test_not_commutative():
    with pytest.raises(NotCommutative):
        factor_commutative(build_family("left_zero", 2))


def test_three_nil_singular_vanishes_in_pipeline():
    M = build_family("three_nil", "11,11")
    F = verify_against(M, factor_commutative(M))
    assert F.status == "zero"
    assert any("det A = 0" in note for note in F.notes)
    assert F.verification["equal"]


def test_not_chain():
    with pytest.raises(NotChain):
        chain_fastpath(build_family("three_nil", "11,11"))


def test_chain_above_cap_randomized():
    M = zmult(16)
    F = verify_against(M, chain_fastpath(M), "contracted", cap=9)
    assert F.constant == -2048
    assert len(F.factors) == 8
    assert F.verification["mode"] == "randomized" and F.verification["equal"]


def test_full_pipeline_above_cap_randomized():
    S = zmult(12)
    F = verify_against(S, factor_commutative(S), cap=9)
    assert F.constant == -64
    assert F.verification["mode"] == "randomized" and F.verification["equal"]


def test_mobius_substitution_zmult4():
    sub = mobius_forms(zmult(4), "central_idempotent")
    assert sub[0].to_str() == "x0"
    assert sub[2].to_str() == "-x0+x2"
    assert sub[1].to_str() == "-x0+x1"


def test_exhaustive_small_commutative():
    for n in (1, 2, 3):
        for S in enumerate_commutative(n):
            F = factor_commutative(S)
            theta = paratrophic_determinant(S)
            if F.status == "zero":
                assert theta.is_zero()
            else:
                assert F.expand() == theta


def test_data_files_match_builders():
    import pathlib

    from frobdet.semigroups import parse_sgp
    root = pathlib.Path(__file__).resolve().parent.parent / "data"
    for fname, builder in (("wenger.sgp", wenger_monoid),
                           ("eleven.sgp", eleven_monoid)):
        S = parse_sgp((root / fname).read_text())
        B = builder()
        assert S.table == B.table and S.names == B.names
        assert S.zero == B.zero and S.identity == B.identity
