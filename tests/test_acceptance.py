"""Acceptance checks. Each test prints one PASS/FAIL line with its wall
time; the time limits are part of the check."""

import pathlib
import time
from contextlib import contextmanager
from fractions import Fraction

from frobdet.commutative import chain_fastpath, factor_commutative, \
    factor_local
from frobdet.cyclotomic import CycNum
from frobdet.determinant import (backnforth_check, factor_group_determinant,
                                 frobenius_test, paratrophic_determinant,
                                 transport_basis, verify_against)
from frobdet.factorization import equivalent
from frobdet.groupoids import factor_clifford, groupoid_structure, \
    inverse_determinant
from frobdet.linalg import int_det
from frobdet.characters import character_group, character_pairing
from frobdet.nilpotent import analyze_nilpotent, factor_nil_adjoined
from frobdet.poly import Poly
from frobdet.posets import (factor_semilattice, mobius, natural_order,
                            smith_determinant, smith_matrix)
from frobdet.rings import FiniteFieldSpec, frobenius_form_check, \
    kovacs_check, matrix_monoid, zmod_monoid
from frobdet.semigroups import (adjoin_zero, analyze, build_family,
                                direct_product, group_of_units, parse_sgp,
                                validate_table)

from corpus import enumerate_bands, zmult
from test_determinant import _s3_reps

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def announce(cap, line):
    with cap.disabled():
        print(line, flush=True)


@contextmanager
def criterion(cap, n, desc, limit):
    t0 = time.time()
    try:
        yield
    except BaseException:
        announce(cap, f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    elapsed = time.time() - t0
    if elapsed >= limit:
        announce(cap, f"ACCEPTANCE {n}: FAIL - {desc} "
                      f"({elapsed:.1f}s over the {limit}s limit)")
        raise AssertionError(f"criterion {n} took {elapsed:.1f}s, "
                             f"limit {limit}s")
    announce(cap, f"ACCEPTANCE {n}: PASS - {desc} "
                  f"({elapsed:.1f}s, limit {limit}s)")


def test_acceptance_01_smith_determinants(capsys):
    with criterion(capsys, 1, "gcd-matrix determinants equal the "
                           "totient products", 1):
        for n, want in ((6, 32), (8, 768)):
            assert smith_determinant(n) == want
            assert int_det(smith_matrix(n)) == want


def boolean_lattice_2():
    # subsets of a two element set under intersection
    table = [[a & b for b in range(4)] for a in range(4)]
    return validate_table(table, ("e", "x", "y", "xy"), zero=0, identity=3)


def test_acceptance_02_wilf_lindstrom(capsys, commutative_tables):
    with criterion(capsys, 2, "semilattice factorizations equal the "
                           "symbolic determinant on the full corpus", 30):
        corpus = [S for n in (1, 2, 3, 4) for S in commutative_tables[n]
                  if analyze(S).is_semilattice]
        corpus.append(build_family("gcd", 5))
        corpus.append(boolean_lattice_2())
        assert len(corpus) == 90
        for S in corpus:
            F = factor_semilattice(S)
            assert F.provenance == "wilf-lindstrom"
            assert F.expand() == paratrophic_determinant(S)


def test_acceptance_03_group_determinants(capsys):
    with criterion(capsys, 3, "group determinant factorizations with "
                           "exact rational constants", 30):
        C2 = build_family("zmod_add", 2)
        cases = [(C2, 1), (build_family("zmod_add", 3), -1),
                 (build_family("zmod_add", 4), -1),
                 (direct_product(C2, C2), 1)]
        for G, const in cases:
            F = factor_group_determinant(G)
            assert F.constant.is_rational()
            assert F.constant.as_fraction() == Fraction(const)
            assert F.expand() == paratrophic_determinant(G)
        T3 = build_family("full_transform", 3)
        S3, _ = group_of_units(T3)
        F = factor_group_determinant(S3, reps=_s3_reps(S3))
        assert F.constant.is_rational()
        assert sorted(m for _, m in F.factors) == [1, 1, 2]
        assert F.expand() == paratrophic_determinant(S3)


def test_acceptance_04_cyclic_nilpotent(capsys):
    with criterion(capsys, 4, "cyclic nilpotent determinants are signed "
                           "powers of the annihilator variable", 1):
        for k in (2, 3, 4, 5):
            M = build_family("cyclic_nilpotent", k)
            zp = analyze_nilpotent(M).unique_annihilator
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            F = factor_nil_adjoined(M)
            assert F.constant == sign
            assert F.factors == ((Poly.variable(zp), k),)
            assert F.expand() == (Poly.variable(zp) ** k).scale(
                CycNum.from_rational(sign))


def test_acceptance_05_worked_examples(capsys):
    with criterion(capsys, 5, "the 9-element worked example factors "
                           "and the 11-element one vanishes through "
                           "det A", 60):
        wenger = parse_sgp((DATA / "wenger.sgp").read_text())
        F = factor_local(wenger)
        assert F.constant == -1
        forms = sorted((f.to_str(), m) for f, m in F.factors)
        assert forms == [("x6+x7", 4), ("x6-x7", 4)]
        assert F.expand() == paratrophic_determinant(wenger,
                                                     mode="contracted")
        eleven = parse_sgp((DATA / "eleven.sgp").read_text())
        Z = factor_local(eleven)
        assert Z.status == "zero"
        assert any("det A = 0" in note for note in Z.notes)
        assert paratrophic_determinant(eleven, mode="contracted").is_zero()


def test_acceptance_06_exhaustive_commutative(capsys, commutative_tables):
    with criterion(capsys, 6, "commutative factorization agrees with "
                           "the symbolic determinant on every table of "
                           "order at most 4", 600):
        zeros = factored = 0
        for n in (1, 2, 3, 4):
            for S in commutative_tables[n]:
                theta = paratrophic_determinant(S)
                F = factor_commutative(S)
                if F.status == "zero":
                    assert theta.is_zero()
                    zeros += 1
                else:
                    assert F.expand() == theta
                    factored += 1
        assert zeros + factored == 1210
        assert factored >= 464


def test_acceptance_07_chain_monoids(capsys):
    with criterion(capsys, 7, "chain fastpath, local factorization, "
                           "and the symbolic determinant agree for "
                           "Z/4, Z/8, Z/9", 60):
        for n in (4, 8, 9):
            M = zmult(n)
            A = chain_fastpath(M)
            B = factor_local(M)
            assert equivalent(A, B)
            theta = paratrophic_determinant(M, mode="contracted")
            assert A.expand() == theta


def test_acceptance_08_inverse_semigroups(capsys):
    with criterion(capsys, 8, "rook monoid through the groupoid and "
                           "Clifford factorizations, all exact", 60):
        rook = build_family("rook", 2)
        theta, components = inverse_determinant(rook)
        assert theta == paratrophic_determinant(rook)
        assert components == groupoid_structure(rook).components
        for n in (3, 5):
            S = adjoin_zero(build_family("zmod_add", n))
            F = verify_against(S, factor_clifford(S))
            assert F.verification["equal"]
            assert F.expand() == paratrophic_determinant(S)


def test_acceptance_09_vanishing_certificates(capsys):
    with criterion(capsys, 9, "every non-semilattice band of order at "
                           "most 4 has an identically zero determinant", 30):
        victims = [build_family("full_transform", 2),
                   build_family("left_zero", 2)]
        count = 0
        for n in (2, 3, 4):
            for B in enumerate_bands(n):
                if not analyze(B).is_semilattice:
                    victims.append(B)
                    count += 1
        assert count == 2 + 26 + 528
        for S in victims:
            r = frobenius_test(S)
            assert r.status == "not_frobenius"
            assert paratrophic_determinant(S).is_zero()


def test_acceptance_10_frobenius_rings(capsys):
    with criterion(capsys, 10, "ring monoid determinants are nonzero "
                            "and the dimension identity holds", 120):
        for n in range(2, 13):
            S, lam = zmod_monoid(n)
            assert not frobenius_form_check(S, lam).is_zero()
        S, lam = matrix_monoid(2, FiniteFieldSpec.make(2, 1))
        assert S.n == 16
        d = frobenius_form_check(S, lam)
        assert d == 2 ** 32
        for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            rep = kovacs_check(n, q)
            assert rep["equal"]
            assert rep["subspaces_agree"]


def zero_of(S):
    for z in range(S.n):
        if all(S.table[z][t] == z and S.table[t][z] == z
               for t in range(S.n)):
            return z
    return None


def test_acceptance_11_property_suite(capsys, commutative_tables):
    with criterion(capsys, 11, "structural identities: translation, "
                            "transport, Mobius inversion, orthogonality, "
                            "homogeneity, arrow counts", 120):
        # back and forth between theta and the contracted determinant
        with_zero = []
        for n in (2, 3, 4):
            for S in commutative_tables[n]:
                z = zero_of(S)
                if z is not None:
                    with_zero.append(validate_table(
                        [list(r) for r in S.table], zero=z))
        for k in (2, 3, 4):
            with_zero.append(build_family("cyclic_nilpotent", k))
        with_zero.append(build_family("three_nil", "10,01"))
        with_zero.append(build_family("three_nil", "11,11"))
        with_zero.append(adjoin_zero(build_family("zmod_add", 3)))
        with_zero.append(adjoin_zero(build_family("zmod_add", 5)))
        with_zero.append(zmult(4))
        with_zero.append(zmult(6))
        assert all(S.n <= 6 for S in with_zero[-8:])
        for S in with_zero:
            assert backnforth_check(S)["equal"]
        # transport there and back is the identity
        theta = paratrophic_determinant(build_family("zmod_add", 3))
        P = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        Pinv = [[1, -1, 1], [0, 1, -1], [0, 0, 1]]
        assert transport_basis(transport_basis(theta, P), Pinv) == theta
        # zeta times mu is the identity on every corpus poset
        posets = [natural_order(S, "semilattice")
                  for n in (2, 3, 4) for S in commutative_tables[n]
                  if analyze(S).is_semilattice]
        posets.append(natural_order(build_family("gcd", 5), "semilattice"))
        for poset in posets:
            zeta, mu = poset.zeta(), mobius(poset)
            k = len(mu)
            for a in range(k):
                for b in range(k):
                    s = sum(zeta[a][c] * mu[c][b] for c in range(k))
                    assert s == (1 if a == b else 0)
        # character orthogonality, exact
        C2 = build_family("zmod_add", 2)
        groups = [build_family("zmod_add", n) for n in (2, 3, 4, 5, 6)]
        groups.append(direct_product(C2, C2))
        for G in groups:
            chars = character_group(G)
            for chi in chars:
                for psi in chars:
                    want = G.n if chi == psi else 0
                    assert character_pairing(G, chi, psi) == want
        # homogeneity of every nonzero determinant
        for S in groups + with_zero[-8:]:
            theta = paratrophic_determinant(S)
            if not theta.is_zero():
                assert theta.is_homogeneous()
                assert theta.total_degree() == S.n
        # arrow count identity on the inverse corpus
        for S in [build_family("rook", 2),
                  adjoin_zero(build_family("zmod_add", 3))] + groups:
            assert groupoid_structure(S).total_arrows == S.n
