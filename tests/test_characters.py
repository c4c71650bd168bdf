import random
from math import lcm

import pytest

from frobdet.cyclotomic import CycNum
from frobdet.characters import character_group, nonreal_pair_representatives
from frobdet.errors import NotAbelian, NotAGroup
from frobdet.semigroups import (build_family, group_of_units,
                                group_exponent, validate_table)

from oracles import character_pairing, direct_product


def test_z2_characters():
    G = build_family("zmod_add", 2)
    chars = character_group(G)
    assert len(chars) == 2
    assert chars[0].is_trivial()
    assert chars[1].value(1) == -1
    assert all(c.is_real() for c in chars)


def test_z3_characters():
    G = build_family("zmod_add", 3)
    chars = character_group(G)
    assert len(chars) == 3
    w = CycNum.root_of_unity(3)
    vals = sorted(c.exps[1] for c in chars)
    assert vals == [0, 1, 2]
    for c in chars:
        # multiplicative: chi(1)^3 = chi(0) = 1
        assert c.value(1) ** 3 == 1
        assert c.value(2) == c.value(1) * c.value(1)
    nonreal = nonreal_pair_representatives(chars)
    assert len(nonreal) == 1
    assert nonreal[0].value(1) == w or nonreal[0].value(1) == w * w


def test_klein_characters():
    C2 = build_family("zmod_add", 2)
    K = direct_product(C2, C2)
    chars = character_group(K)
    assert len(chars) == 4
    assert group_exponent(K) == 2
    # all values are +-1 and all characters are real
    for c in chars:
        assert c.is_real()
        assert all(e in (0, 1) for e in c.exps)
    # the four value rows are distinct
    assert len({c.exps for c in chars}) == 4


def test_z4_characters_order():
    G = build_family("zmod_add", 4)
    chars = character_group(G)
    assert len(chars) == 4
    # deterministic: sorted by exponent at the generator 1
    assert [c.exps[1] for c in chars] == [0, 1, 2, 3]
    i = CycNum.root_of_unity(4)
    assert chars[1].value(1) == i
    assert chars[1].value(3) == i ** 3


def test_orthogonality_exact():
    for fam, arg in [("zmod_add", 4), ("zmod_add", 6)]:
        G = build_family(fam, arg)
        chars = character_group(G)
        for a, chi in enumerate(chars):
            for b, psi in enumerate(chars):
                got = character_pairing(G, chi, psi)
                assert got == (G.n if a == b else 0)


def test_orthogonality_klein():
    C2 = build_family("zmod_add", 2)
    K = direct_product(C2, C2)
    chars = character_group(K)
    for a, chi in enumerate(chars):
        for b, psi in enumerate(chars):
            assert character_pairing(K, chi, psi) == (4 if a == b else 0)


def test_character_group_is_a_group_under_times():
    G = build_family("zmod_add", 6)
    chars = character_group(G)
    table = {c.exps: c for c in chars}
    for a in chars:
        for b in chars:
            assert a.times(b).exps in table


def test_rejects_nongroups_and_nonabelian():
    with pytest.raises(NotAGroup):
        character_group(build_family("chain_semilattice", 2))
    T3 = build_family("full_transform", 3)
    S3, _ = group_of_units(T3)
    with pytest.raises(NotAbelian):
        character_group(S3)


def test_determinism():
    G = build_family("zmod_add", 12)
    a = character_group(G)
    b = character_group(G)
    assert [c.exps for c in a] == [c.exps for c in b]
    assert len(a) == 12


def brute_force_characters(G):
    """Every homomorphism G -> Z/N, N the exponent of G, as exponent
    tuples: each element is tried at every value in index order, pruned
    on the products of the elements assigned so far. Sorted by their
    values on the greedy generators: least-index elements outside the
    subgroup spanned by the ones before, spans closed under all products."""
    n, t, e = G.n, G.table, G.identity

    def order(g):
        k, p = 1, g
        while p != e:
            p, k = t[p][g], k + 1
        return k

    N = lcm(*(order(g) for g in range(n)))
    found = []

    def extend(values):
        if len(values) == n:
            found.append(tuple(values))
            return
        a = len(values)
        for x in range(N):
            values.append(x)
            if all(values[t[b][c]] == (values[b] + values[c]) % N
                   for b in range(a + 1) for c in range(a + 1)
                   if t[b][c] <= a):
                extend(values)
            values.pop()

    extend([])
    gens, span = [], {e}
    while len(span) < n:
        gens.append(min(s for s in range(n) if s not in span))
        span |= {gens[-1]}
        while new := {t[a][b] for a in span for b in span} - span:
            span |= new
    return N, sorted(found, key=lambda v: [v[g] for g in gens])


def relabelled(G, rng):
    """G with its elements renumbered by a random permutation."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    inv = {p: i for i, p in enumerate(perm)}
    return validate_table([[inv[G.table[perm[a]][perm[b]]]
                            for b in range(G.n)] for a in range(G.n)])


def test_character_group_against_brute_force():
    z = {n: build_family("zmod_add", n) for n in (2, 3, 4)}
    groups = [build_family("zmod_add", n) for n in range(1, 13)] + [
        direct_product(z[2], z[2]), direct_product(z[2], z[4]),
        direct_product(z[3], z[3]),
        direct_product(direct_product(z[2], z[2]), z[2])]
    rng = random.Random(18)
    groups += [relabelled(G, rng) for G in groups]
    for G in groups:
        N, want = brute_force_characters(G)
        chars = character_group(G)
        assert [(c.order, c.exps) for c in chars] == [(N, v) for v in want]
