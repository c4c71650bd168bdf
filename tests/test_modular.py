import random
from dataclasses import replace
from fractions import Fraction

import pytest

from frobdet.commutative import factor_local
from frobdet.cyclotomic import CycNum
from frobdet.determinant import (factor_group_determinant,
                                 paratrophic_determinant)
from frobdet.factorization import (RANDOM_BOUND, Factorization,
                                   _galois_closed, random_points,
                                   random_table_check, verify_factorization)
from frobdet.modular import (MIN_PRIME, fixed_prime, is_prime, prime_for,
                             root_of_unity)
from frobdet.nilpotent import factor_nil_adjoined, parse_cocycle
from frobdet.poly import Poly
from frobdet.semigroups import build_family

from corpus import wenger_monoid


def test_miller_rabin_agrees_with_a_sieve():
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 1)
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n + 1, i))
    assert [k for k in range(n + 1) if is_prime(k)] == \
        [k for k in range(n + 1) if sieve[k]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime
    # base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)


@pytest.mark.parametrize("order", [1, 2, 27, 32, 10000])
def test_prime_and_root_of_unity(order):
    for seed in (0, 1, -7, 2 ** 70):
        p = prime_for(order, seed)
        assert is_prime(p) and p > MIN_PRIME and (p - 1) % order == 0
        w = root_of_unity(order, p)
        assert pow(w, order, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, order)
                   if order % d == 0)
    # the next prime that does not divide `avoid`
    p = prime_for(order, 5)
    q = prime_for(order, 5, avoid=3 * p)
    assert q > p and (q - 1) % order == 0 and is_prime(q)
    assert not any(is_prime(c) for c in range(p + order, q, order))


def test_the_seed_chooses_the_prime():
    primes = {prime_for(27, seed) for seed in range(5)}
    assert len(primes) == 5
    assert prime_for(27, 3) == prime_for(27, 3)


def exact_record(S, F, mode, cocycle, seed, rounds=5):
    """random_table_check's record computed in exact arithmetic: the
    symbolic determinant and every factor evaluated in Q(zeta_N)."""
    theta = paratrophic_determinant(S, mode, cocycle)
    basis = [s for s in range(S.n) if mode == "plain" or s != S.zero]
    rng = random.Random(seed)
    for i in range(rounds):
        point = {s: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for s in basis}
        value = F.constant
        for f, m in F.factors:
            value = value * f.evaluate(point) ** m
        if value != theta.evaluate(point):
            return {"equal": False, "mode": "randomized", "rounds": i + 1,
                    "seed": seed, "witness": point}
    return {"equal": True, "mode": "randomized", "rounds": rounds,
            "seed": seed}


def answer(mode):
    """A table, a right answer and the determinant it names, per mode."""
    if mode == "plain":
        G = build_family("zmod_add", 5)
        return G, factor_group_determinant(G), None
    if mode == "contracted":
        M = wenger_monoid()
        return M, factor_local(M), None
    M = build_family("three_nil", "10,01")
    cocycle = parse_cocycle("order 4\ns1 s1 z\n", M)
    return M, factor_nil_adjoined(M, cocycle), cocycle


def corruptions(F, basis):
    """Five wrong answers made from a right one."""
    (f, m), rest = F.factors[0], F.factors[1:]
    v = min(f.variables())
    w = next(s for s in basis if s != v)
    swapped = f.substitute({v: Poly.variable(w, f.order)})
    yield "negated constant", replace(F, constant=-F.constant)
    yield "doubled constant", replace(F, constant=F.constant * 2)
    yield "dropped factor", replace(F, factors=rest)
    yield "multiplicity + 1", replace(F, factors=((f, m + 1),) + rest)
    yield "variable substituted", replace(F, factors=((swapped, m),) + rest)


@pytest.mark.parametrize("mode", ["plain", "contracted", "twisted"])
def test_corrupted_answers_fail_the_modular_check(mode):
    S, F, cocycle = answer(mode)
    basis = [s for s in range(S.n) if mode == "plain" or s != S.zero]
    for seed in (0, 11):
        right = random_table_check(S, F, mode, cocycle, seed=seed)
        assert right == exact_record(S, F, mode, cocycle, seed)
        assert right["equal"] and right["rounds"] == 5
        for name, wrong in corruptions(F, basis):
            record = random_table_check(S, wrong, mode, cocycle, seed=seed)
            assert not record["equal"], name
            assert record == exact_record(S, wrong, mode, cocycle, seed), name


def test_randomized_verify_records():
    x0, x1 = Poly.variable(0), Poly.variable(1)
    F = Factorization.of(1, [(x0 + x1, 2)], "test")
    square = x0 ** 2 + 2 * x0 * x1 + x1 ** 2
    assert verify_factorization(square, F, "randomized", rounds=4) == \
        {"equal": True, "mode": "randomized", "rounds": 4, "seed": 0}
    r = verify_factorization(square + 1, F, "randomized", seed=0)
    assert r == {"equal": False, "mode": "randomized", "rounds": 1,
                 "seed": 0, "witness": next(random_points([0, 1], 0, 1))}
    assert verify_factorization(square + 1, F, "randomized", seed=0) == r


def test_a_denominator_divisible_by_the_first_prime():
    # the reduction cannot invert 1/p mod p, so it moves to the next prime
    p = prime_for(1, 0)
    x0, x1 = Poly.variable(0), Poly.variable(1)
    reference = (x0 + x1).scale(Fraction(1, p))
    F = Factorization.of(Fraction(1, p), [(x0 + x1, 1)], "test")
    assert verify_factorization(reference, F, "randomized") == \
        {"equal": True, "mode": "randomized", "rounds": 5, "seed": 0}
    wrong = Factorization.of(Fraction(2, p), [(x0 + x1, 1)], "test")
    assert not verify_factorization(reference, wrong, "randomized")["equal"]


def exact_oracle(reference, F, seed=0):
    """The exact record, with F multiplied out in Poly arithmetic."""
    return {"equal": reference == F.expand(), "mode": "exact", "rounds": 0,
            "seed": seed}


def check_exactly(reference, F):
    """verify_factorization's exact record, which must equal the oracle's."""
    record = verify_factorization(reference, F)
    assert record == exact_oracle(reference, F)
    return record["equal"]


@pytest.mark.parametrize("mode", ["plain", "contracted", "twisted"])
def test_the_exact_check_agrees_with_expand(mode):
    S, F, cocycle = answer(mode)
    theta = paratrophic_determinant(S, mode, cocycle)
    assert check_exactly(theta, F)
    basis = [s for s in range(S.n) if mode == "plain" or s != S.zero]
    for name, wrong in corruptions(F, basis):
        assert not check_exactly(theta, wrong), name


def test_a_coefficient_off_by_the_first_prime():
    # equal modulo the first prime, so the bound must call in a second
    x0, x1 = Poly.variable(0), Poly.variable(1)
    F = Factorization.of(1, [(x0 + x1, 2)], "test")
    p = fixed_prime(1, 0)[0]
    assert not check_exactly(F.expand() + (x0 * x1).scale(p), F)
    z = CycNum.root_of_unity(3)
    G = Factorization.of(1, [(x0 + x1.scale(z), 1), (x0 + x1.scale(z * z), 1)],
                         "test")
    q = fixed_prime(3, 0)[0]
    assert not check_exactly(G.expand() + (x0 * x1).scale(z * q), G)


def short_multiple(p, r):
    """A short nonzero (a, b) with a + b*r = 0 mod p, by Lagrange reduction
    of the lattice those pairs form: its entries are near sqrt(p)."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]
    u, v = (p, 0), (-r, 1)
    while True:
        if dot(u, u) < dot(v, v):
            u, v = v, u
        q = round(Fraction(dot(u, v), dot(v, v)))
        if q == 0:
            return v
        u = (u[0] - q * v[0], u[1] - q * v[1])


def test_a_difference_that_vanishes_at_the_first_root():
    # zeta - r is 0 mod p at the first root r of the first prime, but not
    # at the others
    p, r = fixed_prime(5, 0)
    z = CycNum.root_of_unity(5)
    x0, x1 = Poly.variable(0), Poly.variable(1)
    F = Factorization.of(1, [(x0 + x1.scale(z ** k), 1) for k in range(5)],
                         "test")
    assert check_exactly(F.expand(), F)
    assert not check_exactly(F.expand() + (x0 ** 5).scale(z - r), F)
    # a short c = a + b*zeta with the same root keeps the bound below p,
    # so only the second root mod the first prime tells them apart
    p, r = fixed_prime(3, 0)
    s = r * r % p
    a, b = short_multiple(p, r)
    assert (a + b * r) % p == 0 != (a + b * s) % p and abs(a) + abs(b) < 2 ** 33
    c = CycNum.root_of_unity(3) * b + a
    G = Factorization.of(1, [(x0 + x1.scale(CycNum.root_of_unity(3)), 2)],
                         "test")
    assert not check_exactly(G.expand() + (x1 ** 2).scale(c), G)


def test_factors_that_are_not_galois_closed():
    z = CycNum.root_of_unity(3)
    x0, x1 = Poly.variable(0), Poly.variable(1)
    theta = x0 ** 2 - x0 * x1 + x1 ** 2  # (x0 + z x1)(x0 + z^2 x1)
    square = Factorization("factored", CycNum.one(), ((x0 + x1.scale(z), 2),),
                           "test")
    assert not _galois_closed(square.factors, 3)
    assert not check_exactly(theta, square)
    # the same product as two factors that no automorphism permutes
    scaled = Factorization(
        "factored", CycNum.one(),
        ((x0.scale(z * 2) + x1.scale(z * z * 2), 1),
         (x0.scale(z * z * Fraction(1, 2)) + x1.scale(z * Fraction(1, 2)), 1)),
        "test")
    assert not _galois_closed(scaled.factors, 3)
    assert check_exactly(theta, scaled)
    closed = Factorization.of(1, [(x0 + x1.scale(z), 1),
                                  (x0 + x1.scale(z * z), 1)], "test")
    assert _galois_closed(closed.factors, 3)
    assert check_exactly(theta, closed)
    assert not check_exactly(theta + x1 ** 2, closed)
    # x0 + c*x1 with c = 0 mod p at the first root equals the rational x0
    # there; one root would do only if the factors were Galois-closed
    a, b = short_multiple(*fixed_prime(3, 0))
    c = z * b + a
    assert not check_exactly(x0, Factorization.of(1, [(x0 + x1.scale(c), 1)],
                                                  "test"))


def test_a_twisted_theta_with_irrational_coefficients():
    S, F, cocycle = answer("twisted")
    theta = paratrophic_determinant(S, "twisted", cocycle)
    assert not all(c.is_rational() for c in theta.terms.values())
    assert check_exactly(theta, F)
    z = CycNum.root_of_unity(cocycle.order)
    assert not check_exactly(theta, replace(F, constant=F.constant * z))


def test_a_denominator_equal_to_a_fixed_prime():
    # each value is scaled to integers, so nothing is inverted mod p
    x0, x1 = Poly.variable(0), Poly.variable(1)
    for order in (1, 4):
        p = fixed_prime(order, 0)[0]
        z = CycNum.root_of_unity(order)
        f = x0 + x1.scale(z * Fraction(1, p))
        reference = (f * f).scale(Fraction(3, p))
        F = Factorization.of(Fraction(3, p), [(f, 2)], "test")
        assert check_exactly(reference, F)
        wrong = Factorization.of(Fraction(3, p + 1), [(f, 2)], "test")
        assert not check_exactly(reference, wrong)
    # a coefficient that the scales leave fractional cannot match
    F = Factorization.of(1, [(x0, 1)], "test")
    assert not check_exactly(x0 + x1.scale(Fraction(1, 2)), F)


def test_zero_answers():
    x0, x1 = Poly.variable(0), Poly.variable(1)
    f = x0 + x1
    zero_constant = Factorization("factored", CycNum.zero(), ((f, 1),),
                                  "test")
    zero_factor = Factorization("factored", CycNum.one(),
                                ((f, 1), (Poly.zero(), 2)), "test")
    for F in (zero_constant, zero_factor):
        assert check_exactly(Poly.zero(), F)
        assert not check_exactly(f, F)
    F = Factorization.zero("test")
    assert verify_factorization(Poly.zero(), F)["equal"]
    assert not verify_factorization(f, F)["equal"]



def gaussian_periods(order, index):
    """The sums of zeta^k over the cosets of the subgroup of index `index`
    in the units mod the prime `order`, one per coset: a Galois orbit."""
    g = next(g for g in range(2, order)
             if len({pow(g, k, order) for k in range(order - 1)}) == order - 1)
    periods = []
    for j in range(index):
        total = CycNum.zero(order)
        for k in range(j, order - 1, index):
            total = total + CycNum.root_of_unity(order, pow(g, k, order))
        periods.append(total)
    return periods


@pytest.mark.parametrize("order", [12, 997])
def test_the_all_roots_check_agrees_with_expand(order):
    z = CycNum.root_of_unity(order)
    x0, x1 = Poly.variable(0), Poly.variable(1)
    if order == 12:
        orbit = [z ** k for k in (1, 5, 7, 11)]
    else:
        orbit = gaussian_periods(order, 3)
    closed = Factorization.of(1, [(x0 + x1.scale(c), 1) for c in orbit],
                              "test")
    not_closed = Factorization.of(
        1, [(x0 + x1.scale(z ** k), 1) for k in (1, 2, 5)], "test")
    assert _galois_closed(closed.factors, order)
    assert not _galois_closed(not_closed.factors, order)
    if order == 12:
        # closed under zeta -> zeta^5, not under zeta -> zeta^7
        half = Factorization.of(
            1, [(x0 + x1.scale(z ** k), 1) for k in (1, 5)], "test")
        assert not _galois_closed(half.factors, order)
    for F in (closed, not_closed):
        theta = F.expand()
        assert check_exactly(theta, F)
        assert not check_exactly(theta + (x0 * x1 ** (len(F.factors) - 1))
                                 .scale(z ** 3), F)
        assert not check_exactly(theta, replace(F, constant=F.constant * 2))
