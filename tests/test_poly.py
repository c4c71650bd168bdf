import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from frobdet import cli, linalg, poly
from frobdet.cyclotomic import CycNum
from frobdet.determinant import cayley_matrix
from frobdet.errors import (DimensionCap, MissingVariable, NotUnitriangular,
                            ParseError, SingularP)
from frobdet.linalg import (cyc_det, cyc_matrix_inverse, det_mod, int_det,
                            unitriangular_inverse)
from frobdet.factorization import Factorization, verify_factorization
from frobdet.poly import Poly, det_poly_matrix, parse_poly
from frobdet.semigroups import build_family


def x(i):
    return Poly.variable(i)


def test_monomial_order():
    # graded lex: degree first, then lex with x0 largest
    m_x0 = ((0, 1),)
    m_x1 = ((1, 1),)
    m_x0sq = ((0, 2),)
    m_x0x1 = ((0, 1), (1, 1))
    m_x1sq = ((1, 2),)
    assert poly._mono_key(m_x0sq) > poly._mono_key(m_x0)
    assert poly._mono_key(m_x0) > poly._mono_key(m_x1)
    assert poly._mono_key(m_x0sq) > poly._mono_key(m_x0x1)
    assert poly._mono_key(m_x0x1) > poly._mono_key(m_x1sq)
    assert poly._mono_key(m_x1) == poly._mono_key(m_x1)


def _graded_lex_cmp(a, b):
    """The hand-written comparator that poly._mono_key replaced: higher
    total degree wins, then the higher power of the least-index variable
    where a and b differ."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            return 1
        if vb < va:
            return -1
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    if i < len(a):
        return 1
    if j < len(b):
        return -1
    return 0


def test_sort_key_is_graded_lex():
    monos = [tuple((v, e) for v, e in zip((0, 2, 5, 9), exps) if e)
             for exps in itertools.product(range(4), repeat=4)
             if sum(exps) <= 5]
    assert len(monos) == 106
    for a in monos:
        for b in monos:
            want = _graded_lex_cmp(a, b)
            assert (poly._mono_key(a) > poly._mono_key(b)) - \
                (poly._mono_key(a) < poly._mono_key(b)) == want


def test_poly_arithmetic():
    p = (x(0) + x(1)) * (x(0) - x(1))
    assert p == x(0) * x(0) - x(1) * x(1)
    # the x0*x1 terms cancel and are dropped; the rest keep first place
    assert list(p.terms) == [((0, 2),), ((1, 2),)]
    assert list(((x(0) + x(1)) * (x(0) + x(1))).terms) == \
        [((0, 2),), ((0, 1), (1, 1)), ((1, 2),)]
    assert (x(0) + 1) ** 2 == x(0) ** 2 + 2 * x(0) + 1
    assert (p - p).is_zero()
    assert x(0) * Poly.zero() == Poly.zero()
    with pytest.raises(ValueError):
        x(0) ** -3


def test_poly_str_canonical():
    p = x(0) ** 2 - x(1) ** 2
    assert p.to_str() == "x0^2-x1^2"
    q = x(1) * 3 - x(0) + Poly.const(Fraction(1, 2))
    assert q.to_str() == "-x0+3*x1+1/2"
    z3 = CycNum.root_of_unity(3)
    r = x(0) + x(1).scale(z3)
    assert r.to_str() == "x0+(z)*x1"
    assert Poly.zero().to_str() == "0"
    assert Poly.const(-1).to_str() == "-1"
    # an empty name, and an id past the end of names, print x<id>
    assert (x(0) * x(1) ** 2 - x(2).scale(z3)).to_str(("a", "")) == \
        "x_a*x1^2+(-z)*x2"
    m = ((0, 1), (1, 2), (2, 1), (5, 3))
    assert poly.mono_str(m) == "x0*x1^2*x2*x5^3"
    assert poly.mono_str(m, ("a", "", "c")) == "x_a*x1^2*x_c*x5^3"
    assert poly.mono_str(m, ()) == "x0*x1^2*x2*x5^3"
    assert poly.mono_str(()) == ""


def test_linear_forms():
    z3, z4 = CycNum.root_of_unity(3), CycNum.root_of_unity(4)
    f = Poly.linear({3: z4, 0: 3, 1: z3, 2: Fraction(1, 2), 4: 0,
                     5: CycNum.zero(4), 6: Fraction(0)})
    assert f.order == 12
    assert all(c.order == 12 for c in f.terms.values())
    assert list(f.terms) == [((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),)]
    assert f == x(0) * 3 + x(1).scale(z3) + x(2) * Fraction(1, 2) \
        + x(3).scale(z4)
    assert Poly.linear({0: 1}).order == 1
    for zeros in ({}, {0: 0, 1: Fraction(0), 2: CycNum.zero(3)}):
        with pytest.raises(ValueError,
                           match="^linear form needs a nonzero coefficient$"):
            Poly.linear(zeros)


def test_poly_parse_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        order = rng.choice([1, 3, 4, 6])
        p = Poly.zero(order)
        for _ in range(rng.randrange(5)):
            mono = tuple(sorted({rng.randrange(4): rng.randint(1, 3)
                                 for _ in range(rng.randrange(3))}.items()))
            c = CycNum.root_of_unity(order, rng.randrange(order)) * \
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            p = p + Poly(order, {mono: c}) if not c.is_zero() else p
        s = p.to_str()
        assert parse_poly(s, order) == p, s


def test_parse_examples():
    assert parse_poly("x0^2-x1^2") == x(0) ** 2 - x(1) ** 2
    assert parse_poly("-x0+3*x1+1/2") == -x(0) + 3 * x(1) + Fraction(1, 2)
    p = parse_poly("(z)*x1+x0", 3)
    assert p == x(0) + x(1).scale(CycNum.root_of_unity(3))
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x0^")
    with pytest.raises(ParseError):
        parse_poly("(z*x0", 3)


def test_parse_collects_terms_in_one_dict(monkeypatch):
    # parsing adds no Poly per term: the terms of a large determinant
    # go into one dict, and repeats merge in place
    rows = cayley_matrix(build_family("zmod_add", 9)).entries
    theta = det_poly_matrix([list(r) for r in rows])
    text = theta.to_str()

    def refuse(*args):
        raise AssertionError("Poly.__add__ called while parsing")
    monkeypatch.setattr(Poly, "__add__", refuse)
    back = parse_poly(text)
    merged = [parse_poly("x0+x0-x0"), parse_poly("x0-x0+x1+x0", 3),
              parse_poly("(z)*x1-x1+(-z)*x1+x1+2", 4)]
    form = cli.form_poly({"x0": "z", "x1": "1", "1": "-1/2"}, 3)
    monkeypatch.undo()
    assert back == theta and back.to_str() == text
    assert merged == [x(0), x(1) + x(0), Poly.const(2)]
    assert list(merged[1].terms) == [((1, 1),), ((0, 1),)]
    assert merged[1].order == 3 and merged[2].order == 4
    assert form == x(0).scale(CycNum.root_of_unity(3)) + x(1) \
        - Fraction(1, 2)


def test_homogeneity_and_degree():
    p = x(0) * x(1) + x(2) ** 2
    assert p.is_homogeneous() and p.total_degree() == 2
    q = p + x(0)
    assert not q.is_homogeneous()
    assert Poly.zero().is_homogeneous()


def test_evaluate():
    p = x(0) ** 2 + x(1) * 2
    assert p.evaluate({0: 3, 1: -1}).as_fraction() == 7
    with pytest.raises(MissingVariable):
        p.evaluate({0: 1})
    z = CycNum.root_of_unity(4)
    q = x(0).scale(z)
    assert q.evaluate({0: 2}) == z * 2
    # int, Fraction and CycNum points, on polynomials of orders 1 and 3
    z3 = CycNum.root_of_unity(3)
    r = x(0) * x(1) ** 2 - x(2) * Fraction(3, 2) + 1
    r3 = r + x(0).scale(z3)
    for f, point, want, order in [
            (r, {0: 2, 1: Fraction(1, 3), 2: -4}, Fraction(65, 9), 1),
            (r, {0: z3, 1: 2, 2: Fraction(2, 3)}, z3 * 4, 3),
            (r3, {0: 2, 1: Fraction(1, 3), 2: -4},
             z3 * 2 + Fraction(65, 9), 3),
            (r3, {0: z3, 1: z3 * 2, 2: 1}, Fraction(5, 2) - z3, 3),
            (Poly.zero(3), {}, 0, 3)]:
        got = f.evaluate(point)
        assert got == want and got.order == order
    with pytest.raises(MissingVariable, match="^no value for x1$"):
        r3.evaluate({0: z3, 2: 1})


def test_det_examples():
    assert det_poly_matrix([[x(0)]]) == x(0)
    m = [[x(0), x(1)], [x(1), x(0)]]
    assert det_poly_matrix(m) == x(0) ** 2 - x(1) ** 2
    # equal rows kill the determinant
    m = [[x(0), x(1)], [x(0), x(1)]]
    assert det_poly_matrix(m).is_zero()
    assert det_poly_matrix([]) == Poly.const(1)


def _sign(perm):
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def _leibniz_det(m):
    """Reference determinant: the Leibniz sum over all permutations."""
    total = Poly.zero()
    for perm in itertools.permutations(range(len(m))):
        term = Poly.const(_sign(perm))
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def test_det_bareiss_matches_cofactor():
    """The symbolic determinant of seeded matrices with non-monomial
    entries equals the Leibniz sum. The reference used to be the cofactor
    expansion checked against Bareiss elimination; both gave way to one
    division-free expansion, so the reference is now the Leibniz sum
    written out here."""
    rng = random.Random(5)
    for trial in range(6):
        n = rng.choice([3, 4, 5])
        m = [[Poly.const(rng.randint(-3, 3)) + x(rng.randrange(3)) * rng.randint(-2, 2)
              for _ in range(n)] for _ in range(n)]
        assert det_poly_matrix(m) == _leibniz_det(m), trial
    # coefficients of orders 3 and 4 are lifted to order 12
    z3, z4 = CycNum.root_of_unity(3), CycNum.root_of_unity(4)
    m = [[x(0).scale(z3), x(1) + 1, Poly.const(z4)],
         [x(2) - Poly.const(z4), x(0), x(1).scale(z3)],
         [Poly.const(2), x(2).scale(z4), x(1) * x(0) - 1]]
    d = det_poly_matrix(m)
    assert d.order == 12 and d == _leibniz_det(m)


def test_det_sign_and_sparsity_dims_7_to_10():
    rng = random.Random(17)
    for n in (7, 8, 9, 10):
        sigma = list(range(n))
        rng.shuffle(sigma)
        m = [[x(i) if j == sigma[i] else Poly.zero() for j in range(n)]
             for i in range(n)]
        expected = Poly.const(_sign(sigma))
        for i in range(n):
            expected = expected * x(i)
        assert det_poly_matrix(m) == expected, sigma
    rows = cayley_matrix(build_family("rook", 2)).entries
    assert len(rows) == 7
    theta = det_poly_matrix([list(r) for r in rows])
    for _ in range(3):
        point = {v: rng.randint(-9, 9) for v in range(len(rows))}
        ints = [[p.evaluate(point).as_fraction() for p in r] for r in rows]
        assert theta.evaluate(point).as_fraction() == int_det(ints)


def test_sparse_rows_are_expanded_first():
    # the contracted matrix of cyclic_nilpotent 12 is Hankel-shaped: each
    # peeled row leaves a row with one nonzero entry
    S = build_family("cyclic_nilpotent", 12)
    m = [list(r) for r in cayley_matrix(S, "contracted").entries]
    start = time.perf_counter()
    theta = det_poly_matrix(m)
    assert time.perf_counter() - start < 1.0
    assert theta == x(11) ** 12


def test_det_of_sparse_and_permuted_triangular_matrices():
    rng = random.Random(23)

    def entry():
        return x(rng.randrange(4)) * rng.randint(-3, 3) + rng.randint(-2, 2)

    for trial in range(60):
        n = rng.randint(1, 7)
        if trial % 2:
            tri = [[entry() if j >= i else Poly.zero() for j in range(n)]
                   for i in range(n)]
            rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
            m = [[tri[r][c] for c in cols] for r in rows]
        else:
            m = [[entry() if rng.random() < 0.3 else Poly.zero()
                  for _ in range(n)] for _ in range(n)]
        theta = det_poly_matrix(m)
        for _ in range(3):
            point = {v: rng.randint(-9, 9) for v in range(4)}
            ints = [[p.evaluate(point).as_fraction() for p in r] for r in m]
            assert theta.evaluate(point).as_fraction() == int_det(ints)


def test_det_numeric_cross_check():
    # integer matrices: symbolic engine agrees with Bareiss over Z
    rng = random.Random(9)
    for _ in range(10):
        n = rng.choice([2, 3, 4, 7])
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m = [[Poly.const(v) for v in row] for row in rows]
        assert det_poly_matrix(m).evaluate({}).as_fraction() == int_det(rows)


def test_det_dimension_cap():
    n = 13
    m = [[x(i) if i == j else Poly.zero() for j in range(n)] for i in range(n)]
    with pytest.raises(DimensionCap):
        det_poly_matrix(m)
    # override allows it
    assert det_poly_matrix(m, cap=13) == x(0) * x(1) * x(2) * x(3) * x(4) * x(5) * \
        x(6) * x(7) * x(8) * x(9) * x(10) * x(11) * x(12)


def check_det(m):
    """det_poly_matrix(m) against the Leibniz sum, with the invariants of a
    Poly: every coefficient nonzero, at the result's order, in lowest terms
    over a positive denominator."""
    d = det_poly_matrix(m)
    assert d == _leibniz_det(m)
    assert d.order == math.lcm(*(p.order for row in m for p in row))
    for mono, c in d.terms.items():
        assert c.order == d.order and not c.is_zero()
        assert c.den > 0 and math.gcd(c.den, *c.nums) == 1
        assert list(mono) == sorted(mono) and all(e > 0 for _, e in mono)
    return d


def random_entry(rng, orders, variables, degree=1):
    """A sum of a constant and up to two terms of degree 1..degree, each
    with a random_cyc coefficient of an order from `orders`."""
    p = Poly.const(random_cyc(rng, orders))
    for _ in range(rng.randint(0, 2)):
        term = Poly.const(random_cyc(rng, orders))
        for _ in range(rng.randint(1, degree)):
            term = term * x(rng.choice(variables))
        p = p + term
    return p


@pytest.mark.parametrize("orders,n", [((3, 4), 5), ((2, 9), 5), ((105,), 3),
                                      ((1,), 6), ((12,), 5), ((5,), 5)])
def test_det_against_leibniz_at_cyclotomic_orders(orders, n):
    # Phi_105 has phi = 48 and a coefficient -2; mixed orders are lifted to
    # their lcm before the terms are packed
    rng = random.Random(repr(orders))
    for size in range(1, n + 1):
        m = [[random_entry(rng, orders, (0, 1, 2)) for _ in range(size)]
             for _ in range(size)]
        check_det(m)


def test_det_with_a_denominator_per_row():
    rng = random.Random(8)
    for trial in range(5):
        n = 5
        dens = [rng.choice([1, 2, 3, 5, 7, 9, 12]) for _ in range(n)]
        m = [[x(rng.randrange(4)) * Fraction(rng.randint(-4, 4), d)
              + Fraction(rng.randint(-3, 3), d * rng.choice([1, 2]))
              for _ in range(n)] for d in dens]
        check_det(m)
    z3 = CycNum.root_of_unity(3)
    m = [[x(0).scale(z3 * Fraction(1, 6)), Poly.const(Fraction(5, 4))],
         [Poly.const(Fraction(-2, 9)), x(1) * Fraction(7, 10)]]
    assert check_det(m) == (x(0) * x(1)).scale(z3 * Fraction(7, 60)) \
        + Fraction(5, 18)


def test_det_with_exponents_at_the_digit_bound():
    # x0^7 in every row of a 5x5: the product x0^35 reaches the bound the
    # digit width is chosen from
    rng = random.Random(35)
    z4 = CycNum.root_of_unity(4)
    for trial in range(3):
        m = [[x(0) ** 7 * rng.randint(1, 5) + x(1) ** 2 * x(2) * rng.randint(-2, 2)
              + Poly.const(z4 * rng.randint(-1, 1))
              for _ in range(5)] for _ in range(5)]
        lead = int_det([[p.coefficient(((0, 7),)).as_fraction() for p in row]
                        for row in m])
        d = check_det(m)
        assert d.coefficient(((0, 35),)) == lead
    high = [[random_entry(rng, (1, 3), (0, 1), degree=4) for _ in range(4)]
            for _ in range(4)]
    check_det(high)


def test_det_with_sparse_large_variable_ids():
    rng = random.Random(1000)
    for order in (1, 4):
        for n in (3, 4, 5):
            m = [[random_entry(rng, (order,), (0, 63, 1000), degree=2)
                  for _ in range(n)] for _ in range(n)]
            d = check_det(m)
            assert d.variables() <= {0, 63, 1000}


def test_det_of_peeled_and_singular_matrices():
    rng = random.Random(19)
    z12 = CycNum.root_of_unity(12)
    for orders in ((1,), (12,), (3, 4)):
        n = 5
        # a permuted triangular matrix peels row by row to the end
        tri = [[random_entry(rng, orders, (0, 1, 2)) if j >= i
                else Poly.zero() for j in range(n)] for i in range(n)]
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        check_det([[tri[r][c] for c in cols] for r in rows])
        sigma = rng.sample(range(n), n)
        check_det([[random_entry(rng, orders, (3, 4)) if j == sigma[i]
                    else Poly.zero() for j in range(n)] for i in range(n)])
        m = [[random_entry(rng, orders, (0, 1, 2)) for _ in range(n)]
             for _ in range(n)]
        zero_row = m[:-1] + [[Poly.zero()] * n]
        repeated = m[:-1] + [m[1]]
        # z^5 times row 0: over Z[z] the expansion is a nonzero multiple
        # of Phi_12, which the reduction at the end takes to 0
        rotated = m[:-1] + [[p.scale(z12 ** 5) for p in m[0]]]
        for s in (zero_row, repeated, rotated):
            assert check_det(s).is_zero()


def test_det_does_no_poly_or_field_arithmetic(monkeypatch):
    # the expansion multiplies packed integer terms; only the result is
    # turned back into CycNum coefficients
    rng = random.Random(12)
    z = CycNum.root_of_unity(12)
    m = [[x(rng.randrange(5)).scale(z ** rng.randrange(12)) * rng.randint(1, 3)
          + Poly.const(z ** rng.randrange(12) * rng.randint(-2, 2), 12)
          for _ in range(5)] for _ in range(5)]
    assert all(p.order == 12 for row in m for p in row)
    expected = _leibniz_det(m)

    def refuse(*args):
        raise AssertionError("Poly or CycNum arithmetic inside the expansion")
    for cls, name in ((CycNum, "__mul__"), (CycNum, "__rmul__"),
                      (CycNum, "__add__"), (CycNum, "__radd__"),
                      (Poly, "__mul__"), (Poly, "__rmul__")):
        monkeypatch.setattr(cls, name, refuse)
    d = det_poly_matrix(m)
    monkeypatch.undo()
    assert d == expected and not d.is_zero()


def test_det_cyclic_nilpotent_10_is_fast():
    # the plain 11x11 matrix has no sparse row, so nothing is peeled
    S = build_family("cyclic_nilpotent", 10)
    rows = [list(r) for r in cayley_matrix(S).entries]
    start = time.perf_counter()
    theta = det_poly_matrix(rows)
    assert time.perf_counter() - start < 3.0
    rng = random.Random(10)
    for _ in range(3):
        point = {v: rng.randint(-9, 9) for v in range(S.n)}
        ints = [[p.evaluate(point).as_fraction() for p in r] for r in rows]
        assert theta.evaluate(point).as_fraction() == int_det(ints)


def test_det_term_budget(monkeypatch):
    n = 7
    m = [[x((i + j) % n) for j in range(n)] for i in range(n)]
    theta = det_poly_matrix(m)
    monkeypatch.setattr(poly, "TERM_BUDGET", 200)
    with pytest.raises(DimensionCap,
                       match="^symbolic determinant of dimension 7 exceeds "
                             "the budget of 200 terms$"):
        det_poly_matrix(m)
    monkeypatch.setattr(poly, "TERM_BUDGET", len(theta.terms) * 10)
    assert det_poly_matrix(m) == theta


@pytest.mark.parametrize("order", [1, 12])
def test_powers_match_repeated_products(order, monkeypatch):
    z = CycNum.root_of_unity(order)
    f = x(0).scale(z) + x(1) * Fraction(2, 3) - 1
    c = z * 3 + Fraction(1, 2)
    want_f, want_c = Poly.const(1, order), CycNum.one(order)
    for m in range(10):
        assert f ** m == want_f and c ** m == want_c
        want_f, want_c = want_f * f, want_c * c
    calls = []
    for cls in (Poly, CycNum):
        def counting(self, other, mul=cls.__mul__):
            calls.append(type(self))
            return mul(self, other)
        monkeypatch.setattr(cls, "__mul__", counting)
    assert f ** 1 == f and c ** 1 == c
    assert calls == []
    assert f ** 0 == Poly.const(1, order) and c ** 0 == CycNum.one(order)
    assert (f ** 0).order == order and (c ** 0).order == order


def test_identity_test_modes():
    # the exact record of verify_factorization; its randomized comparison
    # is in test_modular.py
    F = Factorization.of(1, [(x(0) + x(1), 2)], "test")
    q = x(0) ** 2 + 2 * x(0) * x(1) + x(1) ** 2
    r = verify_factorization(q, F)
    assert r == {"equal": True, "mode": "exact", "rounds": 0, "seed": 0}
    r = verify_factorization(q + 1, F, seed=3)
    assert r == {"equal": False, "mode": "exact", "rounds": 0, "seed": 3}


def test_int_det():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(1)
    # compare against cofactor expansion oracle
    def cof(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** i * m[i][0] * cof([r[1:] for k, r in enumerate(m) if k != i])
                   for i in range(len(m)))
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert int_det(m) == cof(m)
        assert det_mod(m, 7) == cof(m) % 7
    assert det_mod([[0, 1], [1, 0]], 2 ** 61 - 1) == 2 ** 61 - 2
    assert det_mod([], 7) == 1 and det_mod([[7, 1], [14, 3]], 7) == 0


def fraction_det(m):
    """The determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in m]
    n, det = len(m), Fraction(1)
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return 0
        if r != k:
            m[k], m[r] = m[r], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


@pytest.mark.parametrize("p", [2, 7, 2 ** 61 - 1, 2 ** 89 - 1])
def test_det_mod_against_fractions(p):
    """Random matrices of size 0 to 20: dense ones with negative entries
    and entries of p or more, sparse ones whose zero pivots force row
    swaps, and symmetric ones with a zero diagonal."""
    rng = random.Random(p)

    def entry(density):
        if rng.random() >= density:
            return 0
        return rng.choice([rng.randint(-9, 9), rng.randint(-3 * p, 3 * p)])

    for n in range(21):
        for density in (1.0, 0.3, 0.1):
            m = [[entry(density) for _ in range(n)] for _ in range(n)]
            rows = [list(row) for row in m]
            assert det_mod(m, p) == fraction_det(m) % p
            assert m == rows
            sym = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    sym[i][j] = sym[j][i] = entry(density)
            assert det_mod(sym, p) == fraction_det(sym) % p
    # a multiple of p on the diagonal is a zero pivot
    assert det_mod([[p, 1], [1, 0]], p) == p - 1


def test_det_mod_of_cayley_matrices(commutative_tables):
    """[x_st] at seeded points, for the commutative tables of order 3 and 4
    and larger family members, at p = 7 and above 2^61."""
    rng = random.Random(18)
    tables = commutative_tables[3] + commutative_tables[4][::10] + [
        build_family(*f) for f in (("gcd", 12), ("zmod_add", 9), ("rook", 2),
                                   ("full_transform", 2),
                                   ("cyclic_nilpotent", 6))]
    for S in tables:
        point = [rng.randint(-100, 100) for _ in range(S.n)]
        m = [[point[u] for u in row] for row in S.table]
        det = fraction_det(m)
        for p in (7, 2 ** 61 - 1):
            assert det_mod(m, p) == det % p


def test_cyc_det_and_inverse():
    i = CycNum.root_of_unity(4)
    m = [[CycNum.one(4), i], [i, CycNum.one(4)]]
    assert cyc_det(m) == CycNum.from_rational(2, 4)
    inv = cyc_matrix_inverse(m)
    # m * inv == identity
    for r in range(2):
        for c in range(2):
            s = CycNum.zero(4)
            for k in range(2):
                s = s + m[r][k] * inv[k][c]
            assert s == (CycNum.one(4) if r == c else CycNum.zero(4))
    with pytest.raises(SingularP):
        cyc_matrix_inverse([[CycNum.one(), CycNum.one()],
                            [CycNum.one(), CycNum.one()]])


def leibniz(m):
    """Determinant as the signed sum over permutations, in CycNum
    arithmetic."""
    total = CycNum.zero()
    for perm in itertools.permutations(range(len(m))):
        term = CycNum.one()
        for i, j in enumerate(perm):
            term = term * m[i][j]
        odd = sum(perm[i] > perm[j] for i in range(len(perm))
                  for j in range(i + 1, len(perm))) % 2
        total = total - term if odd else total + term
    return total


def random_cyc(rng, orders, size=5):
    """A sum of up to three roots of unity of an order from `orders`, with
    Fraction coefficients."""
    order = rng.choice(orders)
    v = CycNum.zero(order)
    for _ in range(rng.randint(0, 3)):
        v = v + CycNum.root_of_unity(order, rng.randrange(order)) \
            * Fraction(rng.randint(-size, size), rng.choice([1, 1, 2, 3, 7]))
    return v


def untouched(m, rows):
    """Whether m holds the same row lists with the same entries as when
    rows = [(row, list(row)) for row in m] was taken."""
    return len(m) == len(rows) and all(
        row is same and len(row) == len(entries)
        and all(a is b for a, b in zip(row, entries))
        for row, (same, entries) in zip(m, rows))


def check_cyc_det(m):
    rows = [(row, list(row)) for row in m]
    d = cyc_det(m)
    assert d == leibniz(m)
    if len(m) > 1:
        assert d.order == math.lcm(*(v.order for row in m for v in row))
    assert untouched(m, rows)
    return d


@pytest.mark.parametrize("orders,sizes", [
    ((1,), range(7)), ((2,), range(7)), ((3,), range(7)), ((4,), range(7)),
    ((9,), range(6)), ((12,), range(6)), ((15,), range(5)),
    ((105,), range(4)), ((3, 4), range(6)), ((2, 9), range(6)),
    ((4, 6, 1), range(6)), ((15, 7), range(4)),
])
def test_cyc_det_against_leibniz(orders, sizes):
    # Phi_105 has a coefficient -2, so its power basis has coordinates
    # beyond 1; mixed orders are embedded into their lcm
    rng = random.Random(repr(orders))
    for n in sizes:
        for _ in range(3):
            check_cyc_det([[random_cyc(rng, orders) for _ in range(n)]
                           for _ in range(n)])


def test_cyc_det_of_singular_matrices():
    rng = random.Random(11)
    for orders in ((1,), (4,), (3, 4), (105,)):
        for n in (2, 3, 4):
            m = [[random_cyc(rng, orders) for _ in range(n)]
                 for _ in range(n)]
            zero_row = m[:-1] + [[CycNum.zero(rng.choice(orders))] * n]
            repeated = m[:-1] + [m[0]]
            scaled = m[:-1] + [[v * Fraction(3, 7) for v in m[0]]]
            for s in (zero_row, repeated, scaled):
                assert check_cyc_det(s).is_zero()


def test_cyc_det_with_large_coordinates():
    # coordinates of 40 digits and more lie beyond the product of two
    # primes above 2^61, so at least three images are combined
    rng = random.Random(5)
    m = [[random_cyc(rng, (4, 3), size=10 ** 9) for _ in range(5)]
         for _ in range(5)]
    d = check_cyc_det(m)
    assert max(abs(c) for c in d.coords) >= 10 ** 40
    m[2] = [v / 11 for v in m[2]]
    assert check_cyc_det(m) == d / 11


def test_rational_cyc_det_uses_hadamard_bound(monkeypatch):
    # J + I of size 40 has det 41 and row 1-norms 41, so the 1-norm bound
    # 41^40 needs four primes above 2^61; Hadamard's (isqrt(43) + 1)^40
    # needs two. At orders 1 and 2 cyc_det calls det_mod once per prime.
    calls = []

    def counted(matrix, p):
        calls.append(p)
        return det_mod(matrix, p)
    monkeypatch.setattr(linalg, "det_mod", counted)
    n = 40
    m = [[2 if i == j else 1 for j in range(n)] for i in range(n)]
    d = cyc_det([[CycNum.from_rational(v) for v in row] for row in m])
    assert d == int_det(m) == 41 and len(calls) == 2
    # a Sylvester-Hadamard matrix meets Hadamard's bound with equality;
    # one row negated, one divided by 3, and at order 2
    h = [[1]]
    while len(h) < 32:
        h = [r + r for r in h] + [r + [-v for v in r] for r in h]
    h[5] = [-v for v in h[5]]
    want = int_det(h)
    assert abs(want) == 32 ** 16
    for order in (1, 2):
        calls.clear()
        rows = [[CycNum.from_rational(v, order) for v in row] for row in h]
        rows[7] = [v * Fraction(1, 3) for v in rows[7]]
        d = cyc_det(rows)
        assert d.order == order and d == Fraction(want, 3)
        assert len(calls) == 2


def test_cyc_matrix_inverse_leaves_its_argument():
    rng = random.Random(3)
    m = [[random_cyc(rng, (3, 4)) for _ in range(3)] for _ in range(3)]
    rows = [(row, list(row)) for row in m]
    cyc_matrix_inverse(m)
    assert untouched(m, rows)


def test_unitriangular_inverse():
    # zeta of the 3-chain 0 < 1 < 2
    z = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    mu = unitriangular_inverse(z, [0, 1, 2])
    assert mu == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    # permuted indexing: chain 2 < 0, antichain elsewhere
    z2 = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    mu2 = unitriangular_inverse(z2, [2, 0, 1])
    prod = [[sum(z2[i][k] * mu2[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotUnitriangular):
        unitriangular_inverse([[1, 0], [1, 1]], [0, 1])
    with pytest.raises(NotUnitriangular):
        unitriangular_inverse([[2, 0], [0, 1]], [0, 1])


def substitute_by_expansion(f, sub):
    """The substitution f(sub) by plain products and sums, term by term."""
    out = Poly.zero(f.order)
    for m, c in f.terms.items():
        term = Poly.const(c, f.order)
        for v, e in m:
            for _ in range(e):
                term = term * (sub[v] if v in sub else Poly.variable(v))
        out = out + term
    return out


def test_substitute_matches_expansion():
    rng = random.Random(41)
    z3, z4 = CycNum.root_of_unity(3), CycNum.root_of_unity(4)
    x = [Poly.variable(v) for v in range(6)]
    cases = [
        # degree > 1, a variable absent from sub, and a mixed order
        (x[0] ** 2 * x[1] + x[2] * 3 + x[3] * z3 - 5,
         {0: x[4] + x[5] * z4, 1: x[4] - 1, 2: x[0] * Fraction(1, 2)}),
        # two linear terms that cancel to zero, and one that survives
        (x[0] + x[1] + x[2], {0: x[4] - x[5], 1: x[5] - x[4]}),
        (x[0] * z3 - x[1] * z3, {0: x[2] + x[3] * z4, 1: x[2] + x[3] * z4}),
        # a substitution by zero, and by a constant
        (x[0] * x[1] + x[2], {0: Poly.zero(4), 2: Poly.const(z3)}),
        (Poly.zero(3), {0: x[1] * z4}),
    ]
    for _ in range(30):
        f = Poly.zero(rng.choice([1, 3]))
        for _ in range(rng.randint(1, 6)):
            mono = Poly.const(random_cyc(rng, (1, 3, 4)) + 1)
            for _ in range(rng.randint(0, 3)):
                mono = mono * x[rng.randrange(4)]
            f = f + mono
        sub = {v: Poly.const(random_cyc(rng, (1, 2, 4, 3)))
               + x[rng.randrange(6)] * random_cyc(rng, (1, 4))
               + x[rng.randrange(6)]
               for v in rng.sample(range(4), rng.randint(0, 4))}
        cases.append((f, sub))
    for f, sub in cases:
        got, want = f.substitute(sub), substitute_by_expansion(f, sub)
        assert got == want and got.order == want.order
        assert got.to_str() == want.to_str()
        assert all(not c.is_zero() and c.order == got.order
                   for c in got.terms.values())
    assert cases[1][0].substitute(cases[1][1]) == x[2]
    assert cases[2][0].substitute(cases[2][1]).is_zero()
    assert (x[0] + x[1]).substitute({1: -x[0]}).is_zero()
    # a repeated monomial keeps its first place, in the linear path and
    # in the general one
    got = (x[0] + x[1]).substitute({0: x[2] + x[3], 1: x[4] + x[2]})
    assert list(got.terms) == [((2, 1),), ((3, 1),), ((4, 1),)]
    got = (x[0] ** 2 + x[1]).substitute({0: x[2] + x[3], 1: x[3] * x[2]})
    assert list(got.terms) == [((2, 2),), ((2, 1), (3, 1)), ((3, 2),)]
