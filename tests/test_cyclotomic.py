import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from frobdet.cyclotomic import CycNum, cyclotomic_polynomial, parse_cyc
from frobdet.errors import OutOfRange, ParseError


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_small_values():
    # hand expansions
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod over d|N of Phi_d equals x^N - 1
    for n in range(1, 101):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (n + 1)
        expected[0] = -1
        expected[n] = 1
        assert prod == expected, n


def test_cyclotomic_order_range():
    with pytest.raises(OutOfRange):
        cyclotomic_polynomial(0)
    with pytest.raises(OutOfRange):
        cyclotomic_polynomial(10001)


def test_root_of_unity_basics():
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        z = CycNum.root_of_unity(n)
        assert z ** n == CycNum.one(n)
        for k in range(1, n):
            assert not (z ** k == CycNum.one(n)) or (k % n == 0) or n == 1 or \
                gcd(k, n) != 1  # primitive root has exact order n
        # z^k * z^j = z^(k+j)
        for k in range(n):
            for j in range(n):
                assert CycNum.root_of_unity(n, k) * CycNum.root_of_unity(n, j) \
                    == CycNum.root_of_unity(n, k + j)


def test_zeta4_is_i():
    i = CycNum.root_of_unity(4)
    assert i * i == CycNum.from_rational(-1, 4)
    assert i.conj() == i ** 3
    assert (i * i.conj()) == CycNum.one(4)


def test_zeta3_sum():
    z = CycNum.root_of_unity(3)
    assert CycNum.one(3) + z + z * z == CycNum.zero(3)


def test_arithmetic_properties_random():
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 8, 12):
        vals = []
        for _ in range(6):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            v = CycNum.zero(n)
            for k, c in enumerate(coeffs):
                v = v + CycNum.root_of_unity(n, k) * c
            vals.append(v)
        for a in vals[:3]:
            for b in vals[3:]:
                assert a * b == b * a
                assert (a + b) - b == a
        a, b, c = vals[0], vals[1], vals[2]
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverse_random():
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 8, 12):
        for _ in range(8):
            v = CycNum.zero(n)
            for k in range(min(n, 4)):
                v = v + CycNum.root_of_unity(n, k) * rng.randint(-3, 3)
            if v.is_zero():
                continue
            w = v.inverse()
            assert v * w == CycNum.one(n)
            assert v / v == CycNum.one(n)


def test_inverse_of_a_root_of_unity_is_its_conjugate():
    for n in (3, 4, 5, 8, 12, 16, 32, 105):
        for k in (1, n - 1, n // 2 + 1):
            z = CycNum.root_of_unity(n, k)
            assert z.inverse() == CycNum.root_of_unity(n, -k) == z.conj()
        half = CycNum.root_of_unity(n) * Fraction(-1, 2)
        assert half.inverse() == CycNum.root_of_unity(n, -1) * -2


def test_conj_is_involution_and_norm():
    rng = random.Random(13)
    for n in (3, 4, 5, 7, 8, 9, 12):
        for _ in range(5):
            v = CycNum.zero(n)
            for k in range(3):
                v = v + CycNum.root_of_unity(n, rng.randrange(n)) * rng.randint(-2, 2)
            assert v.conj().conj() == v
        # norm of a pure root of unity is exactly 1
        for k in range(n):
            r = CycNum.root_of_unity(n, k)
            assert r * r.conj() == CycNum.one(n)
    # the norm of a rational is its square, nonnegative
    q = CycNum.from_rational(Fraction(-3, 2), 6)
    assert (q * q.conj()).as_fraction() == Fraction(9, 4)


def test_embedding_commutes_with_arithmetic():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 6])
        m = n * rng.choice([2, 3])
        a = CycNum.root_of_unity(n, rng.randrange(n)) * rng.randint(-3, 3) + \
            CycNum.from_rational(rng.randint(-2, 2), n)
        b = CycNum.root_of_unity(n, rng.randrange(n)) + rng.randint(-2, 2)
        assert (a * b).embed(lcm(n, m)) == a.embed(m) * b.embed(lcm(n, m))
        assert (a + b).embed(m) == a.embed(m) + b.embed(m)


def test_embed_rejects_nondivisor():
    with pytest.raises(OutOfRange):
        CycNum.root_of_unity(4).embed(6)


def test_cross_order_equality():
    assert CycNum.root_of_unity(6, 3) == CycNum.from_rational(-1, 1)
    assert CycNum.root_of_unity(4, 2) == CycNum.from_rational(-1, 2)
    assert CycNum.one(12) == CycNum.one(1)


def test_rationality():
    z = CycNum.root_of_unity(5)
    s = z + z ** 2 + z ** 3 + z ** 4
    assert s.is_rational() and s.as_fraction() == -1
    with pytest.raises(OutOfRange):
        z.as_fraction()


def test_string_round_trip():
    cases = [
        CycNum.from_rational(Fraction(1, 2), 4) * CycNum.root_of_unity(4, 1) ** 2
        + CycNum.from_rational(-3, 4),
        CycNum.root_of_unity(8, 3),
        CycNum.zero(6),
        CycNum.from_rational(Fraction(-7, 3), 1),
        CycNum.root_of_unity(12, 5) * Fraction(2, 5) - CycNum.root_of_unity(12, 1),
    ]
    for v in cases:
        s = v.to_str()
        back = parse_cyc(s, v.order)
        assert back == v, (s, v.order)


def test_string_examples():
    # spec form: slash-separated rationals, caret powers
    v = CycNum.from_rational(Fraction(1, 2), 4)
    i2 = CycNum.root_of_unity(4) ** 2  # equals -1, collapses to the constant
    assert (v + i2).to_str() == "-1/2"
    w = CycNum.root_of_unity(8) ** 2 * Fraction(1, 2) - 3
    assert w.to_str() == "1/2*z^2-3"
    assert parse_cyc("1/2*z^2-3", 8) == w
    assert CycNum.zero(3).to_str() == "0"
    assert parse_cyc("0", 5) == CycNum.zero(5)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_cyc("", 4)
    with pytest.raises(ParseError):
        parse_cyc("z^", 4)
    with pytest.raises(ParseError):
        parse_cyc("z", 1)
    with pytest.raises(ParseError):
        parse_cyc("1//2", 4)
    with pytest.raises(ParseError):
        parse_cyc("x0", 4)


# A Fraction-coordinate oracle: schoolbook products reduced by long
# division by the monic Phi_N, as the representation stood before values
# were stored as integer numerators over one denominator.

ORDERS = (1, 2, 3, 4, 5, 8, 9, 12, 15, 105)


def oracle_reduce(coeffs, order):
    """Coordinates of sum(coeffs[k] * z^k) mod Phi_order, as Fractions."""
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    out = [Fraction(c) for c in coeffs] + [Fraction(0)] * max(0, d - len(coeffs))
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for j, y in enumerate(phi):
                out[k - d + j] -= c * y
    return out[:d]


def oracle_coords(v):
    return [Fraction(x, v.den) for x in v.nums]


def oracle_at(v, order):
    """v's coordinates embedded at a multiple of its order."""
    step = order // v.order
    coeffs = [Fraction(0)] * order
    for j, c in enumerate(oracle_coords(v)):
        coeffs[(j * step) % order] += c
    return oracle_reduce(coeffs, order)


def oracle_mul(a, b, order):
    x, y = oracle_at(a, order), oracle_at(b, order)
    conv = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            conv[i + j] += p * q
    return oracle_reduce(conv, order)


def oracle_conj(v):
    n = v.order
    coeffs = [Fraction(0)] * n
    for j, c in enumerate(oracle_coords(v)):
        coeffs[(n - j) % n] += c
    return oracle_reduce(coeffs, n)


def oracle_str(coords):
    """The canonical string from Fraction coordinates."""
    def rat(q):
        return str(q.numerator) if q.denominator == 1 else \
            f"{q.numerator}/{q.denominator}"
    parts = []
    for j in range(len(coords) - 1, -1, -1):
        c = coords[j]
        if c == 0:
            continue
        if j == 0:
            body = rat(abs(c))
        else:
            mono = "z" if j == 1 else f"z^{j}"
            body = mono if abs(c) == 1 else f"{rat(abs(c))}*{mono}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def check_canonical(v):
    assert all(type(x) is int for x in v.nums)
    assert type(v.den) is int and v.den > 0
    assert gcd(v.den, *v.nums) == 1
    assert len(v.nums) == len(cyclotomic_polynomial(v.order)) - 1
    if not any(v.nums):
        assert v.den == 1
    return v


def random_value(rng, order):
    d = len(cyclotomic_polynomial(order)) - 1
    coords = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 35]))
              if rng.random() < 0.7 else 0 for _ in range(d)]
    return check_canonical(CycNum(order, coords))


def test_operations_match_fraction_oracle():
    rng = random.Random(23)
    pairs = [(n, n) for n in ORDERS] + [(3, 4), (1, 8), (2, 9), (5, 3),
                                        (15, 105), (12, 8), (4, 1)]
    for n, m in pairs:
        order = lcm(n, m)
        for _ in range(6):
            a, b = random_value(rng, n), random_value(rng, m)
            assert CycNum(n, oracle_coords(a)) == a
            want_sum = [x + y for x, y in zip(oracle_at(a, order),
                                              oracle_at(b, order))]
            want_diff = [x - y for x, y in zip(oracle_at(a, order),
                                               oracle_at(b, order))]
            for got, want in [(a + b, want_sum), (a - b, want_diff),
                              (a * b, oracle_mul(a, b, order)),
                              (a.embed(order), oracle_at(a, order)),
                              (b.embed(order), oracle_at(b, order)),
                              (a.conj(), oracle_conj(a)),
                              (-a, [-c for c in oracle_coords(a)]),
                              (a * Fraction(-5, 6),
                               [c * Fraction(-5, 6) for c in oracle_coords(a)]),
                              (a * 0, [0] * len(a.nums)),
                              (a - a, [0] * len(a.nums))]:
                check_canonical(got)
                assert oracle_coords(got) == want
                assert got.to_str() == oracle_str(want)
                assert list(got.coords) == want
            assert (a == b) == (want_diff == [0] * len(want_diff))
            assert a.is_zero() == (not any(oracle_coords(a)))
            assert a.is_rational() == (not any(oracle_coords(a)[1:]))


def test_integer_and_fraction_coordinates_give_one_value():
    for order in ORDERS:
        d = len(cyclotomic_polynomial(order)) - 1
        ints = [(-1) ** k * k for k in range(d)]
        a = CycNum(order, ints)
        b = CycNum(order, [Fraction(2 * c, 2) for c in ints])
        assert check_canonical(a).den == 1 and a == b and a.nums == b.nums
        half = CycNum(order, [Fraction(c, 2) for c in ints])
        assert check_canonical(half) * 2 == a
        assert (half + half).den == 1
        zero = CycNum(order, [Fraction(0, 7)] * d)
        assert check_canonical(zero).den == 1 and zero == CycNum.zero(order)
    q = CycNum.from_rational(Fraction(-6, 4), 12)
    assert (q.nums[0], q.den) == (-3, 2) and q == Fraction(-3, 2)
    assert q != Fraction(3, 2) and q != -1 and CycNum.one(5) == 1


def test_arithmetic_builds_no_fraction(monkeypatch):
    # values are integer numerators over one denominator: sums, products,
    # inverses, embedding, conjugation, comparison and printing need no
    # Fraction
    rng = random.Random(31)
    a, b = random_value(rng, 12), random_value(rng, 12)
    c = random_value(rng, 4)
    r = CycNum.from_rational(-3, 12)
    expected = [a * b, a + b, a - b, a * c, a + c, a.embed(24), a.conj(),
                a * 3, a == b, a == c, a.is_zero(), a.is_one(), a.to_str(),
                a.inverse(), r.inverse()]

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built in cyclotomic arithmetic")
    monkeypatch.setattr(Fraction, "__new__", refuse)
    got = [a * b, a + b, a - b, a * c, a + c, a.embed(24), a.conj(),
           a * 3, a == b, a == c, a.is_zero(), a.is_one(), a.to_str(),
           a.inverse(), r.inverse()]
    monkeypatch.undo()
    assert got == expected
