"""Arithmetic modulo a large prime p = 1 (mod N): a primality test, the
seeded choice of p, the fixed seed-free primes of exact cyclotomic
determinants, and a primitive N-th root of unity mod p, which is where
zeta_N goes when values of Q(zeta_N) are reduced mod p."""

from functools import lru_cache

MIN_PRIME = 2 ** 61
# Miller-Rabin with these bases is exact below 3.3 * 10**24.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin primality test, deterministic for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_for(order, seed, avoid=1):
    """The prime p = 1 (mod order) above MIN_PRIME that seed chooses: the
    first from a start in [MIN_PRIME, 2 * MIN_PRIME) fixed by seed that
    does not divide avoid."""
    start = MIN_PRIME + seed * 0x9E3779B97F4A7C15 % MIN_PRIME
    p = (start // order + 1) * order + 1
    while not is_prime(p) or avoid % p == 0:
        p += order
    return p


def root_of_unity(order, p):
    """The primitive order-th root of unity mod p found first among
    g^((p-1)/order) for g = 2, 3, ...; order must divide p - 1."""
    primes, m, q = [], order, 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    g = 2
    while True:
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in primes):
            return w
        g += 1


@lru_cache(maxsize=None)
def fixed_prime(order, i):
    """The i-th (from 0) of the seed-free primes p = 1 (mod order) above
    MIN_PRIME, and its primitive order-th root of unity mod p: the primes
    prime_for chooses at seed 0, each avoiding the ones before it."""
    avoid = 1
    for j in range(i):
        avoid *= fixed_prime(order, j)[0]
    p = prime_for(order, 0, avoid)
    return p, root_of_unity(order, p)
