"""Characters of finite abelian groups, with exact root-of-unity values.

A character is stored as a tuple of integer exponents: chi(g) = z^e_g where
z is a primitive N-th root of unity and N the group exponent. Arithmetic on
characters is then exact integer arithmetic mod N.
"""

from dataclasses import dataclass

from .cyclotomic import CycNum
from .errors import NotAbelian, NotAGroup
from .semigroups import analyze, element_order, group_exponent


@dataclass(frozen=True)
class Character:
    order: int  # cyclotomic order N
    exps: tuple  # exps[g] with chi(g) = z^exps[g]

    def value(self, g):
        return CycNum.root_of_unity(self.order, self.exps[g])

    def __call__(self, g):
        return self.value(g)

    def is_trivial(self):
        return all(e == 0 for e in self.exps)

    def conj(self):
        return Character(self.order,
                         tuple((-e) % self.order for e in self.exps))

    def is_real(self):
        return self == self.conj()

    def kernel(self):
        return frozenset(g for g, e in enumerate(self.exps) if e == 0)

    def times(self, other):
        if other.order != self.order:
            raise ValueError("character orders differ")
        return Character(self.order,
                         tuple((a + b) % self.order
                               for a, b in zip(self.exps, other.exps)))


def _close(G, values, g, N):
    """Extend values (element -> exponent mod N), a homomorphism on a
    subgroup H of the abelian G plus a value at g, in place along the
    edges s -> s*g, checking values[s*g] = values[s] + values[g] on each.
    Returns the map on H<g>, or None on a conflict. Each element of H<g>
    is some a*g^i with a in H, and the checks give it a + i*values[g]
    whichever way it is written, so the map is a homomorphism."""
    queue, x = list(values), values[g]
    for s in queue:
        p, e = G.table[s][g], (values[s] + x) % N
        if p not in values:
            values[p] = e
            queue.append(p)
        elif values[p] != e:
            return None
    return values


def _greedy_generators(G):
    """Least-index elements, each outside the subgroup spanned by the
    ones before it, until they span the abelian G."""
    gens = []
    span = {G.identity: 0}
    while len(span) < G.n:
        gens.append(min(s for s in range(G.n) if s not in span))
        # modulo 1 every value is 0 and no edge conflicts
        span = _close(G, span | {gens[-1]: 0}, gens[-1], 1)
    return gens


def character_group(G):
    """All characters of a finite abelian group, trivial character first.

    The order is deterministic: characters are sorted by their exponent
    tuples on the greedy generating sequence.
    """
    rep = analyze(G)
    if not rep.is_group:
        raise NotAGroup("character group needs a group")
    if not rep.is_commutative:
        raise NotAbelian("character group needs an abelian group")
    N = group_exponent(G)
    gens = _greedy_generators(G)
    found = []

    def assign(i, exps):
        if i == len(gens):
            if len(exps) == G.n:
                found.append(tuple(exps[g] for g in range(G.n)))
            return
        g = gens[i]
        k = element_order(G, g)
        step = N // k
        for t in range(k):
            closed = _close(G, exps | {g: t * step}, g, N)
            if closed is not None:
                assign(i + 1, closed)

    assign(0, {G.identity: 0})
    if len(found) != G.n:
        raise NotAGroup(
            f"found {len(found)} characters for a group of size {G.n}")
    found.sort(key=lambda exps: tuple(exps[g] for g in gens))
    chars = [Character(N, exps) for exps in found]
    assert chars[0].is_trivial()
    return chars


def character_pairing(G, chi, psi):
    """sum_g chi(g) * conj(psi(g)), which is |G| when equal else 0."""
    total = CycNum.zero(chi.order)
    for g in range(G.n):
        total = total + chi.value(g) * psi.value(g).conj()
    return total


def nonreal_pair_representatives(chars):
    """One representative from each conjugate pair of non-real characters,
    the lexicographically earlier one in the given listing."""
    reps = []
    seen = set()
    for i, chi in enumerate(chars):
        if i in seen or chi.is_real():
            continue
        j = next(k for k, psi in enumerate(chars) if psi == chi.conj())
        seen.add(i)
        seen.add(j)
        reps.append(chi)
    return reps
