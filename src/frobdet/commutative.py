"""The commutative factorization pipeline.

A finite commutative semigroup with S.S = S splits along its idempotents:
each element s has a least idempotent identity s+, the class of a given
idempotent e is H_e = {s : s+ = e}, and the Rees quotient H_e0 of eSe by
the elements below e is a local monoid whose units form the group G_e and
whose nonunits are all nilpotent. The determinant of S is the product of
the contracted determinants of these local pieces after the Mobius change
of variables, and each local piece factors through the characters of its
unit group: for a character chi the unit orbits whose stabilizer chi kills
form a twisted nilpotent quotient monoid, and the factor is a power of the
chi-average over the annihilating orbit.
"""

from dataclasses import dataclass
from fractions import Fraction

from .characters import character_group, nonreal_pair_representatives
from .cyclotomic import CycNum
from .errors import (IdempotentsNotCentral, NotChain, NotCommutative,
                     NotIdempotentSemigroup, NotLocalShape)
from .factorization import Factorization, _monic
from .linalg import cyc_det
from .nilpotent import (Cocycle, analyze_nilpotent, annihilator_matrix,
                        first_non_nilpotent)
from .poly import Poly
from .posets import forms_of, natural_order, splus_map
from .semigroups import (analyze, group_of_units, validate_table,
                         _fresh_label)


@dataclass(frozen=True)
class SplusDecomposition:
    splus: tuple  # per element, its least idempotent identity
    order: object  # FinitePoset, s <= t iff s = t s+
    classes: dict  # idempotent e -> elements with s+ = e
    ideals: dict  # idempotent e -> elements with s+ strictly below e
    local_monoids: dict  # e -> (local monoid, ambient ids, None for its zero)


def splus_decompose(S):
    """Split S along least idempotent identities into local pieces.

    Needs S.S = S and central idempotents. Each local piece is the class
    H_e with a zero adjoined that absorbs every product falling outside;
    when the ideal below e is empty that zero is genuinely new, otherwise
    it stands for the collapsed ideal.
    """
    rep = analyze(S)
    if not rep.is_surjective_square:
        missing = sorted(set(range(S.n)) - set(rep.square))
        raise NotIdempotentSemigroup(
            "the products S.S miss "
            + ", ".join(S.name_of(s) for s in missing))
    if not rep.central_idempotents:
        raise IdempotentsNotCentral("an idempotent fails to commute")
    splus = splus_map(S)
    order = natural_order(S, "central_idempotent")
    n, t = S.n, S.table
    # the order is compatible with multiplication on either side
    for a in range(n):
        for b in range(n):
            if a != b and order.leq[a][b]:
                for u in range(n):
                    assert order.leq[t[a][u]][t[b][u]], \
                        "natural order is not right compatible"
                    assert order.leq[t[u][a]][t[u][b]], \
                        "natural order is not left compatible"
    classes = {e: tuple(s for s in range(n) if splus[s] == e)
               for e in rep.idempotents}
    for e, members in classes.items():
        assert tuple(s for s in members if t[s][s] == s) == (e,), \
            "a class holds an idempotent other than its own"
    ideals = {e: tuple(s for s in range(n)
                       if splus[s] != e and t[splus[s]][e] == splus[s])
              for e in rep.idempotents}
    local_monoids = {}
    for e, members in classes.items():
        pos = {s: i for i, s in enumerate(members)}
        z = len(members)
        table = [[pos.get(t[a][b], z) for b in members] + [z]
                 for a in members]
        table.append([z] * (z + 1))
        names = tuple(S.name_of(s) for s in members)
        local = validate_table(table, names + (_fresh_label(names, "z"),))
        assert local.identity == pos[e] and local.zero == z
        _local_shape(local)
        local_monoids[e] = (local, tuple(members) + (None,))
    return SplusDecomposition(splus, order, classes, ideals, local_monoids)


def _local_shape(M):
    """Units of a local monoid with zero; every nonunit must be nilpotent."""
    rep = analyze(M)
    if not rep.is_commutative:
        raise NotLocalShape("multiplication is not commutative")
    if M.identity is None:
        raise NotLocalShape("no identity element")
    if M.zero is None:
        raise NotLocalShape("no zero element")
    G, unit_ids = group_of_units(M)
    if len(unit_ids) == M.n:
        raise NotLocalShape("no nonunit")
    unit_set = set(unit_ids)
    s = first_non_nilpotent(M, [s for s in range(M.n) if s not in unit_set])
    if s is not None:
        raise NotLocalShape(f"nonunit {M.name_of(s)} is not nilpotent")
    return G, unit_ids


@dataclass(frozen=True)
class CharacterRecord:
    chi: object  # the character of the unit group
    J: tuple  # rep indices whose stabilizer lies inside ker chi
    ideal: tuple  # elements of M whose stabilizer chi does not kill
    quotient: object  # Semigroup on the orbits in J plus a collapsed zero
    cocycle: object  # unit parts of rep products, pushed through chi
    annihilators: tuple  # rep indices of annihilating orbits
    annihilating: int | None  # the unique one, when unique
    A: tuple | None  # annihilator matrix rows over the J orbits
    detA: object | None  # CycNum


@dataclass(frozen=True)
class LocalSpectrum:
    units: object  # the unit group as a Semigroup
    unit_ids: tuple  # ambient ids of the units
    reps: tuple  # orbit representatives, the identity first
    orbit_of: tuple  # per element its rep index, None for the zero
    stabilizers: tuple  # per rep, the unit-local ids fixing it
    orbit_sizes: tuple
    characters: tuple
    records: tuple  # one CharacterRecord per character


def local_spectrum(M):
    """Character-by-character data for a commutative local monoid with zero.

    The unit group G acts on M by multiplication; orbit representatives are
    the identity first, then the least element of each remaining nonzero
    orbit in ascending order. For each character chi of G the orbits whose
    stabilizer lies inside ker chi form a nilpotent-adjoined quotient
    monoid carrying the cocycle chi(unit part of rep products); its
    annihilator matrix drives the factorization.
    """
    G, unit_ids = _local_shape(M)
    n, t, z = M.n, M.table, M.zero
    orbit_of = [None] * n
    reps = []
    scan = [M.identity] + [m for m in range(n) if m != M.identity]
    for m in scan:
        if m == z or orbit_of[m] is not None:
            continue
        i = len(reps)
        reps.append(m)
        for g in unit_ids:
            orbit_of[t[g][m]] = i
    assert orbit_of[z] is None
    stabilizers = tuple(
        tuple(loc for loc, amb in enumerate(unit_ids) if t[amb][m] == m)
        for m in reps)
    orbit_sizes = tuple(sum(1 for o in orbit_of if o == i)
                        for i in range(len(reps)))
    for i in range(len(reps)):
        assert orbit_sizes[i] * len(stabilizers[i]) == len(unit_ids)
    chars = character_group(G)
    records = []
    for chi in chars:
        ker = chi.kernel()
        J = tuple(i for i in range(len(reps))
                  if set(stabilizers[i]) <= ker)
        ideal = tuple(m for m in range(n)
                      if (orbit_of[m] is None and not chi.is_trivial())
                      or (orbit_of[m] is not None and orbit_of[m] not in J))
        ideal_set = set(ideal)
        for m in ideal:
            for u in range(n):
                assert t[m][u] in ideal_set, \
                    "the killed part of M is not an ideal"
        assert (len(ideal) == 0) == chi.is_trivial()
        qpos = {rep_i: qi for qi, rep_i in enumerate(J)}
        zbar = len(J)
        qtable = []
        for a in J:
            row = []
            for b in J:
                o = orbit_of[t[reps[a]][reps[b]]]
                row.append(qpos[o] if o in qpos else zbar)
            row.append(zbar)
            qtable.append(row)
        qtable.append([zbar] * (zbar + 1))
        qnames = tuple(M.name_of(reps[i]) for i in J)
        quotient = validate_table(qtable,
                                  qnames + (_fresh_label(qnames, "z"),))
        assert quotient.identity == 0 and quotient.zero == zbar
        assert quotient.n == len(J) + 1
        values = {}
        for qi, a in enumerate(J):
            for qj, b in enumerate(J):
                if qtable[qi][qj] == zbar:
                    continue
                p = t[reps[a]][reps[b]]
                target = reps[J[qtable[qi][qj]]]
                units_found = [loc for loc, amb in enumerate(unit_ids)
                               if t[amb][target] == p]
                assert units_found, "rep product left its own orbit"
                exps = {chi.exps[loc] for loc in units_found}
                assert len(exps) == 1, \
                    "cocycle value depends on the unit chosen"
                values[(qi, qj)] = chi.value(units_found[0])
        cocycle = Cocycle.for_monoid(quotient, values, order=chi.order)
        nrep = analyze_nilpotent(quotient)
        assert nrep.is_nilpotent_adjoined, nrep.reason
        ann = tuple(J[q] for q in nrep.annihilators)
        if nrep.unique_annihilator is None:
            records.append(CharacterRecord(chi, J, ideal, quotient, cocycle,
                                           ann, None, None, None))
            continue
        zp = nrep.unique_annihilator
        mat = annihilator_matrix(quotient, zp, cocycle)
        det = cyc_det(mat)
        records.append(CharacterRecord(chi, J, ideal, quotient, cocycle,
                                       ann, J[zp], tuple(map(tuple, mat)),
                                       det))
    return LocalSpectrum(G, tuple(unit_ids), tuple(reps), tuple(orbit_of),
                         stabilizers, orbit_sizes, tuple(chars),
                         tuple(records))


def factor_local(M):
    """Factor the contracted determinant of a commutative local monoid.

    One factor per character chi of the unit group: the conjugate
    chi-average over the annihilating orbit of the chi-quotient, with
    multiplicity the number of surviving orbits. Vanishes when some
    chi-quotient has no single annihilating orbit or a singular
    annihilator matrix. The constant is exact."""
    return _local_factorization(M).normalized()


def _local_factorization(M):
    """factor_local's answer before its factors are merged and sorted,
    each factor scaled to leading coefficient 1."""
    spec = local_spectrum(M)
    gsize = spec.units.n
    order = spec.characters[0].order
    dead = []
    for idx, rec in enumerate(spec.records):
        if rec.annihilating is None:
            dead.append(f"character {idx}: {len(rec.annihilators)} "
                        f"annihilating orbits instead of one")
        elif rec.detA.is_zero():
            dead.append(f"character {idx}: det A = 0")
    if dead:
        return Factorization.zero("local-monoid", notes=tuple(dead),
                                  order=order)
    prod_detA = CycNum.one()
    for rec in spec.records:
        prod_detA = prod_detA * rec.detA
    assert prod_detA.is_rational(), \
        "product of annihilator determinants must be rational"
    sign = 1
    half = set()
    for chi in nonreal_pair_representatives(spec.characters):
        half.add(chi)
    for chi, rec in zip(spec.characters, spec.records):
        if chi in half:
            sign *= (-1) ** len(rec.J)
    sizes = Fraction(sign)
    for rec in spec.records:
        for i in rec.J:
            sizes *= Fraction(spec.orbit_sizes[i], gsize)
    constant = CycNum.from_rational(sizes) * prod_detA
    constant, factors = _monic(constant, [
        (_chi_average(chi, spec.unit_ids, M.table,
                      spec.reps[rec.annihilating]), len(rec.J))
        for chi, rec in zip(spec.characters, spec.records)])
    return Factorization("factored", constant, tuple(factors),
                         "local-monoid", (f"unit group of order {gsize}, "
                                          f"{len(spec.reps)} orbits",))


def _chi_average(chi, unit_ids, table, target):
    """The conjugate chi-average over the unit orbit of target: the linear
    form sum_g conj(chi)(g) x_{g target}, g over the units."""
    conj, coeffs = chi.conj(), {}
    for loc, amb in enumerate(unit_ids):
        v = table[amb][target]
        c = conj.value(loc)
        coeffs[v] = coeffs[v] + c if v in coeffs else c
    return Poly.linear(coeffs)


def factor_commutative(S):
    """Factor the full determinant of a finite commutative semigroup.

    Zero when S.S is smaller than S. Otherwise the idempotent
    decomposition runs factor_local on every local piece and pulls the
    factors back through the Mobius forms of the natural order."""
    rep = analyze(S)
    if not rep.is_commutative:
        raise NotCommutative("multiplication table is not symmetric")
    if not rep.is_surjective_square:
        missing = sorted(set(range(S.n)) - set(rep.square))
        return Factorization.zero(
            "squared-vanishing",
            notes=("the products S.S miss "
                   + ", ".join(S.name_of(s) for s in missing),))
    dec = splus_decompose(S)
    sub = forms_of(dec.order)
    constant = CycNum.one()
    factors = []
    notes = []
    for e in sorted(dec.local_monoids):
        local, ambient = dec.local_monoids[e]
        FL = _local_factorization(local)
        if FL.status == "zero":
            return Factorization.zero(
                "commutative-pipeline",
                notes=(f"local piece at {S.name_of(e)} vanishes",)
                + FL.notes)
        constant = constant * FL.constant
        for f, m in FL.factors:
            mapped = f.substitute({v: sub[ambient[v]]
                                   for v in f.variables()})
            factors.append((mapped, m))
        notes.append(f"class of {S.name_of(e)}: size {local.n - 1}")
    return Factorization.of(constant, factors, "commutative-pipeline",
                            notes=tuple(notes))


def _binom2(k):
    return k * (k - 1) // 2


def chain_fastpath(M):
    """Closed-form factorization when the nonunits are the powers ideal Mt.

    The orbit quotients are then untwisted antidiagonal blocks, so every
    det A is a bare sign and the whole factorization is written down
    directly. It factors the contracted determinant, as factor_local
    does; the answer is not checked here."""
    G, unit_ids = _local_shape(M)
    t = M.table
    unit_set = set(unit_ids)
    nonunits = {s for s in range(M.n) if s not in unit_set}
    gen = None
    for cand in sorted(nonunits):
        if {t[m][cand] for m in range(M.n)} == nonunits:
            gen = cand
            break
    if gen is None:
        raise NotChain("the nonunits are not a principal ideal M.t")
    powers = [M.identity]
    p = gen
    while p != M.zero:
        powers.append(p)
        p = t[p][gen]
    covered = {M.zero}
    for q in powers:
        covered.update(t[g][q] for g in unit_ids)
    if len(covered) != M.n:
        raise NotChain("unit orbits of the powers of t do not cover M")
    stabs = [frozenset(loc for loc, amb in enumerate(unit_ids)
                       if t[amb][q] == q) for q in powers]
    for small, big in zip(stabs, stabs[1:]):
        assert small <= big, "stabilizers along the chain must ascend"
    chars = character_group(G)
    tops = []
    for chi in chars:
        ker = chi.kernel()
        tops.append(max(i for i, st in enumerate(stabs) if st <= ker))
    half = set(nonreal_pair_representatives(chars))
    const = Fraction(1)
    for chi, top in zip(chars, tops):
        if chi in half:
            const *= (-1) ** (top + 1)
        const *= (-1) ** _binom2(top + 1)
        for i in range(top + 1):
            const *= Fraction(1, len(stabs[i]))
    factors = [(_chi_average(chi, unit_ids, t, powers[top]), top + 1)
               for chi, top in zip(chars, tops)]
    return Factorization.of(const, factors, "chain-monoid",
                            notes=(f"chain of {len(powers)} powers",))
