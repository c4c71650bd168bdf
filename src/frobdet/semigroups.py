"""Finite semigroups as explicit multiplication tables.

Elements are canonically 0-indexed; names are cosmetic labels carried along
for IO and display. The zero and identity, when they exist, are detected at
construction and stored; the structural analysis and the star map are
computed on first use and kept. Tables from outside are checked by
validate_table; tables cut from or built on checked ones inherit their
associativity and are not scanned again.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from operator import itemgetter

from .errors import (AssociativityViolation, DeclaredIdentityNotIdentity,
                     DeclaredZeroNotZero, DuplicateName, FormatError,
                     IndexOutOfRange, NotAGroup, NotInverse, ParamOutOfRange,
                     SizeOverflow, SizeTooLarge, UnknownFamily)

SIZE_CAP = 4096


@dataclass(frozen=True)
class Semigroup:
    n: int
    table: tuple  # tuple of row tuples
    names: tuple | None = None
    zero: int | None = None
    identity: int | None = None

    def mul(self, s, t):
        return self.table[s][t]

    def name_of(self, s):
        if self.names:
            return self.names[s]
        return str(s + 1)

    def elements(self):
        return range(self.n)

    def __repr__(self):
        return f"Semigroup(n={self.n}, zero={self.zero}, identity={self.identity})"

    @cached_property
    def _report(self):
        return _analysis(self)

    @cached_property
    def _star(self):
        return _weak_inverses(self)


def validate_table(table, names=None, zero=None, identity=None):
    """Check a multiplication table and build a Semigroup.

    table: sequence of n rows of n entries in range(n). Associativity is
    checked exhaustively; zero and identity are auto-detected and verified
    against any declared values.
    """
    n = len(table)
    if n == 0:
        raise FormatError("empty table")
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise FormatError(f"row {i} has {len(row)} entries, expected {n}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise IndexOutOfRange(f"entry {v!r} in row {i} outside 0..{n - 1}")
        rows.append(row)
    t = tuple(rows)
    # (s*u)*v = s*(u*v) for all v says row t[s][u] is row s read at the
    # positions of row u; with n = 1 the one product 0*0 = 0 is associative
    # and itemgetter would return a scalar
    if n > 256:
        _scan(t, range(n))
    elif n > 1:
        # row s at once, for n <= 256: the rows t[s][u], joined, against
        # the rows u, joined, with each entry x mapped to s*x by one
        # byte translation
        rows_b = [bytes(row) for row in t]
        flat = b"".join(rows_b)
        pad = bytes(256 - n)
        for s, row_s in enumerate(t):
            if (b"".join(itemgetter(*row_s)(rows_b))
                    != flat.translate(rows_b[s] + pad)):
                _scan(t, (s,))
    if names is not None:
        names = tuple(names)
        if len(names) != n:
            raise FormatError(f"{len(names)} names for {n} elements")
        if len(set(names)) != n:
            raise DuplicateName("element names are not distinct")
    S = _derived(t, names)
    if zero is not None and zero != S.zero:
        raise DeclaredZeroNotZero(f"declared zero {zero} is not a zero element")
    if identity is not None and identity != S.identity:
        raise DeclaredIdentityNotIdentity(
            f"declared identity {identity} is not an identity element")
    return S


def _scan(t, rows):
    """Raise AssociativityViolation at the first (s, u, v), with s taken
    from rows in order, where (s*u)*v != s*(u*v)."""
    compose = [itemgetter(*row) for row in t]
    for s in rows:
        row_s = t[s]
        for u, su in enumerate(row_s):
            if t[su] != compose[u](row_s):
                v = next(v for v in range(len(t))
                         if t[su][v] != row_s[t[u][v]])
                raise AssociativityViolation(s, u, v)


def _derived(rows, names=None):
    """The Semigroup on a table cut from or built on tables that were
    already checked, so that it inherits their associativity: only the
    size is checked, and the zero and identity are detected. names is a
    tuple or None."""
    n = len(rows)
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    t = tuple(map(tuple, rows))
    zero = next((z for z in range(n) if t[z] == (z,) * n
                 and all(row[z] == z for row in t)), None)
    ids = tuple(range(n))
    identity = next((e for e in ids if t[e] == ids
                     and all(row[e] == s for s, row in enumerate(t))), None)
    return Semigroup(n, t, names, zero, identity)


def _fresh_label(names, letter):
    """The shortest run of the letter that names no element yet."""
    label = letter
    while label in names:
        label += letter
    return label


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    idempotents: tuple
    is_commutative: bool
    zero: int | None
    identity: int | None
    square: tuple  # sorted elements of S*S
    is_surjective_square: bool  # S*S == S
    central_idempotents: bool
    fixed_points: tuple  # per element (left count, right count)
    group_of_units: tuple | None  # unit elements, monoids only
    is_band: bool
    is_semilattice: bool
    is_group: bool


def analyze(S):
    """Structural facts used by the factorization dispatchers, computed
    on the first call for S and kept on it."""
    return S._report


def _analysis(S):
    n, t = S.n, S.table
    idem = tuple(s for s in range(n) if t[s][s] == s)
    comm = all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))
    square = set()
    for a in range(n):
        square.update(t[a])
    central = all(t[e][a] == t[a][e] for e in idem for a in range(n))
    fixed = tuple((sum(1 for u in range(n) if t[s][u] == u),
                   sum(1 for u in range(n) if t[u][s] == u)) for s in range(n))
    units = None
    if S.identity is not None:
        e = S.identity
        units = tuple(sorted(u for u in range(n)
                             if any(t[u][v] == e and t[v][u] == e for v in range(n))))
    band = len(idem) == n
    semilattice = band and comm
    group = S.identity is not None and units is not None and len(units) == n
    return AnalysisReport(
        n=n, idempotents=idem, is_commutative=comm, zero=S.zero,
        identity=S.identity, square=tuple(sorted(square)),
        is_surjective_square=len(square) == n, central_idempotents=central,
        fixed_points=fixed, group_of_units=units, is_band=band,
        is_semilattice=semilattice, is_group=group)


def star_map(S):
    """The inverse map s -> s*; raises NotInverse unless each element has
    exactly one weak inverse. S is scanned on the first call and the
    outcome kept on it."""
    star = S._star
    if isinstance(star, str):
        raise NotInverse(star)
    return star


def _weak_inverses(S):
    """The star map as a tuple, or the NotInverse text naming the first
    element without exactly one weak inverse."""
    n, t = S.n, S.table
    star = []
    for s in range(n):
        weak = [u for u in range(n)
                if t[t[s][u]][s] == s and t[t[u][s]][u] == u]
        if len(weak) != 1:
            return f"{S.name_of(s)} has {len(weak)} weak inverses, not 1"
        star.append(weak[0])
    return tuple(star)


def subsemigroup(S, elements):
    """Restrict S to a closed subset; returns (sub, ambient_ids)."""
    elems = sorted(set(elements))
    pos = {s: i for i, s in enumerate(elems)}
    rows = []
    for a in elems:
        row = []
        for b in elems:
            p = S.table[a][b]
            if p not in pos:
                raise ParamOutOfRange(
                    f"subset not closed: {S.name_of(a)}*{S.name_of(b)} escapes")
            row.append(pos[p])
        rows.append(tuple(row))
    names = tuple(S.name_of(s) for s in elems) if S.names else None
    return _derived(rows, names), elems


def group_of_units(S):
    """The unit group of a monoid as (group Semigroup, ambient ids)."""
    if S.identity is None:
        raise NotAGroup("semigroup has no identity")
    rep = analyze(S)
    return subsemigroup(S, rep.group_of_units)


def maximal_subgroup(S, e):
    """Maximal subgroup at an idempotent e: the unit group of eSe."""
    if S.table[e][e] != e:
        raise ParamOutOfRange(f"element {e} is not idempotent")
    corner = sorted({S.table[e][S.table[s][e]] for s in range(S.n)})
    sub, ids = subsemigroup(S, corner)
    if sub.identity is None:
        raise NotAGroup("corner monoid lost its identity")
    units, unit_ids = group_of_units(sub)
    return units, [ids[i] for i in unit_ids]


def direct_product(A, B, size_cap=SIZE_CAP):
    """Componentwise product on pairs, ordered (a, b) -> a * |B| + b."""
    if A.n * B.n > size_cap:
        raise SizeOverflow(f"product size {A.n * B.n} exceeds cap {size_cap}")
    rows = [[A.table[a][c] * B.n + B.table[b][d]
             for c in range(A.n) for d in range(B.n)]
            for a in range(A.n) for b in range(B.n)]
    names = None
    if A.names or B.names:
        names = tuple(f"{A.name_of(a)}.{B.name_of(b)}"
                      for a in range(A.n) for b in range(B.n))
    return _derived(rows, names)


def adjoin_identity(S):
    """S with a new identity appended as the last element."""
    n = S.n
    rows = [list(row) + [i] for i, row in enumerate(S.table)]
    rows.append(list(range(n + 1)))
    names = S.names + (_fresh_label(S.names, "I"),) if S.names else None
    return _derived(rows, names)


def adjoin_zero(S):
    """S with a new zero appended as the last element."""
    n = S.n
    rows = [list(row) + [n] for row in S.table]
    rows.append([n] * (n + 1))
    names = S.names + (_fresh_label(S.names, "z"),) if S.names else None
    return _derived(rows, names)


def element_order(S, g):
    """Least k >= 1 with g^k = identity; NotAGroup if no power reaches it."""
    if S.identity is None:
        raise NotAGroup("no identity element")
    p, k = g, 1
    seen = set()
    while p != S.identity:
        if p in seen:
            raise NotAGroup(f"element {S.name_of(g)} generates no identity")
        seen.add(p)
        p = S.table[p][g]
        k += 1
    return k


def group_exponent(G):
    """Exponent of a finite group, cross-checked against the definition."""
    from math import lcm
    orders = [element_order(G, g) for g in range(G.n)]
    n = lcm(*orders) if orders else 1
    # the lcm of the orders must itself kill every element
    for g in range(G.n):
        p = G.identity
        for _ in range(n):
            p = G.table[p][g]
        if p != G.identity:
            raise NotAGroup("exponent computation inconsistent")
    return n


# families


def _gcd_family(n):
    if n < 1:
        raise ParamOutOfRange("gcd family needs n >= 1")
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    from math import gcd
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows[i - 1][j - 1] = gcd(i, j) - 1
    names = tuple(str(i) for i in range(1, n + 1))
    return validate_table(rows, names)


def _cyclic_nilpotent(k):
    """The monoid I, a, a^2, ..., a^(k-1), z with a^k = z."""
    if k < 1:
        raise ParamOutOfRange("cyclic_nilpotent needs k >= 1")
    n = k + 1  # identity, a..a^(k-1), zero
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    z = n - 1

    def enc(p):  # a^p for p >= 1
        return z if p >= k else p

    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == 0:
                rows[i][j] = j
            elif j == 0:
                rows[i][j] = i
            elif i == z or j == z:
                rows[i][j] = z
            else:
                rows[i][j] = enc(i + j)
    names = ["I"] + [f"a{p}" if p > 1 else "a" for p in range(1, k)] + ["zz"]
    names[-1] = "z"
    return validate_table(rows, tuple(names))


def _three_nil(bits):
    """Monoid on I, s1..sn, zp, z with si*sj = zp if B[i][j] else z."""
    b = [row.strip() for row in bits.split(",") if row.strip()] \
        if isinstance(bits, str) else [''.join('1' if v else '0' for v in row) for row in bits]
    n = len(b)
    if n == 0 or any(len(row) != n or set(row) - {"0", "1"} for row in b):
        raise ParamOutOfRange("three_nil needs a square 0/1 matrix")
    size = n + 3
    ident, zp, z = 0, n + 1, n + 2
    rows = [[z] * size for _ in range(size)]
    for j in range(size):
        rows[ident][j] = j
        rows[j][ident] = j
    for i in range(n):
        for j in range(n):
            rows[i + 1][j + 1] = zp if b[i][j] == "1" else z
    names = ("I",) + tuple(f"s{i + 1}" for i in range(n)) + ("zp", "z")
    return validate_table(rows, names)


def _rook(n):
    """Partial injective maps on n points under composition."""
    if not 1 <= n <= 3:
        raise SizeTooLarge("rook family supports n <= 3")
    maps = []
    for img in iproduct(range(n + 1), repeat=n):  # n encodes undefined
        vals = [v for v in img if v < n]
        if len(vals) == len(set(vals)):
            maps.append(img)
    maps.sort()
    idx = {m: i for i, m in enumerate(maps)}

    def compose(f, g):  # (f o g)(x) = f(g(x))
        return tuple(n if g[x] == n else f[g[x]] for x in range(n))

    rows = [[idx[compose(f, g)] for g in maps] for f in maps]
    names = tuple("".join("x" if v == n else str(v) for v in m) for m in maps)
    return validate_table(rows, names)


def _full_transform(n):
    """All self-maps of n points under composition."""
    if not 1 <= n <= 3:
        raise SizeTooLarge("full_transform family supports n <= 3")
    maps = sorted(iproduct(range(n), repeat=n))
    idx = {m: i for i, m in enumerate(maps)}

    def compose(f, g):
        return tuple(f[g[x]] for x in range(n))

    rows = [[idx[compose(f, g)] for g in maps] for f in maps]
    names = tuple("".join(str(v) for v in m) for m in maps)
    return validate_table(rows, names)


def _left_zero(n):
    if n < 1:
        raise ParamOutOfRange("left_zero needs n >= 1")
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    return validate_table([[i] * n for i in range(n)])


def _chain_semilattice(n):
    if n < 1:
        raise ParamOutOfRange("chain_semilattice needs n >= 1")
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    return validate_table([[min(i, j) for j in range(n)] for i in range(n)])


def _zmod_add(n):
    if n < 1:
        raise ParamOutOfRange("zmod_add needs n >= 1")
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_table(rows, tuple(str(i) for i in range(n)))


FAMILIES = {
    "gcd": _gcd_family,
    "cyclic_nilpotent": _cyclic_nilpotent,
    "three_nil": _three_nil,
    "rook": _rook,
    "full_transform": _full_transform,
    "left_zero": _left_zero,
    "chain_semilattice": _chain_semilattice,
    "adjoin_identity": adjoin_identity,
    "adjoin_zero": adjoin_zero,
    "zmod_add": _zmod_add,
}


def build_family(family, *params):
    """A member of a named family, built from its one parameter: the
    semigroup to extend for adjoin_identity and adjoin_zero, the 0/1 rows
    for three_nil (text such as "10,01"), and for every other family an
    integer, given as an int or as its decimal text."""
    if family not in FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    if len(params) != 1:
        raise ParamOutOfRange(
            f"family {family} takes one parameter, got {len(params)}")
    (param,) = params
    if family not in ("three_nil", "adjoin_identity", "adjoin_zero"):
        if isinstance(param, str) and re.fullmatch("-?[0-9]+", param):
            param = int(param)
        elif not isinstance(param, int) or isinstance(param, bool):
            raise ParamOutOfRange(
                f"family {family} takes an integer parameter, got {param!r}")
    return FAMILIES[family](param)


def enumerate_commutative(n):
    """All commutative semigroup tables on 0..n-1, raw (no isomorphism
    collapsing), by filtering symmetric tables for associativity."""
    if n > 4:
        raise SizeTooLarge("exhaustive commutative enumeration supports n <= 4")
    if n < 1:
        raise ParamOutOfRange("need n >= 1")
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    out = []
    for assign in iproduct(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, assign):
            t[i][j] = v
            t[j][i] = v
        ok = True
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                ok = False
                break
        if ok:
            out.append(validate_table(t))
    return out


# .sgp text format


def parse_sgp(text):
    """Parse the .sgp semigroup format.

    Lines: optional comments starting with '#' anywhere; 'n <size>';
    optional 'elements <names...>'; 'table' followed by n rows of n entries
    (names if declared, else 1-based indices); optional 'zero <name-or-index>'
    and 'identity <name-or-index>'.
    """
    lines = [ln.strip() for ln in text.replace("\r\n", "\n").split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else None

    if peek() is None or not peek().startswith("n "):
        raise FormatError("expected 'n <size>' line")
    try:
        n = int(lines[pos].split()[1])
    except (IndexError, ValueError):
        raise FormatError(f"bad size line {lines[pos]!r}")
    if n < 1:
        raise FormatError("size must be positive")
    if n > SIZE_CAP:
        raise SizeOverflow(f"size {n} exceeds cap {SIZE_CAP}")
    pos += 1
    names = None
    index = {}
    if peek() is not None and peek().startswith("elements"):
        names = tuple(lines[pos].split()[1:])
        if len(names) != n:
            raise FormatError(f"{len(names)} names for {n} elements")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != n:
            raise DuplicateName("element names are not distinct")
        pos += 1

    def resolve(tok):
        if tok in index:
            return index[tok]
        if tok.isdecimal():
            v = int(tok)
            if 1 <= v <= n and names is None:
                return v - 1
        raise FormatError(f"unknown element {tok!r}")

    if peek() != "table":
        raise FormatError("expected 'table' line")
    pos += 1
    rows = []
    for _ in range(n):
        if peek() is None:
            raise FormatError("table has too few rows")
        toks = lines[pos].split()
        if len(toks) != n:
            raise FormatError(f"table row {lines[pos]!r} has {len(toks)} entries")
        rows.append([resolve(t) for t in toks])
        pos += 1
    zero = identity = None
    while peek() is not None:
        toks = lines[pos].split()
        if toks[0] == "zero" and len(toks) == 2:
            zero = resolve(toks[1])
        elif toks[0] == "identity" and len(toks) == 2:
            identity = resolve(toks[1])
        else:
            raise FormatError(f"unexpected line {lines[pos]!r}")
        pos += 1
    return validate_table(rows, names, zero, identity)


def emit_sgp(S):
    """Canonical .sgp text for S; parse(emit(S)) round-trips bytewise."""
    out = [f"n {S.n}"]
    if S.names:
        out.append("elements " + " ".join(S.names))
    out.append("table")
    for row in S.table:
        out.append(" ".join(S.name_of(v) for v in row))
    if S.zero is not None:
        out.append(f"zero {S.name_of(S.zero)}")
    if S.identity is not None:
        out.append(f"identity {S.name_of(S.identity)}")
    return "\n".join(out) + "\n"
