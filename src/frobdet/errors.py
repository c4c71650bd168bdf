"""Domain errors raised by the library.

Every error carries a message naming the offending data; the CLI maps any
FrobdetError to exit code 1.
"""


class FrobdetError(Exception):
    pass


class NotApplicable(FrobdetError):
    """A factorization theorem does not apply to the input. `factor`
    catches it around each factorizer call and tries its next route;
    every other error propagates."""


# table construction and IO

class AssociativityViolation(FrobdetError):
    def __init__(self, s, t, u, msg=None):
        self.triple = (s, t, u)
        super().__init__(msg or f"associativity fails at ({s}, {t}, {u})")


class IndexOutOfRange(FrobdetError):
    pass


class DuplicateName(FrobdetError):
    pass


class DeclaredZeroNotZero(FrobdetError):
    pass


class DeclaredIdentityNotIdentity(FrobdetError):
    pass


class SizeOverflow(FrobdetError):
    pass


class UnknownFamily(FrobdetError):
    pass


class ParamOutOfRange(FrobdetError):
    pass


class SizeTooLarge(FrobdetError):
    pass


class FormatError(FrobdetError):
    """Malformed .sgp or cocycle text."""


# exact algebra

class OutOfRange(FrobdetError):
    pass


class DimensionCap(FrobdetError):
    pass


class MissingVariable(FrobdetError):
    pass


class NotAGroup(FrobdetError):
    pass


class NotAbelian(FrobdetError):
    pass


class ParseError(FrobdetError):
    pass


# order and Moebius

class ModeHypothesisFailed(FrobdetError):
    pass


class NotSemilattice(FrobdetError):
    pass


class NotAPartialOrder(FrobdetError):
    pass


# determinant engine

class NoZero(FrobdetError):
    pass


class CocycleDomainMismatch(FrobdetError):
    pass


class RepDimensionMismatch(FrobdetError):
    pass


class NotMultiplicative(FrobdetError):
    pass


class NotAbelianWithoutReps(FrobdetError):
    pass


class VerificationFailed(FrobdetError):
    pass


# inverse semigroups and groupoids

class NotInverse(NotApplicable):
    pass


class NotClifford(FrobdetError):
    pass


class NonabelianWithoutReps(NotApplicable):
    pass


# nilpotent-adjoined monoids

class NotNilpotentAdjoined(NotApplicable):
    pass


class CocycleInvalid(FrobdetError):
    pass


# commutative pipeline

class NotIdempotentSemigroup(FrobdetError):
    pass


class IdempotentsNotCentral(FrobdetError):
    pass


class NotLocalShape(NotApplicable):
    pass


class NotCommutative(NotApplicable):
    pass


class NotChain(FrobdetError):
    pass
