"""Exception types shared by all umebkit modules."""


class UmebkitError(ValueError):
    """Base class for every error raised by this package."""


class NotPrime(UmebkitError):
    """Parameter expected to be prime is not."""


class WrongResidueClass(UmebkitError):
    """Prime is outside the residue class the construction needs."""


class OutOfRange(UmebkitError):
    """Integer argument outside its documented range."""


class BadResidueClass(UmebkitError):
    """Paley construction given a prime in the wrong class mod 4."""


class UnsupportedOrder(UmebkitError):
    """No available strategy builds a Hadamard matrix of this order."""


class ShapeMismatch(UmebkitError):
    """Operands have incompatible shapes."""


class NotSquare(UmebkitError):
    """Operation requires a square matrix."""


class RankOutOfRange(UmebkitError):
    """Projection rank r must satisfy 1 <= r < d."""


class IndexOutOfRange(UmebkitError):
    """Support index of the residue construction outside 1..p-1."""


class HadamardOrderMismatch(UmebkitError):
    """Hadamard order does not equal (p+1)/2 for the requested prime."""


class NotOrthogonal(UmebkitError):
    """Basis vectors fed to a projection builder are not pairwise orthogonal."""


class Infeasible(UmebkitError):
    """No unit-modulus phase exists for this rank/dimension pair."""


class NotCertified(UmebkitError):
    """Unitary family has not passed the symmetric-span certificate."""


class MalformedArtifact(UmebkitError):
    """JSON artifact field has the wrong type or an impossible value."""


class NotReal(UmebkitError):
    """A stack or a family's bases that must be real are complex."""
