"""Base types shared across the package: the immutable Record and the exceptions."""

from operator import attrgetter


class Record:
    """An immutable value of one class: equality, hash and repr read the fields
    a subclass names in ``_fields`` and stores through ``self.__dict__`` in its
    ``__init__``; other attributes (caches, derived data) are not compared."""

    def __init_subclass__(cls):
        # methods bound per class over its attrgetter: no lookup or frame per call
        get, one = attrgetter(*cls._fields), len(cls._fields) == 1  # one name: no 1-tuple

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),) if one else get(self))

        cls._key = staticmethod((lambda record: (get(record),)) if one else get)
        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class CMError(Exception):
    """Base class for all errors raised by cmcalc; ``witness`` holds the
    offending input when one is known."""

    def __init__(self, message="", witness=None):
        super().__init__(message)
        self.witness = witness


class NotAGroup(CMError):
    """The given Cayley table does not define a group."""


class NotASubgroup(CMError):
    """The given element set is not a subgroup of the stated parent."""


class NotACMType(CMError):
    """The given coset subset fails the half-system condition."""


class NotAnAutomorphismOfK(CMError):
    """Right translation requested by an element outside the normalizer."""


class NotNested(CMError):
    """Operation on a pair of fields that are not nested in the context."""


class NotGaloisContext(CMError):
    """Operation requires a field whose fixing subgroup is normal."""


class InternalInconsistency(CMError):
    """An invariant that should hold by construction failed; this is a bug."""


class NoSolution(CMError):
    """The defining linear system has no solution (precondition violated)."""


class NotSerrePair(CMError):
    """A (lattice, cocharacter) pair violates one of the two pair axioms."""

    def __init__(self, message, axiom):
        super().__init__(message)
        self.axiom = axiom


class NotDefinedOverE(CMError):
    """The cocharacter is not fixed by the subgroup cutting out E."""


class FactorNotInH(CMError):
    """A cocycle factor fell outside the fixing subgroup (corrupt w-system)."""


class NotAnInteger(CMError):
    """A value that must be an int is a bool, a float or another type."""


class NotPrime(CMError):
    """Argument expected to be a rational prime."""


class NoPrimaryGenerator(CMError):
    """No (or no unique) generator congruent to 1 modulo the convention."""


class NotCoprime(CMError):
    """Ideal is not coprime to the relevant modulus."""


class BadPrime(CMError):
    """Prime of bad reduction (or p = 2) passed to a good-reduction routine."""


class WeilBoundViolation(CMError):
    """A trace a at prime power q breaks the square-root bound a^2 <= 4q."""


class RamifiedOrBadPrime(CMError):
    """Local factor intentionally not produced at this prime."""
