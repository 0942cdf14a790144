"""Exception types shared across the library."""


class SkewLatticeError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SkewLatticeError):
    pass


class EntryOutOfRange(SkewLatticeError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"entry {value} at {index} out of range")


class CapExceeded(SkewLatticeError):
    pass


class FieldMismatch(SkewLatticeError):
    pass


class NotAPrimeField(SkewLatticeError):
    pass


class ElementOutOfRange(SkewLatticeError):
    pass


class NotACongruence(SkewLatticeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a congruence, witness {witness}")


class ArityMismatch(SkewLatticeError):
    pass


class ArityTooLarge(SkewLatticeError):
    pass


class OrderTooLarge(SkewLatticeError):
    pass


class MalformedInput(SkewLatticeError):
    """An input file (an algebra, a saved catalog) that is missing,
    unreadable or not in the expected format."""


class NotASkewLattice(SkewLatticeError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"axioms violated: {[f[0] for f in report.failures]}")


class NotIdempotent(SkewLatticeError):
    pass


class ClosureExceedsCap(SkewLatticeError):
    pass


class NotInStandardForm(SkewLatticeError):
    pass


class InconsistentCosetData(SkewLatticeError):
    pass


class InternalInconsistency(SkewLatticeError):
    """Two independent computations of the same fact disagreed.

    Raised only on internally-detected bugs, never on bad user input.
    """
