"""Exception hierarchy shared across the package."""


class MorseCellsError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MorseCellsError):
    """Bad argument values: dimension mismatches, malformed matrices, etc."""


class NoMassError(MorseCellsError):
    """All kernel weights underflowed to zero at the query point."""


class NoMaximaError(MorseCellsError):
    """No mean-shift seed converged; carries the number of seeds tried."""

    def __init__(self, seeds_attempted: int):
        self.seeds_attempted = seeds_attempted
        super().__init__(f"no convergent ascent out of {seeds_attempted} seeds")


class DegenerateTangentError(MorseCellsError):
    """Hairpin band configuration: u+ + u- is numerically zero."""


class ConstructionError(MorseCellsError):
    """A geometric construction (initial band, web sheet) is degenerate."""


class InvalidComplexError(MorseCellsError):
    """Cell complex violates closure or face-dimension rules."""


class DataError(MorseCellsError):
    """Malformed or unusable input data (files, graphs, rasters)."""


class ParseError(DataError):
    """File parse failure; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
