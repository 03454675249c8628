"""Exception hierarchy.

Two broad families matter to callers: problems with input data or files
(``DataError``) and problems arising during computation on otherwise valid
inputs (``ComputationError``). The CLI maps these onto distinct exit codes.
"""


class CorrselError(Exception):
    """Base class for all library errors.

    Every subclass survives a pickle round trip with its type, message and
    attributes, so an error raised in a worker process reaches its caller
    intact. The copy is rebuilt without calling ``__init__``, which for some
    subclasses takes fields, not the message.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class DataError(CorrselError):
    """Invalid input data, file contents, or configuration."""


class ComputationError(CorrselError):
    """A computation could not proceed on the given (structurally valid) inputs."""


# -- data / ingestion -------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in header")
        self.column = column


class NonNumericCell(DataError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: {value!r} is not a finite number")
        self.row = row
        self.column = column
        self.value = value


class InvalidOutcomeValue(DataError):
    def __init__(self, row: int, value: str):
        super().__init__(
            f"row {row}: outcome {value!r} not one of 0/1 or clean/defective"
        )
        self.row = row
        self.value = value


class MalformedCsv(DataError):
    """Not UTF-8 text, a field over the csv module's size limit, or a row not of the header's width."""


class EmptyDataset(DataError):
    pass


class InvalidSpec(DataError):
    pass


class ConfigError(DataError):
    pass


# -- computation ------------------------------------------------------------

class EmptyTestSet(ComputationError):
    """A bootstrap split of a one-row dataset: every draw takes that row, so
    no split has a test side. Other draws that take every row are redrawn."""


class LengthMismatch(ComputationError):
    pass


class TooFewValues(ComputationError):
    pass


class DegenerateOutcome(ComputationError):
    """A supervised operation needs both outcome classes present."""


class DimensionMismatch(ComputationError):
    pass


class SingleClass(ComputationError):
    """AUC is undefined when only one label class is present."""


class UnsupportedSelector(ComputationError):
    pass
