"""Every library error survives a pickle round trip with its type, message
and fields: that is how an error raised in a worker process reaches the caller."""

import inspect
import pickle

import pytest

import corrsel.errors as errors

_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]

# one value of each type an error's __init__ takes
_SAMPLES = {int: 7, str: "bug"}


def _instance(cls):
    if cls.__init__ is Exception.__init__:
        return cls("a message")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*(_SAMPLES[p.annotation] for p in params))


def test_the_field_taking_errors_are_covered():
    assert {errors.CorrselError, errors.MissingColumn, errors.NonNumericCell, errors.InvalidOutcomeValue} <= set(_CLASSES)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    exc = _instance(cls)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc) and copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_missing_column_keeps_its_message_and_column():
    copy = pickle.loads(pickle.dumps(errors.MissingColumn("bug")))
    assert str(copy) == "column 'bug' not found in header"
    assert copy.column == "bug"
