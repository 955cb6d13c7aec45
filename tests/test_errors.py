"""Every package error survives pickling, as it must to leave a worker process."""

import pickle

import pytest

from threshmatch import errors

CASES = [
    errors.ThreshmatchError("something failed"),
    errors.InputError("bad flag"),
    errors.MissingColumn("x9"),
    errors.DuplicateColumn("x1"),
    errors.ParseError(3, "x1", "1,5"),
    errors.NonFiniteValue(4, "y"),
    errors.TooFewRows(5, 9),
    errors.IndexOutOfRange(30, 30),
    errors.InvalidLevel(1.5),
    errors.ArityMismatch("3 columns, model needs 4"),
    errors.DimensionMismatch("y and q must be one-dimensional"),
    errors.NumericError("overflow"),
    errors.RankDeficient(1, 2),
    errors.DegenerateCovariate(2),
    errors.StructuralError("no rows"),
    errors.SplitTooSmall(2, 4),
    errors.EmptyControlGroup(),
    errors.EmptyTreatedGroup(),
    errors.TooFewControls(1, 4),
    errors.TooManyFailures(3, 100, 0.02),
]


def test_cases_cover_every_error_class():
    classes = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.ThreshmatchError)
    }
    assert {type(exc) for exc in CASES} == classes


@pytest.mark.parametrize("split", [None, "replicate 3: rotation 0: I2"])
@pytest.mark.parametrize("exc", CASES, ids=lambda exc: type(exc).__name__)
def test_round_trip_keeps_type_message_and_attributes(exc, split):
    exc.split = split
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
    if split is not None:
        assert str(back).startswith(f"[split {split}] ")
