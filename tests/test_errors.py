"""The exact integer and boolean field kinds."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chitomo.errors import ValidationError, boolean, converted, integer


@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_integer_accepts_exact_integers(value):
    got = integer(value)
    assert got == 2 and type(got) is int
    assert integer(10**400) == 10**400  # beyond the float range, still exact


@pytest.mark.parametrize("value", [2.5, "2", True, math.nan, math.inf, None, [2]])
def test_integer_refuses_what_int_would_coerce(value):
    with pytest.raises(ValidationError, match=r"^grid\.points = "):
        converted(integer, value, "grid.points")


@pytest.mark.parametrize("value", [True, False])
def test_boolean_accepts_json_booleans(value):
    assert boolean(value) is value


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_boolean_refuses_everything_else(value):
    with pytest.raises(ValidationError, match="^half = "):
        converted(boolean, value, "half")
