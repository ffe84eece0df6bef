"""Seed coverage: whether stated error bars match the scatter of estimates
about the truth over many seeded draws, within a stated bound."""
from __future__ import annotations

import math

import numpy as np


def square_pulls(estimate, truth, stderr) -> np.ndarray:
    """|estimate - truth|^2 / stderr^2, flat, at each cell whose stderr is
    nonzero; estimate and truth may be real or complex."""
    keep = np.asarray(stderr) != 0
    return (np.abs(np.asarray(estimate) - truth)[keep] / np.asarray(stderr)[keep]) ** 2


def assert_errors_cover(pulls, independent: int, sigmas: float = 5.0) -> float:
    """Assert that the mean of the square pulls is 1 within sigmas standard
    errors of that mean, and return the mean.

    The mean is 1 when each stderr is the error's root-mean-square. Over
    independent pulls its standard error is at most sqrt(2 / independent):
    a real Gaussian error's square pull is chi-squared with one degree of
    freedom, variance 2, and a complex one's, its parts independent, has
    variance between 1 and 2. independent is the number of independent
    pulls among them; a filled grid, for one, repeats each at xi and -xi.
    """
    mean = float(np.mean(pulls))
    bound = sigmas * math.sqrt(2.0 / independent)
    assert abs(mean - 1.0) <= bound, f"mean square pull {mean:.4f}, 1 +- {bound:.4f}"
    return mean
