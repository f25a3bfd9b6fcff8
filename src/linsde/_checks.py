"""Argument rules of the library and the command line: each returns its
value unchanged (the array rule as a float array) or raises
``ValueError("<name> must ..., got <value>")``. A bool is never a number or
a count, every number must be finite, and counts are integers."""

from __future__ import annotations

import math
import numbers

import numpy as np


def _number(value, name: str, kind, low, what: str, strict: bool = False):
    # a comparison with inf, unlike math.isfinite, takes any int
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not -math.inf < value < math.inf
            or not (value > low if strict else value >= low)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def finite(value, name: str):
    """``value`` if it is a finite real number."""
    return _number(value, name, numbers.Real, -math.inf, "a finite number")


def at_least(value, name: str, low=0):
    """``value`` if it is a finite real number >= ``low``."""
    return _number(value, name, numbers.Real, low, f"finite and at least {low}"
                   if low else "finite and non-negative")


def positive(value, name: str):
    """``value`` if it is a finite real number > 0."""
    return _number(value, name, numbers.Real, 0, "finite and positive",
                   strict=True)


def integer(value, name: str, low: int = 1):
    """``value`` if it is an integer >= ``low`` (0 or 1)."""
    return _number(value, name, numbers.Integral, low, "a positive integer"
                   if low else "a non-negative integer")


def real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array of at least one axis if every entry is a
    real number; an array is judged by its dtype, anything else entry by
    entry, since np.asarray makes floats of [True, 2.0] and ["0.5"]."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        real = value.dtype.kind in "iuf"
    else:
        real = all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in np.asarray(value, dtype=object).flat)
    if not real:
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    return np.atleast_1d(np.asarray(value, dtype=float))


def finite_array(value, name: str, shape=None) -> np.ndarray:
    """``value`` as a float array of at least one axis, with finite entries
    and the ``shape`` when one is given (a point of R^n has shape (n,))."""
    arr = real_array(value, name)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr
