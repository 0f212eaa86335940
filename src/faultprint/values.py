"""How a value checks and holds its inputs, for every layer of the package.

The integer and real-number rules raise ``ValueError`` naming the field
they refuse; frozen dataclasses that hold arrays keep read-only copies and
compare field by field.  This module imports nothing from the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(name: str, value, least: int | None = None) -> None:
    """Raise ``ValueError``, naming the field, unless ``value`` is an
    integer (see :func:`is_integer`) and, given ``least``, at least that."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_real(name: str, value, infinite_ok: bool = False) -> None:
    """The fault kinds' rule for a parameter: raise ``ValueError``, naming
    it, unless ``value`` is a real number (a bool is not one) that a float
    can hold and that is finite, or with ``infinite_ok`` above -inf (so not
    NaN)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError as exc:  # say, an int past 2**1024
        raise ValueError(f"{name} must be a real number a float can hold: {exc}") from None
    if not (value > -math.inf if infinite_ok else math.isfinite(value)):
        bound = "above -inf" if infinite_ok else "finite"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def all_finite(array) -> bool:
    """True if no entry of ``array`` is NaN or infinite: ``np.isfinite(array).all()``
    without the Python-level wrapper of ``.all()``, for checks on hot paths."""
    finite = np.isfinite(array)
    return np.count_nonzero(finite) == finite.size


def frozen_array(name: str, value) -> np.ndarray:
    """A C-ordered, read-only float copy of ``value``, so no later write to
    the caller's array reaches the value that keeps it.  ``ValueError``,
    naming the field, unless ``value`` holds integers or floats: a bool,
    string, complex or object array is refused, not coerced."""
    array = np.array(value, order="C")
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {array.dtype}")
    if isinstance(value, (list, tuple)) and _holds_bool(value):  # [True, 2.0] became floats
        raise ValueError(f"{name} must hold real numbers, got a bool among them")
    array = array.astype(float, copy=False)
    array.flags.writeable = False
    return array


def _holds_bool(value) -> bool:
    """True if a list or tuple, at any depth, holds a bool or a bool array."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, np.ndarray) and value.dtype.kind == "b"
    )


def fields_equal(self, other) -> bool:
    """``__eq__`` of a frozen dataclass with array fields: field by field,
    arrays element by element (the generated tuple comparison cannot take
    them)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for field in fields(self):
        a, b = getattr(self, field.name), getattr(other, field.name)
        if a is not b and not (
            np.array_equal(a, b)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b
        ):
            return False
    return True


def fields_hash(self) -> int:
    """``__hash__`` that agrees with :func:`fields_equal`: an array hashes by
    its shape, since equal arrays need not have equal bytes (0.0 == -0.0)."""
    return hash(tuple(
        value.shape if isinstance(value, np.ndarray) else value
        for value in (getattr(self, field.name) for field in fields(self))
    ))
