"""Scalar arithmetic used throughout the package.

A scalar is either exact (int or Fraction) or floating (float or complex).
Python's numeric tower already promotes exact to floating in mixed
expressions and never the other way around, so scalars are plain numbers
rather than a wrapper class.  Fraction keeps itself in lowest terms with a
positive denominator, which is exactly the normal form we want.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInput, ZeroLeadingCoefficient

Scalar = int | Fraction | float | complex

#: default relative tolerance for floating comparisons
TOLERANCE = 1e-9

_EXACT = (int, Fraction)


def is_exact(value) -> bool:
    """True for int or Fraction, False for float or complex."""
    return isinstance(value, _EXACT)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def scalars_close(a, b, tol: float | None = None) -> bool:
    """Equality with relative tolerance; exact pairs compare exactly.

    The tolerance is relative to max(1, |a|, |b|) so values near zero are
    compared absolutely.
    """
    if is_exact(a) and is_exact(b):
        return a == b
    if tol is None:
        tol = TOLERANCE
    ca, cb = complex(a), complex(b)
    scale = max(1.0, abs(ca), abs(cb))
    return abs(ca - cb) <= tol * scale


def _integral(values):
    """(ints, den) with values == ints / den, den the least common
    denominator of the exact values."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def collapse(value):
    """A Fraction with denominator 1 as an int; any other scalar unchanged."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def scalar_to_json(value):
    """Serialize: exact scalars as "p/q" strings, floating as [re, im]."""
    if isinstance(value, int):
        return f"{value}/1"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    c = complex(value)
    return [c.real, c.imag]


def scalar_from_json(obj):
    """Inverse of scalar_to_json; also accepts bare numbers for convenience."""
    if isinstance(obj, bool):
        raise InvalidInput(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        try:
            f = Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad exact scalar {obj!r}") from exc
        return collapse(f)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        if not all(isinstance(v, (int, float)) for v in (re, im)):
            raise InvalidInput(f"bad floating scalar {obj!r}")
        if im == 0:
            return float(re)
        return complex(re, im)
    raise InvalidInput(f"not a scalar: {obj!r}")


def parse_scalar(text: str):
    """Parse a scalar from command-line text.

    Accepts "3", "-2/7", "1.5", "1e-3", "2j", "1+2j" and "re,im" pairs.
    Integers and p/q strings stay exact.
    """
    text = text.strip()
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise InvalidInput(f"bad scalar {text!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise InvalidInput(f"bad scalar {text!r}") from exc
        return complex(re, im) if im != 0 else re
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad scalar {text!r}") from exc
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError as exc:
        raise InvalidInput(f"bad scalar {text!r}") from exc


def _newton_step(coeffs, x):
    # one Newton step for a polynomial given leading-first coefficients
    p = 0j
    dp = 0j
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    if dp == 0:
        return x
    return x - p / dp


def poly_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial, leading coefficient first.

    Companion-matrix eigenvalues followed by one Newton polish per root.
    Leading zeros are stripped; the effective degree may drop.
    """
    cs = [complex(c) for c in coeffs]
    scale = max((abs(c) for c in cs), default=0.0)
    if scale == 0.0:
        raise ZeroLeadingCoefficient("zero polynomial")
    while cs and abs(cs[0]) <= 1e-14 * scale:
        cs.pop(0)
    if len(cs) <= 1:
        return []
    raw = np.roots(np.array(cs, dtype=complex))
    return [complex(_newton_step(cs, complex(r))) for r in raw]


def roots_cubic(c3, c2, c1, c0) -> list[complex]:
    """Roots of c3*x**3 + c2*x**2 + c1*x + c0, leading coefficient nonzero.

    Always returns three floating roots, sorted by (real, imaginary) part.
    """
    coeffs = (c3, c2, c1, c0)
    scale = max(abs(complex(c)) for c in coeffs)
    if c3 == 0 or scale == 0.0 or abs(complex(c3)) <= 1e-14 * scale:
        raise ZeroLeadingCoefficient("leading cubic coefficient vanishes")
    roots = poly_roots(coeffs)
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots
