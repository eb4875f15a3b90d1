"""Scalar arithmetic used throughout the package.

A scalar is either exact (int or Fraction) or floating (float or complex).
Python's numeric tower already promotes exact to floating in mixed
expressions and never the other way around, so scalars are plain numbers
rather than a wrapper class.  Fraction keeps itself in lowest terms with a
positive denominator, which is exactly the normal form we want.

The module also holds the package's one tolerance policy: the named
thresholds below and negligible, the one test of whether a value is zero.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import eq

import numpy as np

from .errors import InvalidInput, ZeroLeadingCoefficient

Scalar = int | Fraction | float | complex

# The tolerance policy: a floating value is negligible when it is small
# against the size of what produced it (Higham, "Accuracy and Stability of
# Numerical Algorithms", ch. 3), an exact one only when it is zero.  Every
# threshold of the algebra is named here, one name per thing tested; the
# README's "Tolerances" section gives each one's origin.  1e-12 is about
# 4500 ulps, the rounding of a few dozen operations on unit-scaled data.

#: proportional, equal or real: scalars_close, projective equality, is_real,
#: ProjLine.contains, curve membership, J = 0 or 1, k^3 = 1
TOLERANCE = 1e-9
#: a leading or pattern coefficient below this part of the largest is zero
#: (about 45 ulps): poly_roots, roots_cubic, the Hesse and Weierstrass
#: coefficient patterns, MobiusMap.apply
LEADING_DROP = 1e-14
#: two points or lines coincide, a map is singular: cross products, distances
#: and determinants of unit-scaled entries; a point lies on z = 0
COINCIDENCE = 1e-12
#: a coordinate this close to the largest ties with it, and the first of
#: tied coordinates is the pivot of the floating normal form
PIVOT_TIE = 1e-12
#: zero or equal up to rounding against a form's largest coefficient or a
#: unit scale: gradients, pattern coefficients, 4a^3 + 27b^2, dust on (a, b)
ROUNDING = 1e-12
#: tangent contact at a flex (flex_defect): find_flexes stays below 8.4e-9
#: on the bench's reduce curves (condition < 100), exact flexes at 0
FLEX_CONTACT = 1e-6
#: what is built from flexes is real, proportional or standard to this:
#: triangle sides, real flexes, to_standard's image, real automorphisms
FLEX_DERIVED = 1e-6
#: a value a reduction reaches through several substitutions is zero below
#: this part of its scale: to_standard's x^3 and y^2 z terms, dust on k, the
#: signs of the invariants
REDUCTION_DUST = 1e-10
#: the image under a triangle's map is a member of the Hesse pencil to this;
#: polished flexes leave residuals near 1e-12
PENCIL_RESIDUAL = 1e-8
#: the singular-value ratio at or below which a floating curve is singular:
#: smooth members reach 3.5e-13 at condition 100-1000, singular families
#: 2.3e-14 under float maps of condition < 300 (nodes 1.6e-12 beyond)
SINGULAR_RANK = 1e-13
#: a chord restriction coefficient below this part of its terms' sizes is 0
CHORD_ZERO = 1e-13
#: points closer than this are one point: flexes lie 8.3e-3 apart or more on
#: the bench's curves, split singular points 1.4e-4 apart at most
FLEX_SEPARATION = 1e-3
#: the root triangle's edges are equal, or it is flat, to this part of its
#: longest edge (standard.triangle_shape)
SHAPE_TIE = 1e-7

_EXACT = (int, Fraction)


def negligible(value, size, tol) -> bool:
    """Whether a computed value counts as zero: exactly for int and
    Fraction, and for floating values when |value| <= tol * size, size the
    scale of what produced it.  An exact value is never converted."""
    if isinstance(value, _EXACT):
        return value == 0
    return abs(value) <= tol * size


def is_exact(value) -> bool:
    """True for int or Fraction, False for float or complex."""
    return isinstance(value, _EXACT)


def all_exact(values) -> bool:
    return all(map(isinstance, values, repeat(_EXACT)))


def has_nan(values) -> bool:
    """Whether a value of the sequence is NaN, the one scalar unequal to itself."""
    return not all(map(eq, values, values))


def _not_nan(value, source):
    """The parsed value, or InvalidInput when it is NaN."""
    if value != value:
        raise InvalidInput(f"NaN is not a scalar: {source!r}")
    return value


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
    return negligible(ca - cb, max(1.0, abs(ca), abs(cb)), tol)


def _integral(values):
    """(ints, den) with values == ints / den, den the least common
    denominator of the exact values."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def unit_floats(values) -> list:
    """The values divided by their largest magnitude, as floats (complex
    where a value is): the one float view of a vector known up to scale.
    Exact values go through their integer representative, so int / int
    rounds correctly at any height; floating ones are divided by their own
    largest magnitude.  When that is an exact value past the float range, a
    mixed vector is divided exactly, each float being exactly a Fraction and
    each complex value its real and imaginary parts."""
    if all_exact(values):
        values = _integral(values)[0]
        top = max(map(abs, values))
        return [v / top for v in values]
    top = max(map(abs, values))
    if is_exact(top) and top > sys.float_info.max:
        def unit(v):
            return float(Fraction(v) / top)

        return [complex(unit(v.real), unit(v.imag)) if isinstance(v, complex) else unit(v) for v in values]
    top = float(top)
    return [v / top for v in values]


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
        return _not_nan(obj, obj)
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
        return _not_nan(float(re) if im == 0 else complex(re, im), obj)
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
        return _not_nan(complex(re, im) if im != 0 else re, text)
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
        return _not_nan(float(text), text)
    except ValueError:
        pass
    try:
        return _not_nan(complex(text), text)
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
    Negligible leading coefficients are stripped, each tested as given (an
    exact one only when it is 0); the effective degree may drop.
    """
    coeffs = list(coeffs)
    scale = max((abs(complex(c)) for c in coeffs), default=0.0)
    if scale == 0.0:
        raise ZeroLeadingCoefficient("zero polynomial")
    while coeffs and negligible(coeffs[0], scale, LEADING_DROP):
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return []
    cs = [complex(c) for c in coeffs]
    raw = np.roots(np.array(cs, dtype=complex))
    return [complex(_newton_step(cs, complex(r))) for r in raw]


def roots_cubic(c3, c2, c1, c0) -> list[complex]:
    """Roots of c3*x**3 + c2*x**2 + c1*x + c0, leading coefficient nonzero.

    Always returns three floating roots, sorted by (real, imaginary) part;
    ZeroLeadingCoefficient when poly_roots drops the leading term.
    """
    roots = poly_roots((c3, c2, c1, c0))
    if len(roots) != 3:
        raise ZeroLeadingCoefficient("leading cubic coefficient vanishes")
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots
