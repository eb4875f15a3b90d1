"""Points, lines and invertible maps of the projective plane.

Coordinates are scalars in the sense of cubica.scalars: exact (int,
Fraction) or floating (float, complex).  Equality is always projective,
i.e. up to a global nonzero factor: exact triples cross-multiply, floating
ones agree within 1e-9 after scaling.  The normal form scales exact
triples to coprime integers with the first nonzero entry positive, and
floating triples so the first entry within 1e-12 of the largest magnitude
is 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import CoincidentPoints, InvalidInput, SingularMap
from .scalars import (
    COINCIDENCE, PIVOT_TIE, TOLERANCE, Scalar, _integral, all_exact, has_nan, negligible, scalar_from_json,
    scalar_to_json, unit_floats,
)


def _normalize(coords):
    """Projective normal form of a coordinate vector of any length (a
    point, a line, a cubic form)."""
    if all(c == 0 for c in coords):
        raise InvalidInput("projective coordinates cannot all vanish")
    if all_exact(coords):
        ints, _ = _integral(coords)
        g = math.gcd(*ints)
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        return tuple(ints)
    cs = [complex(c) for c in coords]
    mags = [abs(c) for c in cs]
    cut = (1 - PIVOT_TIE) * max(mags)
    pivot = next(i for i, m in enumerate(mags) if m >= cut)
    div = cs[pivot]
    out = []
    for i, c in enumerate(cs):
        if i == pivot:
            out.append(1.0 + 0.0j)
        else:
            out.append(c / div)
    # collapse to real floats when the imaginary parts are exactly zero
    if all(v.imag == 0 for v in out):
        return tuple(v.real for v in out)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A point (x : y : z) of the projective plane; is_exact, whether every
    coordinate is int or Fraction, is decided once, when it is built."""

    x: Scalar
    y: Scalar
    z: Scalar

    def __post_init__(self):
        exact = all_exact(self.coords)
        object.__setattr__(self, "is_exact", exact)
        if not exact and has_nan(self.coords):
            raise InvalidInput("a NaN coordinate is not a projective point")
        if self.x == 0 and self.y == 0 and self.z == 0:
            raise InvalidInput("(0:0:0) is not a projective point")

    @property
    def coords(self):
        return (self.x, self.y, self.z)

    def normalized(self) -> "ProjPoint":
        return ProjPoint(*_normalize(self.coords))

    def to_complex(self) -> tuple[complex, complex, complex]:
        return tuple(complex(c) for c in self.coords)

    def is_real(self, tol: float = TOLERANCE) -> bool:
        return all(negligible(c.imag, 1, tol) for c in _normalize(self.coords))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return _flat_proportional(self.coords, other.coords)

    __hash__ = None

    def __repr__(self):
        return f"ProjPoint({self.x!r}, {self.y!r}, {self.z!r})"

    def to_json(self):
        return [scalar_to_json(c) for c in self.coords]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != 3:
            raise InvalidInput(f"a point needs three coordinates: {obj!r}")
        return cls(*(scalar_from_json(c) for c in obj))


@dataclass(frozen=True, eq=False)
class ProjLine:
    """The line u*x + v*y + w*z = 0."""

    u: Scalar
    v: Scalar
    w: Scalar

    def __post_init__(self):
        if has_nan(self.coeffs):
            raise InvalidInput("a NaN coefficient is not a line")
        if self.u == 0 and self.v == 0 and self.w == 0:
            raise InvalidInput("a line needs a nonzero coefficient triple")

    @property
    def coeffs(self):
        return (self.u, self.v, self.w)

    def normalized(self) -> "ProjLine":
        return ProjLine(*_normalize(self.coeffs))

    def contains(self, p: ProjPoint, tol: float | None = None) -> bool:
        val = sum(c * x for c, x in zip(self.coeffs, p.coords))
        if all_exact(self.coeffs) and p.is_exact:
            return val == 0
        nl = _normalize(self.coeffs)
        np_ = _normalize(p.coords)
        v = sum(complex(c) * complex(x) for c, x in zip(nl, np_))
        return negligible(v, 3, TOLERANCE if tol is None else tol)

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return _flat_proportional(self.coeffs, other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"ProjLine({self.u!r}, {self.v!r}, {self.w!r})"

    def to_json(self):
        return [scalar_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != 3:
            raise InvalidInput(f"a line needs three coefficients: {obj!r}")
        return cls(*(scalar_from_json(c) for c in obj))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    a = _normalize(p.coords)
    b = _normalize(q.coords)
    c = _cross(a, b)
    if all(negligible(v, 1, COINCIDENCE) for v in c):
        raise CoincidentPoints(f"{p!r} and {q!r} coincide")
    return ProjLine(*c)


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """Intersection point of two distinct lines."""
    c = _cross(l1.coeffs, l2.coeffs)
    if all(negligible(v, 1, COINCIDENCE) for v in c):
        raise CoincidentPoints("lines coincide")
    return ProjPoint(*c)


def proj_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Scale-invariant distance: the sine of the Fubini-Study angle.

    Computed as the norm of b orthogonalized against a, which stays
    accurate down to distances near machine epsilon; 1 - cos^2 would
    bottom out around 1e-8.  Exact triples of any height convert without
    overflow (see scalars.unit_floats).  Either point may be a bare triple.
    """
    a, b = (unit_floats(t.coords if isinstance(t, ProjPoint) else t) for t in (p, q))
    na = math.sqrt(sum(abs(c) ** 2 for c in a))
    nb = math.sqrt(sum(abs(c) ** 2 for c in b))
    a = tuple(c / na for c in a)
    b = tuple(c / nb for c in b)
    inner = sum(x * y.conjugate() for x, y in zip(b, a))
    ortho = tuple(x - inner * y for x, y in zip(b, a))
    return min(1.0, math.sqrt(sum(abs(c) ** 2 for c in ortho)))


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adjugate(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def _integer_adjugate(rows):
    """(adj(m), det(m), mden) for exact rows == m / mden, m a matrix of
    ints."""
    flat, mden = _integral([v for r in rows for v in r])
    m = (flat[0:3], flat[3:6], flat[6:9])
    return _adjugate(m), _det3(m), mden


@dataclass(frozen=True, eq=False)
class ProjMap:
    """An invertible projective map, stored as a 3x3 matrix of scalars;
    is_exact is decided once, when it is built."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise InvalidInput("a projective map needs a 3x3 matrix")
        entries = rows[0] + rows[1] + rows[2]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "is_exact", all_exact(entries))
        if not self.is_exact and has_nan(entries):
            raise InvalidInput("a NaN entry is not a projective map")
        if self.is_exact:
            if _det3(rows) == 0:
                raise SingularMap("determinant vanishes")
        else:
            # scale rows to unit max-norm before the determinant cutoff
            scaled = []
            for r in rows:
                m = max(abs(v) for v in r)
                if m == 0.0:
                    raise SingularMap("zero row")
                scaled.append(tuple(complex(v) / m for v in r))
            if negligible(_det3(scaled), 1, COINCIDENCE):
                raise SingularMap("determinant below cutoff")

    @classmethod
    def identity(cls) -> "ProjMap":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def from_columns(cls, c0, c1, c2) -> "ProjMap":
        cols = [tuple(c) for c in (c0, c1, c2)]
        return cls(tuple(tuple(cols[j][i] for j in range(3)) for i in range(3)))

    @classmethod
    def scaling(cls, sx, sy, sz) -> "ProjMap":
        return cls(((sx, 0, 0), (0, sy, 0), (0, 0, sz)))

    def det(self):
        return _det3(self.rows)

    def inverse(self) -> "ProjMap":
        """The inverse matrix, literally.  An exact map m / mden, m its
        integer representative, inverts as mden adj(m) / det(m): one
        division per entry after integer arithmetic."""
        if self.is_exact:
            adj, d, mden = _integer_adjugate(self.rows)
            return ProjMap(tuple(tuple(Fraction(mden * v, d) for v in r) for r in adj))
        d = _det3(self.rows)
        return ProjMap(tuple(tuple(v / d for v in r) for r in _adjugate(self.rows)))

    def compose(self, other: "ProjMap") -> "ProjMap":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        a, b = self.rows, other.rows
        return ProjMap(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                for i in range(3)
            )
        )

    def apply(self, p: ProjPoint) -> ProjPoint:
        v = p.coords
        img = tuple(sum(r[j] * v[j] for j in range(3)) for r in self.rows)
        return ProjPoint(*img).normalized()

    def __call__(self, p: ProjPoint) -> ProjPoint:
        return self.apply(p)

    def line_image(self, line: ProjLine) -> ProjLine:
        """Image of a line: coefficients compose with the inverse map."""
        inv = self.inverse().rows
        c = line.coeffs
        out = tuple(sum(c[i] * inv[i][j] for i in range(3)) for j in range(3))
        return ProjLine(*out)

    def __eq__(self, other):
        if not isinstance(other, ProjMap):
            return NotImplemented
        a = [v for r in self.rows for v in r]
        b = [v for r in other.rows for v in r]
        return _flat_proportional(a, b)

    __hash__ = None

    def __repr__(self):
        return f"ProjMap({self.rows!r})"

    def to_json(self):
        return [[scalar_to_json(v) for v in r] for r in self.rows]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != 3:
            raise InvalidInput("a map needs three rows")
        return cls(tuple(tuple(scalar_from_json(v) for v in r) for r in obj))


def _flat_proportional(a, b, tol=TOLERANCE) -> bool:
    """Proportionality test for flat coefficient vectors of equal length."""
    if all_exact(a) and all_exact(b):
        pa = next((i for i, v in enumerate(a) if v != 0), None)
        pb = next((i for i, v in enumerate(b) if v != 0), None)
        if pa != pb:
            return False
        return all(a[pa] * y == b[pa] * x for x, y in zip(a, b))
    ca, cb = unit_floats(a), unit_floats(b)
    pivot = max(range(len(ca)), key=lambda i: abs(ca[i]))
    if negligible(cb[pivot], 1, tol):
        return False
    phase = ca[pivot] / cb[pivot]
    return all(negligible(x - phase * y, 4, tol) for x, y in zip(ca, cb))


def map_four_points(src, dst) -> ProjMap:
    """The projective map sending four source points to four target points.

    Both quadruples must be in general position (no three collinear).
    """
    if len(src) != 4 or len(dst) != 4:
        raise InvalidInput("exactly four source and four target points required")

    def basis(quad):
        p0, p1, p2, p3 = (q.coords for q in quad)
        try:
            cols = ProjMap.from_columns(p0, p1, p2)
        except SingularMap as exc:
            raise CoincidentPoints("quadruple is not in general position") from exc
        w = [sum(map(mul, r, p3)) for r in cols.inverse().rows]
        if any(negligible(wi, 1, COINCIDENCE) for wi in w):
            raise CoincidentPoints("quadruple is not in general position")
        return ProjMap.from_columns(
            tuple(w[0] * c for c in p0),
            tuple(w[1] * c for c in p1),
            tuple(w[2] * c for c in p2),
        )

    s = basis([p.normalized() for p in src])
    t = basis([p.normalized() for p in dst])
    return t.compose(s.inverse())
