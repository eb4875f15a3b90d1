"""Lattices in the complex plane and the curve attached to one.

The weight-4 and weight-6 invariants are evaluated through the
normalized series in q = exp(2 pi i tau) after Gauss reduction of the
basis.  Reduction pins |Re tau| <= 1/2 and |tau| >= 1, so |q| stays
below 0.0044 and forty terms reach full double precision; the raw
double sum over lattice shells converges far too slowly to be the
production path, and survives only as a cross-check oracle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateLattice, NumericalSingularity
from .standard import StandardCurve, automorphism_order, j_invariant

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Lattice:
    """The rank-2 lattice spanned by omega1 and omega2, with Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        w1 = complex(self.omega1)
        w2 = complex(self.omega2)
        if w1 == 0 or w2 == 0:
            raise DegenerateLattice("zero generator")
        ratio = w2 / w1
        if abs(ratio.imag) <= 1e-9:
            raise DegenerateLattice(f"generators are dependent: ratio {ratio:.3e}")
        if ratio.imag < 0:
            w2 = -w2
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

    @property
    def tau(self) -> complex:
        return self.omega2 / self.omega1

    @classmethod
    def from_tau(cls, tau) -> "Lattice":
        return cls(1.0 + 0j, complex(tau))

    def scaled(self, lam) -> "Lattice":
        lam = complex(lam)
        if lam == 0:
            raise DegenerateLattice("scaling by zero")
        return Lattice(lam * self.omega1, lam * self.omega2)


def reduced_basis(lat: Lattice) -> tuple[complex, complex]:
    """Gauss reduction to a shortest basis, |v1| <= |v2|, Im(v2/v1) > 0."""
    v1, v2 = lat.omega1, lat.omega2
    for _ in range(256):
        if abs(v1) > abs(v2):
            v1, v2 = v2, v1
        m = round((v2 * v1.conjugate()).real / abs(v1) ** 2)
        v2 = v2 - m * v1
        if abs(v2) >= abs(v1):
            break
    if (v2 / v1).imag < 0:
        v2 = -v2
    return v1, v2


def _q_series(tau: complex, weight: int, terms: int = 48) -> complex:
    q = cmath.exp(2j * math.pi * tau)
    qn = 1.0 + 0j
    acc = 0.0 + 0j
    for n in range(1, terms + 1):
        qn *= q
        acc += (n ** weight) * qn / (1.0 - qn)
    return acc


def eisenstein(lat: Lattice) -> tuple[complex, complex]:
    """(g2, g3) of the lattice, accurate to near machine precision."""
    v1, v2 = reduced_basis(lat)
    tau = v2 / v1
    e4 = 1.0 + 240.0 * _q_series(tau, 3)
    e6 = 1.0 - 504.0 * _q_series(tau, 5)
    g2 = (4.0 * math.pi ** 4 / 3.0) * e4 / v1 ** 4
    g3 = (8.0 * math.pi ** 6 / 27.0) * e6 / v1 ** 6
    return g2, g3


def lattice_to_curve(lat: Lattice) -> StandardCurve:
    """The standard curve with a = -g2/4, b = -g3/4."""
    g2, g3 = eisenstein(lat)
    a = -g2 / 4.0
    b = -g3 / 4.0
    if a.imag == 0.0:
        a = a.real
    if b.imag == 0.0:
        b = b.real
    curve = StandardCurve(a, b)
    disc = complex(curve.discriminant())
    scale = max(abs(complex(4 * curve.a ** 3)), abs(complex(27 * curve.b ** 2)), 1e-300)
    if abs(disc) < 1e-12 * scale:
        raise NumericalSingularity("vanishing discriminant from a lattice")
    return curve


# ---------------------------------------------------------------------------
# Voronoi cell of 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoronoiCell:
    """The Voronoi polygon of 0, counterclockwise; 4 or 6 vertices."""

    vertices: tuple
    neighbors: tuple

    @property
    def edge_count(self) -> int:
        return len(self.vertices)


def _halfplane_ok(z: complex, w: complex, slack: float) -> bool:
    return (z * w.conjugate()).real <= 0.5 * abs(w) ** 2 + slack


def voronoi_cell(lat: Lattice) -> VoronoiCell:
    v1, v2 = reduced_basis(lat)
    cands = [v1, -v1, v2, -v2, v1 + v2, -(v1 + v2), v1 - v2, v2 - v1]
    scale = max(abs(w) for w in cands)
    slack = 1e-9 * scale * scale
    verts: list[complex] = []
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            wi, wj = cands[i], cands[j]
            # solve Re(z conj(wi)) = |wi|^2/2, Re(z conj(wj)) = |wj|^2/2
            a1, b1 = wi.real, wi.imag
            a2, b2 = wj.real, wj.imag
            det = a1 * b2 - a2 * b1
            if abs(det) <= 1e-12 * scale * scale:
                continue
            r1 = 0.5 * abs(wi) ** 2
            r2 = 0.5 * abs(wj) ** 2
            z = complex((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det)
            if all(_halfplane_ok(z, w, slack) for w in cands):
                if all(abs(z - u) > 1e-7 * scale for u in verts):
                    verts.append(z)
    if len(verts) not in (4, 6):
        raise DegenerateLattice(f"Voronoi construction produced {len(verts)} vertices")
    verts.sort(key=lambda z: math.atan2(z.imag, z.real))
    used = tuple(
        w for w in cands
        if sum(1 for z in verts if abs((z * w.conjugate()).real - 0.5 * abs(w) ** 2) <= 1e-7 * scale * scale) >= 2
    )
    return VoronoiCell(tuple(verts), used)


def torus_symmetry_order(lat: Lattice) -> int:
    """6 for a regular-hexagon cell, 4 for a square cell, else 2."""
    cell = voronoi_cell(lat)
    vs = cell.vertices
    n = len(vs)
    radii = [abs(z) for z in vs]
    edges = [abs(vs[(i + 1) % n] - vs[i]) for i in range(n)]
    scale = max(radii)
    same_r = max(radii) - min(radii) <= 1e-6 * scale
    same_e = max(edges) - min(edges) <= 1e-6 * scale
    if n == 6 and same_r and same_e:
        return 6
    if n == 4 and same_r and same_e:
        return 4
    return 2
