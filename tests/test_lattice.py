import cmath
import math

import pytest

from cubica.errors import DegenerateLattice
from cubica.lattice import (
    Lattice,
    eisenstein,
    lattice_to_curve,
    reduced_basis,
    torus_symmetry_order,
    voronoi_cell,
)
from cubica.standard import j_invariant

SQUARE = Lattice(1.0, 1j)
HEX = Lattice(1.0, cmath.exp(1j * math.pi / 3))
RECT = Lattice(1.0, 2j)
OBLIQUE = Lattice(1.0, complex(0.6, 0.8))


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        Lattice(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        Lattice(0.0, 1j)


def test_tau_upper_half_plane():
    lat = Lattice(1.0, -1j)
    assert lat.tau.imag > 0


def test_reduced_basis_fundamental_domain():
    for lat in (SQUARE, HEX, RECT, OBLIQUE, Lattice(2.0 + 1j, 3.0 + 5j)):
        v1, v2 = reduced_basis(lat)
        tau = v2 / v1
        assert abs(tau.real) <= 0.5 + 1e-9
        assert abs(tau) >= 1 - 1e-9


def eisenstein_direct(lat: Lattice, shells: int) -> tuple[complex, complex]:
    """Truncated lattice sums 60*S4 and 140*S6 over square shells: slowly
    convergent, an independent check against the series route."""
    v1, v2 = reduced_basis(lat)
    s4 = 0.0 + 0j
    s6 = 0.0 + 0j
    for s in range(1, shells + 1):
        for m in range(-s, s + 1):
            ns = (-s, s) if abs(m) != s else range(-s, s + 1)
            for n in ns:
                w2 = (m * v1 + n * v2) ** 2
                s4 += 1.0 / (w2 * w2)
                s6 += 1.0 / (w2 * w2 * w2)
    return 60.0 * s4, 140.0 * s6


def test_series_matches_direct_summation():
    for lat in (SQUARE, OBLIQUE):
        g2s, g3s = eisenstein(lat)
        g2d, g3d = eisenstein_direct(lat, shells=120)
        scale = max(abs(g2s), abs(g3s), 1.0)
        assert abs(g2s - g2d) < 1e-3 * scale
        assert abs(g3s - g3d) < 1e-3 * scale


def test_square_lattice_invariants():
    g2, g3 = eisenstein(SQUARE)
    assert abs(g3) < 1e-9
    # g2 of the square unit lattice, frozen from the direct sum
    assert abs(g2 - 189.07272) < 1e-3
    j = j_invariant(lattice_to_curve(SQUARE))
    assert abs(complex(j) - 1) < 1e-7


def test_hexagonal_lattice_invariants():
    g2, g3 = eisenstein(HEX)
    assert abs(g2) < 1e-9
    j = j_invariant(lattice_to_curve(HEX))
    assert abs(complex(j)) < 1e-7


def test_rectangular_lattice_frozen_j():
    j = complex(j_invariant(lattice_to_curve(RECT)))
    assert abs(j.imag) < 1e-9
    # 11^3 / 8, the classical value at tau = 2i
    assert abs(j.real - 166.375) < 1e-6


def test_scaling_invariance_of_j():
    lat = Lattice(complex(1.7, 0.3) * 1.0, complex(1.7, 0.3) * complex(0.6, 0.8))
    j1 = complex(j_invariant(lattice_to_curve(lat)))
    j2 = complex(j_invariant(lattice_to_curve(OBLIQUE)))
    assert abs(j1 - j2) < 1e-8 * max(1.0, abs(j2))


def test_voronoi_shapes():
    assert voronoi_cell(SQUARE).edge_count == 4
    assert voronoi_cell(RECT).edge_count == 4
    assert voronoi_cell(HEX).edge_count == 6
    assert voronoi_cell(OBLIQUE).edge_count == 6


def test_voronoi_vertices_equidistant():
    cell = voronoi_cell(HEX)
    for v in cell.vertices:
        d0 = abs(v)
        near = min(abs(v - w) for w in cell.neighbors)
        assert abs(near - d0) < 1e-9


def test_torus_symmetry_orders():
    assert torus_symmetry_order(SQUARE) == 4
    assert torus_symmetry_order(HEX) == 6
    assert torus_symmetry_order(RECT) == 2
    assert torus_symmetry_order(OBLIQUE) == 2
