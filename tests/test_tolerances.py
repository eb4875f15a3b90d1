"""The tolerance policy of cubica.scalars: negligible, the named thresholds,
and the sites that share one threshold giving one verdict."""
import io
import math
import tokenize
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import pytest

from cubica import scalars
from cubica.cubic import CubicForm, _match_hesse_pattern, _match_standard_pattern, is_flex
from cubica.errors import (
    CoincidentPoints,
    InvalidInput,
    NotAFlex,
    SingularMap,
    SingularParameter,
    ZeroLeadingCoefficient,
)
from cubica.group_law import BasedGroup, CurvePoint
from cubica.hesse import MobiusMap, is_smooth_parameter, j_of_k
from cubica.projective import (
    ProjLine, ProjMap, ProjPoint, _flat_proportional, line_through, map_four_points, meet,
)
from cubica.scalars import negligible, poly_roots, roots_cubic, scalars_close
from cubica.standard import StandardCurve, to_standard

# ---------------------------------------------------------------------------
# negligible
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400)])
def test_exact_values_past_the_float_range_are_not_converted(value):
    with pytest.raises(OverflowError):
        float(value)
    assert not negligible(value, 10 ** 800, 1e-9)
    assert not negligible(value, 1.0, 1e300)


@pytest.mark.parametrize("value", [Fraction(1, 10 ** 400), Fraction(-3, 10 ** 400)])
def test_exact_values_below_the_float_range_are_not_zero(value):
    assert float(value) == 0.0
    assert not negligible(value, 1.0, 1e-9)
    assert not negligible(value, 10 ** 800, 1e300)


def test_exact_zero_is_negligible_at_any_size():
    assert negligible(0, 10 ** 400, 1e-9)
    assert negligible(Fraction(0), Fraction(1, 10 ** 400), 0.0)


def test_floats_at_exactly_tol_times_size():
    tol, size = 1e-9, 3.0
    edge = tol * size
    assert negligible(edge, size, tol) and negligible(-edge, size, tol)
    assert not negligible(math.nextafter(edge, math.inf), size, tol)
    assert negligible(0.0, 0.0, tol) and not negligible(1e-300, 0.0, tol)


def test_complex_values_are_measured_by_their_modulus():
    # |3 + 4i| is 5 exactly; neither part alone reaches the bound
    v = complex(3 * 2.0 ** -40, 4 * 2.0 ** -40)
    assert negligible(v, 1.0, 5 * 2.0 ** -40)
    assert not negligible(v, 1.0, math.nextafter(5 * 2.0 ** -40, 0.0))


def test_nan_is_never_negligible():
    assert not negligible(math.nan, 1.0, 1.0)
    assert not negligible(complex(math.nan, 0.0), 1.0, 1.0)


# ---------------------------------------------------------------------------
# one verdict per shared threshold
# ---------------------------------------------------------------------------


def _near_flex(t):
    """A point of y^2 z = x^3 - 2 x z^2 + z^3 near its flex (0 : 1 : 0),
    (t : 1 : z) with flex_defect 3t."""
    z = 0.0
    for _ in range(60):
        z = t ** 3 - 2.0 * t * z * z + z ** 3
    return ProjPoint(t, 1.0, z)


@pytest.mark.parametrize("t, flex", [(0.3e-6, True), (0.4e-6, False)])
def test_flex_contact_sites_agree(t, flex):
    # defect 0.9e-6 and 1.2e-6, either side of FLEX_CONTACT
    form = StandardCurve(-2.0, 1.0).cubic_form()
    p = _near_flex(t)
    assert is_flex(form, p) is flex
    assert BasedGroup(form, p).is_flex_based() is flex
    if flex:
        to_standard(form, p)
    else:
        with pytest.raises(NotAFlex):
            to_standard(form, p)


@pytest.mark.parametrize("delta, coincident", [(0.5e-12, True), (2e-12, False)])
def test_coincidence_sites_agree(delta, coincident):
    with pytest.raises(CoincidentPoints) if coincident else nullcontext():
        line_through(ProjPoint(1.0, 0.0, 0.0), ProjPoint(1.0, delta, 0.0))
    with pytest.raises(CoincidentPoints) if coincident else nullcontext():
        meet(ProjLine(1.0, 0.0, 0.0), ProjLine(1.0, delta, 0.0))
    with pytest.raises(SingularMap) if coincident else nullcontext():
        ProjMap(((1.0, 0.0, 0.0), (1.0, delta, 0.0), (0.0, 0.0, 1.0)))
    unit = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)]
    with pytest.raises(CoincidentPoints) if coincident else nullcontext():
        map_four_points(unit + [ProjPoint(1.0, 1.0, delta)], unit + [ProjPoint(1, 1, 1)])
    with pytest.raises(InvalidInput) if coincident else nullcontext():
        MobiusMap((1.0, 1.0, 1.0, 1.0 + delta))


@pytest.mark.parametrize("delta, dropped", [(0.5e-14, True), (2e-14, False)])
def test_leading_drop_sites_agree(delta, dropped):
    # every form and polynomial has largest coefficient 1
    assert (len(poly_roots([delta, 1.0, 0.5, 0.25])) == 2) is dropped
    with pytest.raises(ZeroLeadingCoefficient) if dropped else nullcontext():
        roots_cubic(delta, 1.0, 0.5, 0.25)
    hesse = CubicForm((1.0, delta, 0, 0, -1.0, 0, 1.0, 0, 0, 1.0))
    assert _match_hesse_pattern(hesse) is dropped
    standard = CubicForm((1.0, 0, 0, 0, delta, -0.5, 0, -1.0, 0, 0.25))
    assert _match_standard_pattern(standard) is dropped
    assert (MobiusMap((1.0, 0.0, delta, 1.0)).apply(math.inf) == math.inf) is dropped


@pytest.mark.parametrize("delta, close", [(0.5e-9, True), (5e-9, False)])
def test_proportional_and_real_sites_agree(delta, close):
    assert scalars_close(1.0, 1.0 + delta) is close
    assert _flat_proportional((1.0, 0.0), (1.0, delta)) is close
    assert ProjPoint(1.0, complex(0.0, delta), 0.0).is_real() is close
    assert ProjLine(0, 0, 1).contains(ProjPoint(1.0, 0.0, delta)) is close
    curve = StandardCurve(0.0, 1.0).cubic_form()
    with nullcontext() if close else pytest.raises(InvalidInput):
        CurvePoint(curve, ProjPoint(0.0, 1.0, delta))
    # k^3 = 1 + delta to first order
    k = 1.0 + delta / 3
    assert is_smooth_parameter(k) is not close
    with pytest.raises(SingularParameter) if close else nullcontext():
        j_of_k(k)


# ---------------------------------------------------------------------------
# a ratchet on thresholds written where they are used
# ---------------------------------------------------------------------------

# the algebra modules but scalars.py, which holds the named thresholds
_MODULES = ("projective", "cubic", "standard", "group_law", "hesse", "real_curves")
# the literals left there: Newton stop rules, division guards, the J = 0
# and J = 1 anchors of hesse.real_parameters_for_j, and the geometry of the
# canonical picture
_LOCAL_LITERALS = 24


def _threshold_literals(module):
    path = Path(scalars.__file__).with_name(module + ".py")
    tokens = tokenize.tokenize(io.BytesIO(path.read_bytes()).readline)
    return [t.string for t in tokens if t.type == tokenize.NUMBER and "e-" in t.string]


def test_thresholds_outside_scalars_do_not_grow():
    local = sum(len(_threshold_literals(m)) for m in _MODULES)
    assert local <= _LOCAL_LITERALS, "name a new threshold in cubica.scalars instead"
