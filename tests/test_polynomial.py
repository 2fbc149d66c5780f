"""Polynomial semiring over the scalars: parsing, laws, spectrum."""
import pytest
from hypothesis import given, settings, strategies as st

from b1algebra import (
    b1_algebra,
    battery_polys,
    close_presentation,
    distinguishing_witness,
    equal_mod_zero_set,
    evaluate,
    make_poly,
    maxspec,
    one_poly,
    parse_poly,
    parse_presentation,
    poly_add,
    poly_mul,
    render_poly,
    set_vars_to_zero,
    variable_poly,
    zero_poly,
)
from b1algebra.errors import (
    PolyParseError,
    SizeTooLarge,
    UnknownVariable,
    VariableMismatch,
)
from b1algebra import polynomial
from b1algebra.polynomial import MAX_EXPONENT, Poly

XY = ("x", "y")


def p(text, variables=XY):
    return parse_poly(text, variables)


def test_parse_basic_shapes():
    assert p("x^2*y + x + 1").monomials == frozenset({(2, 1), (1, 0), (0, 0)})
    assert p("0").monomials == frozenset()
    assert p("1").monomials == {(0, 0)}
    assert p("y*y*x") == p("x*y^2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(UnknownVariable):
        p("z + 1")


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as e:
        p("x + ")
    assert e.value.position == 4
    with pytest.raises(PolyParseError) as e:
        p("x ++ 1")
    assert e.value.position == 3


def test_parse_caps_exponents_before_converting_them():
    assert p("x^10000") == make_poly(XY, [(MAX_EXPONENT, 0)])
    assert p("x^010000*y^0") == p("x^10000")
    for text, at in (
        ("x + y^10001", 6),
        ("x^" + "9" * 5000, 2),
        ("1 + x^6000*y*x^4001", 15),
        ("x" + "*x" * MAX_EXPONENT, 2 * MAX_EXPONENT),
    ):
        with pytest.raises(PolyParseError) as e:
            p(text)
        assert e.value.position == at
        assert "exponent is above the limit of 10000" in str(e.value)
    # a digit that int() reads, or cannot, but no ASCII digit
    for text in ("x^\u00b2", "x^\u0663"):
        with pytest.raises(PolyParseError) as e:
            p(text)
        assert e.value.position == 2
    with pytest.raises(PolyParseError) as e:
        close_presentation(parse_presentation("a^3 = a; a^99999 = a"))
    assert e.value.position == 2
    closed = close_presentation(parse_presentation("a^2 = a; a^10000 = 0"))
    assert closed.algebra.size == 2


def test_render_is_sorted_and_parses_back():
    f = make_poly(XY, [(0, 0), (2, 1), (1, 0)])
    assert render_poly(f) == "x^2*y + x + 1"
    assert parse_poly(render_poly(f), XY) == f


def test_addition_is_union():
    f = make_poly(XY, [(1, 0), (0, 2)])
    g = make_poly(XY, [(0, 2), (0, 0)])
    assert poly_add(f, g).monomials == {(1, 0), (0, 2), (0, 0)}


def test_multiplication_is_minkowski_sum():
    f = p("x + 1")
    assert poly_mul(f, f).monomials == {(2, 0), (1, 0), (0, 0)}


def test_operations_require_matching_variables():
    with pytest.raises(VariableMismatch):
        poly_add(p("x"), parse_poly("x", ("x",)))
    with pytest.raises(VariableMismatch):
        poly_mul(p("x"), parse_poly("x", ("x", "z")))


def test_evaluate_on_the_four_element_algebra():
    r = close_presentation(parse_presentation("a^2 = a+1"))
    v = evaluate(parse_poly("x^2 + 1", ("x",)), r.algebra, {"x": r.generator})
    assert r.algebra.names[v] == "a+1"


def test_evaluate_is_a_semiring_map():
    r = close_presentation(parse_presentation("a^3 = a^2"))
    env = {"x": r.generator, "y": r.algebra.unit}
    for f in battery_polys(XY)[:80]:
        for g in battery_polys(XY)[40:120]:
            fs = evaluate(poly_add(f, g), r.algebra, env)
            assert fs == r.algebra.sum[evaluate(f, r.algebra, env)][evaluate(g, r.algebra, env)]
            fm = evaluate(poly_mul(f, g), r.algebra, env)
            assert fm == r.algebra.mul[evaluate(f, r.algebra, env)][evaluate(g, r.algebra, env)]


def test_evaluate_requires_every_variable():
    with pytest.raises(UnknownVariable):
        evaluate(p("x + y"), b1_algebra(), {"x": 1})


def test_zeroing_variables_keeps_the_clean_monomials():
    assert set_vars_to_zero(p("x*y + y^2"), ("x",)).monomials == {(0, 2)}
    assert set_vars_to_zero(p("x + 1"), ("x", "y")).monomials == {(0, 0)}
    assert set_vars_to_zero(p("x"), ("x",)).monomials == frozenset()


def test_congruence_mod_zero_set_examples():
    assert equal_mod_zero_set(p("x"), p("0"), ("x",))
    assert equal_mod_zero_set(p("x + 1"), p("1"), ("x",))
    assert not equal_mod_zero_set(p("x"), p("0"), ("y",))
    assert not equal_mod_zero_set(p("1"), p("0"), ("x",))


def test_mod_zero_set_matches_evaluation_semantics():
    # collapsing I to zero agrees with evaluating x->0 on I, 1 off I
    scalars = b1_algebra()
    for zeros in [(), ("x",), ("y",), ("x", "y")]:
        env = {v: 0 if v in zeros else 1 for v in XY}
        for f in battery_polys(XY)[::7]:
            for g in battery_polys(XY)[::11]:
                lhs = equal_mod_zero_set(f, g, zeros)
                rhs = evaluate(f, scalars, env) == evaluate(g, scalars, env)
                assert lhs == rhs


def test_mod_zero_set_is_a_congruence_on_the_battery():
    zeros = ("x",)
    polys = battery_polys(XY)[::13]
    for f in polys:
        for g in polys:
            if not equal_mod_zero_set(f, g, zeros):
                continue
            for h in polys[::3]:
                assert equal_mod_zero_set(poly_add(f, h), poly_add(g, h), zeros)
                assert equal_mod_zero_set(poly_mul(f, h), poly_mul(g, h), zeros)


def test_product_collapse_forces_a_factor_to_collapse():
    # the integral-domain style property of the spectrum congruences
    zeros = ("x",)
    polys = battery_polys(XY)[::5]
    zero = zero_poly(XY)
    for f in polys:
        for g in polys:
            if equal_mod_zero_set(poly_mul(f, g), zero, zeros):
                assert equal_mod_zero_set(f, zero, zeros) or equal_mod_zero_set(
                    g, zero, zeros
                )


def test_maxspec_shape_for_two_variables():
    rep = maxspec(XY)
    assert len(rep.points) == 4
    assert rep.pairwise_distinguished
    assert not rep.sampled
    assert rep.battery_size == 130
    zero_sets = {pt.zero_set for pt in rep.points}
    assert zero_sets == {(), ("x",), ("y",), ("x", "y")}
    for pt in rep.points:
        assert pt.agrees
        assert dict(pt.assignment) == {
            v: 0 if v in pt.zero_set else 1 for v in XY
        }


def test_maxspec_point_count_doubles_per_variable():
    assert len(maxspec(("x",)).points) == 2
    assert len(maxspec(("x", "y", "z")).points) == 8


def test_maxspec_reports_a_disagreement(monkeypatch):
    variables = ("x1", "x2", "x3", "x4")
    rep = maxspec(variables)
    assert rep.battery_size == 88_642
    assert all(pt.agrees and pt.checked == 88_642 for pt in rep.points)

    # a congruence that never kills x1*x2 disagrees with evaluation
    # exactly where x1 or x2 is zero
    leaked = (1, 1, 0, 0)

    def leaky(f, names):
        kept = set_vars_to_zero(f, names).monomials
        return Poly(f.variables, kept | (f.monomials & {leaked}))

    monkeypatch.setattr(polynomial, "set_vars_to_zero", leaky)
    rep = maxspec(variables)
    assert len(rep.points) == 16
    for pt in rep.points:
        assert pt.agrees == (not {"x1", "x2"} & set(pt.zero_set))


def test_maxspec_caps_the_variable_count():
    with pytest.raises(SizeTooLarge):
        maxspec(tuple("abcdefghijk"))


def test_distinguishing_witness_separates_points():
    w = distinguishing_witness(XY, ("x",), ("y",))
    assert w == variable_poly(XY, "x")
    assert equal_mod_zero_set(w, zero_poly(XY), ("x",))
    assert not equal_mod_zero_set(w, zero_poly(XY), ("y",))


def test_distinguishing_witness_needs_distinct_points():
    with pytest.raises(ValueError):
        distinguishing_witness(XY, ("x",), ("x",))


monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.frozensets(monomials, max_size=5).map(lambda ms: make_poly(XY, ms))


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_sum_laws(f, g):
    assert poly_add(f, g) == poly_add(g, f)
    assert poly_add(f, f) == f
    assert poly_add(f, zero_poly(XY)) == f


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_product_laws(f, g, h):
    assert poly_mul(f, g) == poly_mul(g, f)
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))
    assert poly_mul(f, one_poly(XY)) == f
    assert poly_mul(f, zero_poly(XY)) == zero_poly(XY)
    assert poly_mul(f, poly_add(g, h)) == poly_add(poly_mul(f, g), poly_mul(f, h))


@given(polys)
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(f):
    assert parse_poly(render_poly(f), XY) == f


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_zeroing_is_a_semiring_map(f, g):
    zeros = ("y",)
    assert set_vars_to_zero(poly_add(f, g), zeros) == poly_add(
        set_vars_to_zero(f, zeros), set_vars_to_zero(g, zeros)
    )
    assert set_vars_to_zero(poly_mul(f, g), zeros) == poly_mul(
        set_vars_to_zero(f, zeros), set_vars_to_zero(g, zeros)
    )
