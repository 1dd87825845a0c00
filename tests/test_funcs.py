"""Grid functions, exact function descriptions, and their text syntax."""

import random
from fractions import Fraction

import pytest

from divdiff import (
    DomainEvaluationError,
    GridFunction,
    ParseError,
    PiecewiseLinearFunc,
    PoleError,
    Polynomial,
    PolynomialFunc,
    RationalFunc,
    load_grid_function,
    parse_funcspec,
)

from util import random_grid_function

HAT = GridFunction(2, {1: Fraction(1)})


def test_grid_drops_zero_entries():
    g = GridFunction(3, {0: Fraction(0), 2: Fraction(1, 2)})
    assert set(g.entries) == {2}
    assert g.value(0) == 0
    assert g.value(2) == Fraction(1, 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(0, {})
    with pytest.raises(ValueError):
        GridFunction(2, {3: Fraction(1)})
    with pytest.raises(ValueError):
        GridFunction(2, {-1: Fraction(1)})
    g = GridFunction(4, {})
    with pytest.raises(ValueError):
        g.value(5)


def test_grid_indices_are_never_truncated():
    # int() would read 1.5 as 1, and True's value would then replace it
    for entries in ({Fraction(3, 2): 1, True: 5}, {1.5: 1}, {Fraction(1): 1}, {"1": 1}):
        with pytest.raises(TypeError):
            GridFunction(4, entries)
    with pytest.raises(TypeError):
        GridFunction(4.0, {1: 1})
    g = GridFunction(4, {1: 5})
    for k in (1.5, 1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            g.value(k)
    assert g.value(1) == 5


def test_dense_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        g = random_grid_function(rng)
        assert GridFunction(g.denominator, dict(enumerate(g.dense()))) == g


def test_hat_interpolates_linearly():
    f = PiecewiseLinearFunc(HAT)
    assert f.evaluate(Fraction(1, 2)) == 1
    assert f.evaluate(Fraction(1, 4)) == Fraction(1, 2)
    assert f.evaluate(Fraction(7, 8)) == Fraction(1, 4)
    assert f.evaluate(0) == 0
    assert f.evaluate(1) == 0


def test_evaluation_at_knots_matches_entries():
    rng = random.Random(12)
    for _ in range(20):
        g = random_grid_function(rng)
        for k in range(g.denominator + 1):
            assert g.evaluate(Fraction(k, g.denominator)) == g.value(k)


def test_sup_norm_and_lipschitz_of_hat():
    assert HAT.sup_norm() == 1
    assert HAT.lipschitz_constant() == 2


def test_lipschitz_is_max_slope():
    g = GridFunction(4, {1: Fraction(2, 3), 2: Fraction(-1, 5), 3: Fraction(1)})
    slopes = [4 * abs(g.value(k + 1) - g.value(k)) for k in range(4)]
    assert g.lipschitz_constant() == max(slopes)
    assert g.sup_norm() == 1


def test_domain_error_without_extension():
    f = PiecewiseLinearFunc(HAT)
    with pytest.raises(DomainEvaluationError):
        f.evaluate(Fraction(3, 2))
    with pytest.raises(DomainEvaluationError):
        f.evaluate(Fraction(-1, 10))


def test_zero_extension_returns_zero_outside():
    f = PiecewiseLinearFunc(HAT, extended_by_zero=True)
    assert f.evaluate(Fraction(3, 2)) == 0
    assert f.evaluate(Fraction(-5)) == 0
    assert f.evaluate(Fraction(1, 2)) == 1


def test_zero_extension_applies_to_polynomials_too():
    f = PolynomialFunc(Polynomial((7,)), extended_by_zero=True)
    assert f.evaluate(2) == 0
    assert f.evaluate(1) == 7
    assert f.evaluate(Fraction(1, 3)) == 7


def test_rational_func_evaluates_and_raises_at_pole():
    f = RationalFunc(Polynomial((1,)), Polynomial((Fraction(-1, 2), Fraction(1))))
    assert f.evaluate(1) == 2
    with pytest.raises(PoleError):
        f.evaluate(Fraction(1, 2))


def test_rational_func_rejects_zero_denominator():
    with pytest.raises(ParseError):
        RationalFunc(Polynomial((1,)), Polynomial.zero())


def test_parse_poly_spec():
    f = parse_funcspec("poly:0,-1,1")
    assert isinstance(f, PolynomialFunc)
    assert f.evaluate(Fraction(1, 2)) == Fraction(-1, 4)
    assert not f.extended_by_zero


def test_parse_ratfun_spec():
    f = parse_funcspec("ratfun:1;1,0,25")
    assert isinstance(f, RationalFunc)
    assert f.evaluate(Fraction(1, 5)) == Fraction(1, 2)


def test_parse_extend_zero_flag():
    f = parse_funcspec("poly:1", extend_zero=True)
    assert f.extended_by_zero
    assert f.evaluate(5) == 0


@pytest.mark.parametrize(
    "bad",
    [
        "spline:1,2",
        "poly:",
        "poly:1,x",
        "ratfun:1",
        "ratfun:1;2;3",
        "ratfun:;1",
        "ratfun:1;0",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_funcspec(bad)


def test_load_grid_file(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("L=4\n1,2/3\n3,-1\n")
    g = load_grid_function(str(path))
    assert g.denominator == 4
    assert g.dense() == (0, Fraction(2, 3), 0, Fraction(-1), 0)


def test_load_grid_file_via_funcspec(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("L=2\n1,1\n")
    f = parse_funcspec(f"pl:{path}")
    assert isinstance(f, PiecewiseLinearFunc)
    assert f.evaluate(Fraction(1, 2)) == 1


@pytest.mark.parametrize(
    "content",
    [
        "",
        "1,2\n",
        "L=x\n",
        "L=0\n",
        "L=2\n5,1\n",
        "L=2\n1,1\n1,2\n",
        "L=2\n1\n",
        "L=2\nx,1\n",
        "L=2\n1,1/0\n",
    ],
)
def test_load_grid_file_rejects(tmp_path, content):
    path = tmp_path / "grid.csv"
    path.write_text(content)
    with pytest.raises(ParseError):
        load_grid_function(str(path))


@pytest.mark.parametrize("header", ["L=1_0", "L=\uff14", "L=\u0664", "L=4.0", "L=0x4"])
def test_grid_header_is_an_ascii_integer(tmp_path, header):
    path = tmp_path / "grid.csv"
    path.write_text(f"{header}\n1,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad grid header"):
        load_grid_function(str(path))


@pytest.mark.parametrize("index", ["1_0", "\uff11", "\u0661", "1.0", "+"])
def test_grid_index_is_an_ascii_integer(tmp_path, index):
    path = tmp_path / "grid.csv"
    path.write_text(f"L=20\n{index},1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad grid index"):
        load_grid_function(str(path))


def test_load_grid_file_missing():
    with pytest.raises(ParseError):
        load_grid_function("/no/such/file.csv")


def test_load_grid_file_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"L=2\n1,\xff\n")
    with pytest.raises(ParseError, match=r"cannot read grid file .*bad\.csv.*utf-8"):
        load_grid_function(str(path))
