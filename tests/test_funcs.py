"""Grid functions, exact function descriptions, and their text syntax."""

import random
from fractions import Fraction

import pytest

from divdiff import (
    DomainEvaluationError,
    FuncSpec,
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

from util import random_grid_function, random_polynomial, reference_value

HAT = GridFunction(2, {1: Fraction(1)})
# A few entries of mixed denominators on L = 27,720 = 2^3 3^2 5 7 11.
WIDE = GridFunction(27_720, {
    0: Fraction(-5, 7), 1: Fraction(3, 11), 9_240: Fraction(-13, 8),
    13_861: Fraction(22, 9), 27_719: Fraction(1, 6), 27_720: Fraction(-4, 3),
})
EMPTY = GridFunction(5, {})


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
        f = PiecewiseLinearFunc(g)
        for k in range(g.denominator + 1):
            assert f.evaluate(Fraction(k, g.denominator)) == g.value(k)


def test_sup_norm_and_lipschitz_of_hat():
    assert HAT.sup_norm() == 1
    assert HAT.lipschitz_constant() == 2


def test_lipschitz_is_max_slope():
    g = GridFunction(4, {1: Fraction(2, 3), 2: Fraction(-1, 5), 3: Fraction(1)})
    slopes = [4 * abs(g.value(k + 1) - g.value(k)) for k in range(4)]
    assert g.lipschitz_constant() == max(slopes)
    assert g.sup_norm() == 1


def test_sup_norm_is_the_largest_magnitude_on_the_grid():
    assert WIDE.sup_norm() == Fraction(22, 9)
    assert EMPTY.sup_norm() == 0
    negative = GridFunction(3, {1: Fraction(-7, 4), 3: Fraction(3, 2)})
    assert negative.sup_norm() == Fraction(7, 4)
    rng = random.Random(4141)
    for _ in range(200):
        g = random_grid_function(rng)
        norm = g.sup_norm()
        assert type(norm) is Fraction
        assert norm == max(abs(v) for v in g.dense())


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
        RationalFunc(Polynomial((1,)), Polynomial())


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


def _pair_or_error(pair, t):
    try:
        a, b = pair(t)
    except (PoleError, DomainEvaluationError) as exc:
        return type(exc).__name__, str(exc)
    assert type(a) is int and type(b) is int and b > 0
    return Fraction(a, b)


def _value_or_error(value, *args):
    try:
        return value(*args)
    except (PoleError, DomainEvaluationError) as exc:
        return type(exc).__name__, str(exc)


def test_pairs_give_the_value_at_each_lattice_point():
    # pairs(D)(t) is f(t/D) as integers a/b with b > 0, poles included:
    # the denominators here are negative on [0, 1] and vanish at 2, at
    # -1/2 and at 3/4.  The grids are random, wide and sparse, and empty.
    # Both are held to reference_value, which reads neither: pairs give
    # f's own values, so they are held to it at every t of an unextended
    # f and at 0 <= t <= D of a zero-extended one, and evaluate, which
    # applies the extension, at every t.
    rng = random.Random(2025_02)
    negative = Polynomial((-2, 1))
    specs = [
        PolynomialFunc(Polynomial(()), extended_by_zero=False),
        PolynomialFunc(Polynomial((Fraction(7, 3),)), extended_by_zero=True),
        RationalFunc(Polynomial((1, 2, 0, 3)), negative),
        RationalFunc(Polynomial((Fraction(1, 2), -1)), Polynomial((-1, -2))),
        RationalFunc(Polynomial((3,)), Polynomial((Fraction(-3, 4), 1)), extended_by_zero=True),
        PiecewiseLinearFunc(random_grid_function(rng), extended_by_zero=True),
        PiecewiseLinearFunc(random_grid_function(rng)),
        PiecewiseLinearFunc(WIDE),
        PiecewiseLinearFunc(WIDE, extended_by_zero=True),
        PiecewiseLinearFunc(EMPTY),
        PiecewiseLinearFunc(EMPTY, extended_by_zero=True),
    ]
    for extend in (False, True):
        specs.append(PolynomialFunc(random_polynomial(rng, max_degree=24), extended_by_zero=extend))
        specs.append(RationalFunc(random_polynomial(rng), negative, extended_by_zero=extend))
    for f in specs:
        for D in (1, 2, 4, 12, 1_000_003):
            pair = f.pairs(D)
            for t in {0, D, -D // 2, 3 * D // 4, 2 * D, rng.randint(-2 * D, 3 * D)}:
                x = Fraction(t, D)
                expected = _value_or_error(reference_value, f, x)
                if not f.extended_by_zero or 0 <= t <= D:
                    assert _pair_or_error(pair, t) == expected, (f, D, t)
                assert _value_or_error(f.evaluate, x) == expected, (f, D, t)


def test_grid_pairs_give_the_value_on_both_sides_of_every_piece_boundary():
    # On WIDE, with D coprime to L, a boundary k/L lies between lattice
    # points t/D unless k is 0 or L, and the points on both sides of each
    # boundary are held to reference_value.  Every pair of one D inside
    # [0, 1] has the one denominator M D, with M = lcm(7, 11, 8, 9, 6, 3)
    # = 5,544 on WIDE and M = 1 on the empty grid, and the zero extension
    # does not change it.  Outside, the plain grid's pairs name the point,
    # and the zero-extended grid evaluates to 0.
    for grid, M in ((WIDE, 5_544), (EMPTY, 1)):
        L = grid.denominator
        f = PiecewiseLinearFunc(grid)
        g = PiecewiseLinearFunc(grid, extended_by_zero=True)
        for D in (13, 1_000_003):
            pair = f.pairs(D)
            extended = g.pairs(D)
            inside = set()
            for k in range(L + 1):
                t = k * D // L
                inside.update(u for u in (t - 1, t, t + 1, t + 2) if 0 <= u <= D)
            for t in sorted(inside):
                assert _pair_or_error(pair, t) == reference_value(f, Fraction(t, D)), (L, D, t)
                assert pair(t)[1] == M * D, (L, D, t)
                assert extended(t) == pair(t), (L, D, t)
            for t in (-D, -1, D + 1, 2 * D):
                message = f"{Fraction(t, D)} is outside [0, 1]"
                assert _pair_or_error(pair, t) == ("DomainEvaluationError", message)
                assert _value_or_error(f.evaluate, Fraction(t, D)) == (
                    "DomainEvaluationError", message)
                assert g.evaluate(Fraction(t, D)) == 0, (L, D, t)


def test_evaluate_applies_the_zero_extension_without_asking_pairs(monkeypatch):
    # Outside [0, 1] a zero-extended f is 0 by evaluate alone; its pairs,
    # which give the kind's own values, are not asked for.  Inside, they
    # are, once per call.
    specs = [
        PolynomialFunc(Polynomial((1, -2, 3)), extended_by_zero=True),
        RationalFunc(Polynomial((1, 2, 0, 3)), Polynomial((-2, 1)), extended_by_zero=True),
        # Its pole, 3/2, lies outside [0, 1], so evaluate never meets it.
        RationalFunc(Polynomial((1,)), Polynomial((-3, 2)), extended_by_zero=True),
        PiecewiseLinearFunc(WIDE, extended_by_zero=True),
    ]
    asked = []
    for kind in {type(f) for f in specs}:
        pairs = kind.pairs
        monkeypatch.setattr(
            kind, "pairs", lambda self, D, pairs=pairs: asked.append(D) or pairs(self, D)
        )
    for f in specs:
        for x in (Fraction(-1, 3), Fraction(-1), Fraction(3, 2), 2, Fraction(1_000_001, 1_000_000)):
            assert f.evaluate(x) == 0, (f, x)
        assert asked == [], f
        for x in (0, Fraction(2, 7), 1):
            assert f.evaluate(x) == reference_value(f, x), (f, x)
        assert asked == [1, 7, 1], f
        asked.clear()


def test_a_kind_without_pairs_is_refused_by_name():
    # evaluate reads pairs and pairs never reads evaluate, so a subclass
    # that gives no pairs fails at once, not by recursion.
    class Bare(FuncSpec):
        extended_by_zero = False

    for call in (lambda: Bare().evaluate(Fraction(1, 3)), lambda: Bare().pairs(3)):
        with pytest.raises(NotImplementedError, match="Bare"):
            call()
