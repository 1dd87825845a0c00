"""The one-pass report writer against the document-building writer.

render_json and render_csv walk the result values once and write text;
``reference_render_json`` and ``reference_render_csv`` in util.py first
convert a report to a document of dicts, lists and strings and hand
that to ``json.dumps(indent=2)`` or flatten it for the ``csv`` module.
Both must give the same bytes on every CLI report and on seeded nested
values: records, polynomials, grid functions, sparse vectors with keys
out of order, empty containers, constants, exact values past the
int-to-str digit limit and strings that need escaping, a lone carriage
return among them.  Every CSV is also read back by ``csv.reader``, which
must give the reference's cells.

A CSV ``rows`` table is generated with the same columns in every row,
because the reference took the header from the first row alone.

A list writes every member but a run by the code that writes a
mapping's values; seeded lists of sparse vectors or of scalars with one
member of another shape, first, last or anywhere between, are checked
against the reference as well.  A ``NullBasis`` writes each run of
singleton vectors with one join; its runs first, last, alone, of length
1, between vectors or past gaps of pivot columns, under keys that need
escaping, in a table cell and inside lists are checked the same way,
and a run that kernel_basis never builds (empty, of another step, or
starting at a column below its index) is refused.  A table whose one column is named by the empty
string, whose lines are each one cell, is checked too: an empty one is
written ``""``.

A run's keys and paths come from two digit tables, by stretches in
which neither its index nor its column crosses a multiple of 1000, each
a prefix and a table slice.  Seeded bases whose runs start or stop on
each digit edge (0, 1, 9/10, 99/100, up to 999,999/1,000,000), runs of
length 1 on the edges among them, and runs whose index lies below an
edge that its column is on or past, are checked against the reference;
on the same edges, each stretch's prefixes and suffixes are checked
against ``str`` and against the edges of 1000, and a run's keys, paths
and CSV lines against ``str.format``.

The writer plans each record class once.  In one process, a record
class whose fields take every kind of value in turn, a dataclass
subclass of a record, a record and a str-keyed mapping with a key named
like another key's decimal twin, and mappings that mix int and str keys
are checked against the reference, and the ones whose keys clash are
refused.
"""

import csv
import dataclasses
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import pytest

from divdiff import Polynomial, cli
from divdiff.linalg import ONE, NullBasis
from divdiff.report import Report, _Run, _stretches, render_csv, render_json

from golden.check import GOLDEN_DIR, PINS, README_COMMANDS, sha256
from util import (
    random_fraction,
    random_grid_function,
    random_polynomial,
    reference_csv_rows,
    reference_render_csv,
    reference_render_json,
)

# Every README command, and every pinned run but the largest kernels,
# the minlip runs past N = 9, whose reports have the shape of N = 9's and
# cost seconds of LPs each, and nullspace-13.  nullspace-14 has the same
# L = 360,360 and stays, although it is tier-1's slowest test: it is the
# one real report with six-digit columns that meets the reference writer,
# and nullspace-13 would repeat it at the same cost (the digit edges both
# cross are also checked on seeded bases below).  A handler's report does
# not depend on --format, so each is run once.  A pin of an empty stdout
# is a run that ends in an error, with no report to write.
LARGEST = ("-256", "minlip-10", "minlip-11", "minlip-12", "nullspace-13")
CLI_RUNS = dict(README_COMMANDS)
CLI_RUNS.update(
    (f"pin-{name}", pin.argv)
    for name, pin in PINS.items()
    if not name.endswith(LARGEST) and "--format" not in pin.argv and pin.digest != sha256("")
)


def assert_csv_matches_the_reference(report, *context):
    """render_csv gives the reference writer's bytes, and the csv module
    reads those back as the reference's cells."""
    text = render_csv(report)
    assert text == reference_render_csv(report), context
    assert list(csv.reader(io.StringIO(text, newline=""))) == reference_csv_rows(report), context


def handler_report(argv):
    report, _, _ = cli.run(cli.build_parser().parse_args(argv))
    return report


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_cli_reports_match_the_reference_writer(name, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)  # so pl:hat.csv names the fixture
    report = handler_report(CLI_RUNS[name])
    assert render_json(report) == reference_render_json(report)
    assert_csv_matches_the_reference(report)


HUGE = 7**5200  # 4,395 digits, past CPython's default int-to-str limit
TEXTS = (
    "", "plain", 'say "hi"', "two\nlines", "tab\tback\\slash", "a,b",
    "pl:dätä.csv", "naïve ∑ ünïcödé", " \x01\x7f\u2028", "car\rriage", "\r\n",
)
NAME_KEYS = ("x", "value", "alpha_1", "", "-", "+x", "1a", "ä", 'q"k', "k\nl", "k\rl")
DIGIT_KEYS = ("0", "12", "-3", "+7", "007")


@dataclass(frozen=True)
class Leaf:
    zeta: Fraction
    label: str
    count: int
    maybe: Optional[Fraction]


@dataclass(frozen=True)
class Node:
    name: str
    child: Any
    children: tuple


def random_scalar(rng):
    return rng.choice((
        None, True, False,
        rng.randint(-50, 50),
        random_fraction(rng),
        random_fraction(rng, 999, 999),
        rng.choice(TEXTS),
        rng.choice((HUGE, -HUGE)),
        Fraction(rng.choice((HUGE, -HUGE)), 3),
    ))


def random_leaf(rng):
    maybe = rng.choice((None, random_fraction(rng)))
    return Leaf(random_fraction(rng), rng.choice(TEXTS), rng.randint(-9, 9), maybe)


def random_value(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return random_scalar(rng)
    shape = rng.randrange(10)
    if shape == 0:
        return [random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if shape == 1:
        return tuple(random_value(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    if shape == 2:
        # a sparse vector: int keys, some negative, in scrambled order
        keys = rng.sample(range(-20, 40), rng.randint(0, 6))
        return {k: random_value(rng, depth - 1) for k in keys}
    if shape == 3:
        keys = rng.sample(NAME_KEYS + DIGIT_KEYS, rng.randint(0, 6))
        return {k: random_fraction(rng) if rng.random() < 0.5 else random_value(rng, depth - 1)
                for k in keys}
    if shape == 4:
        # int and str keys together keep their own order
        return {3: random_scalar(rng), "b": random_scalar(rng), -1: random_fraction(rng)}
    if shape == 5:
        return random_polynomial(rng) if rng.random() < 0.8 else Polynomial()
    if shape == 6:
        return random_grid_function(rng)
    if shape == 7:
        return random_leaf(rng)
    if shape == 8:
        children = tuple(random_value(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        return Node(rng.choice(TEXTS), random_value(rng, depth - 1), children)
    return rng.choice(([], {}, (), [[]], {"e": {}}, ((),)))


def random_rows(rng):
    """A table whose rows all have the same columns, of the same kinds."""
    if rng.random() < 0.5:
        maybe = rng.choice((None, random_fraction(rng)))  # one kind per column
        return [
            dataclasses.replace(random_leaf(rng), maybe=maybe) for _ in range(rng.randint(0, 4))
        ]
    return [
        {"N": n, "r": random_fraction(rng), "s": rng.choice(TEXTS), "ok": rng.random() < 0.5,
         "none": None, "12": random_fraction(rng)}
        for n in range(rng.randint(0, 4))
    ]


def random_report(rng):
    inputs = {k: random_value(rng, 1) for k in rng.sample(NAME_KEYS, rng.randint(0, 4))}
    if rng.random() < 0.2:
        results = random_value(rng, 4)
        if not isinstance(results, (dict, Node, Leaf)):
            results = {"value": results}
    else:
        keys = rng.sample(NAME_KEYS + DIGIT_KEYS, rng.randint(0, 6))
        results = {k: random_value(rng, 4) for k in keys}
        if rng.random() < 0.5:
            results["rows"] = random_rows(rng)
    return Report(rng.choice(("demo", "démo")), inputs, results)


def test_seeded_nested_values_match_the_reference_writer():
    rng = random.Random(20161)
    for _ in range(400):
        report = random_report(rng)
        assert render_json(report) == reference_render_json(report)
        assert_csv_matches_the_reference(report)


# Members of many shapes, sparse vectors with scrambled negative keys
# among them; each is put once into a list of sparse vectors or of
# scalars.
ODD_MEMBERS = (
    lambda rng: {True: random_fraction(rng), 3: random_fraction(rng)},  # key text "True"
    lambda rng: {2: rng.randint(-9, 9), 5: random_fraction(rng)},  # a bare JSON number
    lambda rng: {"7": random_fraction(rng)},
    lambda rng: {1: random_fraction(rng), "b": random_fraction(rng)},
    lambda rng: [random_fraction(rng), [rng.randint(0, 9)]],
    lambda rng: None,
    lambda rng: {},
    lambda rng: {4: Fraction(rng.choice((HUGE, -HUGE)), 7)},
    lambda rng: Fraction(rng.choice((HUGE, -HUGE)), 3),
    lambda rng: rng.choice((HUGE, -HUGE)),
    lambda rng: {k: random_fraction(rng) for k in rng.sample(range(-30, 0), rng.randint(2, 6))},
    lambda rng: {rng.choice(NAME_KEYS): random_fraction(rng), 0: random_fraction(rng)},
    lambda rng: True,
    lambda rng: rng.choice(TEXTS),
    lambda rng: rng.randint(-50, 50),
    lambda rng: random_fraction(rng),
)


def random_vectors(rng, size):
    """Sparse rational vectors: most hold one shared 1, as the singleton
    vectors of a null space basis do, the rest a few scrambled keys."""
    one = Fraction(1)
    return [
        {k: one} if rng.random() < 0.6 else {
            j: rng.choice((one, random_fraction(rng, 99, 99)))
            for j in rng.sample(range(-5, 60), rng.randint(1, 5))
        }
        for k in range(size)
    ]


def random_scalars(rng, size):
    """Scalars of one kind, strs, ints or Fractions, some objects repeated."""
    kind = rng.choice((
        lambda: rng.choice(TEXTS),
        lambda: rng.randint(-50, 50),
        lambda: random_fraction(rng),
    ))
    members = [kind() for _ in range(size)]
    for i in range(1, size):
        if rng.random() < 0.3:
            members[i] = members[i - 1]
    return members


def test_seeded_lists_with_one_odd_member_match_the_reference_writer():
    # Its own seed, so the cases above keep their random stream.
    rng = random.Random(20169)
    for case in range(2 * 3 * len(ODD_MEMBERS)):
        size = rng.randint(1, 8)
        members = (random_vectors if case % 2 else random_scalars)(rng, size)
        at = (0, size - 1, rng.randrange(size))[case // 2 % 3]  # first, last, anywhere
        members[at] = ODD_MEMBERS[case // 6](rng)
        key = rng.choice(("basis", "forced_zero_points") + NAME_KEYS)
        results: Any = {"N": size, key: members if rng.random() < 0.7 else tuple(members)}
        if rng.random() < 0.3:
            results = Node(rng.choice(TEXTS), results, (members, random_vectors(rng, 2)))
        report = Report("nullspace", {"N": size}, results)
        assert render_json(report) == reference_render_json(report), (case, at)
        assert_csv_matches_the_reference(report, case, at)


# Null space bases by their segments: a range is a run of singleton
# vectors {k: 1}, a dict the vector of a touched free column.
NULL_BASES = {
    "empty": [],
    "run-alone": [range(0, 4)],
    "run-first": [range(0, 3), {3: ONE, 1: Fraction(-1, 2)}],
    "run-last": [{0: ONE}, range(1, 4)],
    "runs-of-length-1": [range(0, 1), {1: ONE, 0: Fraction(2, 3)}, range(2, 3)],
    "runs-split-by-vectors": [
        range(0, 2), {2: ONE, 9: Fraction(5)}, {3: Fraction(1), 2: Fraction(-7, 4)},
        range(4, 7), {7: ONE}, range(8, 9),
    ],
    "adjacent-runs": [range(0, 2), range(2, 5)],
    "a-vector-walked-in-its-place": [range(0, 2), {2: 1}, range(3, 5)],  # an int value
    # Where empty runs would stand (at columns 0, 4 and 7) kernel_basis
    # writes none: the pivot columns 2, 3, 5 and 6 are gaps, and the last
    # run's columns lie past its vectors' indices.
    "empty-runs": [range(0, 2), {4: ONE}, range(7, 9)],
}
BASIS_KEYS = ("basis", "a,b", 'q"', "ä\nk")
# Keys every basis is also written under, seeded ones too, drawn by no
# random stream: one needs quotes, ends in a quote and holds brackets.
EVERY_BASIS_KEYS = ('k[0],"',)
# Where a basis sits in the results.
PLACES = {
    "field": lambda key, basis: {"N": 3, key: basis},
    "rows-cell": lambda key, basis: {key: basis, "rows": [{"N": 1, key: basis}, {"N": 2}]},
    "in-lists": lambda key, basis: {"bases": [basis, (basis,), [[basis, basis]]]},
    "in-a-record": lambda key, basis: Node(key, basis, (basis, [basis])),
}


def assert_written_as_its_vectors(place, key, segments):
    """A NullBasis at place gives the bytes of the reference writer, and
    those of the same report with the tuple of its vectors in its place.
    The reference writes a table cell as one CSV cell, not spread over
    columns, so a rows table in CSV is held to the second alone."""
    basis = NullBasis(segments)
    report = Report("nullspace", {"N": 3}, PLACES[place](key, basis))
    as_tuple = Report("nullspace", {"N": 3}, PLACES[place](key, tuple(basis)))
    assert render_json(report) == render_json(as_tuple) == reference_render_json(report)
    assert render_csv(report) == render_csv(as_tuple)
    if place != "rows-cell":
        assert_csv_matches_the_reference(report)


@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("name", list(NULL_BASES))
def test_null_bases_match_the_reference_writer(name, place):
    for key in BASIS_KEYS + EVERY_BASIS_KEYS:
        assert_written_as_its_vectors(place, key, NULL_BASES[name])


@pytest.mark.parametrize(
    "segments",
    [
        [range(0, 0), range(0, 2), range(4, 4), {4: ONE}, range(7, 7)],
        [range(0, 2), {2: ONE}, range(7, 7)],
        [range(0, 4, 2)],
        [range(3, 0, -1)],
        [{0: ONE}, {1: ONE}, range(1, 3)],
    ],
    ids=["empty-runs", "an-empty-run-last", "step-2", "step-minus-1", "column-below-index"],
)
def test_null_basis_refuses_runs_that_kernel_basis_never_builds(segments):
    # kernel_basis builds only nonempty step-1 runs whose first column k
    # is at or past the index i of its vector, k = i + c with c >= 0.
    with pytest.raises(ValueError, match="not a run of columns from index"):
        NullBasis(segments)


def random_segments(rng):
    """Runs and vectors in a random order, over increasing columns."""
    segments = []
    column = 0
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            size = rng.choice((1, 1, 2, 3, 9))
            segments.append(range(column, column + size))
            column += size
        else:
            vector = {column: rng.choice((ONE, Fraction(1)))}
            for k in rng.sample(range(column + 3), rng.randint(0, 3)):
                vector.setdefault(k, random_fraction(rng, 99, 99))
            segments.append(vector)
            column += 1
    return segments


def test_seeded_null_bases_match_the_reference_writer():
    rng = random.Random(20170)
    for _ in range(200):
        place, key = rng.choice(list(PLACES)), rng.choice(BASIS_KEYS)
        segments = random_segments(rng)
        for key in (key, *EVERY_BASIS_KEYS):
            assert_written_as_its_vectors(place, key, segments)


# The last key of each digit count and the first of the next.  Past
# 999, a run's decimal texts come by blocks of 1000 keys that share
# their leading digits.
DIGIT_EDGES = (0, 1, 10, 100, 1000, 10_000, 100_000, 1_000_000)
# The columns of a basis around an edge, as offsets from it: a run
# stops and the next starts on the edge, runs of length 1 sit on both
# sides of it, or one run crosses it.
EDGE_CUTS = ((-3, 0, 3), (-2, -1, 0, 1, 2), (-1, 0, 1), (-2, 2))


def edge_segments(rng, edge, cuts, lead):
    """A basis cut at edge + each of cuts (clipped at column 0), each
    piece a run or, if of length 1, now and then a touched vector.
    With lead (edge 10 or more), a run of the columns from 0 and a few
    left-out columns come first, so each index i lies c = k - i > 0
    below its column k, on the other side of the edge for some; without,
    i starts at 0."""
    columns = sorted({max(edge + cut, 0) for cut in cuts})
    segments: list = []
    if lead:
        segments.append(range(0, columns[0] - rng.choice((1, 2, 3, 5))))
    for a, b in zip(columns, columns[1:]):
        if b - a == 1 and rng.random() < 0.3:
            segments.append({rng.randrange(a + 9): random_fraction(rng), a: ONE})
        else:
            segments.append(range(a, b))
    return segments


def edge_runs(edge):
    """The indices and columns of runs near edge: each index on or below
    its column, near it or, where the run is short, far below it."""
    for lo, hi in ((-3, 3), (-1, 1), (-1, 0), (0, 1), (-1001, 2), (-2, 2999)):
        columns = range(max(edge + lo, 0), max(edge + hi, 1))
        for c in (0, 1, 2, 5, 5000):
            start = max(columns.start - c, 0)
            yield range(start, start + len(columns)), columns


@pytest.mark.parametrize("edge", DIGIT_EDGES)
def test_decimal_texts_match_str_on_digit_edges(edge):
    # Each stretch's prefix and suffixes give str() of its indices and
    # of its columns, and neither crosses a multiple of 1000.
    for indices, columns in edge_runs(edge):
        i_texts: list = []
        k_texts: list = []
        for ip, isuf, kp, ksuf in _stretches(indices.start, columns.start, len(columns)):
            assert isuf and len(isuf) == len(ksuf), (indices, columns)
            for prefix, suffixes, texts in (ip, isuf, i_texts), (kp, ksuf, k_texts):
                texts += [prefix + s for s in suffixes]
                assert int(texts[-len(suffixes)]) // 1000 == int(texts[-1]) // 1000, texts[-1]
        assert i_texts == list(map(str, indices)), (indices, columns)
        assert k_texts == list(map(str, columns)), (indices, columns)


@pytest.mark.parametrize("edge", DIGIT_EDGES)
def test_run_paths_on_digit_edges(edge):
    # The texts a run writes: in JSON its singleton vectors' keys and its
    # exact paths, in CSV its lines, and its (path, cell) pairs in a table.
    sep = ",\n    "
    for indices, columns in edge_runs(edge):
        run = _Run("results.basis", indices.start, columns)
        both = list(zip(indices, columns))
        assert run.keys('{\n      "', '": "1"\n    }', sep) == sep.join(
            '{\n      "%d": "1"\n    }' % k for k in columns
        ), (indices, columns)
        assert run.paths('"results.basis[', '"', sep) == sep.join(
            '"results.basis[{}].{}"'.format(i, k) for i, k in both
        ), (indices, columns)
        assert run.paths("results.basis[", ",1\n") == "".join(
            "results.basis[{}].{},1\n".format(i, k) for i, k in both
        ), (indices, columns)
        assert list(run.pairs()) == [("results.basis[{}].{}".format(i, k), "1") for i, k in both]


@pytest.mark.parametrize("edge", DIGIT_EDGES)
def test_null_bases_on_digit_edges_match_the_reference_writer(edge):
    rng = random.Random(20171 + edge)
    for cuts in EDGE_CUTS:
        # A lead run past 10,000 columns would cost the reference seconds.
        for lead in (False, True) if 10 <= edge <= 10_000 else (False,):
            segments = edge_segments(rng, edge, cuts, lead)
            for key in ("basis", *EVERY_BASIS_KEYS):
                assert_written_as_its_vectors("field", key, segments)


@pytest.mark.parametrize("cells", [[""], ["x", "", None], [None, 3], [True, ""]])
def test_a_table_of_one_empty_named_column_matches_the_reference_writer(cells):
    report = Report("probe", {"N": 1}, {"N": 1, "rows": [{"": cell} for cell in cells]})
    assert render_json(report) == reference_render_json(report)
    assert_csv_matches_the_reference(report)
    assert '\n""\n' in render_csv(report)  # the header, one empty cell


# The writer plans each record class once, by its exact class: its
# field names and key texts, and whether a twin can clash with a field.
# What a field holds is never planned, and only a class whose twin is
# also a field refuses anything.
@dataclass(frozen=True)
class Turn:
    first: Any
    second: Any


@dataclass(frozen=True)
class SubLeaf(Leaf):
    extra: Fraction


@dataclass(frozen=True)
class Clashing:
    x: Any
    x_decimal: Any


@dataclass(frozen=True)
class ClashingTwinFirst:
    x_decimal: Any
    x: Any


def every_kind(rng):
    """One value of each kind a field can hold."""
    return (
        random_fraction(rng), rng.randint(-50, 50), rng.choice((HUGE, -HUGE)), rng.choice(TEXTS),
        rng.random() < 0.5, None, random_leaf(rng), random_polynomial(rng),
        random_grid_function(rng), [random_fraction(rng), rng.randint(0, 9)], {},
    )


def assert_both_match_the_reference(results):
    report = Report("demo", {"x": Fraction(1, 3)}, results)
    assert render_json(report) == reference_render_json(report), results
    assert_csv_matches_the_reference(report, results)


def test_a_record_class_writes_each_kind_its_fields_take_in_turn():
    rng = random.Random(4101)
    for _ in range(3):
        kinds = every_kind(rng)
        for i in range(len(kinds)):
            # The same class, one field kind after another, in one process.
            assert_both_match_the_reference({"turn": Turn(kinds[i], kinds[-1 - i])})
        turns = [Turn(kinds[i], kinds[(i + 3) % len(kinds)]) for i in range(len(kinds))]
        assert_both_match_the_reference({"turns": turns, "back": turns[::-1]})


def test_a_dataclass_subclass_of_a_record_is_its_own_class():
    rng = random.Random(4102)
    for _ in range(10):
        leaf = random_leaf(rng)
        sub = SubLeaf(leaf.zeta, leaf.label, leaf.count, leaf.maybe, random_fraction(rng))
        for results in ({"r": sub}, {"r": leaf}, {"rs": [leaf, sub, leaf, sub]}):
            assert_both_match_the_reference(results)
        assert '"extra": ' in render_json(Report("demo", {}, {"r": sub}))
        assert '"extra": ' not in render_json(Report("demo", {}, {"r": leaf}))


def assert_refused(results, field):
    """Both formats refuse results that write field twice."""
    for render in (render_json, render_csv):
        with pytest.raises(ValueError, match=rf"{field} is written twice"):
            render(Report("demo", {}, results))


@pytest.mark.parametrize("cls", [Clashing, ClashingTwinFirst])
def test_a_record_with_a_field_named_like_a_twin_refuses_only_a_fraction(cls):
    for good in (
        cls(x=3, x_decimal="own"), cls(x=HUGE, x_decimal=Fraction(1, 2)), cls(x=None, x_decimal=None),
    ):
        assert_both_match_the_reference({"r": good, "rs": [good, good]})
    assert_refused({"r": cls(x=Fraction(1, 3), x_decimal="own")}, r"results\.r\.x_decimal")
    assert_refused(
        {"rs": [cls(x=1, x_decimal=2), cls(x=Fraction(-1, 2), x_decimal=3)]},
        r"results\.rs\[1\]\.x_decimal",
    )
    # A refusal leaves the class's plan as it was.
    assert_both_match_the_reference({"r": cls(x=4, x_decimal="own")})


def test_a_str_keyed_mapping_with_a_twin_named_key():
    for good in (
        {"k": 2, "k_decimal": "own", "j": Fraction(1, 2)},
        {"k_decimal": Fraction(1, 3), "j": Fraction(1, 2)},
        {"j": Fraction(1, 2), "12": Fraction(3, 4), "12_decimal": "own"},
    ):
        assert_both_match_the_reference({"m": good, "ms": [good]})
    for bad in ({"j": Fraction(1, 2), "k_decimal": "own", "k": Fraction(1, 3)},
                {"k": Fraction(1, 3), "j": 1, "k_decimal": "own"}):
        assert_refused({"m": bad}, r"results\.m\.k_decimal")


def test_a_mapping_that_mixes_int_and_str_keys():
    for good in (
        {2: Fraction(1, 2), "1": "b", "x": Fraction(1, 3)},
        {"x": Fraction(1, 3), 1: Fraction(1, 2), 3: None},
    ):
        assert_both_match_the_reference({"m": good, "ms": [good]})
    for bad in ({1: Fraction(1, 2), "1": "b"}, {"1": "b", "x": Fraction(1, 3), 1: 2}):
        assert_refused({"m": bad}, r"results\.m\.1")
