"""Machine-readable reports: JSON and CSV with exact rational fields.

This module alone decides how a result becomes report text.  The CLI
hands it library results as they are, and it writes them by their exact
class (a subclass of str or dict, say, raises TypeError):

- a dataclass record is written as its fields, in declaration order;
- a Polynomial is written as its coefficient list, ascending;
- a GridFunction is written as its nonzero entries, by grid index;
- a mapping with integer keys (a sparse vector) is written in
  increasing key order, each key as a string; other mappings keep
  their own order;
- lists, tuples and null space bases (linalg.NullBasis) are written as
  lists.

Every rational quantity is serialized as a canonical "p/q" string so
reports are bit-reproducible and re-parseable without loss.  An int is
a JSON number up to 4,300 digits (CPython's default int-to-str limit)
and a string of digits past that, whatever limit the interpreter runs
with.  Fields with a name-like key additionally get a "<key>_decimal"
sibling holding a 15-significant-digit decimal for human readers,
rounded half-even in a context of its own, not the caller's; these are
display columns only and are listed as approximate in the provenance
block.

A report document has four top-level keys: command, inputs, results,
provenance.  Both formats come from one depth-first walk over the
result values themselves; no intermediate document is built.  For JSON
the walk writes the text json.dumps(document, indent=2) would give,
and collects the paths of the exact and decimal fields for the
provenance block.  For CSV it yields one key,value line per scalar,
keyed by its path; when the results, a dict or a record, contain a
"rows" list (a table, e.g. one line per N), the rows are appended as a
regular CSV table after a separating blank line, with the columns of
all rows in the order they first appear.

The walk writes a scalar member (a Fraction, int, str, bool or None)
by its exact class, with one append, and a container by the plan of
its exact class: a list, a mapping, or a record.  A record class is
planned once, on its first record, and the plan is kept: its field
names, each field's JSON key text, the name and key text of each
field's "<name>_decimal" twin, and whether a twin is also a field.  A
plan holds nothing of the values, so a field may hold another kind in
each record.  The keys written so far are kept, and each checked with
_claim, only where two could clash: in a record class one of whose
twins is a field, where that field's twin is claimed when it holds a
Fraction, and in a mapping whose keys are neither all ints nor all
strs, or whose str keys include one ending in "_decimal".  A mapping
of int keys is sorted, and its digit keys get no twin; a list of
plain strings, such as the paths of provenance, is one join.

A list is written by one loop over its members, which writes two
kinds of member itself.  A NullBasis is walked by its segments, each
one's first list index counted from the sizes of those before it, and
a run of untouched columns is written whole: one text of its singleton
vectors, and one _Run for their exact paths, written in provenance, or
their CSV lines.  Every other member, sparse vectors and scalars among
them, is written by the code that writes the values of a mapping.

A run's keys and paths come from two static digit tables, made on
first use: the texts of 0..999, and the suffixes "000".."999" that
follow str(k // 1000) past 999.  _stretches cuts a run's indices i and
columns k into stretches in which neither crosses a multiple of 1000,
each a prefix and a table slice for i and for k.  With glue the text
between two items, the keys are one (glue + p).join(slice) per block of
columns.  The paths "i].k" of a stretch are one join of one list: the
separators glue + ip and "]." + kp repeated, with the slices isuf and
ksuf put between them by slice assignment.
A NullBasis of more than sys.maxsize vectors (past N = 42) has members
that no list index reaches, and writing it raises OverflowError before
any of its text is made.

Every CSV line comes from one line writer: a cell goes in quotes, its
quotes doubled, when it holds a comma, a quote, a newline or a carriage
return, and a row of one empty cell is written "" so that it is not a
blank line.  Each cell reads back unchanged through csv.reader.  The
lines of a run are its paths between the halves of the line of (path +
"[", 1), cut after that "[": its paths add only digits, brackets and
dots to the list's path, and none of those changes how a cell is quoted.

`nullspace --N 12` writes a basis of 27,708 vectors, 27,674 of them in
46 runs: 2.0 MB of JSON or 0.8 MB of CSV.  In process (Python 3.11.7,
2-CPU Intel Xeon VM, time.perf_counter, twelve rounds of 15 renders),
render_json takes 2.4-4.1 ms and render_csv 1.6-2.7 ms (round medians;
3.5-5.5 and 2.7-4.4 ms when each path was a string of its own).
"""

import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from . import __version__
from .funcs import GridFunction
from .linalg import ONE, NullBasis
from .poly import Polynomial
from .rational import decimal_string, format_rational, integer_text


@dataclass
class Report:
    command: str
    inputs: dict[str, Any]
    results: Any  # a dict, or a result dataclass written as its fields


# How a container that is not a record is written: as a list or a mapping.
_LIST, _MAP = "list", "map"
# The JSON text and CSV cell of None, True and False.
_CONSTANTS = {None: ("null", ""), True: ("true", "true"), False: ("false", "false")}


# The text of the 1 that every singleton vector of a NullBasis run holds.
_ONE = str(ONE)
# The texts of 0..999, and the suffixes "000".."999" that follow
# str(k // 1000) past 999: each made on first use, whole, in one step.
_TEXTS: list[str] = []
_SUFFIXES: list[str] = []


def _stretches(i: int, k: int, n: int) -> Iterator[list]:
    """The n indices i, i + 1, ... and columns k, k + 1, ... of a run, in
    stretches in which neither crosses a multiple of 1000: for each, the
    prefix (str(j // 1000), or "" below 1000) and the table slice of its
    indices j, then those of its columns."""
    while n:
        m = min(n, 1000 - i % 1000, 1000 - k % 1000)
        cuts: list = []
        for block, low in divmod(i, 1000), divmod(k, 1000):
            table = _SUFFIXES if block else _TEXTS
            if not table:
                table[:] = map("{:03d}".format if block else str, range(1000))
            cuts += str(block or ""), table[low:low + m]
        yield cuts
        i, k, n = i + m, k + m, n - m


class _Run(NamedTuple):
    """The singleton vectors {k: 1} of a NullBasis run, members start,
    start + 1, ... of the list at path, with k going through columns.
    It stands in for their (path, cell) pairs in CSV, and for their exact
    paths in JSON, until they are written with one join per stretch."""

    path: str
    start: int
    columns: range

    def keys(self, head: str, tail: str, sep: str) -> str:
        """head, the text of k and tail for each column k, joined by sep."""
        glue, k = tail + sep + head, self.columns.start
        blocks = _stretches(k, k, len(self.columns))
        return head + glue.join([p + (glue + p).join(ks) for _, _, p, ks in blocks]) + tail

    def paths(self, head: str, tail: str, sep: str = "") -> str:
        """head, "i].k" and tail for each member i and its column k, joined by sep."""
        glue = tail + sep + head
        texts = []
        for ip, isuf, kp, ksuf in _stretches(self.start, self.columns.start, len(self.columns)):
            # glue + ip (ip alone first), isuf[j], "]." + kp and ksuf[j], for each j.
            parts = [glue + ip, "", "]." + kp, ""] * len(isuf)
            parts[0], parts[1::4], parts[3::4] = ip, isuf, ksuf
            texts.append("".join(parts))
        return head + glue.join(texts) + tail

    def pairs(self) -> Iterator[tuple[str, str]]:
        """The (path, cell) pairs of the 1s."""
        tails = self.paths("", "", "\n").split("\n")  # digits, brackets and dots
        return zip(map((self.path + "[").__add__, tails), repeat(_ONE))


class _Record(NamedTuple):
    """The plan of one record class: what writing its records needs that
    the class alone decides, worked out once for it.

    values gives the tuple of a record's field values, in the order of
    names.  fields holds, per field, its name, its JSON key text (quoted,
    with ": ") and the name and JSON key text of its decimal twin.  clash
    says whether a twin is also a field, the one way two keys of a record
    can clash."""

    names: tuple[str, ...]
    values: Callable[[Any], tuple]
    fields: tuple[tuple[str, str, str, str], ...]
    clash: bool


# How a container is written, by its exact class: as a list, as a mapping,
# as what a Polynomial or GridFunction holds, or by the _Record of a
# dataclass, added by _record on first use.
_PLANS: dict[type, Any] = {
    list: _LIST, tuple: _LIST, NullBasis: _LIST, dict: _MAP,
    Polynomial: Polynomial, GridFunction: GridFunction,
}


def _record(cls: type) -> Optional[_Record]:
    """The plan of the record class cls, made on first use and kept in
    _PLANS; None if cls is no dataclass, whose values cannot be written."""
    if not is_dataclass(cls):
        return None
    names = tuple(f.name for f in fields(cls))
    twins = [name + "_decimal" for name in names]  # a field name is no digit key
    plan = _PLANS[cls] = _Record(
        names,
        attrgetter(*names) if len(names) > 1 else lambda r: tuple(getattr(r, n) for n in names),
        tuple(zip(names, [_quote(n) + ": " for n in names], twins, [_quote(t) + ": " for t in twins])),
        not set(names).isdisjoint(twins),
    )
    return plan


def _claim(seen: set, name: str, prefix: str) -> None:
    """Record that a mapping writes the key name; raise ValueError if it already did."""
    if name in seen:
        raise ValueError(f"report field {prefix}{name} is written twice")
    seen.add(name)


def _write(
    value: Any, plan: Any, path: str, pad: Optional[str], out: list, exact: list, approx: list
) -> None:
    """Write a container by its plan (_LIST, _MAP or a _Record), found at path, to out.

    The path of a field is its container's path, a dot and its key, or
    the key alone at the top; the path of a list element adds "[i]".
    With pad a string (a newline and the indent of the value's first
    line), out gets JSON text, one string per scalar member, and exact
    and approx get the paths of the exact and the decimal fields.  With
    pad None, out gets one (path, cell) pair per scalar, and exact and
    approx are left alone.  The paths, or the pairs, of a NullBasis run
    are one _Run.  A mapping or record that would write one key twice
    raises ValueError, and a NullBasis past sys.maxsize vectors
    OverflowError.
    """
    inner = None if pad is None else pad + "  "
    prefix = path + "." if path else ""
    # The keys written so far, when two keys or a key and a decimal twin
    # could clash (two keys with one str(), or a key named "<k>_decimal").
    seen: Optional[set] = None
    if plan is _LIST:
        brackets = "[]"
        runs = type(value) is NullBasis
        items: Any = enumerate(value)
        if runs:
            if value.dimension > sys.maxsize:
                raise OverflowError(f"a basis of {value.dimension} vectors is past sys.maxsize")
            # Each segment with the list index of its first vector.
            sizes = [s.stop - s.start if type(s) is range else 1 for s in value.segments]
            items = zip(accumulate(sizes, initial=0), value.segments)
        if inner is not None:
            # The JSON text of a singleton vector {c: 1}: head, c, tail.
            head, tail = "{" + inner + '  "', '"' + inner + "}"
            if not runs and set(map(type, value)) == {str}:
                # Plain strings, such as the paths of provenance: one join.
                out.append(f"[{inner}" + f",{inner}".join(map(_quote, value)) + f"{pad}]")
                return
    elif plan is _MAP:
        brackets = "{}"
        items = value.items()
        if all(map(isinstance, value, repeat(int))):
            # Distinct ints have distinct texts, and a digit key has no twin.
            items = sorted(items)
        elif set(map(type, value)) != {str} or any(map(str.endswith, value, repeat("_decimal"))):
            seen = set()
    else:
        brackets = "{}"
        items = zip(plan.fields, plan.values(value))
        if plan.clash:
            seen = set(plan.names)  # a twin that is a field clashes when written
    # In JSON every member opens with a comma and adds to out; the first
    # one's comma becomes the opening bracket when the last is written.
    comma = "" if inner is None else "," + inner
    mark = len(out)
    for k, v in items:
        cls = type(v)
        if plan is _LIST:
            if cls is range and runs:
                # A run of untouched columns: the singleton vectors {c: 1}.
                run = _Run(path, k, v)
                if inner is None:
                    out.append(run)
                else:
                    out += comma, run.keys(head, f'": "{_ONE}{tail}', comma)
                    exact.append(run)
                continue
            if cls is _Run:
                # The exact paths of a run, in the provenance block.
                out += comma, v.paths(_quote(v.path)[:-1] + "[", '"', comma)
                continue
            key = twin = None
            child = f"{path}[{k}]"
            keyed = comma
        elif plan is _MAP:
            key = str(k)
            child = prefix + key
            twin = None
            if seen is not None:
                _claim(seen, key, prefix)
            keyed = f"{comma}{_quote(key)}: "
        else:
            key, keyed, twin, twin_keyed = k
            child = prefix + key
            keyed = comma + keyed
        if cls is Fraction:
            try:
                cell = str(v)
            except ValueError:  # past the interpreter's int-to-str limit
                cell = format_rational(v)
            text = f'"{cell}"'
            if plan is _MAP and not key.lstrip("+-").isdigit():
                twin = key + "_decimal"
                twin_keyed = _quote(twin) + ": "
            if twin is not None:
                # A name-like field gets a decimal twin for human readers.
                if seen is not None:
                    _claim(seen, twin, prefix)
                decimal = decimal_string(v)
                if inner is None:
                    out += (child, cell), (child + "_decimal", decimal)
                else:
                    out.append(f'{keyed}{text}{comma}{twin_keyed}"{decimal}"')
                    exact.append(child)
                    approx.append(child + "_decimal")
                continue
        elif cls is int:
            cell = integer_text(v)
            # A string of digits past 4,300 digits, whatever limit runs.
            text = cell if len(cell) - (v < 0) <= 4300 else f'"{cell}"'
        elif cls is str:
            cell = v
            text = _quote(v)
        elif v is None or cls is bool:
            text, cell = _CONSTANTS[v]
        else:
            vplan = _PLANS.get(cls) or _record(cls)
            if vplan is Polynomial:
                v, vplan = v.coefficients, _LIST
            elif vplan is GridFunction:
                v, vplan = v.entries, _MAP
            elif vplan is None:
                raise TypeError(f"cannot serialize {cls.__name__} at {child}")
            if inner is not None:
                out.append(keyed)
            _write(v, vplan, child, inner, out, exact, approx)
            continue
        if inner is None:
            out.append((child, cell))
        else:
            out.append(keyed + text)
            if cls is Fraction or cls is int:
                exact.append(child)
    if inner is not None:
        if len(out) == mark:
            out.append(brackets)
        else:
            out[mark] = brackets[0] + out[mark][1:]
            out.append(pad + brackets[1])


def render_json(report: Report) -> str:
    exact: list[str] = []
    approx: list[str] = []
    # Provenance goes last, so its lists are complete when they are written.
    document = {
        "command": report.command,
        "inputs": report.inputs,
        "results": report.results,
        "provenance": {"version": __version__, "exact_fields": exact, "approx_fields": approx},
    }
    out: list[str] = []
    _write(document, _MAP, "", "\n", out, exact, approx)
    out.append("\n")
    return "".join(out)


def _line(cells: Sequence[str]) -> str:
    """The CSV line of a row of cells.  A cell goes in quotes, its quotes
    doubled, when it holds a comma, a quote, a newline or a carriage
    return; a row of one empty cell is written "", so that it is not a
    blank line."""
    if len(cells) == 1 and not cells[0]:
        return '""\n'
    return ",".join([
        '"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c or "\r" in c else c
        for c in cells
    ]) + "\n"


def render_csv(report: Report) -> str:
    results, table = report.results, None
    plan = _PLANS.get(type(results)) or _record(type(results))
    # Only a dict or a record holds a table; the walk writes, or refuses, the rest.
    if plan is _MAP or type(plan) is _Record:
        results = dict(results) if plan is _MAP else dict(zip(plan.names, plan.values(results)))
        table = results.pop("rows", None)
    document = {
        "command": report.command,
        "inputs": report.inputs,
        "results": results,
        "provenance": {"version": __version__},
    }
    pairs: list = [("key", "value")]
    _write(document, _MAP, "", None, pairs, [], [])
    lines = []
    for pair in pairs:
        if type(pair) is _Run:
            # Its paths add to its path only digits, brackets and a dot,
            # none of which changes the quoting: the line of (path + "[",
            # 1), cut after that "[", is what goes around each "i].k".
            line = _line((pair.path + "[", _ONE))
            cut = line.rindex("[") + 1
            lines.append(pair.paths(line[:cut], line[cut:]))
        else:
            lines.append(_line(pair))
    if table is not None:
        lines.append(_line(()))
        rows = []
        for i, row in enumerate(table):
            plan = _PLANS.get(type(row)) or _record(type(row))
            if plan is not _MAP and type(plan) is not _Record:
                raise TypeError(f"results.rows[{i}] is not a record")
            cells: list = []
            _write(row, plan, "", None, cells, [], [])
            rows.append(dict(
                pair for c in cells for pair in (c.pairs() if type(c) is _Run else (c,))
            ))
        if rows:
            # The columns of every row, in the order they first appear.
            header = list(dict.fromkeys(column for row in rows for column in row))
            lines.append(_line(header))
            lines += [_line([row.get(column, "") for column in header]) for row in rows]
    return "".join(lines)
