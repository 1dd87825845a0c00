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
keyed by its path; when the results contain a "rows" list (a table,
e.g. one line per N), the rows are appended as a regular CSV table
after a separating blank line, with the columns of all rows in the
order they first appear.

A list is written by one loop over its members, which writes two
kinds of member itself.  A NullBasis is walked by its segments, and a
run of untouched columns is written whole: one join for the JSON text
of its singleton vectors, and one _Run for their exact paths or their
CSV lines.  In provenance, such a _Run is written as its paths with one
join.  Every other member, sparse vectors and scalars among them, is
written by the code that writes the values of a mapping.

A run's keys and paths are cut from one list of decimal texts, from its
first index to its last column: the keys are one slice, and as index
i = k - c for one c, each path "i].k" is "].".join of two slices' items.
Past 999 the texts go by blocks of 1000 that share str(k // 1000), one
join each over a table of the suffixes "000".."999".  The list is built
wherever the run is written, and not kept.

Every CSV line comes from one line writer: a cell goes in quotes, its
quotes doubled, when it holds a comma, a quote, a newline or a carriage
return, and a row of one empty cell is written "" so that it is not a
blank line.  Each cell reads back unchanged through csv.reader.  The
lines of a run are one join of its tails, cut from the line of its
first path: its paths add only digits, brackets and dots to the list's
path, and none of those changes how a cell is quoted.

`nullspace --N 12` writes a basis of 27,708 vectors, 27,674 of them in
46 runs: 2.0 MB of JSON or 0.8 MB of CSV.  In process on Python 3.11
(2 CPUs), four rounds of 30 renders each, render_json takes 5.7-17 ms
(round medians 5.8-8.6 ms) and render_csv 3.7-5.2 ms (round medians
3.8-4.1 ms).
"""

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator, NamedTuple, Optional, Sequence

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


# How a value is written: a scalar kind, or a container kind.
_CONSTANT, _LIST, _MAP, _RECORD = "constant", "list", "map", "record"
# A constant's JSON text and CSV cell.
_CONSTANTS = {None: ("null", ""), True: ("true", "true"), False: ("false", "false")}


# The kind of each class a value is written as, looked up by its exact class.
_KINDS = {
    Fraction: Fraction, int: int, str: str, bool: _CONSTANT, type(None): _CONSTANT,
    list: _LIST, tuple: _LIST, NullBasis: _LIST, dict: _MAP,
    Polynomial: Polynomial, GridFunction: GridFunction,
}


def _kind(cls: type) -> Any:
    """How values of exactly the class cls are written: its kind in _KINDS,
    a record if it is another dataclass, or None if they cannot be."""
    return _KINDS.get(cls) or (_RECORD if is_dataclass(cls) else None)


# The text of the 1 that every singleton vector of a NullBasis run holds.
_ONE = str(ONE)
# The three-digit suffixes "000".."999" of _decimals, made on first use.
_SUFFIXES: list[str] = []


def _join(items: Iterator[str], head: str, tail: str, sep: str = "") -> str:
    """head, the item and tail for each of items (at least one), joined by sep."""
    return head + (tail + sep + head).join(items) + tail


def _decimals(keys: range) -> list[str]:
    """[str(k) for k in keys], a range of step 1.  Past 999 it goes by
    blocks that share str(k // 1000): one join puts it before each suffix."""
    if keys.stop <= 1000:
        return list(map(str, keys))
    if not _SUFFIXES:
        _SUFFIXES[:] = [f"{j:03d}" for j in range(1000)]  # whole, in one step
    texts = list(map(str, range(keys.start, 1000)))
    k = max(keys.start, 1000)
    while k < keys.stop:
        block, low = divmod(k, 1000)
        end = min(keys.stop - 1000 * block, 1000)
        prefix = str(block)
        texts += (prefix + (" " + prefix).join(_SUFFIXES[low:end])).split(" ")
        k += end - low
    return texts


class _Run(NamedTuple):
    """The singleton vectors {k: 1} of a NullBasis run, members start,
    start + 1, ... of the list at path, with k going through columns.
    It stands in for their (path, cell) pairs in CSV, and for their exact
    paths in JSON, until they are written with one join."""

    path: str
    start: int
    columns: range

    def texts(self) -> tuple[list[str], list[str]]:
        """The decimal texts of the run's indices i and of its columns k:
        the first and the last n of one list, as a NullBasis run starts
        at or past its index."""
        n = len(self.columns)
        texts = _decimals(range(self.start, self.columns.stop))
        return texts[:n], texts[-n:]

    def tails(self) -> Iterator[str]:
        """What follows "path[" in the path of each 1: "i].k"."""
        return map("].".join, zip(*self.texts()))

    def pairs(self) -> Iterator[tuple[str, str]]:
        """The (path, cell) pairs of the 1s."""
        return zip(map((self.path + "[").__add__, self.tails()), repeat(_ONE))


def _items(value: Any, kind: Any) -> tuple[Any, bool]:
    """The (key, value) pairs of a mapping or a record, in report order,
    and whether two of them could be written under one key."""
    if kind is _RECORD:
        items = [(f.name, getattr(value, f.name)) for f in fields(value)]
        return items, len(items) > 1
    items = value.items()
    if len(items) < 2:
        return items, False
    if all(map(isinstance, value, repeat(int))):
        # Distinct ints have distinct texts, and a digit key has no twin.
        return sorted(items), False
    return items, True


def _claim(seen: set, name: str, prefix: str) -> None:
    """Record that a mapping writes the key name; raise ValueError if it already did."""
    if name in seen:
        raise ValueError(f"report field {prefix}{name} is written twice")
    seen.add(name)


def _write(
    value: Any, kind: Any, path: str, pad: Optional[str], out: list, exact: list, approx: list
) -> None:
    """Write a list, mapping or record of the given kind, found at path, to out.

    The path of a field is its container's path, a dot and its key, or
    the key alone at the top; the path of a list element adds "[i]".
    With pad a string (a newline and the indent of the value's first
    line), out gets JSON text, and exact and approx get the paths of the
    exact and the decimal fields.  With pad None, out gets one
    (path, cell) pair per scalar, and exact and approx are left alone.
    The paths, or the pairs, of a NullBasis run are one _Run.
    A mapping or record that would write one key twice raises ValueError.
    """
    inner = None if pad is None else pad + "  "
    # The keys written so far, when two keys or a key and a decimal twin
    # could clash (two keys with one str(), or a key named "<k>_decimal").
    seen: Optional[set] = None
    if kind is _LIST:
        runs = type(value) is NullBasis
        items: Any = zip(value.offsets, value.segments) if runs else enumerate(value)
        brackets = "[]"
        if inner is not None:
            # The JSON text of a singleton vector {c: 1}: head, c, tail.
            head, tail = "{" + inner + '  "', '"' + inner + "}"
    else:
        items, clash = _items(value, kind)
        prefix = path + "." if path else ""
        if clash:
            seen = set()
        brackets = "{}"
    if inner is not None:
        first, comma = brackets[0] + inner, "," + inner
    # In JSON every member adds to out, so out keeps this length until
    # the first member is written.
    mark = len(out)
    for k, v in items:
        if inner is not None:
            opener = first if len(out) == mark else comma
        if kind is _LIST:
            cls = type(v)
            if cls is range and runs:
                # A run of untouched columns: the singleton vectors {c: 1}.
                run = _Run(path, k, v)
                if inner is None:
                    out.append(run)
                else:
                    out += opener, _join(run.texts()[1], head, f'": "{_ONE}{tail}', comma)
                    exact.append(run)
                continue
            if cls is _Run:
                # The exact paths of a run, in the provenance block.
                out += opener, _join(v.tails(), _quote(v.path)[:-1] + "[", '"', comma)
                continue
            key, child = None, f"{path}[{k}]"
        else:
            key = str(k)
            child = prefix + key
            if seen is not None:
                _claim(seen, key, prefix)
        if inner is not None:
            out.append(opener if key is None else f"{opener}{_quote(key)}: ")
        vkind = _kind(type(v))
        if vkind is Fraction:
            cell = format_rational(v)
            text = f'"{cell}"'
        elif vkind is int:
            cell = integer_text(v)
            # A string of digits past 4,300 digits, whatever limit runs.
            text = cell if len(cell) - (v < 0) <= 4300 else f'"{cell}"'
        elif vkind is str:
            cell = v
            text = _quote(v)
        elif vkind is _CONSTANT:
            text, cell = _CONSTANTS[v]
        elif vkind is Polynomial:
            _write(v.coefficients, _LIST, child, inner, out, exact, approx)
            continue
        elif vkind is GridFunction:
            _write(v.entries, _MAP, child, inner, out, exact, approx)
            continue
        elif vkind is not None:
            _write(v, vkind, child, inner, out, exact, approx)
            continue
        else:
            raise TypeError(f"cannot serialize {type(v).__name__} at {child}")
        if inner is None:
            out.append((child, cell))
        else:
            out.append(text)
            if vkind is not str and vkind is not _CONSTANT:
                exact.append(child)
        if vkind is Fraction and key is not None and not key.lstrip("+-").isdigit():
            # A name-like field gets a decimal twin for human readers.
            child += "_decimal"
            if seen is not None:
                _claim(seen, key + "_decimal", prefix)
            cell = decimal_string(v)
            if inner is None:
                out.append((child, cell))
            else:
                out.append(f"{comma}{_quote(key + '_decimal')}: {_quote(cell)}")
                approx.append(child)
    if inner is not None:
        out.append(brackets if len(out) == mark else pad + brackets[1])


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
    results = dict(_items(report.results, _kind(type(report.results)))[0])
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
            # 1), cut after that "[", is what goes around each tail.
            line = _line((pair.path + "[", _ONE))
            cut = line.rindex("[") + 1
            lines.append(_join(pair.tails(), line[:cut], line[cut:]))
        else:
            lines.append(_line(pair))
    if table is not None:
        lines.append(_line(()))
        rows = []
        for i, row in enumerate(table):
            kind = _kind(type(row))
            if kind is not _MAP and kind is not _RECORD:
                raise TypeError(f"results.rows[{i}] is not a record")
            cells: list = []
            _write(row, kind, "", None, cells, [], [])
            rows.append(dict(
                pair for c in cells for pair in (c.pairs() if type(c) is _Run else (c,))
            ))
        if rows:
            # The columns of every row, in the order they first appear.
            header = list(dict.fromkeys(column for row in rows for column in row))
            lines.append(_line(header))
            lines += [_line([row.get(column, "") for column in header]) for row in rows]
    return "".join(lines)
