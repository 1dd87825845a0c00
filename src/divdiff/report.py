"""Machine-readable reports: JSON and CSV with exact rational fields.

This module alone decides how a result becomes report text.  The CLI
hands it library results as they are, and it writes them by type:

- a dataclass record is written as its fields, in declaration order;
- a Polynomial is written as its coefficient list, ascending;
- a GridFunction is written as its nonzero entries, by grid index;
- a mapping with integer keys (a sparse vector) is written in
  increasing key order, each key as a string; other mappings keep
  their own order;
- lists and tuples are written as lists.

Every rational quantity is serialized as a canonical "p/q" string so
reports are bit-reproducible and re-parseable without loss.  Fields
with a name-like key additionally get a "<key>_decimal" sibling holding
a 15-significant-digit decimal for human readers; these are display
columns only and are listed as approximate in the provenance block.

A report document has four top-level keys: command, inputs, results,
provenance.  The CSV rendering flattens the same document into
key,value lines; when the results contain a "rows" list (a homogeneous
table, e.g. one line per N), the rows are appended as a regular CSV
table after a separating blank line.
"""

import csv
import io
import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any

from . import __version__
from .funcs import GridFunction
from .poly import Polynomial
from .rational import decimal_string, format_rational, integer_text


@dataclass
class Report:
    command: str
    inputs: dict[str, Any]
    results: Any  # a dict, or a result dataclass written as its fields


def _name_like(key: str) -> bool:
    return not key.lstrip("+-").isdigit()


def _convert(value: Any, path: str, exact: list[str], approx: list[str]) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        exact.append(path)
        return format_rational(value)
    if isinstance(value, int):
        exact.append(path)
        try:
            str(value)
        except ValueError:
            # json cannot write an int past the digit limit as a number;
            # it goes out as a string of digits, like other exact values.
            return integer_text(value)
        return value
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [
            _convert(v, f"{path}[{i}]", exact, approx) for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        items: Any = value.items()
        if all(isinstance(k, int) for k in value):
            items = sorted(items)
        out: dict[str, Any] = {}
        for k, v in items:
            key = str(k)
            out[key] = _convert(v, f"{path}.{key}", exact, approx)
            if isinstance(v, Fraction) and _name_like(key):
                out[f"{key}_decimal"] = decimal_string(v)
                approx.append(f"{path}.{key}_decimal")
        return out
    if isinstance(value, Polynomial):
        return _convert(value.coefficients, path, exact, approx)
    if isinstance(value, GridFunction):
        return _convert(value.entries, path, exact, approx)
    if is_dataclass(value) and not isinstance(value, type):
        record = {f.name: getattr(value, f.name) for f in fields(value)}
        return _convert(record, path, exact, approx)
    raise TypeError(f"cannot serialize {type(value).__name__} at {path}")


def build_document(report: Report) -> dict[str, Any]:
    exact: list[str] = []
    approx: list[str] = []
    doc: dict[str, Any] = {"command": report.command}
    doc["inputs"] = _convert(report.inputs, "inputs", exact, approx)
    doc["results"] = _convert(report.results, "results", exact, approx)
    doc["provenance"] = {
        "version": __version__,
        "exact_fields": exact,
        "approx_fields": approx,
    }
    return doc


def render_json(report: Report) -> str:
    return json.dumps(build_document(report), indent=2) + "\n"


def _cell(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return ""
    return str(value)


def _flatten(value: Any, path: str, pairs: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, v in value.items():
            _flatten(v, f"{path}.{key}", pairs)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{path}[{i}]", pairs)
    else:
        pairs.append((path, _cell(value)))


def render_csv(report: Report) -> str:
    doc = build_document(report)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    pairs: list[tuple[str, str]] = []
    _flatten(doc["command"], "command", pairs)
    _flatten(doc["inputs"], "inputs", pairs)
    results = dict(doc["results"])
    table = results.pop("rows", None)
    _flatten(results, "results", pairs)
    _flatten(doc["provenance"]["version"], "provenance.version", pairs)
    writer.writerows(pairs)
    if table is not None:
        writer.writerow([])
        if table:
            header = list(table[0].keys())
            writer.writerow(header)
            for row in table:
                writer.writerow([_cell(row.get(col)) for col in header])
    return buffer.getvalue()
