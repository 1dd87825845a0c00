"""Report documents: exact serialization, decimal twins, provenance, CSV."""

import json
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

import divdiff
from divdiff import GridFunction, Polynomial, parse_rational
from divdiff.report import Report, render_csv, render_json
from golden.check import child_env
from util import lookup


def sample_report():
    return Report(
        command="demo",
        inputs={"x": Fraction(1, 3), "n": 2},
        results={
            "value": Fraction(-7, 4),
            "equal": True,
            "missing": None,
            "basis": [{"2": Fraction(1, 2)}],
            "rows": [
                {"N": 1, "residual": Fraction(1, 2)},
                {"N": 2, "residual": Fraction(3, 4)},
            ],
        },
    )


def test_document_serializes_fractions_as_strings():
    doc = json.loads(render_json(sample_report()))
    assert doc["inputs"]["x"] == "1/3"
    assert doc["results"]["value"] == "-7/4"
    assert doc["results"]["equal"] is True
    assert doc["results"]["missing"] is None


def test_name_like_keys_get_decimal_twins():
    doc = json.loads(render_json(sample_report()))
    assert doc["inputs"]["x_decimal"] == "0.333333333333333"
    assert doc["results"]["value_decimal"] == "-1.75"
    # digit keys (grid indices) stay exact-only
    assert doc["results"]["basis"][0] == {"2": "1/2"}


def test_provenance_lists_field_paths():
    doc = json.loads(render_json(sample_report()))
    prov = doc["provenance"]
    assert prov["version"] == divdiff.__version__
    assert "inputs.x" in prov["exact_fields"]
    assert "results.value" in prov["exact_fields"]
    assert "results.basis[0].2" in prov["exact_fields"]
    assert "inputs.x_decimal" in prov["approx_fields"]
    assert "results.value_decimal" in prov["approx_fields"]
    assert not any(p.endswith("basis[0].2_decimal") for p in prov["approx_fields"])


def test_every_exact_field_reparses():
    doc = json.loads(render_json(sample_report()))
    for path in doc["provenance"]["exact_fields"]:
        leaf = lookup(doc, path)
        if isinstance(leaf, str):
            parse_rational(leaf)
        else:
            assert isinstance(leaf, int)


def test_json_rendering_is_deterministic():
    a = render_json(sample_report())
    b = render_json(sample_report())
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["command"] == "demo"


def test_an_int_is_a_json_number_up_to_4300_digits_whatever_the_digit_limit():
    # 4,300 is CPython's default int-to-str limit; the report fixes it, so
    # an int's form and text do not follow the limit the interpreter runs with.
    values = {
        "short": 10**4299,  # 4,300 digits
        "long": 10**4300,  # 4,301 digits
        "short_negative": -(10**4300 - 1),
        "long_negative": -(10**4300),
    }
    report = Report(command="demo", inputs={}, results=values)
    limit = sys.get_int_max_str_digits()
    renders = set()
    try:
        for digits in (640, 4300, 0):
            sys.set_int_max_str_digits(digits)
            renders.add((render_json(report), render_csv(report)))
        # The digit limit is lifted now, so the reports read back.
        (text, csv_text), = renders
        doc = json.loads(text)
        texts = {key: str(v) for key, v in values.items()}
    finally:
        sys.set_int_max_str_digits(limit)
    assert doc["results"] == {
        "short": values["short"],
        "long": texts["long"],
        "short_negative": values["short_negative"],
        "long_negative": texts["long_negative"],
    }
    assert set(doc["provenance"]["exact_fields"]) == {f"results.{key}" for key in values}
    lines = csv_text.splitlines()
    assert all(f"results.{key},{texts[key]}" in lines for key in values)


def test_csv_layout():
    text = render_csv(sample_report())
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert "command,demo" in lines
    assert "inputs.x,1/3" in lines
    assert "results.equal,true" in lines
    assert "results.missing," in lines
    # the rows table sits after a blank separator with its own header
    blank = lines.index("")
    assert lines[blank + 1] == "N,residual,residual_decimal"
    assert lines[blank + 2] == "1,1/2,0.5"
    assert not any(ln.startswith("results.rows") for ln in lines)


def test_csv_without_rows_has_no_table():
    report = Report(command="c", inputs={}, results={"v": Fraction(1, 2)})
    text = render_csv(report)
    assert "\n\n" not in text.rstrip("\n")
    assert "results.v,1/2" in text


def test_csv_table_has_the_columns_of_every_row():
    # The first row has no decimal twin for a; the second one does.
    report = Report("c", {}, {"rows": [{"a": None}, {"a": Fraction(1, 2)}, {"b": 1}]})
    text = render_csv(report)
    assert text.endswith("\na,a_decimal,b\n,,\n1/2,0.5,\n,,1\n")
    assert json.loads(render_json(report))["results"]["rows"][1]["a_decimal"] == "0.5"


def test_csv_table_cell_holding_a_list_or_record_is_flattened_into_columns():
    rows = [{"N": 1, "p": Polynomial((Fraction(1, 2), 3)), "r": Record(Fraction(1), 2, None)}]
    text = render_csv(Report("c", {}, {"rows": rows}))
    assert text.endswith(
        "\nN,p[0],p[1],r.zeta,r.zeta_decimal,r.alpha,r.middle\n1,1/2,3,1,1,2,\n"
    )


def test_csv_table_row_that_is_not_a_record_is_rejected():
    with pytest.raises(TypeError, match=r"results\.rows\[1\]"):
        render_csv(Report("c", {}, {"rows": [{"N": 1}, Fraction(1, 2)]}))


class Name(str):
    pass


def test_unserializable_values_are_rejected():
    report = Report(command="c", inputs={}, results={"v": object()})
    with pytest.raises(TypeError):
        render_json(report)
    with pytest.raises(TypeError):
        render_csv(report)
    # A kind is looked up by the exact class: a str subclass is not a str.
    report = Report("c", {}, {"v": [Name("x")]})
    for render in (render_json, render_csv):
        with pytest.raises(TypeError, match=r"^cannot serialize Name at results\.v\[0\]$"):
            render(report)


class Results(dict):
    pass


def test_both_formats_take_the_same_results():
    # A list is written by both; a dict subclass is refused by both, by
    # its exact class, before CSV could look in it for a table.
    listed = Report("c", {}, [Fraction(1, 2), "a"])
    assert json.loads(render_json(listed))["results"] == ["1/2", "a"]
    assert "\nresults[0],1/2\nresults[1],a\n" in render_csv(listed)
    subclassed = Report("c", {}, Results(rows=[{"N": 1}]))
    for render in (render_json, render_csv):
        with pytest.raises(TypeError, match=r"^cannot serialize Results at results$"):
            render(subclassed)


def test_float_values_are_rejected():
    # the whole point is exactness; a float sneaking in is a bug
    report = Report(command="c", inputs={}, results={"v": 0.5})
    with pytest.raises(TypeError):
        render_json(report)
    with pytest.raises(TypeError):
        render_csv(report)


@dataclass(frozen=True)
class Record:
    zeta: Fraction
    alpha: int
    middle: Optional[Fraction]


def test_a_dataclass_is_written_as_its_fields_in_declaration_order():
    report = Report("c", {}, Record(zeta=Fraction(1, 3), alpha=2, middle=None))
    doc = json.loads(render_json(report))
    assert list(doc["results"]) == ["zeta", "zeta_decimal", "alpha", "middle"]
    assert doc["results"]["zeta"] == "1/3"
    assert doc["results"]["zeta_decimal"] == "0.333333333333333"
    assert doc["results"]["middle"] is None
    prov = doc["provenance"]
    assert prov["exact_fields"] == ["results.zeta", "results.alpha"]
    assert prov["approx_fields"] == ["results.zeta_decimal"]


def test_a_tuple_of_dataclasses_is_a_list_of_records():
    rows = (Record(Fraction(1, 2), 1, None), Record(Fraction(-1), 2, Fraction(3)))
    doc = json.loads(render_json(Report("c", {}, {"rows": rows})))
    assert doc["results"]["rows"] == [
        {"zeta": "1/2", "zeta_decimal": "0.5", "alpha": 1, "middle": None},
        {
            "zeta": "-1", "zeta_decimal": "-1", "alpha": 2,
            "middle": "3", "middle_decimal": "3",
        },
    ]
    assert "results.rows[1].middle" in doc["provenance"]["exact_fields"]
    text = render_csv(Report("c", {}, {"rows": rows}))
    assert text.endswith(
        "\nzeta,zeta_decimal,alpha,middle,middle_decimal\n1/2,0.5,1,,\n-1,-1,2,3,3\n"
    )


def test_a_polynomial_is_its_coefficient_list():
    p = Polynomial((Fraction(1, 2), 0, Fraction(-3)))
    doc = json.loads(render_json(Report("c", {}, {"p": p, "zero": Polynomial()})))
    assert doc["results"]["p"] == ["1/2", "0", "-3"]
    assert doc["results"]["zero"] == []
    assert "results.p[2]" in doc["provenance"]["exact_fields"]


def test_a_grid_function_is_its_nonzero_entries_by_index():
    g = GridFunction(4, {3: Fraction(-1, 2), 1: Fraction(1, 3), 2: 0})
    doc = json.loads(render_json(Report("c", {}, {"g": g})))
    assert doc["results"]["g"] == {"1": "1/3", "3": "-1/2"}
    assert list(doc["results"]["g"]) == ["1", "3"]
    assert "results.g.3" in doc["provenance"]["exact_fields"]
    assert doc["provenance"]["approx_fields"] == []


def test_an_int_keyed_mapping_is_written_in_key_order():
    vec = {10: Fraction(1), 2: Fraction(-1, 2), 7: Fraction(3)}
    doc = json.loads(render_json(Report("c", {}, {"v": vec})))
    assert list(doc["results"]["v"].items()) == [("2", "-1/2"), ("7", "3"), ("10", "1")]


def test_a_str_keyed_mapping_keeps_its_order():
    results = {"zeta": 1, "alpha": 2, "10": 3, "2": 4}
    doc = json.loads(render_json(Report("c", {}, results)))
    assert list(doc["results"]) == ["zeta", "alpha", "10", "2"]


@pytest.mark.parametrize("render", [render_json, render_csv])
def test_two_keys_with_one_text_are_rejected(render):
    report = Report(command="demo", inputs={}, results={"v": {1: "a", "1": "b"}})
    with pytest.raises(ValueError, match=r"results\.v\.1 is written twice"):
        render(report)


@pytest.mark.parametrize("render", [render_json, render_csv])
@pytest.mark.parametrize("i", [0, 2, 4])
def test_two_keys_with_one_text_in_a_vector_list_are_rejected(render, i):
    basis = [{k: Fraction(1), k + 1: Fraction(-1, 2)} for k in range(5)]
    basis[i] = {1: Fraction(1, 3), "1": Fraction(2, 3)}
    report = Report(command="demo", inputs={}, results={"basis": basis})
    with pytest.raises(ValueError, match=rf"results\.basis\[{i}\]\.1 is written twice"):
        render(report)


@dataclass(frozen=True)
class Twinned:
    x: Fraction
    x_decimal: str


@pytest.mark.parametrize("render", [render_json, render_csv])
def test_a_key_named_like_a_decimal_twin_is_rejected(render):
    for results in (
        {"x": Fraction(1, 2), "x_decimal": "own"},
        {"x_decimal": "own", "x": Fraction(1, 2)},
        Twinned(Fraction(1, 2), "own"),
    ):
        report = Report(command="demo", inputs={}, results=results)
        with pytest.raises(ValueError, match=r"results\.x_decimal is written twice"):
            render(report)


def test_the_suffix_table_is_made_on_first_use():
    # The suffixes "000".."999" are made only when a run reaches a column
    # past 999: not for nullspace --N 8 (L = 840), and for N = 9 (L = 2520).
    code = (
        "import contextlib, io\n"
        "from divdiff import cli, report\n"
        "for argv in (['--N', '8'], ['--N', '8', '--format', 'csv'], ['--N', '9']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['nullspace', *argv]) == 0\n"
        "    print(len(report._SUFFIXES))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1000"]
