"""Printed equations against the points they describe.

The equations that `mubc curves` and `mubc transform` print are parsed here
with their own regular expressions and evaluated with `F.mul`, repeated
squaring and `F.trace` only, so a formatting slip (a dropped digit of an
exponent, a wrong coefficient) shows as an equation that fails on its curve.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mubcurves import cli
from mubcurves.field import make_field, modulus_from_bits

from strategies import lagrangians

ELEMENT = r"0|1|s(?:\^\d+)?"
TERM = re.compile(rf"(?:({ELEMENT})\*)?([ab])(?:\^(\d+))?")
POINT = re.compile(rf"\(({ELEMENT}), ({ELEMENT})\)")
EXPLICIT = re.compile(r"([ab]) = (.+)")
STRUCTURAL = re.compile(rf"(.+?) = 0(?:; tr\(({ELEMENT})\*([ab])\) = 0)?")


def element(F, text):
    """0, 1, s or s^k as a field element: s^k by k multiplications."""
    if text == "0":
        return 0
    k = 0 if text == "1" else 1 if text == "s" else int(text[2:])
    x = 1
    for _ in range(k):
        x = F.mul(x, F.primitive)
    return x


def polynomial(F, text, var):
    """The terms (c, e) of an additive polynomial "c*var^e + ..." in `var`;
    e is a power of 2 below the field size."""
    if text == "0":
        return []
    terms = []
    for term in text.split(" + "):
        m = TERM.fullmatch(term)
        assert m and m.group(2) == var, f"bad term {term!r} in {text!r}"
        e = int(m.group(3) or 1)
        assert e & (e - 1) == 0 and e < F.order, f"bad exponent in {term!r}"
        terms.append((element(F, m.group(1) or "1"), e))
    return terms


def evaluate(F, terms, x):
    out = 0
    for c, e in terms:
        y = x
        while e > 1:
            y, e = F.mul(y, y), e >> 1
        out ^= F.mul(c, y)
    return out


def check_record(F, record):
    """Every claim of one printed record against its printed points."""
    points = [tuple(element(F, x) for x in POINT.fullmatch(p).groups())
              for p in record["points"]]
    assert len(set(points)) == F.order
    if "explicit" in record:
        m = EXPLICIT.fullmatch(record["explicit"])
        assert m, record["explicit"]
        dep = m.group(1)
        ind = "a" if dep == "b" else "b"
        terms = polynomial(F, m.group(2), ind)
        for a, b in points:
            x, y = (a, b) if dep == "b" else (b, a)
            assert evaluate(F, terms, x) == y, (record["explicit"], a, b)
        # and the front door reads the printed form back as the same curve
        assert cli.parse_explicit(F, record["explicit"]) == set(points)
        return
    for axis, (var, text) in enumerate(zip("ab", record["structural"])):
        m = STRUCTURAL.fullmatch(text)
        assert m and m.group(3) in (None, var), text
        terms = polynomial(F, m.group(1), var)
        projection = {p[axis] for p in points}
        for x in projection:
            assert evaluate(F, terms, x) == 0, (text, x)
            if m.group(2):
                assert F.trace(F.mul(element(F, m.group(2)), x)) == 0, (text, x)
        # the monic annihilator of a rank-r projection has exactly 2^r roots
        rank = record["ranks"][axis]
        assert max(e for _, e in terms) == 1 << rank, text
        roots = [x for x in F.elements() if evaluate(F, terms, x) == 0]
        assert len(roots) == 1 << rank == len(projection), text


def run_json(capsys, *argv):
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def run_lines(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


TEXT_LINE = re.compile(r"  \[(\w+)\] (.+)  partition (\{[\d,]+\})")
# "; ".join of the two structural equations, each with an optional trace clause
JOINED = re.compile(r"(.+? = 0(?:; tr\(\S+\*a\) = 0)?); (.+)")


def with_equation(record, equation):
    """The record with its equation fields replaced by one printed string."""
    record = {k: v for k, v in record.items() if k not in ("explicit", "structural")}
    if record["kind"] == "exceptional":
        m = JOINED.fullmatch(equation)
        assert m, equation
        record["structural"] = list(m.groups())
    else:
        record["explicit"] = equation
    return record


def text_records(capsys, argv):
    """The `mubc curves` text lines, each checked against the points of the
    json record in the same position."""
    lines = run_lines(capsys, "curves", "--n", *argv)[1:]
    records = run_json(capsys, "curves", "--n", *argv)["curves"]
    assert len(lines) == len(records)
    out = []
    for line, record in zip(lines, records):
        m = TEXT_LINE.fullmatch(line)
        assert m and m.group(1, 3) == (record["class"], record["partition"]), line
        out.append(with_equation(record, m.group(2)))
    return out


def tsv_records(capsys, argv):
    """The `mubc curves --format tsv` rows: ranks, equation and points as
    printed, nothing taken from the json rendering."""
    header, *rows = run_lines(capsys, "curves", "--n", *argv, "--format", "tsv")
    assert header.split("\t") == ["class", "ranks", "partition", "equation", "points"]
    out = []
    for row in rows:
        cls, ranks, _, equation, points = row.split("\t")
        record = {"kind": "exceptional" if cls == "Exceptional" else "regular",
                  "ranks": [int(r) for r in ranks.split(",")],
                  "points": [m.group(0) for m in POINT.finditer(points)]}
        assert " ".join(record["points"]) == points, row
        out.append(with_equation(record, equation))
    return out


RENDERINGS = {
    "json": lambda capsys, argv: run_json(capsys, "curves", "--n", *argv)["curves"],
    "text": text_records,
    "tsv": tsv_records,
}
ATLAS_ARGS = [("1",), ("2",), ("3",), ("3", "--modulus", "1101"),
              ("4",), ("4", "--modulus", "11001")]
ATLAS_IDS = ["n1", "n2", "n3", "n3-1101", "n4", "n4-11001"]
# the json cases keep their plain ids
ATLAS_CASES = [(argv, fmt) for fmt in RENDERINGS for argv in ATLAS_ARGS]
ATLAS_CASE_IDS = [i if fmt == "json" else f"{i}-{fmt}" for fmt in RENDERINGS for i in ATLAS_IDS]


@pytest.mark.parametrize("argv,fmt", ATLAS_CASES, ids=ATLAS_CASE_IDS)
def test_atlas_equations_hold(capsys, argv, fmt):
    n, *modulus = argv
    F = make_field(int(n), modulus_from_bits(modulus[1]) if modulus else None)
    records = RENDERINGS[fmt](capsys, argv)
    assert len(records) == [3, 15, 135, 135, 2295, 2295][ATLAS_ARGS.index(argv)]
    for record in records:
        check_record(F, record)


F32 = make_field(5)
OPS = st.lists(st.tuples(st.sampled_from("zxy"), st.integers(1, 5)), max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pts=lagrangians(F32), ops=OPS)
def test_five_qubit_equations_hold(capsys, pts, ops):
    curve = json.dumps(sorted(pts))
    for spec in ("", ";".join(f"{k}@{q}" for k, q in ops)):
        check_record(F32, run_json(capsys, "transform", "--n", "5",
                                   "--curve", curve, "--ops", spec))


def substituting_formatter(F, eq, var):
    """A formatter that rewrites var^1 to var after building the terms, so
    that var^16 also loses its 1."""
    terms = [f"{var}^{1 << m}" if c == 1 else f"{F.format_element(c)}*{var}^{1 << m}"
             for m, c in enumerate(eq.coeffs) if c]
    terms.append(f"{var}^{1 << eq.rank}")
    text = " + ".join(t.replace(f"{var}^1", var) for t in terms) + " = 0"
    if eq.xi is not None:
        text += f"; tr({F.format_element(eq.xi)}*{var}) = 0"
    return text


def test_oracle_rejects_a_substituting_formatter(capsys, monkeypatch):
    argv = ("transform", "--n", "5", "--curve", "b = 0", "--ops", "y@1")
    record = run_json(capsys, *argv)
    check_record(F32, record)
    monkeypatch.setattr(cli, "_fmt_structural", substituting_formatter)
    record = run_json(capsys, *argv)
    assert "a6" in record["structural"][0]
    with pytest.raises(AssertionError, match="bad term 'a6'"):
        check_record(F32, record)
