"""RSL parser tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rmf.jobs import JobSpec
from repro.rmf.rsl import RSLError, parse_relations, parse_rsl, unparse_rsl


def test_minimal():
    spec = parse_rsl("&(executable=echo)")
    assert spec.executable == "echo"
    assert spec.count == 1
    assert spec.arguments == ()


def test_full_request():
    spec = parse_rsl(
        '&(executable=knapsack)(count=8)(arguments="data.txt" 50)'
        "(resource=COMPaS)(maxTime=120)(stage_in=data.txt)(stage_out=result.txt)"
    )
    assert spec.executable == "knapsack"
    assert spec.count == 8
    assert spec.arguments == ("data.txt", "50")
    assert spec.resource == "COMPaS"
    assert spec.max_time == 120.0
    assert spec.stage_in == ("data.txt",)
    assert spec.stage_out == ("result.txt",)


def test_ampersand_optional_and_whitespace():
    spec = parse_rsl("  (executable = echo)\n (count = 3) ")
    assert spec.count == 3


def test_quoted_values_with_spaces():
    spec = parse_rsl('&(executable=echo)(arguments="hello world" \'single\')')
    assert spec.arguments == ("hello world", "single")


def test_case_insensitive_attributes():
    spec = parse_rsl("&(EXECUTABLE=echo)(Count=2)(MAXTIME=5)")
    assert spec.count == 2
    assert spec.max_time == 5.0


@pytest.mark.parametrize(
    "bad, match",
    [
        ("", "empty"),
        ("&executable=echo", "expected '\\('"),
        ("&(=echo)", "attribute name"),
        ("&(executable echo)", "expected '='"),
        ("&(executable=)", "no value"),
        ("&(executable=echo", "expected '\\)'"),
        ("&(executable=echo)(executable=cat)", "duplicate"),
        ('&(executable="unterminated)', "unterminated"),
        ("&(frobnicate=1)(executable=echo)", "unknown"),
        ("&(count=1)", "must specify"),
        ("&(executable=echo)(count=many)", "not an integer"),
        ("&(executable=echo)(maxtime=soon)", "not a number"),
        ("&(executable=echo)(count=1 2)", "one value"),
        ("&(executable=echo)(count=0)", "count"),
    ],
)
def test_rejects_malformed(bad, match):
    with pytest.raises(RSLError, match=match):
        parse_rsl(bad)


def test_parse_relations_raw():
    rel = parse_relations("&(a=1)(b=x y z)")
    assert rel == {"a": ["1"], "b": ["x", "y", "z"]}


def test_unparse_roundtrip():
    spec = JobSpec(
        executable="knapsack",
        count=20,
        arguments=("input file.txt", "50"),
        resource="Wide-area",
        stage_in=("input file.txt",),
        stage_out=("out.txt",),
        max_time=600.0,
    )
    assert parse_rsl(unparse_rsl(spec)) == spec


def test_unparse_keeps_quotes_and_max_time_digits():
    spec = JobSpec(executable="echo", arguments=('say "hi"', "it's"),
                   max_time=1234567.0)
    assert parse_rsl(unparse_rsl(spec)) == spec


def test_unparse_rejects_value_with_both_quotes():
    spec = JobSpec(executable="echo", arguments=("it's \"both\"",))
    with pytest.raises(RSLError, match="both quote"):
        unparse_rsl(spec)


#: Values the grammar can carry: anything but a string holding both
#: quote characters (there is no escape).
_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1
).filter(lambda s: not ("'" in s and '"' in s))


@given(
    executable=_values.filter(lambda s: s.strip() == s and s.strip() != ""),
    count=st.integers(min_value=1, max_value=4096),
    args=st.lists(_values.filter(lambda s: s.strip() == s), max_size=5),
    max_time=st.floats(min_value=1e-9, allow_nan=False, allow_infinity=False),
)
def test_roundtrip_property(executable, count, args, max_time):
    spec = JobSpec(executable=executable, count=count, arguments=tuple(args),
                   max_time=max_time)
    assert parse_rsl(unparse_rsl(spec)) == spec
