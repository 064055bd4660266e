import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzmap import (
    FclParseError,
    FuzzyRule,
    FuzzySystem,
    MembershipFunction,
    default_fcl_text,
    default_system,
    evaluate_many,
    parse_fcl,
    to_fcl,
)

GRID = np.round(np.arange(0.0, 1.0005, 0.001), 9)


def behaviorally_equal(sys_a, sys_b, atol=1e-9):
    return np.allclose(evaluate_many(sys_a, GRID), evaluate_many(sys_b, GRID), atol=atol, rtol=0.0)


def test_shipped_default_fcl_matches_builtin():
    parsed = parse_fcl(default_fcl_text())
    assert len(parsed.rules) == 2
    assert behaviorally_equal(parsed, default_system())


def test_serialize_parse_roundtrip():
    sys = default_system()
    again = parse_fcl(to_fcl(sys))
    assert behaviorally_equal(sys, again)
    assert again.input_var == sys.input_var
    assert again.rules == sys.rules


def test_roundtrip_nondefault_shapes():
    text = """
    FUNCTION_BLOCK custom
        VAR_INPUT z : REAL; END_VAR
        VAR_OUTPUT p : REAL; END_VAR
        FUZZIFY z
            TERM low := (0.0, 1.0) (0.3, 0.2) (1.0, 0.0);
            TERM high := (0.0, 0.0) (0.7, 0.1) (1.0, 1.0);
        END_FUZZIFY
        DEFUZZIFY p
            TERM off := (0.0, 1.0) (0.4, 0.0);
            TERM on := (0.6, 0.0) (1.0, 1.0);
            METHOD : COG;
            DEFAULT := 0.5;
        END_DEFUZZIFY
        RULEBLOCK rb
            AND : MIN; ACT : MIN; ACCU : MAX;
            RULE 1 : IF z IS low THEN p IS off;
            RULE 2 : IF z IS high THEN p IS on;
        END_RULEBLOCK
    END_FUNCTION_BLOCK
    """
    sys = parse_fcl(text)
    assert behaviorally_equal(sys, parse_fcl(to_fcl(sys)))


def test_keywords_case_insensitive():
    text = default_fcl_text().replace("FUNCTION_BLOCK", "function_block")
    text = text.replace("RULEBLOCK", "ruleblock").replace("TERM", "term")
    sys = parse_fcl(text)
    assert behaviorally_equal(sys, default_system())


def test_unresolved_term_names_the_term():
    text = default_fcl_text().replace("IS close_to_r ", "IS near ")
    with pytest.raises(FclParseError, match="near"):
        parse_fcl(text)


def test_non_increasing_vertices():
    text = default_fcl_text().replace(
        "TERM close_to_r := (0.0, 0.0) (1.0, 1.0);",
        "TERM close_to_r := (0.2, 0.0) (0.1, 1.0);",
    )
    with pytest.raises(FclParseError, match="non-increasing x"):
        parse_fcl(text)


@pytest.mark.parametrize("vertices", [((np.nan, 0.5),), ((0.0, 0.0), (np.nan, 1.0), (1.0, 1.0))],
                         ids=["only", "middle"])
def test_nan_vertex_x_rejected(vertices):
    # a NaN x compares false both ways, so the increasing check passes it
    with pytest.raises(FclParseError, match=re.escape("membership x values must lie in [0, 1]")):
        MembershipFunction(vertices)


def test_missing_ruleblock():
    lines = [ln for ln in default_fcl_text().splitlines()
             if "RULE" not in ln and "ACT" not in ln
             and "ACCU" not in ln and "AND" not in ln]
    with pytest.raises(FclParseError, match="missing RULEBLOCK"):
        parse_fcl("\n".join(lines))


def test_unknown_keyword_reports_line():
    text = "FUNCTION_BLOCK f\nWIBBLE x;\nEND_FUNCTION_BLOCK\n"
    with pytest.raises(FclParseError, match=r"line 2.*WIBBLE"):
        parse_fcl(text)


def test_errors_carry_line_numbers():
    text = default_fcl_text().replace("METHOD : COG;", "METHOD : SUGENO;")
    with pytest.raises(FclParseError, match=r"line \d+"):
        parse_fcl(text)


def test_two_input_variables_rejected():
    text = default_fcl_text().replace(
        "VAR_INPUT closeness : REAL; END_VAR",
        "VAR_INPUT closeness : REAL; END_VAR\n    VAR_INPUT other : REAL; END_VAR",
    )
    with pytest.raises(FclParseError, match="one input variable"):
        parse_fcl(text)


def test_rule_on_unknown_variable():
    text = default_fcl_text().replace("IF closeness IS", "IF strangeness IS")
    with pytest.raises(FclParseError, match="strangeness"):
        parse_fcl(text)


def test_fuzzify_must_match_declared_input():
    text = default_fcl_text().replace("FUZZIFY closeness", "FUZZIFY mystery")
    with pytest.raises(FclParseError, match="mystery"):
        parse_fcl(text)


def test_truncated_input():
    text = default_fcl_text().rsplit("END_FUNCTION_BLOCK", 1)[0]
    with pytest.raises(FclParseError, match="unexpected end of input"):
        parse_fcl(text)


def test_comments_ignored():
    text = "// top comment\n" + default_fcl_text().replace(
        "AND : MIN;", "AND : MIN; // activation"
    )
    assert behaviorally_equal(parse_fcl(text), default_system())


def test_parsed_default_output_honored():
    text = default_fcl_text().replace("DEFAULT := 0.5;", "DEFAULT := 0.25;")
    assert parse_fcl(text).default_output == 0.25


def line_of(text: str, needle: str, occurrence: int = 1) -> int:
    lines = [i for i, line in enumerate(text.splitlines(), start=1) if needle in line]
    return lines[occurrence - 1]


@pytest.mark.parametrize("anchor, duplicate", [
    ("TERM close_to_R := (0.0, 1.0) (1.0, 0.0);", "TERM close_to_R := (0.0, 0.0) (1.0, 1.0);"),
    ("TERM non_adjacent := (0.0, 1.0) (1.0, 0.0);", "TERM adjacent := (0.0, 1.0) (1.0, 0.0);"),
], ids=["FUZZIFY", "DEFUZZIFY"])
def test_duplicate_term_rejected_with_line(anchor, duplicate):
    # the last definition used to win silently and to_fcl dropped the first
    text = default_fcl_text().replace(anchor, f"{anchor}\n        {duplicate}")
    name = duplicate.split()[1]
    with pytest.raises(FclParseError,
                       match=rf"line {line_of(text, duplicate)}: duplicate TERM '{name}'"):
        parse_fcl(text)


@pytest.mark.parametrize("block, second", [
    ("FUZZIFY", "    FUZZIFY closeness\n        TERM far := (0.0, 1.0) (1.0, 0.0);\n"
                "    END_FUZZIFY\n"),
    ("DEFUZZIFY", "    DEFUZZIFY likelihood\n        TERM maybe := (0.0, 0.0) (0.5, 1.0);\n"
                  "    END_DEFUZZIFY\n"),
], ids=["FUZZIFY", "DEFUZZIFY"])
def test_duplicate_block_rejected_with_line(block, second):
    # a second block used to merge its terms into the first
    text = default_fcl_text().replace("    RULEBLOCK", second + "\n    RULEBLOCK")
    line = line_of(text, f"    {block} ", occurrence=2)
    with pytest.raises(FclParseError, match=rf"line {line}: duplicate {block} block"):
        parse_fcl(text)



def variant(old: str, new: str) -> str:
    """default.fcl with the first ``old`` replaced by ``new``."""
    text = default_fcl_text()
    assert old in text
    return text.replace(old, new, 1)


# one malformed variant per parser branch, with its exact message
MALFORMED = {
    "second-var-input": (
        variant("VAR_INPUT closeness : REAL; END_VAR",
                "VAR_INPUT closeness : REAL; END_VAR\n    VAR_INPUT other : REAL; END_VAR"),
        "line 7: only one input variable is supported"),
    "second-var-output": (
        variant("VAR_OUTPUT likelihood : REAL; END_VAR",
                "VAR_OUTPUT likelihood : REAL; END_VAR\n    VAR_OUTPUT other : REAL; END_VAR"),
        "line 8: only one output variable is supported"),
    "fuzzify-undeclared": (
        variant("FUZZIFY closeness", "FUZZIFY mystery"),
        "line 9: FUZZIFY names undeclared input 'mystery'"),
    "defuzzify-undeclared": (
        variant("DEFUZZIFY likelihood", "DEFUZZIFY mystery"),
        "line 14: DEFUZZIFY names undeclared output 'mystery'"),
    "duplicate-block": (
        variant("    RULEBLOCK", "    DEFUZZIFY likelihood\n    END_DEFUZZIFY\n    RULEBLOCK"),
        "line 21: duplicate DEFUZZIFY block"),
    "duplicate-term": (
        variant("TERM close_to_R :=", "TERM close_to_r :="),
        "line 11: duplicate TERM 'close_to_r'"),
    "duplicate-term-bad-vertex": (  # the vertex check comes first
        variant("TERM close_to_R := (0.0, 1.0) (1.0, 0.0);",
                "TERM close_to_r := (1.0, 1.0) (0.0, 0.0);"),
        "line 11: TERM close_to_r: non-increasing x in membership vertices"),
    "bad-vertex": (
        variant("(0.0, 0.0) (1.0, 1.0);\n        TERM close_to_R",
                "(0.2, 0.0) (0.1, 1.0);\n        TERM close_to_R"),
        "line 10: TERM close_to_r: non-increasing x in membership vertices"),
    "mu-above-one": (
        variant("(0.0, 0.0) (1.0, 1.0);", "(0.0, 0.0) (1.0, 1.5);"),
        "line 10: TERM close_to_r: membership values must lie in [0, 1]"),
    # float() reads nan, inf and infinity, but they are identifiers, not numbers
    "nan-vertex": (
        variant("(0.0, 0.0) (1.0, 1.0);", "(0.0, 0.0) (nan, 1.0) (1.0, 1.0);"),
        "line 10: expected number, got 'nan'"),
    "inf-vertex": (
        variant("(0.0, 1.0) (1.0, 0.0);", "(0.0, 1.0) (inf, 0.0);"),
        "line 11: expected number, got 'inf'"),
    "nan-rule-number": (
        variant("RULE 1 :", "RULE nan :"),
        "line 25: expected number, got 'nan'"),
    "infinity-default": (
        variant("DEFAULT := 0.5;", "DEFAULT := Infinity;"),
        "line 18: expected number, got 'Infinity'"),
    "and-max": (
        variant("AND : MIN;", "AND : MAX;"),
        "line 22: expected MIN, got 'MAX'"),
    "method-in-ruleblock": (
        variant("ACCU : MAX;", "ACCU : MAX;\n        METHOD : COG;"),
        "line 25: expected END_RULEBLOCK, got 'METHOD'"),
    "and-in-defuzzify": (
        variant("METHOD : COG;", "METHOD : COG;\n        AND : MIN;"),
        "line 18: expected END_DEFUZZIFY, got 'AND'"),
    "non-number-default": (
        variant("DEFAULT := 0.5;", "DEFAULT := half;"),
        "line 18: expected number, got 'half'"),
    "default-above-one": (
        variant("DEFAULT := 0.5;", "DEFAULT := 7.5;"),
        "line 18: DEFAULT must be in [0, 1], got 7.5"),
    "default-negative": (
        variant("DEFAULT := 0.5;", "DEFAULT := -0.25;"),
        "line 18: DEFAULT must be in [0, 1], got -0.25"),
    "default-inf": (
        variant("DEFAULT := 0.5;", "DEFAULT := 1e999;"),
        "line 18: DEFAULT must be in [0, 1], got inf"),
    "rule-unknown-condition": (
        variant("IF closeness IS close_to_R", "IF strangeness IS close_to_R"),
        "line 26: rule condition names unknown variable 'strangeness'"),
    "rule-unknown-conclusion": (
        variant("THEN likelihood IS adjacent", "THEN chance IS adjacent"),
        "line 25: rule conclusion names unknown variable 'chance'"),
    "unresolved-term": (
        variant("IS close_to_r THEN", "IS near THEN"),
        "line 25: unresolved term 'near'"),
    "unresolved-output-term": (
        variant("IS adjacent;", "IS far;"),
        "line 25: unresolved term 'far'"),
    "trailing-content": (
        variant("END_FUNCTION_BLOCK", "END_FUNCTION_BLOCK\nEND_VAR"),
        "line 29: trailing content 'END_VAR'"),
    "missing-var": (
        "FUNCTION_BLOCK f\nEND_FUNCTION_BLOCK\n",
        "missing VAR_INPUT or VAR_OUTPUT declaration"),
    "missing-ruleblock": (
        "FUNCTION_BLOCK f\n    VAR_INPUT x : REAL; END_VAR\n"
        "    VAR_OUTPUT y : REAL; END_VAR\nEND_FUNCTION_BLOCK\n",
        "missing RULEBLOCK"),
    "identifier-number": (
        variant("VAR_INPUT closeness", "VAR_INPUT 12"),
        "line 6: expected identifier, got '12'"),
    "identifier-keyword": (
        variant("RULEBLOCK rules", "RULEBLOCK RULE"),
        "line 21: expected identifier, got 'RULE'"),
    "unexpected-character": (
        variant("DEFAULT := 0.5;", "DEFAULT := 0.5; #"),
        "line 18: unexpected character '#'"),
    "unexpected-character-after-unicode-blank": (
        variant("DEFAULT := 0.5;", "DEFAULT :=\u00a0\u00e90.5;"),
        "line 18: unexpected character '\u00e9'"),
    "end-of-input": (
        variant("END_FUNCTION_BLOCK", ""),
        "line 27: unexpected end of input"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_variant_message(case):
    text, message = MALFORMED[case]
    with pytest.raises(FclParseError) as exc:
        parse_fcl(text)
    assert str(exc.value) == message


def test_unicode_blanks_separate_tokens():
    # a no-break space is a blank, and a form feed a blank that also ends the line
    assert parse_fcl(variant("DEFAULT := 0.5;", "DEFAULT\u00a0:=\x0c0.5;")) == default_system()


KEYWORDS = {"FUNCTION_BLOCK", "END_FUNCTION_BLOCK", "VAR_INPUT", "VAR_OUTPUT", "END_VAR",
            "REAL", "FUZZIFY", "END_FUZZIFY", "DEFUZZIFY", "END_DEFUZZIFY", "TERM",
            "METHOD", "COG", "DEFAULT", "RULEBLOCK", "END_RULEBLOCK", "AND", "ACT",
            "ACCU", "MIN", "MAX", "RULE", "IF", "IS", "THEN"}
identifiers = st.from_regex(re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,8}"), fullmatch=True).filter(
    lambda name: name.upper() not in KEYWORDS)
unit = st.floats(0.0, 1.0)


@st.composite
def membership_functions(draw):
    xs = sorted(draw(st.sets(unit, min_size=1, max_size=5)))
    return MembershipFunction(tuple((x, draw(unit)) for x in xs))


@st.composite
def fuzzy_systems(draw):
    terms = st.dictionaries(identifiers, membership_functions(), min_size=1, max_size=4)
    input_terms, output_terms = draw(terms), draw(terms)
    rules = draw(st.lists(st.builds(FuzzyRule, st.sampled_from(sorted(input_terms)),
                                    st.sampled_from(sorted(output_terms))),
                          min_size=1, max_size=5))
    return FuzzySystem(
        input_var=draw(identifiers),
        output_var=draw(identifiers),
        input_terms=input_terms,
        output_terms=output_terms,
        rules=tuple(rules),
        default_output=draw(unit),
    )


@settings(max_examples=200, deadline=None)
@given(fuzzy_systems())
def test_to_fcl_parse_roundtrip_generated(sys):
    text = to_fcl(sys)
    again = parse_fcl(text)
    assert again == sys
    assert to_fcl(again) == text
