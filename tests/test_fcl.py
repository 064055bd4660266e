import io

import numpy as np
import pytest

from fuzzmap import (
    FclParseError,
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


def test_bytes_and_stream_inputs():
    assert parse_fcl(default_fcl_text().encode("utf-8")).rules
    assert parse_fcl(io.StringIO(default_fcl_text())).rules


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

