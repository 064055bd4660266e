"""Two-rule Mamdani inference over a crisp input in [0, 1].

The crisp input is (R - d) / (R - r): 1 means the pair distance sits at
the definite-yes radius, 0 at the definite-no radius. Rule activations
use the minimum operator (truncation), accumulation the maximum, and the
output is defuzzified by center of gravity over a uniform sample grid.
Systems are declared in an FCL subset (FUZZIFY / DEFUZZIFY / RULEBLOCK
with COG) and are immutable once built; evaluation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import IO

import numpy as np

_SAMPLES = 1001  # uniform output samples of [0, 1] for the COG integral
_GRID = np.linspace(0.0, 1.0, _SAMPLES)
_WEIGHTS = np.full(_SAMPLES, 1.0 / (_SAMPLES - 1))
_WEIGHTS[[0, -1]] /= 2.0  # trapezoid rule
_WEIGHTED_GRID = _WEIGHTS * _GRID
_CHUNK = 64  # rows per (chunk x grid) buffer: 0.5 MB, so each rule's pass stays in cache

_TOKEN = re.compile(r":=|[():;,]|[A-Za-z_][A-Za-z0-9_]*|[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")

_KEYWORDS = {
    "FUNCTION_BLOCK", "END_FUNCTION_BLOCK", "VAR_INPUT", "VAR_OUTPUT", "END_VAR",
    "REAL", "FUZZIFY", "END_FUZZIFY", "DEFUZZIFY", "END_DEFUZZIFY", "TERM",
    "METHOD", "COG", "DEFAULT", "RULEBLOCK", "END_RULEBLOCK", "AND", "ACT",
    "ACCU", "MIN", "MAX", "RULE", "IF", "IS", "THEN",
}


class FclParseError(ValueError):
    """Raised when FCL text cannot be parsed or validated."""


@dataclass(frozen=True)
class MembershipFunction:
    """Piecewise-linear membership function on [0, 1].

    Defined by (x, mu) vertices with strictly increasing x; evaluated by
    linear interpolation and 0 outside the vertex span.
    """

    vertices: tuple[tuple[float, float], ...]
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _mus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vertices:
            raise FclParseError("membership function needs at least one vertex")
        xs = [x for x, _ in self.vertices]
        mus = [mu for _, mu in self.vertices]
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise FclParseError("non-increasing x in membership vertices")
        if xs[0] < 0.0 or xs[-1] > 1.0:
            raise FclParseError("membership x values must lie in [0, 1]")
        if any(not 0.0 <= mu <= 1.0 for mu in mus):
            raise FclParseError("membership values must lie in [0, 1]")
        object.__setattr__(self, "_xs", np.array(xs, dtype=float))
        object.__setattr__(self, "_mus", np.array(mus, dtype=float))

    def at(self, x):
        """Membership degree at x (scalar or array)."""
        return np.interp(x, self._xs, self._mus, left=0.0, right=0.0)


@dataclass(frozen=True)
class FuzzyRule:
    antecedent: str  # input term name
    consequent: str  # output term name


@dataclass(frozen=True)
class FuzzySystem:
    """Validated Mamdani system: min activation, max accumulation, COG."""

    input_var: str
    output_var: str
    input_terms: dict[str, MembershipFunction]
    output_terms: dict[str, MembershipFunction]
    rules: tuple[FuzzyRule, ...]
    default_output: float = 0.5  # returned when no rule fires at all
    # per rule: antecedent term and consequent term sampled on the grid
    _compiled: tuple[tuple[MembershipFunction, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.rules:
            raise FclParseError("at least one rule is required")
        for rule in self.rules:
            if rule.antecedent not in self.input_terms:
                raise FclParseError(f"unresolved input term '{rule.antecedent}'")
            if rule.consequent not in self.output_terms:
                raise FclParseError(f"unresolved output term '{rule.consequent}'")
        compiled = tuple(
            (self.input_terms[rule.antecedent], self.output_terms[rule.consequent].at(_GRID))
            for rule in self.rules
        )
        object.__setattr__(self, "_compiled", compiled)


def default_fcl_text() -> str:
    """Source of the shipped default.fcl, the one definition of default_system()."""
    return resources.files(__package__).joinpath("default.fcl").read_text(encoding="utf-8")


def default_system() -> FuzzySystem:
    """The built-in symmetric system, parsed from the shipped default.fcl.

    Input ramps close_to_r(x) = x and close_to_R(x) = 1 - x; mirrored
    triangular output terms; rules close_to_r -> adjacent and
    close_to_R -> non_adjacent. Symmetry makes 0.5 a fixed point.
    """
    return parse_fcl(default_fcl_text())


def evaluate_many(sys: FuzzySystem, xs) -> np.ndarray:
    """Vectorized Mamdani pipeline; evaluate() is the one-element case.

    Per input: each rule truncates its output term at the antecedent
    degree (min), the truncated terms accumulate pointwise (max), and the
    centroid of the accumulated curve is taken by the trapezoid rule over
    1001 uniform samples of [0, 1].
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise ValueError("input must be a scalar or 1-d array")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("crisp input must lie in [0, 1]")

    result = np.empty(xs.shape[0])
    for lo in range(0, xs.shape[0], _CHUNK):
        chunk = xs[lo : lo + _CHUNK]
        acc = np.zeros((chunk.shape[0], _SAMPLES))
        for term, row in sys._compiled:
            act = term.at(chunk)
            np.maximum(acc, np.minimum(act[:, None], row[None, :]), out=acc)
        # per-row reductions (not BLAS matvec) so results are bit-identical
        # regardless of batch size; scalar evaluate() relies on this
        den = (acc * _WEIGHTS).sum(axis=1)
        num = (acc * _WEIGHTED_GRID).sum(axis=1)
        out = np.full(chunk.shape[0], sys.default_output)
        fired = den > 0.0
        out[fired] = num[fired] / den[fired]
        result[lo : lo + _CHUNK] = out
    return result


def evaluate(sys: FuzzySystem, x: float) -> float:
    """Adjacency likelihood in [0, 1] for a crisp input x in [0, 1]."""
    return float(evaluate_many(sys, x)[0])


# --- FCL subset -------------------------------------------------------------


class _Tokens:
    """Token stream with line numbers for error reporting."""

    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("//", 1)[0]
            pos = 0
            for match in _TOKEN.finditer(line):
                gap = line[pos : match.start()]
                if gap.strip():
                    raise FclParseError(f"line {lineno}: unexpected character {gap.strip()[0]!r}")
                self.items.append((lineno, match.group()))
                pos = match.end()
            if line[pos:].strip():
                raise FclParseError(f"line {lineno}: unexpected character {line[pos:].strip()[0]!r}")
        self.pos = 0

    def peek(self) -> tuple[int, str]:
        if self.pos >= len(self.items):
            line = self.items[-1][0] if self.items else 0
            raise FclParseError(f"line {line}: unexpected end of input")
        return self.items[self.pos]

    def next(self) -> tuple[int, str]:
        item = self.peek()
        self.pos += 1
        return item

    def expect_keyword(self, *names: str) -> str:
        line, tok = self.next()
        if tok.upper() not in names:
            raise FclParseError(f"line {line}: expected {' or '.join(names)}, got '{tok}'")
        return tok.upper()

    def expect(self, literal: str) -> None:
        line, tok = self.next()
        if tok != literal:
            raise FclParseError(f"line {line}: expected '{literal}', got '{tok}'")

    def ident(self) -> str:
        line, tok = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) or tok.upper() in _KEYWORDS:
            raise FclParseError(f"line {line}: expected identifier, got '{tok}'")
        return tok

    def number(self) -> float:
        line, tok = self.next()
        try:
            return float(tok)
        except ValueError:
            raise FclParseError(f"line {line}: expected number, got '{tok}'") from None

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _parse_term(tokens: _Tokens) -> tuple[str, MembershipFunction]:
    name = tokens.ident()
    tokens.expect(":=")
    vertices: list[tuple[float, float]] = []
    line, _ = tokens.peek()
    while tokens.peek()[1] == "(":
        tokens.expect("(")
        x = tokens.number()
        tokens.expect(",")
        mu = tokens.number()
        tokens.expect(")")
        vertices.append((x, mu))
    tokens.expect(";")
    try:
        return name, MembershipFunction(tuple(vertices))
    except FclParseError as exc:
        raise FclParseError(f"line {line}: TERM {name}: {exc}") from None


def _add_term(terms: dict[str, MembershipFunction], tokens: _Tokens) -> None:
    """Parse one TERM (the next token) into ``terms``; a repeated name is an error."""
    line, _ = tokens.next()
    name, mf = _parse_term(tokens)
    if name in terms:
        raise FclParseError(f"line {line}: duplicate TERM '{name}'")
    terms[name] = mf


def parse_fcl(text: str | bytes | IO) -> FuzzySystem:
    """Parse FCL-subset text into a validated FuzzySystem.

    Grammar (keywords case-insensitive, identifiers case-sensitive):
    one FUNCTION_BLOCK holding VAR_INPUT/VAR_OUTPUT declarations of a
    single REAL variable each, FUZZIFY/DEFUZZIFY blocks of piecewise
    TERMs, and one RULEBLOCK of IF/IS/THEN rules with MIN activation,
    MAX accumulation and COG defuzzification.
    """
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")

    tokens = _Tokens(text)
    tokens.expect_keyword("FUNCTION_BLOCK")
    tokens.ident()

    input_var: str | None = None
    output_var: str | None = None
    input_terms: dict[str, MembershipFunction] = {}
    output_terms: dict[str, MembershipFunction] = {}
    rules: list[tuple[int, str, str, str, str]] = []
    default_output = 0.5
    saw_ruleblock = False
    blocks_seen: set[str] = set()  # FUZZIFY / DEFUZZIFY, at most once each

    while True:
        line, tok = tokens.peek()
        keyword = tok.upper()
        if keyword == "END_FUNCTION_BLOCK":
            tokens.next()
            break
        if keyword in ("VAR_INPUT", "VAR_OUTPUT"):
            tokens.next()
            name = tokens.ident()
            tokens.expect(":")
            tokens.expect_keyword("REAL")
            tokens.expect(";")
            tokens.expect_keyword("END_VAR")
            if keyword == "VAR_INPUT":
                if input_var is not None:
                    raise FclParseError(f"line {line}: only one input variable is supported")
                input_var = name
            else:
                if output_var is not None:
                    raise FclParseError(f"line {line}: only one output variable is supported")
                output_var = name
        elif keyword in blocks_seen:
            raise FclParseError(f"line {line}: duplicate {keyword} block")
        elif keyword == "FUZZIFY":
            blocks_seen.add(keyword)
            tokens.next()
            var = tokens.ident()
            if input_var is None or var != input_var:
                raise FclParseError(f"line {line}: FUZZIFY names undeclared input '{var}'")
            while tokens.peek()[1].upper() == "TERM":
                _add_term(input_terms, tokens)
            tokens.expect_keyword("END_FUZZIFY")
        elif keyword == "DEFUZZIFY":
            blocks_seen.add(keyword)
            tokens.next()
            var = tokens.ident()
            if output_var is None or var != output_var:
                raise FclParseError(f"line {line}: DEFUZZIFY names undeclared output '{var}'")
            while True:
                inner = tokens.peek()[1].upper()
                if inner == "TERM":
                    _add_term(output_terms, tokens)
                elif inner == "METHOD":
                    tokens.next()
                    tokens.expect(":")
                    tokens.expect_keyword("COG")
                    tokens.expect(";")
                elif inner == "DEFAULT":
                    tokens.next()
                    tokens.expect(":=")
                    default_output = tokens.number()
                    tokens.expect(";")
                else:
                    break
            tokens.expect_keyword("END_DEFUZZIFY")
        elif keyword == "RULEBLOCK":
            tokens.next()
            tokens.ident()
            saw_ruleblock = True
            while True:
                inner_line, inner = tokens.peek()
                upper = inner.upper()
                if upper in ("AND", "ACT"):
                    tokens.next()
                    tokens.expect(":")
                    tokens.expect_keyword("MIN")
                    tokens.expect(";")
                elif upper == "ACCU":
                    tokens.next()
                    tokens.expect(":")
                    tokens.expect_keyword("MAX")
                    tokens.expect(";")
                elif upper == "RULE":
                    tokens.next()
                    tokens.number()
                    tokens.expect(":")
                    tokens.expect_keyword("IF")
                    in_var = tokens.ident()
                    tokens.expect_keyword("IS")
                    in_term = tokens.ident()
                    tokens.expect_keyword("THEN")
                    out_var = tokens.ident()
                    tokens.expect_keyword("IS")
                    out_term = tokens.ident()
                    tokens.expect(";")
                    rules.append((inner_line, in_var, in_term, out_var, out_term))
                else:
                    break
            tokens.expect_keyword("END_RULEBLOCK")
        else:
            raise FclParseError(f"line {line}: unknown keyword '{tok}'")

    if not tokens.done():
        line, tok = tokens.peek()
        raise FclParseError(f"line {line}: trailing content '{tok}'")
    if input_var is None or output_var is None:
        raise FclParseError("missing VAR_INPUT or VAR_OUTPUT declaration")
    if not saw_ruleblock:
        raise FclParseError("missing RULEBLOCK")

    checked_rules = []
    for line, in_var, in_term, out_var, out_term in rules:
        if in_var != input_var:
            raise FclParseError(f"line {line}: rule condition names unknown variable '{in_var}'")
        if out_var != output_var:
            raise FclParseError(f"line {line}: rule conclusion names unknown variable '{out_var}'")
        if in_term not in input_terms:
            raise FclParseError(f"line {line}: unresolved term '{in_term}'")
        if out_term not in output_terms:
            raise FclParseError(f"line {line}: unresolved term '{out_term}'")
        checked_rules.append(FuzzyRule(in_term, out_term))

    return FuzzySystem(
        input_var=input_var,
        output_var=output_var,
        input_terms=input_terms,
        output_terms=output_terms,
        rules=tuple(checked_rules),
        default_output=default_output,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def to_fcl(sys: FuzzySystem, name: str = "adjacency_likelihood") -> str:
    """Serialize a system to FCL text that parses back to equal behavior."""
    lines = [f"FUNCTION_BLOCK {name}"]
    lines += [f"    VAR_INPUT {sys.input_var} : REAL; END_VAR"]
    lines += [f"    VAR_OUTPUT {sys.output_var} : REAL; END_VAR"]
    lines += ["", f"    FUZZIFY {sys.input_var}"]
    for term, mf in sys.input_terms.items():
        pts = " ".join(f"({_fmt(x)}, {_fmt(mu)})" for x, mu in mf.vertices)
        lines.append(f"        TERM {term} := {pts};")
    lines += ["    END_FUZZIFY", "", f"    DEFUZZIFY {sys.output_var}"]
    for term, mf in sys.output_terms.items():
        pts = " ".join(f"({_fmt(x)}, {_fmt(mu)})" for x, mu in mf.vertices)
        lines.append(f"        TERM {term} := {pts};")
    lines += [
        "        METHOD : COG;",
        f"        DEFAULT := {_fmt(sys.default_output)};",
        "    END_DEFUZZIFY",
        "",
        "    RULEBLOCK rules",
        "        AND : MIN;",
        "        ACT : MIN;",
        "        ACCU : MAX;",
    ]
    for i, rule in enumerate(sys.rules, start=1):
        lines.append(
            f"        RULE {i} : IF {sys.input_var} IS {rule.antecedent}"
            f" THEN {sys.output_var} IS {rule.consequent};"
        )
    lines += ["    END_RULEBLOCK", "END_FUNCTION_BLOCK", ""]
    return "\n".join(lines)
