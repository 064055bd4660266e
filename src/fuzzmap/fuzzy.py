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
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

import numpy as np

_SAMPLES = 1001  # uniform output samples of [0, 1] for the COG integral
_GRID = np.linspace(0.0, 1.0, _SAMPLES)
_WEIGHTS = np.full(_SAMPLES, 1.0 / (_SAMPLES - 1))
_WEIGHTS[[0, -1]] /= 2.0  # trapezoid rule
_WEIGHTED_GRID = _WEIGHTS * _GRID
_CHUNK = 64  # rows per (chunk x grid) buffer: 0.5 MB, so each rule's pass stays in cache

_NUMBER = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")  # not nan, inf or infinity, which float() reads
# the one group, the last alternative, takes any other non-blank character: a stray
_TOKEN = re.compile(rf":=|[():;,]|[A-Za-z_][A-Za-z0-9_]*|{_NUMBER.pattern}|(\S)")


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
        if any(not 0.0 <= x <= 1.0 for x in xs):  # NaN included
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
    """Validated Mamdani system: min activation, max accumulation, COG.

    The system follows the holding rule (``graph.hold``): it is frozen, and
    it holds its term maps as read-only copies, so its compiled rules,
    ``to_fcl`` and ``==`` describe one system.
    """

    input_var: str
    output_var: str
    input_terms: Mapping[str, MembershipFunction]
    output_terms: Mapping[str, MembershipFunction]
    rules: tuple[FuzzyRule, ...]
    default_output: float = 0.5  # returned when no rule fires at all
    # per rule: antecedent term and consequent term sampled on the grid
    _compiled: tuple[tuple[MembershipFunction, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_output <= 1.0:  # also refuses nan
            raise FclParseError(f"DEFAULT must be in [0, 1], got {self.default_output}")
        if not self.rules:
            raise FclParseError("at least one rule is required")
        for rule in self.rules:
            if rule.antecedent not in self.input_terms:
                raise FclParseError(f"unresolved input term '{rule.antecedent}'")
            if rule.consequent not in self.output_terms:
                raise FclParseError(f"unresolved output term '{rule.consequent}'")
        for name in ("input_terms", "output_terms"):  # read-only copies: _compiled is made of them
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        compiled = tuple(
            (self.input_terms[rule.antecedent], self.output_terms[rule.consequent].at(_GRID))
            for rule in self.rules
        )
        object.__setattr__(self, "_compiled", compiled)

    def __reduce__(self):  # a read-only term map does not pickle; the system's FCL does
        return parse_fcl, (to_fcl(self),)


def default_fcl_text() -> str:
    """Source of the shipped default.fcl, the one definition of default_system()."""
    return resources.files(__package__).joinpath("default.fcl").read_text(encoding="utf-8")


def default_system() -> FuzzySystem:
    """The built-in symmetric system, parsed from the shipped default.fcl.

    Input ramps close_to_r(x) = x and close_to_R(x) = 1 - x; mirrored
    triangular output terms; rules close_to_r -> adjacent and
    close_to_R -> non_adjacent. Symmetry makes 0.5 a fixed point up to
    rounding: the 1001-sample centroid sums give 0.4999999999999998.
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


# Statement forms read by _Tokens.read: uppercase words are keywords
# (case-insensitive), "ident" and "number" capture a value, anything else
# is punctuation matched exactly. A TERM continues with vertices and ';'.
_STATEMENTS = {
    "VAR_INPUT": "VAR_INPUT ident : REAL ; END_VAR",
    "VAR_OUTPUT": "VAR_OUTPUT ident : REAL ; END_VAR",
    "TERM": "TERM ident :=",
    "METHOD": "METHOD : COG ;",
    "DEFAULT": "DEFAULT := number ;",
    "AND": "AND : MIN ;",
    "ACT": "ACT : MIN ;",
    "ACCU": "ACCU : MAX ;",
    "RULE": "RULE number : IF ident IS ident THEN ident IS ident ;",
}
_VERTEX = "( number , number )"

# the statements each block admits, in any order and number, before its END_
_BLOCKS = {
    "FUZZIFY": ("TERM",),
    "DEFUZZIFY": ("TERM", "METHOD", "DEFAULT"),
    "RULEBLOCK": ("AND", "ACT", "ACCU", "RULE"),
}
# the role of each declaration and of the term block naming it; one of each
_VARIABLES = {"VAR_INPUT": "input", "VAR_OUTPUT": "output"}
_TERM_BLOCKS = {"FUZZIFY": "input", "DEFUZZIFY": "output"}
# every keyword of the grammar above; none may name a variable, term or block
_KEYWORDS = {word for form in _STATEMENTS.values() for word in form.split() if word.isupper()}
_KEYWORDS |= {end + block for block in (*_BLOCKS, "FUNCTION_BLOCK") for end in ("", "END_")}


class _Tokens:
    """Token stream with line numbers for error reporting."""

    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            for match in _TOKEN.finditer(raw.split("//", 1)[0]):
                if match.group(1):
                    raise FclParseError(f"line {lineno}: unexpected character {match.group(1)!r}")
                self.items.append((lineno, match.group()))
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

    def expect(self, word: str) -> None:
        """Consume ``word``: a keyword (uppercase) in any case, punctuation exactly."""
        line, tok = self.next()
        keyword = word.isupper()
        if (tok.upper() if keyword else tok) != word:
            wanted = word if keyword else repr(word)
            raise FclParseError(f"line {line}: expected {wanted}, got '{tok}'")

    def ident(self) -> str:
        line, tok = self.next()
        if not tok.isidentifier() or tok.upper() in _KEYWORDS:  # only _TOKEN's name form is one
            raise FclParseError(f"line {line}: expected identifier, got '{tok}'")
        return tok

    def number(self) -> float:
        line, tok = self.next()
        if not _NUMBER.fullmatch(tok):
            raise FclParseError(f"line {line}: expected number, got '{tok}'")
        return float(tok)

    def read(self, form: str) -> list:
        """Consume the fixed token sequence ``form``; returns its captured values."""
        values = []
        for word in form.split():
            if word == "ident":
                values.append(self.ident())
            elif word == "number":
                values.append(self.number())
            else:
                self.expect(word)
        return values


def _add_term(terms: dict[str, MembershipFunction], tokens: _Tokens) -> None:
    """Read one TERM statement into ``terms``; a repeated name is an error."""
    line, _ = tokens.peek()
    (name,) = tokens.read(_STATEMENTS["TERM"])
    vertex_line, _ = tokens.peek()
    vertices = []
    while tokens.peek()[1] == "(":
        vertices.append(tuple(tokens.read(_VERTEX)))
    tokens.expect(";")
    try:
        mf = MembershipFunction(tuple(vertices))
    except FclParseError as exc:
        raise FclParseError(f"line {vertex_line}: TERM {name}: {exc}") from None
    if name in terms:
        raise FclParseError(f"line {line}: duplicate TERM '{name}'")
    terms[name] = mf


def parse_fcl(text: str) -> FuzzySystem:
    """Parse FCL-subset text into a validated FuzzySystem.

    Grammar (keywords case-insensitive, identifiers case-sensitive):
    one FUNCTION_BLOCK holding VAR_INPUT/VAR_OUTPUT declarations of a
    single REAL variable each, FUZZIFY/DEFUZZIFY blocks of piecewise
    TERMs, and one RULEBLOCK of IF/IS/THEN rules with MIN activation,
    MAX accumulation and COG defuzzification. ``text`` must be a str,
    else TypeError before anything is read: a model embeds the text and
    saves it encoded, and ``load`` decodes it itself.
    """
    if not isinstance(text, str):
        raise TypeError(f"fcl_text must be a str, not {type(text).__name__}")
    tokens = _Tokens(text)
    tokens.expect("FUNCTION_BLOCK")
    tokens.ident()

    variables: dict[str, str] = {}  # role -> declared name
    terms: dict[str, dict[str, MembershipFunction]] = {"input": {}, "output": {}}
    rules: list[tuple[int, str, str, str, str]] = []
    default_output = 0.5
    blocks_seen: set[str] = set()

    while True:
        line, tok = tokens.peek()
        keyword = tok.upper()
        if keyword == "END_FUNCTION_BLOCK":
            tokens.next()
            break
        if keyword in _VARIABLES:
            role = _VARIABLES[keyword]
            (name,) = tokens.read(_STATEMENTS[keyword])
            if role in variables:
                raise FclParseError(f"line {line}: only one {role} variable is supported")
            variables[role] = name
            continue
        if keyword not in _BLOCKS:
            raise FclParseError(f"line {line}: unknown keyword '{tok}'")
        if keyword in _TERM_BLOCKS and keyword in blocks_seen:
            raise FclParseError(f"line {line}: duplicate {keyword} block")
        blocks_seen.add(keyword)
        tokens.next()
        name = tokens.ident()
        role = _TERM_BLOCKS.get(keyword)
        if role and name != variables.get(role):
            raise FclParseError(f"line {line}: {keyword} names undeclared {role} '{name}'")
        while (inner := tokens.peek()[1].upper()) in _BLOCKS[keyword]:
            inner_line, _ = tokens.peek()
            if inner == "TERM":
                _add_term(terms[role], tokens)
                continue
            values = tokens.read(_STATEMENTS[inner])
            if inner == "DEFAULT":
                (default_output,) = values
                if not 0.0 <= default_output <= 1.0:
                    raise FclParseError(
                        f"line {inner_line}: DEFAULT must be in [0, 1], got {default_output}")
            elif inner == "RULE":
                rules.append((inner_line, *values[1:]))
        tokens.expect(f"END_{keyword}")

    if tokens.pos < len(tokens.items):
        line, tok = tokens.peek()
        raise FclParseError(f"line {line}: trailing content '{tok}'")
    if len(variables) < 2:
        raise FclParseError("missing VAR_INPUT or VAR_OUTPUT declaration")
    if "RULEBLOCK" not in blocks_seen:
        raise FclParseError("missing RULEBLOCK")

    checked_rules = []
    for line, in_var, in_term, out_var, out_term in rules:
        if in_var != variables["input"]:
            raise FclParseError(f"line {line}: rule condition names unknown variable '{in_var}'")
        if out_var != variables["output"]:
            raise FclParseError(f"line {line}: rule conclusion names unknown variable '{out_var}'")
        if in_term not in terms["input"]:
            raise FclParseError(f"line {line}: unresolved term '{in_term}'")
        if out_term not in terms["output"]:
            raise FclParseError(f"line {line}: unresolved term '{out_term}'")
        checked_rules.append(FuzzyRule(in_term, out_term))

    return FuzzySystem(
        input_var=variables["input"],
        output_var=variables["output"],
        input_terms=terms["input"],
        output_terms=terms["output"],
        rules=tuple(checked_rules),
        default_output=default_output,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def to_fcl(sys: FuzzySystem) -> str:
    """Serialize a system to FCL text that parses back to equal behavior."""

    def term_lines(terms: Mapping[str, MembershipFunction]):
        for term, mf in terms.items():
            pts = " ".join(f"({_fmt(x)}, {_fmt(mu)})" for x, mu in mf.vertices)
            yield f"        TERM {term} := {pts};"

    lines = ["FUNCTION_BLOCK adjacency_likelihood"]
    lines += [f"    VAR_INPUT {sys.input_var} : REAL; END_VAR"]
    lines += [f"    VAR_OUTPUT {sys.output_var} : REAL; END_VAR"]
    lines += ["", f"    FUZZIFY {sys.input_var}", *term_lines(sys.input_terms), "    END_FUZZIFY"]
    lines += ["", f"    DEFUZZIFY {sys.output_var}", *term_lines(sys.output_terms)]
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
