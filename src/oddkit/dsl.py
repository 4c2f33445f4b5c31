"""Parser, validator, and serializer for the textual ODD specification language.

The language is line-oriented. A document is a sequence of ``odd`` node
blocks and ``monitorchain`` scenario blocks; ``#`` starts a comment. The
README states its grammar, which the keyword tables of ``_Parser`` follow.
A node attribute's, a ``param`` option's and a monitorchain item's value
starts on its keyword's own line (``_Parser.value``).

Each check is a predicate. One over a single subject returns the
``(code, message)`` of the first rule it breaks, or None (``monitor_problem``,
``stub_problem``, ``_polygon_problem``, ``_polytope_problem``); one over a
node declaration or the whole document yields ``(code, message, (line, col))``
per problem (``_node_problems``, ``_document_problems``). ``_diagnostic`` is
the one place a code, message and position become a ``Diagnostic``; the
code's letter gives the severity (E error, W warning).

Diagnostic codes:
    E001 syntax error / unknown enumeration value, monitor kind, monitor action or stub kind
    E002 duplicate node or parameter name
    E003 unresolved node reference
    E004 degenerate or inconsistent region, or a halfspace not finite once scaled by the spans
    E005 parameter range lo > hi, or a bound or span that is not finite
    E006 region vertex outside the parameter box, or a polytope member with no point within it
    E007 extends violation (no new parameter, or projection leaves the base)
    E008 allocation cycle
    E009 more than one system_od node
    E010 monitor input point whose arity differs from its node's parameter count
    E011 dist the sampler cannot draw within the parameter's range
    E012 monitor tol or threshold that is not positive
    E013 known_input_monitor without input points
    E014 monitor without the node reference its kind or its input points need
    E015 bilinear stub without exactly 4 finite coefficients
    E016 monitorchain without a stub model
    E017 allocation to a node with a parameter the allocating node lacks
    E018 allocation violation (projection leaves the region of the node allocated to)
    W001 unknown attribute or construct (ignored)
    W002 E007 or E018 undecided: the base or parent is a union of several members and the projection fits in no single one
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import geometry
from .model import (
    ConvexPolytope,
    Distribution,
    DimensionClass,
    Level,
    OddNode,
    Parameter,
    Polygon2D,
    PolytopeUnion,
    Variant,
)

_REGION_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    line: int
    col: int

    def __str__(self):
        return f"{self.severity} {self.code} at {self.line}:{self.col}: {self.message}"


def _diagnostic(code: str, message: str, line: int, col: int) -> Diagnostic:
    """A spec problem at its position: every E code is an error, every W code a warning."""
    return Diagnostic("error" if code[0] == "E" else "warning", code, message, line, col)


@dataclass(frozen=True)
class StubDecl:
    kind: str  # "bilinear"; any other kind is E001
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class MonitorDecl:
    kind: str
    node: str | None = None
    param: str | None = None
    threshold: float | None = None
    tol: float | None = None
    lo: float | None = None
    hi: float | None = None
    action: str = "filter"
    action_value: float | None = None
    inputs: tuple[tuple[float, ...], ...] = ()
    # source position of the 'monitor' keyword
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)


MONITOR_KINDS = (
    "range_monitor", "extreme_value_monitor", "known_input_monitor", "output_range_monitor", "cross_check_monitor"
)
ACTIONS = ("filter", "replace", "mask", "failover")
_MONITOR_NUMBERS = ("lo", "hi", "threshold", "tol")  # the options a monitor states as one number


def monitor_problem(
    kind: str, action: str, tol: float | None, threshold: float | None, node: bool, inputs: int, bare: bool = False
) -> tuple[str, str] | None:
    """The code and message of the first rule a monitor breaks, or None.

    ``node`` tells whether it names a node and ``inputs`` how many known
    inputs it has; ``bare`` inputs are coordinate tuples, which only a node's
    parameters can name. A ``tol`` or ``threshold`` of None is the default.
    """
    if kind not in MONITOR_KINDS:
        return "E001", f"unknown monitor kind {kind!r}"
    if action not in ACTIONS:
        return "E001", f"unknown monitor action {action!r}"
    if any(v is not None and v <= 0 for v in (tol, threshold)):
        return "E012", "monitor tolerances and thresholds must be positive"
    if kind == "known_input_monitor" and not inputs:
        return "E013", "known_input_monitor needs a non-empty input list"
    if not node and kind in ("range_monitor", "extreme_value_monitor"):
        return "E014", f"{kind} needs a node reference"
    if not node and inputs and bare:
        return "E014", f"{kind} with input points needs a node reference to name the coordinates"
    return None


def stub_problem(kind: str | None, coefficients: tuple[float, ...] = ()) -> tuple[str, str] | None:
    """The code and message of the first rule a stub model breaks, or None;
    a ``kind`` of None is a monitorchain that declares no stub."""
    if kind is None:
        return "E016", "no stub model declared"
    if kind != "bilinear":
        return "E001", f"unknown stub kind {kind!r}"
    if len(coefficients) != 4 or not all(math.isfinite(c) for c in coefficients):
        return "E015", "bilinear stub needs 4 finite coefficients"
    return None


@dataclass(frozen=True)
class MonitorChainDecl:
    name: str
    stub: StubDecl | None
    monitors: tuple[MonitorDecl, ...]
    # source position of the 'monitorchain' keyword
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)


@dataclass
class SpecDocument:
    nodes: list[OddNode] = field(default_factory=list)
    monitor_chains: list[MonitorChainDecl] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def node(self, name: str) -> OddNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


# -- tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
    | (?P<string>"[^"\n]*")
    | (?P<le><=)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_&-]*)
    | (?P<punct>[{}\[\](),:])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diagnostics.append(_diagnostic("E001", f"unexpected character {text[pos]!r}", line, col))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    return tokens, diagnostics


# -- parser -------------------------------------------------------------------


class _Parser:
    """A cursor over the tokens, with readers for the grammar's productions.

    A reader returns what it read, or None once it has reported a missing or
    bad token. The statement it was reading then ends: a node's ``param``
    line is skipped to its end, a ``region`` or a ``monitorchain`` block to
    its closing brace. :meth:`value` reads a keyword's value, which lies on
    the keyword's own line."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.end = len(tokens)  # the end of input, or of a line by :meth:`value`
        # where a read that runs out reports: the keyword whose line :meth:`value` reads, else the last token
        self.keyword = tokens[-1] if tokens else Token("eof", "", 1, 1)

    # token stream helpers

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < self.end else None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, code: str = "E001"):
        if tok is None:
            tok = self.peek() or self.keyword
        self.diagnostics.append(_diagnostic(code, message, tok.line, tok.col))

    def skip_unknown(self, tok: Token, where: str) -> bool:
        """Warn about an unknown construct in a block body and skip its line.
        True when ``tok`` is a brace, which the skip stops at and does not
        consume: the body ends there."""
        self.error(f"unknown construct {tok.value!r} in {where}", tok, "W001")
        self.skip_line(tok.line)
        return self.peek() is tok

    def token(self, item: str) -> Token | None:
        """The next token if it is ``item``, a token kind (``ident``,
        ``number``, ``string``, ``le``) or a token's text; else None, after
        reporting it."""
        tok = self.peek()
        if tok is None or (tok.kind if item in ("ident", "number", "string", "le") else tok.value) != item:
            got = f"{tok.value!r}" if tok else "end of input" if self.end == len(self.tokens) else "end of line"
            self.error(f"expected {item}, got {got}")
            return None
        self.pos += 1
        return tok

    def expect(self, *items: str) -> list[Token] | None:
        """The next tokens if they are ``items``, each read by ``token``; else
        None once one is not."""
        found = []
        for item in items:
            if (tok := self.token(item)) is None:
                return None
            found.append(tok)
        return found

    def value(self, keyword: Token, read, *args):
        """What ``read(self, *args)`` reads as ``keyword``'s value, which lies
        on the keyword's line: where the line ends first, ``read`` finds no
        token and reports ``got end of line`` at the keyword."""
        outer = self.end, self.keyword
        self.end, self.keyword = self.pos, keyword
        while self.end < outer[0] and self.tokens[self.end].line == keyword.line:
            self.end += 1
        found = read(self, *args)
        self.end, self.keyword = outer
        return found

    def options(self, readers: dict) -> list[tuple[str, object]] | None:
        """Read ``keyword value`` pairs while the next token is a keyword of
        ``readers``, each value by its reader (a function of the parser) through
        :meth:`value`: the pairs in order, or None once one fails."""
        pairs = []
        while (tok := self.peek()) is not None and tok.kind == "ident" and tok.value in readers:
            self.pos += 1
            if (found := self.value(tok, readers[tok.value])) is None:
                return None
            pairs.append((tok.value, found))
        return pairs

    def skip_line(self, from_line: int):
        """Skip the rest of a line, up to a brace."""
        while (tok := self.peek()) is not None and tok.line == from_line and tok.value not in ("{", "}"):
            self.pos += 1

    def skip_to(self, *keywords: str):
        """Skip tokens up to the next of these keywords, the point to resume at."""
        while (tok := self.peek()) is not None and not (tok.kind == "ident" and tok.value in keywords):
            self.next()

    def skip_block(self):
        """Skip tokens until the matching close brace of an already-open block."""
        depth = 1
        while depth and (tok := self.next()) is not None:
            if tok.value in ("{", "}"):
                depth += 1 if tok.value == "{" else -1

    # value readers

    def number(self) -> float | None:
        tok = self.token("number")
        return float(tok.value) if tok else None

    def string(self) -> str | None:
        tok = self.token("string")
        return tok.value[1:-1] if tok else None

    def ident(self) -> str | None:
        tok = self.token("ident")
        return tok.value if tok else None

    def numbers(self) -> tuple[float, ...]:
        """The run of numbers up to the next token that is not one."""
        values = []
        while (tok := self.peek()) is not None and tok.kind == "number":
            values.append(float(self.next().value))
        return tuple(values)

    def point(self) -> tuple[float, ...] | None:
        """A parenthesized, comma-separated list of one or more numbers."""
        if self.expect("(") is None:
            return None
        values = []
        while (value := self.number()) is not None:
            values.append(value)
            if (tok := self.peek()) is None or tok.value != ",":
                return tuple(values) if self.expect(")") else None
            self.next()
        return None

    def dimension_class(self) -> DimensionClass | None:
        tok = self.token("ident")
        try:
            return DimensionClass(tok.value) if tok else None
        except ValueError:
            self.error(f"unknown dimension class {tok.value!r}", tok)
            return None

    def distribution(self) -> tuple[Distribution, Token] | None:
        """The distribution and its kind's token, where E011 is reported."""
        kind = self.token("ident")
        if kind is None or kind.value not in ("uniform", "triangular", "histogram"):
            if kind is not None:
                self.error(f"unknown distribution {kind.value!r}", kind)
            return None
        args = ()
        if (tok := self.peek()) is not None and tok.value == "(" and (args := self.point()) is None:
            return None
        return Distribution(kind.value, args), kind

    def halfspace(self) -> tuple[tuple[float, ...], float] | None:
        coefficients = self.numbers()
        bound = self.expect("le", "number")
        return (coefficients, float(bound[1].value)) if bound else None

    def vertices(self) -> list[tuple[float, ...]] | None:
        """A polygon's points, up to the next token that is not a '('."""
        found = []
        while (tok := self.peek()) is not None and tok.value == "(":
            if (pt := self.point()) is None:
                return None
            found.append(pt)
        return found

    def action(self) -> tuple[str, float | None] | None:
        """A monitor action and the number that may follow it."""
        name = self.ident()
        if name is None:
            return None
        value = float(self.next().value) if (tok := self.peek()) is not None and tok.kind == "number" else None
        return name, value

    def stub(self) -> StubDecl | None:
        kind = self.ident()
        return StubDecl(kind, self.numbers()) if kind is not None else None

    def monitor(self) -> MonitorDecl | None:
        start = self.tokens[self.pos - 1]  # 'monitor'
        kind = self.ident()
        options = None if kind is None else self.options(self._MONITOR_OPTIONS)
        if options is None:
            return None
        opts = {key: value for key, value in options if key != "input"}
        opts["action"], opts["action_value"] = opts.get("action", ("filter", None))
        inputs = tuple(value for key, value in options if key == "input")
        return MonitorDecl(kind, inputs=inputs, line=start.line, col=start.col, **opts)

    # statements

    def document(self) -> list:
        """The statements in order: a dict per node declaration, a
        MonitorChainDecl per monitorchain, and None per one that did not parse."""
        statements = []
        while (tok := self.peek()) is not None:
            if tok.kind == "ident" and tok.value in self._STATEMENTS:
                statements.append(self._STATEMENTS[tok.value](self))
            else:
                self.error(f"expected 'odd' or 'monitorchain', got {tok.value!r}")
                self.skip_to(*self._STATEMENTS)
        return statements

    def node_decl(self) -> dict | None:
        start = self.next()  # 'odd'
        name = self.string()
        if name is None:
            self.skip_line(start.line)
            return None
        decl = {
            "name": name,
            "level": (Level.MLM_ODD.value, None),
            "variant": (Variant.AS_SPECIFIED.value, None),
            "allocates": None,
            "extends": None,
            "params": [],
            "polygon": None,
            "polytopes": [],
            "loc": (start.line, start.col),
            "bad": False,
            "lost_param": False,  # a param that did not parse: the region is not checked
            "lost_region": False,  # a region that did not parse: its absence is not reported
        }
        while (tok := self.peek()) is not None and tok.value != "{":
            self.next()
            if tok.kind == "ident" and tok.value in ("level", "variant"):
                if (val := self.value(tok, _Parser.token, "ident")) is not None:
                    decl[tok.value] = (val.value, (val.line, val.col))
            elif tok.kind == "ident" and tok.value in ("allocates", "extends"):
                if (ref := self.value(tok, _Parser.string)) is not None:
                    decl[tok.value] = ref
            else:
                self.error(f"unknown node attribute {tok.value!r}", tok, "W001")
        if self.expect("{") is None:
            decl["bad"] = True
            return decl
        while (tok := self.peek()) is not None and tok.value != "}":
            if tok.kind == "ident" and tok.value == "param":
                param = self.param_decl()
                if param is not None:
                    decl["params"].append(param)
                else:
                    decl["bad"] = decl["lost_param"] = True
            elif tok.kind == "ident" and tok.value == "region":
                if not self.region_decl(decl):
                    decl["bad"] = decl["lost_region"] = True
            elif self.skip_unknown(tok, "node body"):
                break
        if self.expect("}") is None:
            decl["bad"] = True
        return decl

    def param_decl(self):
        start = self.next()  # 'param'
        head = self.expect("ident", ":", "ident", "range", "[", "number", ",", "number", "]")
        options = head and self.options(self._PARAM_OPTIONS)
        if options is None:
            self.skip_line(start.line)
            return None
        name, _, unit, _, _, lo, _, hi, _ = head
        lo, hi = float(lo.value), float(hi.value)
        opts = dict(options)
        distribution, dist_tok = opts.get("dist", (None, None))
        if lo > hi:
            self.error(f"parameter {name.value!r}: range lo {lo:g} > hi {hi:g}", name, code="E005")
            lo, hi = hi, lo
        if distribution is not None and (problem := _distribution_problem(distribution, lo, hi)):
            self.error(f"parameter {name.value!r}: {distribution.kind} {problem}", dist_tok, code="E011")
        dim_class = opts.get("class", DimensionClass.OPERATIONAL)
        return Parameter(name.value, unit.value, lo, hi, dim_class, distribution), (start.line, start.col)

    def region_decl(self, decl: dict) -> bool:
        start = self.next()  # 'region'
        kind = self.token("ident")
        if kind is None or kind.value not in ("polygon", "polytope"):
            self.error("expected 'polygon' or 'polytope'", kind or start)
            self.skip_line(start.line)
            return False
        if self.expect("{") is None:
            return False
        polygon = kind.value == "polygon"
        items = self.vertices() if polygon else self.options(self._POLYTOPE_ITEMS)
        if items is None:
            self.skip_block()
            return False
        if self.expect("}") is None:
            return False
        if decl["polygon"] is not None or (polygon and decl["polytopes"]):
            self.error("node mixes polygon and polytope regions", start, code="E004")
            return False
        loc = (start.line, start.col)
        if polygon:
            decl["polygon"] = (tuple(items), loc)
        else:
            halfspaces = tuple(v for k, v in items if k == "halfspace")
            vertices = tuple(v for k, v in items if k == "vertex")
            decl["polytopes"].append((halfspaces, vertices, loc))
        return True

    def monitorchain_decl(self) -> MonitorChainDecl | None:
        start = self.next()  # 'monitorchain'
        head = self.expect("string", "{")
        if head is None:
            self.skip_line(start.line)
            return None
        items = []
        while (tok := self.peek()) is not None and tok.value != "}":
            found = self.options(self._CHAIN_ITEMS)
            if found is None:
                self.skip_block()
                return None
            items += found
            if not found and self.skip_unknown(tok, "monitorchain"):
                break
        if self.expect("}") is None:
            return None
        monitors = tuple(v for k, v in items if k == "monitor")
        return MonitorChainDecl(head[0].value[1:-1], dict(items).get("stub"), monitors, start.line, start.col)

    # the grammar: keyword -> reader tables

    _STATEMENTS = {"odd": node_decl, "monitorchain": monitorchain_decl}
    _PARAM_OPTIONS = {"class": dimension_class, "dist": distribution}
    _POLYTOPE_ITEMS = {"halfspace": halfspace, "vertex": point}
    _CHAIN_ITEMS = {"stub": stub, "monitor": monitor}
    _MONITOR_OPTIONS = {
        "node": string, "param": ident, **dict.fromkeys(_MONITOR_NUMBERS, number), "input": point, "action": action
    }


def _distribution_problem(dist: Distribution, lo: float, hi: float) -> str | None:
    """Why the sampler cannot draw ``dist`` within [lo, hi], or None."""
    args = dist.args
    if dist.kind == "uniform":
        return f"takes no arguments, got {len(args)}" if args else None
    if dist.kind == "triangular":
        if len(args) != 3:
            return f"takes 3 arguments (left, mode, right), got {len(args)}"
        if not args[0] <= args[1] <= args[2] or args[0] == args[2]:
            return "needs left <= mode <= right and left < right"
        support = args[0], args[2]
    else:
        bins = (len(args) - 1) // 2
        if bins < 1 or len(args) != 2 * bins + 1:
            return f"takes k + 1 edges and k weights (k >= 1), got {len(args)} arguments"
        edges, weights = args[: bins + 1], args[bins + 1 :]
        if not all(a < b for a, b in zip(edges, edges[1:])):
            return "needs strictly increasing edges"
        if min(weights) < 0 or not 0 < sum(weights) < math.inf:
            return "needs non-negative weights with a positive finite sum"
        support = edges[0], edges[-1]
    if not (lo <= support[0] and support[1] <= hi):
        return f"support [{support[0]:g}, {support[1]:g}] leaves the range [{lo:g}, {hi:g}]"
    return None


# -- semantic assembly and validation ------------------------------------------


def _build_node(decl: dict) -> tuple[OddNode | None, list[tuple[str, str, tuple[int, int]]]]:
    """The problems of a node declaration, and the node it states when there
    are none and it parsed whole (else None)."""
    firsts: dict[str, Parameter] = {}
    for p, _ in decl["params"]:
        firsts.setdefault(p.name, p)
    params = tuple(firsts.values())
    problems = list(_node_problems(decl, params))
    if problems or decl["bad"]:
        return None, problems
    if decl["polygon"] is not None:
        region = Polygon2D(decl["polygon"][0])
    else:
        region = PolytopeUnion(tuple(ConvexPolytope(h, v) for h, v, _ in decl["polytopes"]))
    node = OddNode(
        name=decl["name"],
        level=Level(decl["level"][0]),
        variant=Variant(decl["variant"][0]),
        parameters=params,
        region=region,
        allocates=decl["allocates"],
        extends=decl["extends"],
    )
    # the band of _in_box admits a member just outside the box. A listed
    # vertex exactly within the box and the member shows it is not empty;
    # without one, the pieces are enumerated, and a member whose piece has no
    # vertex has no point in the box
    if isinstance(region, PolytopeUnion) and not all(
        any(_in_member(v, m, params) for v in m.vertices) for m in region.members
    ):
        message = f"node {node.name!r}: polytope member has no point within the parameter box"
        pieces = zip(geometry.region_pieces(node), decl["polytopes"])
        problems = [("E006", message, loc) for piece, (_, _, loc) in pieces if not len(piece)]
    return (None if problems else node), problems


def _node_problems(decl: dict, params: tuple[Parameter, ...]):
    """Yield (code, message, (line, col)) for each problem of a node
    declaration whose distinct parameters are ``params``."""
    name = decl["name"]
    for key, enum in (("level", Level), ("variant", Variant)):
        value, loc = decl[key]
        if value not in {e.value for e in enum}:
            yield "E001", f"unknown {key} {value!r}", loc
    seen = set()
    for p, loc in decl["params"]:
        if p.name in seen:
            yield "E002", f"duplicate parameter {p.name!r} in node {name!r}", loc
        seen.add(p.name)
        if not math.isfinite(p.span):  # an infinite bound, or finite ones too far apart
            yield "E005", f"parameter {p.name!r}: range [{p.lo:g}, {p.hi:g}] has a bound or span that is not finite", loc
    if decl["lost_param"] or not all(math.isfinite(p.span) for p in params):
        return  # a region is checked against all its node's parameters, in normalized coordinates
    if decl["polygon"] is not None:
        verts, loc = decl["polygon"]
        regions = [(_polygon_problem(verts, params), loc)]
    else:
        regions = [(_polytope_problem(h, v, params), loc) for h, v, loc in decl["polytopes"]]
    for (code, message), loc in (r for r in regions if r[0]):
        yield code, f"node {name!r}: {message}", loc
    if not regions and not decl["lost_region"]:
        yield "E004", f"node {name!r} has no region", decl["loc"]


def _in_member(v, member: ConvexPolytope, params) -> bool:
    return all(p.lo <= c <= p.hi for c, p in zip(v, params)) and all(
        sum(ai * ci for ai, ci in zip(a, v)) <= b for a, b in member.halfspaces
    )


def _in_box(v, params) -> bool:
    """Whether ``v`` lies in the parameter box, grown by a band of
    _REGION_CHECK_TOL of each span."""
    return all(
        p.lo - _REGION_CHECK_TOL * p.span <= c <= p.hi + _REGION_CHECK_TOL * p.span for c, p in zip(v, params)
    )


def _polygon_problem(verts, params) -> tuple[str, str] | None:
    """The code and message of the first rule a polygon region breaks, or None."""
    if len(params) != 2:
        return "E004", "polygon region requires exactly 2 parameters"
    if len(verts) < 3:
        return "E004", "polygon needs >= 3 vertices"
    norm = [tuple((c - p.lo) / p.span for c, p in zip(v, params)) for v in verts]
    if abs(geometry.polygon_area(norm)) <= _REGION_CHECK_TOL:
        return "E004", "polygon has zero area"
    if not geometry.polygon_is_simple(norm):
        return "E004", "polygon is self-intersecting"
    for v in verts:
        if not _in_box(v, params):
            return "E006", f"polygon vertex {v} outside the parameter box"
    return None


def _polytope_problem(halfspaces, vertices, params) -> tuple[str, str] | None:
    """The code and message of the first rule a polytope member breaks, or None."""
    n = len(params)
    if not halfspaces or not vertices:
        return "E004", "polytope needs halfspaces and an explicit vertex list"
    for a, b in halfspaces:
        if len(a) != n:
            return "E004", f"halfspace has {len(a)} coefficients, expected {n}"
        scaled = [ai * p.span for ai, p in zip(a, params)]  # the row as the geometry scales it
        if not math.isfinite(sum(v * v for v in scaled)):  # a scaled coefficient or the norm overflows
            return "E004", f"halfspace {a} <= {b:g} is not finite once scaled by the parameter spans"
    for v in vertices:
        if len(v) != n:
            return "E004", f"vertex has {len(v)} coordinates, expected {n}"
        if not _in_box(v, params):
            return "E006", f"polytope vertex {v} outside the parameter box"
        for a, b in halfspaces:
            # normalized slack keeps the check unit-independent
            scale = sum(abs(ai) * p.span for ai, p in zip(a, params)) or 1.0
            if (sum(ai * ci for ai, ci in zip(a, v)) - b) / scale > _REGION_CHECK_TOL:
                return "E004", f"vertex {v} violates halfspace {a} <= {b:g}"
    return None


def _leaves(node: OddNode, outer: OddNode, code: str, role: str) -> tuple[str, str] | None:
    """``code`` and its message when ``node``'s projection leaves the region
    of ``outer``, its ``role`` ("base" or "parent"); W002 when
    :func:`geometry.contains_node` cannot decide; None when it lies within."""
    result = geometry.contains_node(node, outer)
    if result.contained is None:
        return "W002", f"{code} undecided: the projection of {node.name!r} fits in no one member of {outer.name!r}"
    if not result.contained:
        witness = result.witness.values
        return code, f"projection of {node.name!r} leaves {role} region {outer.name!r} (witness {witness})"
    return None


def _document_problems(
    nodes: list[OddNode], locs: list[tuple[int, int]], chains: list[MonitorChainDecl], unbuilt: set[str]
):
    """Yield (code, message, (line, col)) for each problem between the built
    nodes, each placed at its own declaration ``locs[i]``, then for each
    problem of the monitorchains. A reference to a declared node that was
    not built (``unbuilt``, whose own problems are reported) is not E003."""
    by_name: dict[str, OddNode] = {}
    for node, loc in zip(nodes, locs):
        if node.name in by_name:
            yield "E002", f"duplicate node name {node.name!r}", loc
        by_name[node.name] = node

    system_ods = [loc for node, loc in zip(nodes, locs) if node.level == Level.SYSTEM_OD]
    if len(system_ods) > 1:
        yield "E009", "more than one system_od node", system_ods[1]

    for node, loc in zip(nodes, locs):
        for ref in (node.allocates, node.extends):
            if ref is not None and ref not in by_name and ref not in unbuilt:
                yield "E003", f"node {node.name!r} references unknown node {ref!r}", loc

    # allocation: the parent's parameters are the node's too, its projection
    # lies in the parent's region, and the chain is acyclic
    for node, loc in zip(nodes, locs):
        parent = by_name.get(node.allocates)
        if parent is not None and (missing := [n for n in parent.parameter_names if n not in node.parameter_names]):
            yield "E017", f"node {node.name!r} allocates to {parent.name!r} but lacks its parameter(s) {missing}", loc
        elif parent is not None and (problem := _leaves(node, parent, "E018", "parent")):
            yield *problem, loc
        seen, current = {node.name}, node
        while current.allocates in by_name:
            current = by_name[current.allocates]
            if current.name in seen:
                yield "E008", f"allocation cycle through node {current.name!r}", loc
                break
            seen.add(current.name)

    # extension: strict parameter superset, projection contained in the base
    for node, loc in zip(nodes, locs):
        if (base := by_name.get(node.extends)) is None:
            continue
        if not set(node.parameter_names) > set(base.parameter_names):
            yield "E007", f"node {node.name!r} must add at least one parameter over {base.name!r}", loc
        elif problem := _leaves(node, base, "E007", "base"):
            yield *problem, loc

    for chain in chains:
        stub = (chain.stub.kind, chain.stub.coefficients) if chain.stub else (None,)
        found = [(stub_problem(*stub), (chain.line, chain.col))] + [
            (monitor_problem(m.kind, m.action, m.tol, m.threshold, m.node is not None, len(m.inputs), True), (m.line, m.col))
            for m in chain.monitors
        ]
        for (code, message), loc in (f for f in found if f[0]):
            yield code, f"monitorchain {chain.name!r}: {message}", loc
        for mon in (m for m in chain.monitors if m.node is not None):
            loc = (mon.line, mon.col)
            if mon.node not in by_name:
                if mon.node not in unbuilt:
                    yield "E003", f"monitorchain {chain.name!r} references unknown node {mon.node!r}", loc
                continue
            arity = len(by_name[mon.node].parameters)
            for pt in (pt for pt in mon.inputs if len(pt) != arity):
                message = f"{mon.kind} input {pt} has {len(pt)} value(s), node {mon.node!r} has {arity} parameter(s)"
                yield "E010", f"monitorchain {chain.name!r}: {message}", loc


def parse_spec(text: str) -> SpecDocument:
    """Parse a specification document.

    Parsing recovers and continues after errors so one pass reports as many
    diagnostics as possible. ``doc.ok`` is False when any error diagnostic was
    produced; callers must not use the nodes of a failed document.
    """
    tokens, diagnostics = tokenize(text)
    parser = _Parser(tokens)
    statements = parser.document()
    chains = [s for s in statements if isinstance(s, MonitorChainDecl)]
    doc = SpecDocument(monitor_chains=chains, diagnostics=diagnostics + parser.diagnostics)
    problems, locs, unbuilt = [], [], set()
    for decl in (s for s in statements if isinstance(s, dict)):
        node, found = _build_node(decl)
        problems += found
        if node is None:
            unbuilt.add(decl["name"])
        else:
            doc.nodes.append(node)
            locs.append(decl["loc"])
    problems += _document_problems(doc.nodes, locs, chains, unbuilt)
    doc.diagnostics += [_diagnostic(code, message, *loc) for code, message, loc in problems]
    return doc


# -- serializer -----------------------------------------------------------------


def fmt(v: float) -> str:
    """Canonical number formatting: up to 9 significant digits."""
    return format(float(v), ".9g")


def _number(v: float) -> str:
    """A number as the spec serializer writes it: ``fmt(v)`` where that reads
    back as ``v`` (an infinity as 1e999), else every digit ``repr`` needs."""
    text = fmt(v).replace("inf", "1e999")
    return text if float(text) == v else repr(float(v))


def _point(values) -> str:
    return "(" + ", ".join(map(_number, values)) + ")"


def _serialize_param(p: Parameter) -> str:
    text = f"param {p.name}: {p.unit} range [{_number(p.lo)}, {_number(p.hi)}] class {p.dimension_class.value}"
    if (d := p.distribution) is not None:
        text += f" dist {d.kind}" + (_point(d.args) if d.args else "")
    return text


def _serialize_node(node: OddNode) -> list[str]:
    head = [f'odd "{node.name}"', f"level {node.level.value}", f"variant {node.variant.value}"]
    refs = (("allocates", node.allocates), ("extends", node.extends))
    head += [f'{key} "{ref}"' for key, ref in refs if ref is not None]
    lines = [" ".join(head) + " {"]
    lines += ["  " + _serialize_param(p) for p in node.parameters]
    region = node.region
    if isinstance(region, Polygon2D):
        lines.append("  region polygon {")
        lines += ["    " + _point(v) for v in region.vertices]
        lines.append("  }")
    else:
        for member in region.members:
            lines.append("  region polytope {")
            for a, b in member.halfspaces:
                lines.append(f"    halfspace {' '.join(map(_number, a))} <= {_number(b)}")
            lines += ["    vertex " + _point(v) for v in member.vertices]
            lines.append("  }")
    lines.append("}")
    return lines


def _serialize_monitor(mon: MonitorDecl) -> str:
    parts = [f"monitor {mon.kind}"]
    if mon.node is not None:
        parts.append(f'node "{mon.node}"')
    if mon.param is not None:
        parts.append(f"param {mon.param}")
    parts += [f"{key} {_number(getattr(mon, key))}" for key in _MONITOR_NUMBERS if getattr(mon, key) is not None]
    parts += ["input " + _point(pt) for pt in mon.inputs]
    parts.append(f"action {mon.action}")
    if mon.action_value is not None:
        parts.append(_number(mon.action_value))
    return " ".join(parts)


def serialize_spec(doc: SpecDocument) -> str:
    """Render a document in canonical formatting; parse-stable for valid docs."""
    blocks = ["\n".join(_serialize_node(node)) for node in doc.nodes]
    for chain in doc.monitor_chains:
        lines = [f'monitorchain "{chain.name}" {{']
        if chain.stub is not None:
            lines.append(f"  stub {chain.stub.kind} {' '.join(map(_number, chain.stub.coefficients))}")
        lines += ["  " + _serialize_monitor(mon) for mon in chain.monitors]
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
