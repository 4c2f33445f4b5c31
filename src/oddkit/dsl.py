"""Parser, validator, and serializer for the textual ODD specification language.

The language is line-oriented. A document is a sequence of ``odd`` node
blocks and ``monitorchain`` scenario blocks; ``#`` starts a comment. See the
README for the full grammar and worked examples.

Diagnostic codes:
    E001 syntax error / unknown enumeration value
    E002 duplicate node name
    E003 unresolved reference
    E004 degenerate or inconsistent region
    E005 parameter range violation (lo > hi)
    E006 region outside the parameter box
    E007 extends-containment violation
    E008 allocation cycle
    E009 more than one system_od node
    E010 monitor input point whose arity differs from its node's parameter count
    W001 unknown attribute or construct (ignored)
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class StubDecl:
    kind: str  # "bilinear" | "table"
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


@dataclass(frozen=True)
class MonitorChainDecl:
    name: str
    stub: StubDecl | None
    monitors: tuple[MonitorDecl, ...]


@dataclass
class SpecDocument:
    nodes: list[OddNode] = field(default_factory=list)
    monitor_chains: list[MonitorChainDecl] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    source_map: dict[str, tuple[int, int]] = field(default_factory=dict)

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

    def structurally_equal(self, other: "SpecDocument") -> bool:
        return (
            self.nodes == other.nodes
            and self.monitor_chains == other.monitor_chains
        )


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
            diagnostics.append(
                Diagnostic("error", "E001", f"unexpected character {text[pos]!r}", line, col)
            )
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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # token stream helpers

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def at_ident(self, *values: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "ident" and tok.value in values

    def error(self, message: str, tok: Token | None = None, code: str = "E001"):
        if tok is None:
            tok = self.peek() or (self.tokens[-1] if self.tokens else Token("eof", "", 1, 1))
        self.diagnostics.append(Diagnostic("error", code, message, tok.line, tok.col))

    def warn(self, message: str, tok: Token, code: str = "W001"):
        self.diagnostics.append(Diagnostic("warning", code, message, tok.line, tok.col))

    def expect(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if tok is None or tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = f"{tok.value!r}" if tok else "end of input"
            self.error(f"expected {want}, got {got}")
            return None
        return self.next()

    def skip_line(self, from_line: int):
        while (tok := self.peek()) is not None and tok.line == from_line:
            if tok.kind == "punct" and tok.value in "{}":
                return
            self.next()

    def skip_block(self):
        """Skip tokens until the matching close brace of an already-open block."""
        depth = 1
        while (tok := self.next()) is not None:
            if tok.kind == "punct" and tok.value == "{":
                depth += 1
            elif tok.kind == "punct" and tok.value == "}":
                depth -= 1
                if depth == 0:
                    return

    # value parsers

    def number(self) -> float | None:
        tok = self.expect("number")
        return float(tok.value) if tok else None

    def string(self) -> str | None:
        tok = self.expect("string")
        return tok.value[1:-1] if tok else None

    def point(self) -> tuple[float, ...] | None:
        if self.expect("punct", "(") is None:
            return None
        values = []
        first = self.number()
        if first is None:
            return None
        values.append(first)
        while self.peek() is not None and self.peek().value == ",":
            self.next()
            v = self.number()
            if v is None:
                return None
            values.append(v)
        if self.expect("punct", ")") is None:
            return None
        return tuple(values)

    # grammar productions

    def document(self) -> tuple[list[dict], list[MonitorChainDecl]]:
        node_decls: list[dict] = []
        chains: list[MonitorChainDecl] = []
        while (tok := self.peek()) is not None:
            if tok.kind == "ident" and tok.value == "odd":
                decl = self.node_decl()
                if decl is not None:
                    node_decls.append(decl)
            elif tok.kind == "ident" and tok.value == "monitorchain":
                chain = self.monitorchain_decl()
                if chain is not None:
                    chains.append(chain)
            else:
                self.error(f"expected 'odd' or 'monitorchain', got {tok.value!r}")
                # recover: resynchronize on the next top-level keyword
                self.next()
                while (t := self.peek()) is not None and not (
                    t.kind == "ident" and t.value in ("odd", "monitorchain")
                ):
                    self.next()
        return node_decls, chains

    def node_decl(self) -> dict | None:
        start = self.next()  # 'odd'
        name = self.string()
        if name is None:
            self.skip_line(start.line)
            return None
        decl = {
            "name": name,
            "level": None,
            "variant": None,
            "allocates": None,
            "extends": None,
            "params": [],
            "polygon": None,
            "polytopes": [],
            "loc": (start.line, start.col),
            "bad": False,
        }
        while (tok := self.peek()) is not None and not (
            tok.kind == "punct" and tok.value == "{"
        ):
            if tok.kind == "ident" and tok.value in ("level", "variant"):
                self.next()
                val = self.expect("ident")
                if val:
                    decl[tok.value] = (val.value, val)
            elif tok.kind == "ident" and tok.value in ("allocates", "extends"):
                self.next()
                ref = self.string()
                if ref is not None:
                    decl[tok.value] = ref
            else:
                self.warn(f"unknown node attribute {tok.value!r}", tok)
                self.next()
        if self.expect("punct", "{") is None:
            decl["bad"] = True
            return decl
        while (tok := self.peek()) is not None and not (
            tok.kind == "punct" and tok.value == "}"
        ):
            if tok.kind == "ident" and tok.value == "param":
                param = self.param_decl()
                if param is not None:
                    decl["params"].append(param)
                else:
                    decl["bad"] = True
            elif tok.kind == "ident" and tok.value == "region":
                if not self.region_decl(decl):
                    decl["bad"] = True
            else:
                self.warn(f"unknown construct {tok.value!r} in node body", tok)
                self.skip_line(tok.line)
                if self.peek() is tok:  # line started with a brace: bail out
                    break
        if self.expect("punct", "}") is None:
            decl["bad"] = True
        return decl

    def param_decl(self):
        start = self.next()  # 'param'
        name = self.expect("ident")
        if name is None or self.expect("punct", ":") is None:
            self.skip_line(start.line)
            return None
        unit = self.expect("ident")
        if unit is None or self.expect("ident", "range") is None:
            self.skip_line(start.line)
            return None
        if self.expect("punct", "[") is None:
            self.skip_line(start.line)
            return None
        lo = self.number()
        if lo is None or self.expect("punct", ",") is None:
            self.skip_line(start.line)
            return None
        hi = self.number()
        if hi is None or self.expect("punct", "]") is None:
            self.skip_line(start.line)
            return None
        dim_class = DimensionClass.OPERATIONAL
        distribution = None
        while self.at_ident("class", "dist"):
            key = self.next()
            if key.value == "class":
                val = self.expect("ident")
                if val is None:
                    return None
                try:
                    dim_class = DimensionClass(val.value)
                except ValueError:
                    self.error(f"unknown dimension class {val.value!r}", val)
                    return None
            else:
                kind = self.expect("ident")
                if kind is None:
                    return None
                if kind.value not in ("uniform", "triangular", "histogram"):
                    self.error(f"unknown distribution {kind.value!r}", kind)
                    return None
                args: tuple[float, ...] = ()
                if self.peek() is not None and self.peek().value == "(":
                    self.next()
                    lst = [self.number()]
                    while self.peek() is not None and self.peek().value == ",":
                        self.next()
                        lst.append(self.number())
                    if None in lst or self.expect("punct", ")") is None:
                        return None
                    args = tuple(lst)
                distribution = Distribution(kind.value, args)
        if lo > hi:
            self.error(
                f"parameter {name.value!r}: range lo {lo:g} > hi {hi:g}",
                name,
                code="E005",
            )
            lo, hi = hi, lo
        return {
            "name": name.value,
            "unit": unit.value,
            "lo": lo,
            "hi": hi,
            "class": dim_class,
            "dist": distribution,
            "loc": (start.line, start.col),
        }

    def region_decl(self, decl: dict) -> bool:
        start = self.next()  # 'region'
        kind = self.expect("ident")
        if kind is None or kind.value not in ("polygon", "polytope"):
            self.error("expected 'polygon' or 'polytope'", kind or start)
            self.skip_line(start.line)
            return False
        if self.expect("punct", "{") is None:
            return False
        if kind.value == "polygon":
            points = []
            while (tok := self.peek()) is not None and tok.value == "(":
                pt = self.point()
                if pt is None:
                    self.skip_block()
                    return False
                points.append(pt)
            if self.expect("punct", "}") is None:
                return False
            if decl["polygon"] is not None or decl["polytopes"]:
                self.error("node mixes polygon and polytope regions", start, code="E004")
                return False
            decl["polygon"] = (tuple(points), (start.line, start.col))
            return True
        halfspaces = []
        vertices = []
        while self.at_ident("halfspace", "vertex"):
            item = self.next()
            if item.value == "halfspace":
                coeffs = []
                while (tok := self.peek()) is not None and tok.kind == "number":
                    coeffs.append(float(self.next().value))
                if self.expect("le") is None:
                    self.skip_block()
                    return False
                b = self.number()
                if b is None:
                    self.skip_block()
                    return False
                halfspaces.append((tuple(coeffs), b))
            else:
                pt = self.point()
                if pt is None:
                    self.skip_block()
                    return False
                vertices.append(pt)
        if self.expect("punct", "}") is None:
            return False
        if decl["polygon"] is not None:
            self.error("node mixes polygon and polytope regions", start, code="E004")
            return False
        decl["polytopes"].append(
            (tuple(halfspaces), tuple(vertices), (start.line, start.col))
        )
        return True

    def monitorchain_decl(self) -> MonitorChainDecl | None:
        start = self.next()  # 'monitorchain'
        name = self.string()
        if name is None or self.expect("punct", "{") is None:
            self.skip_line(start.line)
            return None
        stub: StubDecl | None = None
        monitors: list[MonitorDecl] = []
        while (tok := self.peek()) is not None and not (
            tok.kind == "punct" and tok.value == "}"
        ):
            if tok.kind == "ident" and tok.value == "stub":
                self.next()
                kind = self.expect("ident")
                if kind is None:
                    self.skip_block()
                    return None
                coeffs = []
                while (t := self.peek()) is not None and t.kind == "number":
                    coeffs.append(float(self.next().value))
                stub = StubDecl(kind.value, tuple(coeffs))
            elif tok.kind == "ident" and tok.value == "monitor":
                mon = self.monitor_decl()
                if mon is None:
                    self.skip_block()
                    return None
                monitors.append(mon)
            else:
                self.warn(f"unknown construct {tok.value!r} in monitorchain", tok)
                self.skip_line(tok.line)
        if self.expect("punct", "}") is None:
            return None
        return MonitorChainDecl(name, stub, tuple(monitors))

    def monitor_decl(self) -> MonitorDecl | None:
        self.next()  # 'monitor'
        kind = self.expect("ident")
        if kind is None:
            return None
        opts: dict = {}
        inputs: list[tuple[float, ...]] = []
        while self.at_ident(
            "node", "param", "threshold", "tol", "lo", "hi", "action", "input"
        ):
            key = self.next()
            if key.value in ("node",):
                val = self.string()
                if val is None:
                    return None
                opts["node"] = val
            elif key.value in ("param",):
                val = self.expect("ident")
                if val is None:
                    return None
                opts["param"] = val.value
            elif key.value == "action":
                val = self.expect("ident")
                if val is None:
                    return None
                opts["action"] = val.value
                if (t := self.peek()) is not None and t.kind == "number":
                    opts["action_value"] = float(self.next().value)
            elif key.value == "input":
                pt = self.point()
                if pt is None:
                    return None
                inputs.append(pt)
            else:
                v = self.number()
                if v is None:
                    return None
                opts[key.value] = v
        return MonitorDecl(kind=kind.value, inputs=tuple(inputs), **opts)


# -- semantic assembly and validation ------------------------------------------


def _build_node(decl: dict, diagnostics: list[Diagnostic]) -> OddNode | None:
    loc = decl["loc"]
    errors_before = sum(1 for d in diagnostics if d.severity == "error")
    level = Level.MLM_ODD
    if decl["level"] is not None:
        value, tok = decl["level"]
        try:
            level = Level(value)
        except ValueError:
            diagnostics.append(
                Diagnostic("error", "E001", f"unknown level {value!r}", tok.line, tok.col)
            )
    variant = Variant.AS_SPECIFIED
    if decl["variant"] is not None:
        value, tok = decl["variant"]
        try:
            variant = Variant(value)
        except ValueError:
            diagnostics.append(
                Diagnostic("error", "E001", f"unknown variant {value!r}", tok.line, tok.col)
            )

    params = []
    seen = set()
    for p in decl["params"]:
        if p["name"] in seen:
            diagnostics.append(
                Diagnostic(
                    "error",
                    "E002",
                    f"duplicate parameter {p['name']!r} in node {decl['name']!r}",
                    *p["loc"],
                )
            )
            continue
        seen.add(p["name"])
        params.append(
            Parameter(p["name"], p["unit"], p["lo"], p["hi"], p["class"], p["dist"])
        )
    params = tuple(params)

    region = None
    if decl["polygon"] is not None:
        verts, rloc = decl["polygon"]
        region = _check_polygon(decl["name"], verts, params, rloc, diagnostics)
    elif decl["polytopes"]:
        members = []
        for halfspaces, vertices, rloc in decl["polytopes"]:
            member = _check_polytope(decl["name"], halfspaces, vertices, params, rloc, diagnostics)
            if member is not None:
                members.append(member)
        if members and len(members) == len(decl["polytopes"]):
            region = PolytopeUnion(tuple(members))
    else:
        diagnostics.append(
            Diagnostic("error", "E004", f"node {decl['name']!r} has no region", *loc)
        )

    errors_after = sum(1 for d in diagnostics if d.severity == "error")
    if decl["bad"] or region is None or errors_after > errors_before:
        return None
    return OddNode(
        name=decl["name"],
        level=level,
        variant=variant,
        parameters=params,
        region=region,
        allocates=decl["allocates"],
        extends=decl["extends"],
    )


def _in_box(value: float, param: Parameter) -> bool:
    band = _REGION_CHECK_TOL * param.span
    return param.lo - band <= value <= param.hi + band


def _check_polygon(name, verts, params, loc, diagnostics) -> Polygon2D | None:
    if len(params) != 2:
        diagnostics.append(
            Diagnostic(
                "error",
                "E004",
                f"node {name!r}: polygon region requires exactly 2 parameters",
                *loc,
            )
        )
        return None
    if len(verts) < 3:
        diagnostics.append(
            Diagnostic("error", "E004", f"node {name!r}: polygon needs >= 3 vertices", *loc)
        )
        return None
    norm = [
        tuple((c - p.lo) / p.span for c, p in zip(v, params)) for v in verts
    ]
    if abs(geometry.polygon_area(norm)) <= _REGION_CHECK_TOL:
        diagnostics.append(
            Diagnostic("error", "E004", f"node {name!r}: polygon has zero area", *loc)
        )
        return None
    if not geometry.polygon_is_simple(norm):
        diagnostics.append(
            Diagnostic("error", "E004", f"node {name!r}: polygon is self-intersecting", *loc)
        )
        return None
    for v in verts:
        if not all(_in_box(c, p) for c, p in zip(v, params)):
            diagnostics.append(
                Diagnostic(
                    "error",
                    "E006",
                    f"node {name!r}: polygon vertex {v} outside the parameter box",
                    *loc,
                )
            )
            return None
    return Polygon2D(tuple(verts))


def _check_polytope(name, halfspaces, vertices, params, loc, diagnostics) -> ConvexPolytope | None:
    n = len(params)
    if not halfspaces or not vertices:
        diagnostics.append(
            Diagnostic(
                "error",
                "E004",
                f"node {name!r}: polytope needs halfspaces and an explicit vertex list",
                *loc,
            )
        )
        return None
    for a, _b in halfspaces:
        if len(a) != n:
            diagnostics.append(
                Diagnostic(
                    "error",
                    "E004",
                    f"node {name!r}: halfspace has {len(a)} coefficients, expected {n}",
                    *loc,
                )
            )
            return None
    for v in vertices:
        if len(v) != n:
            diagnostics.append(
                Diagnostic(
                    "error",
                    "E004",
                    f"node {name!r}: vertex has {len(v)} coordinates, expected {n}",
                    *loc,
                )
            )
            return None
        if not all(_in_box(c, p) for c, p in zip(v, params)):
            diagnostics.append(
                Diagnostic(
                    "error",
                    "E006",
                    f"node {name!r}: polytope vertex {v} outside the parameter box",
                    *loc,
                )
            )
            return None
        for a, b in halfspaces:
            # normalized slack keeps the check unit-independent
            scale = sum(abs(ai) * p.span for ai, p in zip(a, params)) or 1.0
            if (sum(ai * ci for ai, ci in zip(a, v)) - b) / scale > _REGION_CHECK_TOL:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        "E004",
                        f"node {name!r}: vertex {v} violates halfspace {a} <= {b:g}",
                        *loc,
                    )
                )
                return None
    return ConvexPolytope(tuple(halfspaces), tuple(vertices))


def _validate_document(doc: SpecDocument) -> None:
    by_name: dict[str, OddNode] = {}
    for node in doc.nodes:
        loc = doc.source_map.get(node.name, (1, 1))
        if node.name in by_name:
            doc.diagnostics.append(
                Diagnostic("error", "E002", f"duplicate node name {node.name!r}", *loc)
            )
        by_name[node.name] = node

    system_ods = [n for n in doc.nodes if n.level == Level.SYSTEM_OD]
    if len(system_ods) > 1:
        loc = doc.source_map.get(system_ods[1].name, (1, 1))
        doc.diagnostics.append(
            Diagnostic("error", "E009", "more than one system_od node", *loc)
        )

    for node in doc.nodes:
        loc = doc.source_map.get(node.name, (1, 1))
        for ref in (node.allocates, node.extends):
            if ref is not None and ref not in by_name:
                doc.diagnostics.append(
                    Diagnostic(
                        "error", "E003", f"node {node.name!r} references unknown node {ref!r}", *loc
                    )
                )

    # allocation chain acyclicity
    for node in doc.nodes:
        seen = {node.name}
        current = node
        while current.allocates is not None and current.allocates in by_name:
            nxt = by_name[current.allocates]
            if nxt.name in seen:
                loc = doc.source_map.get(node.name, (1, 1))
                doc.diagnostics.append(
                    Diagnostic(
                        "error", "E008", f"allocation cycle through node {nxt.name!r}", *loc
                    )
                )
                break
            seen.add(nxt.name)
            current = nxt

    # extension: strict parameter superset, projection contained in the base
    for node in doc.nodes:
        if node.extends is None or node.extends not in by_name:
            continue
        base = by_name[node.extends]
        loc = doc.source_map.get(node.name, (1, 1))
        if not set(node.parameter_names) > set(base.parameter_names):
            doc.diagnostics.append(
                Diagnostic(
                    "error",
                    "E007",
                    f"node {node.name!r} must add at least one parameter over {base.name!r}",
                    *loc,
                )
            )
            continue
        result = geometry.contains_node(node, base)
        if not result.contained:
            witness = result.witness.values if result.witness else None
            doc.diagnostics.append(
                Diagnostic(
                    "error",
                    "E007",
                    f"projection of {node.name!r} leaves base region {base.name!r}"
                    f" (witness {witness})",
                    *loc,
                )
            )

    for chain in doc.monitor_chains:
        for mon in chain.monitors:
            if mon.node is None:
                continue
            if mon.node not in by_name:
                doc.diagnostics.append(
                    Diagnostic(
                        "error",
                        "E003",
                        f"monitorchain {chain.name!r} references unknown node {mon.node!r}",
                        1,
                        1,
                    )
                )
                continue
            arity = len(by_name[mon.node].parameters)
            for pt in (pt for pt in mon.inputs if len(pt) != arity):
                message = (
                    f"monitorchain {chain.name!r}: {mon.kind} input {pt} has"
                    f" {len(pt)} value(s), node {mon.node!r} has {arity} parameter(s)"
                )
                doc.diagnostics.append(Diagnostic("error", "E010", message, 1, 1))


def parse_spec(text: str) -> SpecDocument:
    """Parse a specification document.

    Parsing recovers and continues after errors so one pass reports as many
    diagnostics as possible. ``doc.ok`` is False when any error diagnostic was
    produced; callers must not use the nodes of a failed document.
    """
    tokens, diagnostics = tokenize(text)
    parser = _Parser(tokens)
    node_decls, chains = parser.document()
    doc = SpecDocument(diagnostics=diagnostics + parser.diagnostics)
    for decl in node_decls:
        doc.source_map[decl["name"]] = decl["loc"]
        node = _build_node(decl, doc.diagnostics)
        if node is not None:
            doc.nodes.append(node)
    doc.monitor_chains = chains
    _validate_document(doc)
    return doc


# -- serializer -----------------------------------------------------------------


def fmt(v: float) -> str:
    """Canonical number formatting: up to 9 significant digits."""
    return format(float(v), ".9g")


def _serialize_param(p: Parameter) -> str:
    parts = [f"param {p.name}: {p.unit} range [{fmt(p.lo)}, {fmt(p.hi)}]"]
    parts.append(f"class {p.dimension_class.value}")
    if p.distribution is not None:
        d = p.distribution
        spec = d.kind
        if d.args:
            spec += "(" + ", ".join(fmt(a) for a in d.args) + ")"
        parts.append(f"dist {spec}")
    return " ".join(parts)


def _serialize_node(node: OddNode) -> list[str]:
    head = [f'odd "{node.name}"', f"level {node.level.value}", f"variant {node.variant.value}"]
    if node.allocates is not None:
        head.append(f'allocates "{node.allocates}"')
    if node.extends is not None:
        head.append(f'extends "{node.extends}"')
    lines = [" ".join(head) + " {"]
    for p in node.parameters:
        lines.append("  " + _serialize_param(p))
    region = node.region
    if isinstance(region, Polygon2D):
        lines.append("  region polygon {")
        for v in region.vertices:
            lines.append("    (" + ", ".join(fmt(c) for c in v) + ")")
        lines.append("  }")
    else:
        for member in region.members:
            lines.append("  region polytope {")
            for a, b in member.halfspaces:
                coeffs = " ".join(fmt(c) for c in a)
                lines.append(f"    halfspace {coeffs} <= {fmt(b)}")
            for v in member.vertices:
                lines.append("    vertex (" + ", ".join(fmt(c) for c in v) + ")")
            lines.append("  }")
    lines.append("}")
    return lines


def _serialize_monitor(mon: MonitorDecl) -> str:
    parts = [f"monitor {mon.kind}"]
    if mon.node is not None:
        parts.append(f'node "{mon.node}"')
    if mon.param is not None:
        parts.append(f"param {mon.param}")
    if mon.lo is not None:
        parts.append(f"lo {fmt(mon.lo)}")
    if mon.hi is not None:
        parts.append(f"hi {fmt(mon.hi)}")
    if mon.threshold is not None:
        parts.append(f"threshold {fmt(mon.threshold)}")
    if mon.tol is not None:
        parts.append(f"tol {fmt(mon.tol)}")
    for pt in mon.inputs:
        parts.append("input (" + ", ".join(fmt(c) for c in pt) + ")")
    parts.append(f"action {mon.action}")
    if mon.action_value is not None:
        parts.append(fmt(mon.action_value))
    return " ".join(parts)


def serialize_spec(doc: SpecDocument) -> str:
    """Render a document in canonical formatting; parse-stable for valid docs."""
    blocks: list[str] = []
    for node in doc.nodes:
        blocks.append("\n".join(_serialize_node(node)))
    for chain in doc.monitor_chains:
        lines = [f'monitorchain "{chain.name}" {{']
        if chain.stub is not None:
            coeffs = " ".join(fmt(c) for c in chain.stub.coefficients)
            lines.append(f"  stub {chain.stub.kind} {coeffs}")
        for mon in chain.monitors:
            lines.append("  " + _serialize_monitor(mon))
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
