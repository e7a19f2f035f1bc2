"""AST node definitions for the PHP subset.

The subset covers what the paper's analysis (and its evaluation corpus)
exercises: assignments and compound assignments, string concatenation
and double-quoted interpolation, arrays, superglobals, user functions,
classes-lite (method calls like ``$DB->query(...)``), the full statement
repertoire (``if``/``while``/``do``/``for``/``foreach``/``switch``),
``include``/``require`` (including *dynamic* includes), ``echo``,
``exit``, ``isset``/``empty``, ternaries, and error suppression.

Nodes are plain classes: each names its child fields in ``_fields``
(declaration order, which :func:`walk` follows) and compares by value
like a dataclass would, without a dataclass's import-time code
generation (DESIGN §5n).  Every node records its source ``line`` for
bug reports (the paper's future-work item 3 — we implement it).
"""

from __future__ import annotations

from typing import NamedTuple


class Node:
    #: the node's own fields, in declaration order (``line`` and
    #: ``span`` are common to every node and not listed)
    _fields: tuple[str, ...] = ()

    #: AST nodes are mutable (the parser fixes spans up after the fact)
    __hash__ = None

    def __init__(self, *, line: int = 0, span: tuple[int, int] | None = None) -> None:
        self.line = line
        #: byte span ``(start, end)`` of the node's source text in its
        #: file, or ``None`` when no faithful span exists (synthesized
        #: nodes, heredoc bodies, constant-folded values).  Spans are
        #: what lets the remediation engine splice patches with byte
        #: precision.
        self.span = span

    def _key(self) -> tuple:
        return (self.line, self.span, *[getattr(self, name) for name in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        values = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in ("line", "span", *self._fields)
        )
        return f"{type(self).__qualname__}({values})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    pass


class Literal(Expr):
    """A scalar constant: string, int, float, bool, or null."""

    _fields = ("value",)

    def __init__(self, value: str | int | float | bool | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.value = value


class Var(Expr):
    _fields = ("name",)

    def __init__(self, name: str = "", *, line=0, span=None):
        self.line = line
        self.span = span
        self.name = name


class ArrayDim(Expr):
    """``$base[index]``; ``index`` is None for ``$base[] = …`` pushes."""

    _fields = ("base", "index")

    def __init__(self, base: Expr = None, index: Expr | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.base = base
        self.index = index


class Prop(Expr):
    """``$obj->name``."""

    _fields = ("base", "name")

    def __init__(self, base: Expr = None, name: str = "", *, line=0, span=None):
        self.line = line
        self.span = span
        self.base = base
        self.name = name


class Interp(Expr):
    """A double-quoted string: literal chunks interleaved with exprs."""

    _fields = ("parts",)

    def __init__(self, parts: list[Expr] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.parts = [] if parts is None else parts


class BinOp(Expr):
    _fields = ("op", "left", "right")

    def __init__(self, op: str = "", left: Expr = None, right: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Expr):
    _fields = ("op", "operand")

    def __init__(self, op: str = "", operand: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.op = op
        self.operand = operand


class Assign(Expr):
    """``target op= value``; plain assignment has ``op == "="``."""

    _fields = ("target", "op", "value")

    def __init__(
        self, target: Expr = None, op: str = "=", value: Expr = None, *, line=0, span=None
    ):
        self.line = line
        self.span = span
        self.target = target
        self.op = op
        self.value = value


class Ternary(Expr):
    _fields = ("condition", "if_true", "if_false")

    def __init__(
        self,
        condition: Expr = None,
        if_true: Expr | None = None,  # None for the `?:` short form
        if_false: Expr = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.condition = condition
        self.if_true = if_true
        self.if_false = if_false


class Call(Expr):
    _fields = ("name", "args")

    def __init__(self, name: str = "", args: list[Expr] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.name = name
        self.args = [] if args is None else args


class MethodCall(Expr):
    _fields = ("obj", "name", "args")

    def __init__(
        self, obj: Expr = None, name: str = "", args: list[Expr] | None = None, *, line=0, span=None
    ):
        self.line = line
        self.span = span
        self.obj = obj
        self.name = name
        self.args = [] if args is None else args


class StaticCall(Expr):
    _fields = ("class_name", "name", "args")

    def __init__(
        self,
        class_name: str = "",
        name: str = "",
        args: list[Expr] | None = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.class_name = class_name
        self.name = name
        self.args = [] if args is None else args


class New(Expr):
    _fields = ("class_name", "args")

    def __init__(self, class_name: str = "", args: list[Expr] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.class_name = class_name
        self.args = [] if args is None else args


class ArrayLit(Expr):
    """``array(k => v, …)`` / ``[v, …]``; pairs have key None when absent."""

    _fields = ("items",)

    def __init__(self, items: list[tuple[Expr | None, Expr]] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.items = [] if items is None else items


class IssetExpr(Expr):
    _fields = ("targets",)

    def __init__(self, targets: list[Expr] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.targets = [] if targets is None else targets


class EmptyExpr(Expr):
    _fields = ("target",)

    def __init__(self, target: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.target = target


class Cast(Expr):
    _fields = ("kind", "operand")

    def __init__(self, kind: str = "", operand: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.kind = kind  # "int", "string", "bool", "float", "array"
        self.operand = operand


class Suppress(Expr):
    """``@expr`` — error suppression (transparent to the analysis)."""

    _fields = ("operand",)

    def __init__(self, operand: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.operand = operand


class ConstFetch(Expr):
    """A bare identifier used as a constant (or define()d constant)."""

    _fields = ("name",)

    def __init__(self, name: str = "", *, line=0, span=None):
        self.line = line
        self.span = span
        self.name = name


class VarVar(Expr):
    """A variable-variable: ``$$name`` or ``${expr}``.

    The analysis cannot track which variable this reads or writes, so
    the soundness audit classifies every occurrence as *escaped*.
    """

    _fields = ("name_expr",)

    def __init__(self, name_expr: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.name_expr = name_expr


class DynCall(Expr):
    """A call through a variable: ``$f(...)``, ``$handlers[$op](...)``.

    The callee is not statically resolved — an audit *escape*.
    """

    _fields = ("target", "args")

    def __init__(self, target: Expr = None, args: list[Expr] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.target = target
        self.args = [] if args is None else args


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


class Block(Stmt):
    _fields = ("statements",)

    def __init__(self, statements: list[Stmt] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.statements = [] if statements is None else statements


class ExprStmt(Stmt):
    _fields = ("expr",)

    def __init__(self, expr: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.expr = expr


class Echo(Stmt):
    _fields = ("values",)

    def __init__(self, values: list[Expr] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.values = [] if values is None else values


class InlineHtml(Stmt):
    _fields = ("text",)

    def __init__(self, text: str = "", *, line=0, span=None):
        self.line = line
        self.span = span
        self.text = text


class If(Stmt):
    _fields = ("condition", "then", "elifs", "orelse")

    def __init__(
        self,
        condition: Expr = None,
        then: Block = None,
        elifs: list[tuple[Expr, Block]] | None = None,
        orelse: Block | None = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.condition = condition
        self.then = then
        self.elifs = [] if elifs is None else elifs
        self.orelse = orelse


class While(Stmt):
    _fields = ("condition", "body")

    def __init__(self, condition: Expr = None, body: Block = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.condition = condition
        self.body = body


class DoWhile(Stmt):
    _fields = ("body", "condition")

    def __init__(self, body: Block = None, condition: Expr = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.body = body
        self.condition = condition


class For(Stmt):
    _fields = ("init", "condition", "step", "body")

    def __init__(
        self,
        init: list[Expr] | None = None,
        condition: Expr | None = None,
        step: list[Expr] | None = None,
        body: Block = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.init = [] if init is None else init
        self.condition = condition
        self.step = [] if step is None else step
        self.body = body


class Foreach(Stmt):
    _fields = ("subject", "key_var", "value_var", "body")

    def __init__(
        self,
        subject: Expr = None,
        key_var: Expr | None = None,
        value_var: Expr = None,
        body: Block = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.subject = subject
        self.key_var = key_var
        self.value_var = value_var
        self.body = body


class Switch(Stmt):
    _fields = ("subject", "cases")

    def __init__(
        self,
        subject: Expr = None,
        cases: list[tuple[Expr | None, Block]] | None = None,  # None = default
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.subject = subject
        self.cases = [] if cases is None else cases


class Break(Stmt):
    pass


class Continue(Stmt):
    pass


class Return(Stmt):
    _fields = ("value",)

    def __init__(self, value: Expr | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.value = value


class ExitStmt(Stmt):
    _fields = ("value",)

    def __init__(self, value: Expr | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.value = value


class GlobalDecl(Stmt):
    _fields = ("names",)

    def __init__(self, names: list[str] | None = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.names = [] if names is None else names


class Include(Stmt):
    """``include``/``require`` (and the ``_once`` forms)."""

    _fields = ("path", "once", "required")

    def __init__(
        self, path: Expr = None, once: bool = False, required: bool = False, *, line=0, span=None
    ):
        self.line = line
        self.span = span
        self.path = path
        self.once = once
        self.required = required


class Param(Node):
    _fields = ("name", "default", "by_reference")

    def __init__(
        self,
        name: str = "",
        default: Expr | None = None,
        by_reference: bool = False,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.name = name
        self.default = default
        self.by_reference = by_reference


class FunctionDef(Stmt):
    _fields = ("name", "params", "body")

    def __init__(
        self,
        name: str = "",
        params: list[Param] | None = None,
        body: Block = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.name = name
        self.params = [] if params is None else params
        self.body = body


class ClassDef(Stmt):
    _fields = ("name", "parent", "methods", "properties")

    def __init__(
        self,
        name: str = "",
        parent: str | None = None,
        methods: list[FunctionDef] | None = None,
        properties: list[tuple[str, Expr | None]] | None = None,
        *,
        line=0,
        span=None,
    ):
        self.line = line
        self.span = span
        self.name = name
        self.parent = parent
        self.methods = [] if methods is None else methods
        self.properties = [] if properties is None else properties


class FileFacts(NamedTuple):
    """What the analyses read off a parsed file alone, in :func:`walk`
    order: found by one walk per tree (:meth:`File.facts`)."""

    #: every :class:`FunctionDef` and :class:`ClassDef`
    definitions: tuple[Stmt, ...]
    #: every call, include and dynamic construct the soundness audit
    #: inventories (:data:`INVENTORIED`)
    constructs: tuple[Node, ...]


class File(Node):
    """A parsed PHP file: the top-level statement list."""

    _fields = ("path", "body")

    def __init__(self, path: str = "", body: Block = None, *, line=0, span=None):
        self.line = line
        self.span = span
        self.path = path
        self.body = body

    def facts(self) -> FileFacts:
        """This tree's :class:`FileFacts`, found by one walk on the first call.

        They live and die with the tree (a re-parsed file gets a new
        tree, so an edit drops them) and are never pickled: the ``ast/``
        disk cache holds the tree alone."""
        facts = self.__dict__.get("_facts")
        if facts is None:
            definitions = []
            constructs = []
            for node in walk(self):
                if isinstance(node, (FunctionDef, ClassDef)):
                    definitions.append(node)
                elif isinstance(node, INVENTORIED):
                    constructs.append(node)
            facts = self._facts = FileFacts(tuple(definitions), tuple(constructs))
        return facts

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_facts" in state:
            state = {key: value for key, value in state.items() if key != "_facts"}
        return state


#: the node types :attr:`FileFacts.constructs` collects
INVENTORIED = (Call, VarVar, DynCall, MethodCall, Include)


def walk(node: Node):
    """Yield ``node`` and all descendants in preorder, each node's
    children in ``_fields`` order (list items in order, and the nodes
    inside tuple items such as ``If.elifs`` pairs)."""
    stack = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        yield node
        children = []
        for name in node._fields:
            value = getattr(node, name)
            if isinstance(value, Node):
                children.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        children.append(item)
                    elif isinstance(item, tuple):
                        for member in item:
                            if isinstance(member, Node):
                                children.append(member)
        if children:
            if len(children) == 1:
                push(children[0])
            else:
                children.reverse()
                stack.extend(children)
