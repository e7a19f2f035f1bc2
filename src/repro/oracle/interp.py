"""Concrete mini-interpreter for the supported PHP subset.

Executes one page under an :class:`InputVector` (sampled superglobal
contents) and records the exact string reaching every SQL sink as a
:class:`ConcreteHit`.  Strings carry character-precise taint
(:class:`TStr` — a sequence of :class:`Seg` runs), so the differential
checker can ask :func:`repro.sql.confinement.check_confinement` about
exactly the substring that came from an untrusted source.

The interpreter is a *consistency mirror* of the abstract one
(:mod:`repro.analysis.stringtaint`), not a faithful PHP: wherever full
PHP semantics and the analysis's modeled subset disagree in ways the
analysis knowingly abstracts (loose numeric string comparison, ``break``
inside loop bodies, reference semantics of ``global``), the interpreter
either adopts the analysis's deterministic subset semantics — when that
subset is *sound* for real programs staying inside it — or refuses with
:class:`UnsupportedConstruct` so the fuzzer skips the input instead of
reporting a phantom divergence.  The rules, each mirrored from a
specific analysis decision:

* string values coerce through :func:`repro.php.builtins.to_php_str`
  and the concrete builtin registry :data:`repro.php.builtins.CONCRETE`
  — the same module that defines the abstract models, so the two cannot
  drift without a visible diff;
* ``==`` compares numerically only when *both* operands are native
  numbers, otherwise by string — the refinement
  (``_refine_equality``) pins a variable to the literal's exact text,
  which is only consistent with string comparison;
* predicate truth (``preg_match``, ``is_numeric``, …) comes from the
  very languages branch refinement intersects with;
* ``break``/``continue`` inside loop bodies raise
  :class:`UnsupportedConstruct` (the analysis treats them as no-op
  joins, which its φ-headers do not cover); inside ``switch`` a
  *top-level* ``break`` ends the case, exactly like
  ``_exec_until_break``;
* loops stop silently at :data:`LOOP_CAP` iterations — every captured
  hit is a real prefix execution whose state the loop φ-header covers;
* recursion or call depth past ``MAX_CALL_DEPTH``, unknown functions,
  and unknown methods return an untainted ``""`` — a member of the
  analysis's Σ* result that *under*-taints it, which can only suppress
  confinement obligations, never invent them;
* arithmetic whose printed form escapes the analysis's
  ``-?[0-9]+(\\.[0-9]+)?`` arithmetic language (division by zero,
  overflow to exponent notation) raises :class:`UnsupportedConstruct`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.analysis import sources
from repro.analysis.stringtaint import MAX_CALL_DEPTH
from repro.lang.grammar import DIRECT, INDIRECT
from repro.php import ast, builtins
from repro.php.builtins import (
    CONCRETE,
    NO_EFFECT,
    ConcreteState,
    php_bool,
    php_float,
    php_float_str,
    php_int,
    php_sprintf,
    php_substr,
    to_php_str,
)
from repro.php.includes import IncludeResolver
from repro.php.parser import PhpParseError, parse

#: loop iterations before the interpreter silently stops the loop
LOOP_CAP = 64
#: total eval/exec steps before the execution is abandoned
STEP_BUDGET = 200_000

_ARITH_LANGUAGE = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")


class UnsupportedConstruct(Exception):
    """The page left the consistency-mirrored subset; skip this input."""


class _Exit(Exception):
    """``exit``/``die`` — ends the whole page."""


class _Return(Exception):
    def __init__(self, value) -> None:
        super().__init__()
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


# ---------------------------------------------------------------------------
# taint-annotated strings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seg:
    """A run of characters with uniform taint.  ``exact`` is False when
    the run's *extent* is a conservative blur (e.g. a charwise builtin
    self-check failed): membership still holds for the full string, but
    confinement cross-checks skip inexact runs."""

    text: str
    labels: frozenset[str] = frozenset()
    exact: bool = True


class TStr:
    """An immutable taint-annotated string."""

    __slots__ = ("segs",)

    def __init__(self, segs) -> None:
        merged: list[Seg] = []
        for seg in segs:
            if not seg.text:
                continue
            if (
                merged
                and merged[-1].labels == seg.labels
                and merged[-1].exact == seg.exact
            ):
                merged[-1] = Seg(
                    merged[-1].text + seg.text, seg.labels, seg.exact
                )
            else:
                merged.append(seg)
        self.segs: tuple[Seg, ...] = tuple(merged)

    @staticmethod
    def of(text: str, labels: frozenset[str] = frozenset(), exact: bool = True) -> "TStr":
        return TStr([Seg(text, labels, exact)])

    @property
    def text(self) -> str:
        return "".join(seg.text for seg in self.segs)

    @property
    def labels(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for seg in self.segs:
            out |= seg.labels
        return out

    def concat(self, other: "TStr") -> "TStr":
        return TStr(self.segs + other.segs)

    def slice(self, lo: int, hi: int) -> "TStr":
        out: list[Seg] = []
        pos = 0
        for seg in self.segs:
            end = pos + len(seg.text)
            cut_lo = max(lo, pos)
            cut_hi = min(hi, end)
            if cut_lo < cut_hi:
                out.append(
                    Seg(seg.text[cut_lo - pos : cut_hi - pos], seg.labels, seg.exact)
                )
            pos = end
        return TStr(out)

    def reversed(self) -> "TStr":
        return TStr([Seg(s.text[::-1], s.labels, s.exact) for s in reversed(self.segs)])

    def tainted_runs(self) -> list[tuple[int, int, bool]]:
        """Maximal tainted spans as ``(lo, hi, exact)``."""
        runs: list[tuple[int, int, bool]] = []
        pos = 0
        for seg in self.segs:
            end = pos + len(seg.text)
            if seg.labels:
                if runs and runs[-1][1] == pos:
                    lo, _, exact = runs[-1]
                    runs[-1] = (lo, end, exact and seg.exact)
                else:
                    runs.append((pos, end, seg.exact))
            pos = end
        return runs

    def __repr__(self) -> str:
        return f"TStr({self.text!r})"


class PhpArray:
    """A concrete PHP array: insertion-ordered string keys.  ``default``
    mirrors the abstract domain's default slot — it is the value handed
    out for keys the vector/model covers uniformly (fetch rows)."""

    __slots__ = ("elements", "default", "next_index")

    def __init__(self, elements=None, default=None) -> None:
        self.elements: dict[str, object] = dict(elements or {})
        self.default = default
        self.next_index = 0
        for key in self.elements:
            if re.fullmatch(r"[0-9]+", key):
                self.next_index = max(self.next_index, int(key) + 1)

    def get(self, key: str):
        if key in self.elements:
            return self.elements[key]
        return self.default

    def push(self, value) -> None:
        self.elements[str(self.next_index)] = value
        self.next_index += 1

    def copy(self) -> "PhpArray":
        clone = PhpArray(self.elements, self.default)
        clone.next_index = self.next_index
        return clone

    def truthy(self) -> bool:
        return bool(self.elements) or self.default is not None


class PhpObject:
    __slots__ = ("class_name", "props")

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        self.props: dict[str, object] = {}


def to_tstr(value) -> TStr:
    if isinstance(value, TStr):
        return value
    return TStr.of(to_php_str(plain(value)))


def plain(value):
    """Strip taint annotations: the representation builtins operate on."""
    if isinstance(value, TStr):
        return value.text
    if isinstance(value, PhpArray):
        return {key: plain(item) for key, item in value.elements.items()}
    if isinstance(value, PhpObject):
        return "Object"
    return value


def _value_labels(value) -> frozenset[str]:
    if isinstance(value, TStr):
        return value.labels
    if isinstance(value, PhpArray):
        labels: frozenset[str] = frozenset()
        for item in value.elements.values():
            labels |= _value_labels(item)
        if value.default is not None:
            labels |= _value_labels(value.default)
        return labels
    return frozenset()


def _truthy(value) -> bool:
    if isinstance(value, TStr):
        return php_bool(value.text)
    if isinstance(value, PhpArray):
        return value.truthy()
    if isinstance(value, PhpObject):
        return True
    return php_bool(value)


# ---------------------------------------------------------------------------
# inputs and outputs
# ---------------------------------------------------------------------------


@dataclass
class InputVector:
    """One sampled request: superglobal contents keyed by parameter."""

    get: dict[str, str] = field(default_factory=dict)
    post: dict[str, str] = field(default_factory=dict)
    cookie: dict[str, str] = field(default_factory=dict)
    session: dict[str, str] = field(default_factory=dict)
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "get": dict(self.get),
            "post": dict(self.post),
            "cookie": dict(self.cookie),
            "session": dict(self.session),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "InputVector":
        return InputVector(
            get=dict(data.get("get", {})),
            post=dict(data.get("post", {})),
            cookie=dict(data.get("cookie", {})),
            session=dict(data.get("session", {})),
            seed=int(data.get("seed", 0)),
        )


@dataclass
class ConcreteHit:
    """One concrete query observed at a sink."""

    file: str
    line: int
    sink: str
    query: str
    #: maximal tainted spans ``(lo, hi, exact)`` of ``query``
    runs: list[tuple[int, int, bool]]


_SERVER_FIXED = {
    "PHP_SELF": "/index.php",
    "SCRIPT_NAME": "/index.php",
    "REQUEST_METHOD": "GET",
    "SERVER_NAME": "localhost",
    "REMOTE_ADDR": "127.0.0.1",
}


class Env:
    __slots__ = ("variables",)

    def __init__(self, variables=None) -> None:
        self.variables: dict[str, object] = dict(variables or {})

    def get(self, name: str):
        return self.variables.get(name)

    def set(self, name: str, value) -> None:
        self.variables[name] = value

    def copy(self) -> "Env":
        return Env(self.variables)


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------


class Interpreter:
    def __init__(
        self,
        project_root: str | Path,
        vector: InputVector,
        state: ConcreteState | None = None,
        resolver: IncludeResolver | None = None,
        extra_sinks: dict[str, int] | None = None,
        trees: Mapping[str, ast.File] | None = None,
    ) -> None:
        self.project_root = Path(project_root)
        self.vector = vector
        self.state = state or ConcreteState(seed=vector.seed, clock=1_000_000_000)
        self.resolver = resolver or IncludeResolver(self.project_root)
        #: policy-declared sinks beyond the SQL query functions
        #: (name → sink argument index), e.g. the shell-command table
        #: when fuzzing ``--policy shell``
        self.extra_sinks = extra_sinks or {}
        #: parsed files by path (None: unparseable), seeded from an
        #: analysis of the same files (``AnalysisResult.trees``)
        self.trees: dict[str, ast.File | None] = dict(trees or {})
        self.hits: list[ConcreteHit] = []
        self.functions: dict[str, ast.FunctionDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.constants: dict[str, object] = {}
        self.globals = Env()
        self.current_file = ""
        self.steps = 0
        self._included_once: set[Path] = set()
        self._include_stack: list[str] = []
        self._call_stack: list[str] = []
        self._fetch_counts: dict[tuple[str, int], int] = {}

    # -- entry --------------------------------------------------------------

    def run(self, entry: str | Path) -> list[ConcreteHit]:
        entry_path = Path(entry)
        if not entry_path.is_absolute():
            entry_path = self.project_root / entry_path
        tree = self._parse(entry_path)
        if tree is None:
            raise UnsupportedConstruct(f"cannot parse {entry_path}")
        try:
            self._interpret_file(tree, self.globals)
        except _Exit:
            pass
        return self.hits

    def _parse(self, path: Path) -> ast.File | None:
        # ASTs are read-only after construction (the analyzer already
        # shares them across pages), so the analysis's own trees serve
        # every execution of the page; only files it did not parse are
        # parsed here, once per interpreter.
        key = str(path)
        if key in self.trees:
            return self.trees[key]
        try:
            source = path.read_text()
        except OSError:
            return None
        try:
            tree = parse(source, key)
        except (PhpParseError, ValueError):
            tree = None
        self.trees[key] = tree
        return tree

    def _interpret_file(self, tree: ast.File, env: Env) -> None:
        previous = self.current_file
        self.current_file = tree.path
        self._include_stack.append(tree.path)
        try:
            self._collect_definitions(tree)
            self._exec_block(tree.body, env)
        except _Return:
            pass  # top-level return ends this file, not the page
        finally:
            self._include_stack.pop()
            self.current_file = previous

    def _collect_definitions(self, tree: ast.File) -> None:
        for stmt in tree.facts().definitions:
            if isinstance(stmt, ast.FunctionDef):
                self.functions.setdefault(stmt.name.lower(), stmt)
            else:
                self.classes.setdefault(stmt.name, stmt)

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > STEP_BUDGET:
            raise UnsupportedConstruct("step budget exceeded")

    # -- statements ---------------------------------------------------------

    def _exec_block(self, block: ast.Block, env: Env) -> None:
        for stmt in block.statements:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.Stmt, env: Env) -> None:
        self._tick()
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is not None:
            method(stmt, env)

    def _exec_Block(self, stmt: ast.Block, env: Env) -> None:
        self._exec_block(stmt, env)

    def _exec_ExprStmt(self, stmt: ast.ExprStmt, env: Env) -> None:
        self.eval(stmt.expr, env)

    def _exec_Echo(self, stmt: ast.Echo, env: Env) -> None:
        for value in stmt.values:
            self.eval(value, env)

    def _exec_InlineHtml(self, stmt: ast.InlineHtml, env: Env) -> None:
        pass

    def _exec_If(self, stmt: ast.If, env: Env) -> None:
        branches: list[tuple[ast.Expr | None, ast.Block]] = [
            (stmt.condition, stmt.then)
        ]
        branches.extend(stmt.elifs)
        for condition, body in branches:
            if condition is None or _truthy(self.eval(condition, env)):
                if condition is not None:
                    self._refine_taken(condition, env, positive=True)
                self._exec_block(body, env)
                return
            self._refine_taken(condition, env, positive=False)
        if stmt.orelse is not None:
            self._exec_block(stmt.orelse, env)

    def _exec_While(self, stmt: ast.While, env: Env) -> None:
        iterations = 0
        while _truthy(self.eval(stmt.condition, env)):
            iterations += 1
            if iterations > LOOP_CAP:
                return  # silent stop: state stays within the loop φ-header
            self._refine_taken(stmt.condition, env, positive=True)
            self._run_loop_body(stmt.body, env)

    def _exec_DoWhile(self, stmt: ast.DoWhile, env: Env) -> None:
        iterations = 0
        while True:
            iterations += 1
            if iterations > LOOP_CAP:
                return
            self._run_loop_body(stmt.body, env)
            if not _truthy(self.eval(stmt.condition, env)):
                return

    def _exec_For(self, stmt: ast.For, env: Env) -> None:
        for expr in stmt.init:
            self.eval(expr, env)
        iterations = 0
        while stmt.condition is None or _truthy(self.eval(stmt.condition, env)):
            iterations += 1
            if iterations > LOOP_CAP:
                return
            if stmt.condition is not None:
                self._refine_taken(stmt.condition, env, positive=True)
            self._run_loop_body(stmt.body, env)
            for expr in stmt.step:
                self.eval(expr, env)

    def _exec_Foreach(self, stmt: ast.Foreach, env: Env) -> None:
        subject = self.eval(stmt.subject, env)
        if not isinstance(subject, PhpArray):
            return
        for index, (key, value) in enumerate(list(subject.elements.items())):
            if index >= LOOP_CAP:
                return
            if stmt.key_var is not None:
                self._assign_to(stmt.key_var, TStr.of(key), env)
            self._assign_to(stmt.value_var, value, env)
            self._run_loop_body(stmt.body, env)

    def _run_loop_body(self, body: ast.Block, env: Env) -> None:
        try:
            self._exec_block(body, env)
        except (_BreakSignal, _ContinueSignal) as exc:
            # the analysis treats break/continue in loop bodies as no-op
            # joins its φ-headers do not cover — refuse, don't diverge
            raise UnsupportedConstruct("break/continue in loop body") from exc

    def _exec_Switch(self, stmt: ast.Switch, env: Env) -> None:
        subject = self.eval(stmt.subject, env)
        match_index: int | None = None
        default_index: int | None = None
        for index, (label, _) in enumerate(stmt.cases):
            if label is None:
                default_index = index
                continue
            if match_index is None and self._loose_eq(
                subject, self.eval(label, env)
            ):
                match_index = index
        if match_index is None:
            match_index = default_index
        if match_index is None:
            return
        label = stmt.cases[match_index][0]
        if label is not None:
            self._pin_equal(stmt.subject, label, env)
        # fallthrough, ended by a *top-level* break (like _exec_until_break;
        # a break nested deeper is invisible to the analysis)
        for _, case_block in stmt.cases[match_index:]:
            for case_stmt in case_block.statements:
                if isinstance(case_stmt, ast.Break):
                    return
                try:
                    self._exec(case_stmt, env)
                except _BreakSignal as exc:
                    raise UnsupportedConstruct("nested break in switch") from exc
        return

    def _exec_Break(self, stmt: ast.Break, env: Env) -> None:
        raise _BreakSignal()

    def _exec_Continue(self, stmt: ast.Continue, env: Env) -> None:
        raise _ContinueSignal()

    def _exec_Return(self, stmt: ast.Return, env: Env) -> None:
        value = self.eval(stmt.value, env) if stmt.value is not None else None
        raise _Return(value)

    def _exec_ExitStmt(self, stmt: ast.ExitStmt, env: Env) -> None:
        if stmt.value is not None:
            self.eval(stmt.value, env)
        raise _Exit()

    def _exec_GlobalDecl(self, stmt: ast.GlobalDecl, env: Env) -> None:
        # value aliasing only, like the analysis: writes do not propagate
        for name in stmt.names:
            value = self.globals.get(name)
            if value is None:
                value = TStr.of("")
                self.globals.set(name, value)
            env.set(name, value)

    def _exec_Include(self, stmt: ast.Include, env: Env) -> None:
        path_text = to_tstr(self.eval(stmt.path, env)).text
        current_dir = (
            Path(self.current_file).parent if self.current_file else self.project_root
        )
        file = self.resolver.candidate_names(current_dir).get(path_text)
        if file is None:
            return  # unresolved: nothing to execute (analysis: escaped include)
        if stmt.once and file in self._included_once:
            return
        self._included_once.add(file)
        tree = self._parse(file)
        if tree is None or tree.path in self._include_stack:
            return
        self._interpret_file(tree, env)

    def _exec_FunctionDef(self, stmt: ast.FunctionDef, env: Env) -> None:
        self.functions.setdefault(stmt.name.lower(), stmt)

    def _exec_ClassDef(self, stmt: ast.ClassDef, env: Env) -> None:
        self.classes.setdefault(stmt.name, stmt)

    # -- refinement mirror --------------------------------------------------

    def _refine_taken(self, condition: ast.Expr, env: Env, positive: bool) -> None:
        """Mirror ``_refine_equality``'s *taint drop*: when the analysis
        learns ``$v == 'lit'`` it rebinds ``$v`` to the untainted
        literal.  The concrete value's *text* already equals the literal
        on the taken branch, so only the taint annotation changes — the
        verdict cross-check must see the same untainted span the
        analysis reasons about.  Negative equality (complement-DFA
        refinement) keeps taint in the analysis, so it is a no-op here;
        likewise predicate refinements (language intersection)."""
        if isinstance(condition, ast.UnaryOp) and condition.op == "!":
            self._refine_taken(condition.operand, env, not positive)
            return
        if isinstance(condition, ast.Suppress):
            self._refine_taken(condition.operand, env, positive)
            return
        if isinstance(condition, ast.BinOp):
            if condition.op == "&&" and positive:
                self._refine_taken(condition.left, env, True)
                self._refine_taken(condition.right, env, True)
                return
            if condition.op == "||" and not positive:
                self._refine_taken(condition.left, env, False)
                self._refine_taken(condition.right, env, False)
                return
            if condition.op in ("==", "===") and positive:
                self._pin_equal(condition.left, condition.right, env)
                self._pin_equal(condition.right, condition.left, env)
                return
            if condition.op in ("!=", "!==", "<>") and not positive:
                self._pin_equal(condition.left, condition.right, env)
                self._pin_equal(condition.right, condition.left, env)
                return

    def _pin_equal(self, subject: ast.Expr, other: ast.Expr, env: Env) -> None:
        if not isinstance(subject, ast.Var) or not isinstance(other, ast.Literal):
            return
        if isinstance(other.value, bool) or other.value is None:
            return  # the analysis skips these too (type reasoning)
        text = (
            other.value
            if isinstance(other.value, str)
            else builtins._php_number_str(other.value)
        )
        env.set(subject.name, TStr.of(text))

    # -- expressions --------------------------------------------------------

    def eval(self, expr: ast.Expr | None, env: Env):
        if expr is None:
            return TStr.of("")
        self._tick()
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise UnsupportedConstruct(type(expr).__name__)
        return method(expr, env)

    def _eval_Literal(self, expr: ast.Literal, env: Env):
        return expr.value if expr.value is not None else None

    def _eval_Var(self, expr: ast.Var, env: Env):
        superglobal = self._superglobal(expr.name)
        if superglobal is not None:
            return superglobal
        value = env.get(expr.name)
        return value if value is not None else TStr.of("")

    def _superglobal(self, name: str) -> PhpArray | None:
        if sources.superglobal_label(name) is None:
            return None
        vector = self.vector

        def tainted(table: dict[str, str], label: str) -> PhpArray:
            return PhpArray(
                {
                    key: TStr.of(text, frozenset({label}))
                    for key, text in table.items()
                }
            )

        if name in ("_GET", "HTTP_GET_VARS"):
            return tainted(vector.get, DIRECT)
        if name in ("_POST", "HTTP_POST_VARS"):
            return tainted(vector.post, DIRECT)
        if name in ("_COOKIE", "HTTP_COOKIE_VARS"):
            return tainted(vector.cookie, DIRECT)
        if name == "_REQUEST":
            merged = dict(vector.get)
            merged.update(vector.post)
            merged.update(vector.cookie)
            return tainted(merged, DIRECT)
        if name in ("_SESSION", "HTTP_SESSION_VARS"):
            return tainted(vector.session, INDIRECT)
        if name == "_SERVER":
            # deliberately untainted: under-tainting is the safe direction
            return PhpArray({k: TStr.of(v) for k, v in _SERVER_FIXED.items()})
        return PhpArray({})  # _FILES

    def _eval_ArrayDim(self, expr: ast.ArrayDim, env: Env):
        base = self.eval(expr.base, env)
        key = (
            to_php_str(plain(self.eval(expr.index, env)))
            if expr.index is not None
            else None
        )
        if isinstance(base, PhpArray):
            value = base.get(key) if key is not None else None
            return value if value is not None else TStr.of("")
        if isinstance(base, TStr):
            index = php_int(key)
            if 0 <= index < len(base.text):
                return base.slice(index, index + 1)
            return TStr.of("")
        return TStr.of("")

    def _eval_Prop(self, expr: ast.Prop, env: Env):
        base = self.eval(expr.base, env)
        if isinstance(base, PhpObject):
            value = base.props.get(expr.name)
            if value is not None:
                return value
        return TStr.of("")

    def _eval_Interp(self, expr: ast.Interp, env: Env):
        result = TStr.of("")
        for part in expr.parts:
            result = result.concat(to_tstr(self.eval(part, env)))
        return result

    def _eval_BinOp(self, expr: ast.BinOp, env: Env):
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        op = expr.op
        if op == ".":
            return to_tstr(left).concat(to_tstr(right))
        if op in ("+", "-", "*", "/", "%", "<<", ">>"):
            return self._arith(op, left, right)
        if op in ("==", "==="):
            return self._loose_eq(left, right)
        if op in ("!=", "!==", "<>"):
            return not self._loose_eq(left, right)
        if op in ("&&", "and"):
            return _truthy(left) and _truthy(right)
        if op in ("||", "or"):
            return _truthy(left) or _truthy(right)
        if op == "xor":
            return _truthy(left) != _truthy(right)
        if op in ("<", ">", "<=", ">="):
            return self._compare(op, left, right)
        raise UnsupportedConstruct(f"operator {op}")

    def _arith(self, op: str, left, right):
        a, b = plain(left), plain(right)
        if isinstance(a, dict) or isinstance(b, dict):
            raise UnsupportedConstruct("array arithmetic")
        if op in ("<<", ">>", "%"):
            x, y = php_int(a), php_int(b)
            if op == "%" and y == 0:
                raise UnsupportedConstruct("modulo by zero")
            if op == "<<":
                result: int | float = x << (y % 64)
            elif op == ">>":
                result = x >> (y % 64)
            else:
                sign = -1 if x < 0 else 1
                result = sign * (abs(x) % abs(y))
        else:
            use_int = (
                isinstance(a, (int, bool))
                and isinstance(b, (int, bool))
                and op != "/"
            )
            x2, y2 = php_float(a), php_float(b)
            if op == "/" and y2 == 0:
                raise UnsupportedConstruct("division by zero")
            if op == "+":
                result = x2 + y2
            elif op == "-":
                result = x2 - y2
            elif op == "*":
                result = x2 * y2
            else:
                result = x2 / y2
            if use_int and float(result).is_integer():
                result = int(result)
        text = php_float_str(float(result)) if isinstance(result, float) else str(result)
        if not _ARITH_LANGUAGE.fullmatch(text):
            raise UnsupportedConstruct(f"arithmetic escapes numeric language: {text}")
        return result

    def _loose_eq(self, left, right) -> bool:
        # numeric only when BOTH operands are native numbers; otherwise
        # string comparison — the subset consistent with _refine_equality
        if isinstance(left, (int, float)) and not isinstance(left, bool) and isinstance(
            right, (int, float)
        ) and not isinstance(right, bool):
            return float(left) == float(right)
        return to_php_str(plain(left)) == to_php_str(plain(right))

    def _compare(self, op: str, left, right) -> bool:
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            a, b = float(left), float(right)
        else:
            a2, b2 = to_php_str(plain(left)), to_php_str(plain(right))
            if op == "<":
                return a2 < b2
            if op == ">":
                return a2 > b2
            if op == "<=":
                return a2 <= b2
            return a2 >= b2
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        return a >= b

    def _eval_UnaryOp(self, expr: ast.UnaryOp, env: Env):
        operand = self.eval(expr.operand, env)
        if expr.op == "!":
            return not _truthy(operand)
        if expr.op == "-":
            return self._arith("-", 0, operand)
        if expr.op == "+":
            return self._arith("+", 0, operand)
        raise UnsupportedConstruct(f"unary {expr.op}")

    def _eval_Suppress(self, expr: ast.Suppress, env: Env):
        return self.eval(expr.operand, env)

    def _eval_Cast(self, expr: ast.Cast, env: Env):
        operand = self.eval(expr.operand, env)
        if expr.kind == "int":
            return php_int(plain(operand))
        if expr.kind == "float":
            value = php_float(plain(operand))
            if not _ARITH_LANGUAGE.fullmatch(php_float_str(value)):
                raise UnsupportedConstruct("float cast escapes numeric language")
            return value
        if expr.kind == "bool":
            return _truthy(operand)
        if expr.kind == "string":
            return to_tstr(operand)
        if expr.kind == "array":
            if isinstance(operand, PhpArray):
                return operand
            return PhpArray({"0": to_tstr(operand)})
        return operand

    def _eval_Assign(self, expr: ast.Assign, env: Env):
        value = self.eval(expr.value, env)
        if expr.op == ".=":
            current = to_tstr(self.eval(expr.target, env))
            value = current.concat(to_tstr(value))
        elif expr.op != "=":
            value = self._arith(expr.op.rstrip("="), self.eval(expr.target, env), value)
        self._assign_to(expr.target, value, env)
        return value

    def _assign_to(self, target: ast.Expr, value, env: Env) -> None:
        if isinstance(target, ast.Var):
            env.set(target.name, value)
            return
        if isinstance(target, ast.ArrayDim) and isinstance(target.base, ast.Var):
            base = env.get(target.base.name)
            base = base.copy() if isinstance(base, PhpArray) else PhpArray()
            if target.index is None:
                base.push(value)
            else:
                key = to_php_str(plain(self.eval(target.index, env)))
                base.elements[key] = value
            env.set(target.base.name, base)
            return
        if isinstance(target, ast.Prop) and isinstance(target.base, ast.Var):
            obj = env.get(target.base.name)
            if isinstance(obj, PhpObject):
                obj.props[target.name] = value
            return
        # other targets: dropped, like the analysis

    def _eval_Ternary(self, expr: ast.Ternary, env: Env):
        condition_value = self.eval(expr.condition, env)
        if _truthy(condition_value):
            self._refine_taken(expr.condition, env, positive=True)
            if expr.if_true is None:
                return condition_value
            return self.eval(expr.if_true, env)
        self._refine_taken(expr.condition, env, positive=False)
        return self.eval(expr.if_false, env)

    def _eval_IssetExpr(self, expr: ast.IssetExpr, env: Env):
        for target in expr.targets:
            if not self._defined(target, env):
                return False
        return True

    def _defined(self, target: ast.Expr, env: Env) -> bool:
        if isinstance(target, ast.Var):
            if sources.superglobal_label(target.name) is not None:
                return True
            return env.get(target.name) is not None
        if isinstance(target, ast.ArrayDim):
            base = self.eval(target.base, env)
            if not isinstance(base, PhpArray) or target.index is None:
                return False
            key = to_php_str(plain(self.eval(target.index, env)))
            return base.get(key) is not None
        if isinstance(target, ast.Prop):
            base = self.eval(target.base, env)
            return isinstance(base, PhpObject) and target.name in base.props
        return False

    def _eval_EmptyExpr(self, expr: ast.EmptyExpr, env: Env):
        if not self._defined(expr.target, env):
            return True
        return not _truthy(self.eval(expr.target, env))

    def _eval_ArrayLit(self, expr: ast.ArrayLit, env: Env):
        result = PhpArray()
        for key_node, value_node in expr.items:
            value = self.eval(value_node, env)
            if key_node is None:
                result.push(value)
            else:
                key = to_php_str(plain(self.eval(key_node, env)))
                result.elements[key] = value
                if re.fullmatch(r"[0-9]+", key):
                    result.next_index = max(result.next_index, int(key) + 1)
        return result

    def _eval_ConstFetch(self, expr: ast.ConstFetch, env: Env):
        if expr.name in self.constants:
            return self.constants[expr.name]
        return TStr.of(expr.name)

    def _eval_New(self, expr: ast.New, env: Env):
        arg_values = [self.eval(arg, env) for arg in expr.args]
        obj = PhpObject(expr.class_name)
        class_def = self.classes.get(expr.class_name)
        if class_def is not None:
            for prop_name, default in class_def.properties:
                obj.props[prop_name] = (
                    self.eval(default, env) if default is not None else TStr.of("")
                )
            constructor = self._find_method(class_def, expr.class_name) or self._find_method(
                class_def, "__construct"
            )
            if constructor is not None:
                self._call_function(constructor, arg_values, env, this=obj)
        return obj

    def _find_method(self, class_def: ast.ClassDef, name: str) -> ast.FunctionDef | None:
        for method in class_def.methods:
            if method.name.lower() == name.lower():
                return method
        parent = self.classes.get(class_def.parent) if class_def.parent else None
        if parent is not None:
            return self._find_method(parent, name)
        return None

    # -- calls --------------------------------------------------------------

    def _eval_Call(self, expr: ast.Call, env: Env):
        name = expr.name
        if name == "exit" or name == "die":
            for arg in expr.args:
                self.eval(arg, env)
            raise _Exit()
        if name in ("include", "include_once", "require", "require_once"):
            self._exec_Include(
                ast.Include(
                    path=expr.args[0] if expr.args else None,
                    once=name.endswith("_once"),
                    required=name.startswith("require"),
                    line=expr.line,
                ),
                env,
            )
            return TStr.of("1")
        arg_values = [self.eval(arg, env) for arg in expr.args]

        if name == "define" and len(expr.args) >= 2:
            constant_name = builtins.literal_str(expr.args[0])
            if constant_name is not None:
                self.constants[constant_name] = arg_values[1]
            return True
        if name == "constant" and expr.args:
            constant_name = builtins.literal_str(expr.args[0])
            if constant_name is not None and constant_name in self.constants:
                return self.constants[constant_name]
            return TStr.of("")
        if name == "defined" and expr.args:
            constant_name = builtins.literal_str(expr.args[0])
            return constant_name is not None and constant_name in self.constants

        sink_index = sources.query_argument_index(name)
        if sink_index is not None:
            self._record_hit(expr.line, name, arg_values, sink_index)
            return TStr.of("")

        extra_index = self.extra_sinks.get(name)
        if extra_index is not None:
            # record and return untainted "" — same shape as the unknown
            # builtin below; nothing real is executed
            self._record_hit(expr.line, name, arg_values, extra_index)
            return TStr.of("")

        fetch_shape = sources.is_fetch_function(name)
        if fetch_shape is not None:
            return self._fetch_result(expr.line, fetch_shape)

        user = self.functions.get(name)
        if user is not None:
            return self._call_function(user, arg_values, env)

        return self._call_builtin(name, arg_values, expr.args)

    def _eval_MethodCall(self, expr: ast.MethodCall, env: Env):
        obj = self.eval(expr.obj, env)
        arg_values = [self.eval(arg, env) for arg in expr.args]
        if sources.is_query_method(expr.name):
            self._record_hit(expr.line, f"->{expr.name}", arg_values, 0)
            return TStr.of("")
        if sources.is_fetch_method(expr.name):
            return self._fetch_result(expr.line, "array")
        if isinstance(obj, PhpObject):
            class_def = self.classes.get(obj.class_name)
            if class_def is not None:
                method = self._find_method(class_def, expr.name)
                if method is not None:
                    return self._call_function(method, arg_values, env, this=obj)
        return TStr.of("")  # unknown method: untainted member of the Σ* model

    def _eval_StaticCall(self, expr: ast.StaticCall, env: Env):
        arg_values = [self.eval(arg, env) for arg in expr.args]
        class_def = self.classes.get(expr.class_name)
        if class_def is not None:
            method = self._find_method(class_def, expr.name)
            if method is not None:
                return self._call_function(method, arg_values, env)
        return TStr.of("")

    def _fetch_result(self, line: int, shape: str):
        key = (self.current_file, line)
        count = self._fetch_counts.get(key, 0)
        self._fetch_counts[key] = count + 1
        if count >= 1:
            return False  # result set exhausted
        cell = TStr.of("dbv", frozenset({INDIRECT}))
        if shape in ("array", "object"):
            return PhpArray({}, default=cell)
        return cell

    def _call_function(
        self,
        definition: ast.FunctionDef,
        arg_values: list,
        caller_env: Env,
        this: PhpObject | None = None,
    ):
        if (
            definition.name.lower() in self._call_stack
            or len(self._call_stack) >= MAX_CALL_DEPTH
        ):
            return TStr.of("")  # analysis: Σ*+taint; "" is an untainted member
        local = Env()
        if this is not None:
            local.set("this", this)
        for index, param in enumerate(definition.params):
            if index < len(arg_values):
                local.set(param.name, arg_values[index])
            elif param.default is not None:
                local.set(param.name, self.eval(param.default, caller_env))
            else:
                local.set(param.name, TStr.of(""))
        self._call_stack.append(definition.name.lower())
        try:
            self._exec_block(definition.body, local)
        except _Return as ret:
            return ret.value if ret.value is not None else TStr.of("")
        finally:
            self._call_stack.pop()
        return TStr.of("")

    def _record_hit(self, line: int, sink: str, arg_values: list, sink_index: int) -> None:
        if sink_index >= len(arg_values):
            return
        query = to_tstr(arg_values[sink_index])
        self.hits.append(
            ConcreteHit(
                file=self.current_file,
                line=line,
                sink=sink,
                query=query.text,
                runs=query.tainted_runs(),
            )
        )

    # -- builtins -----------------------------------------------------------

    def _call_builtin(self, name: str, arg_values: list, nodes: list):
        if name in NO_EFFECT:
            return TStr.of("")
        woven = self._weave_builtin(name, arg_values, nodes)
        if woven is not _MISS:
            return woven
        spec = CONCRETE.get(name)
        if spec is None:
            # unknown function: analysis says Σ* + taint; an untainted ""
            # is a member that under-taints — the safe direction
            return TStr.of("")
        plain_args = [plain(v) for v in arg_values]
        try:
            result = spec.fn(plain_args, nodes, self.state)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise UnsupportedConstruct(f"{name}: {exc}") from exc
        if spec.taint == "drop" or not isinstance(result, str):
            return TStr.of(result) if isinstance(result, str) else result
        if spec.taint == "whole":
            labels: frozenset[str] = frozenset()
            for value in arg_values:
                labels |= _value_labels(value)
            return TStr.of(result, labels)
        if spec.taint == "blur":
            subject = arg_values[spec.subject] if spec.subject < len(arg_values) else None
            labels = _value_labels(subject) if subject is not None else frozenset()
            return TStr.of(result, labels, exact=not labels)
        if spec.taint == "charwise":
            return self._charwise(name, spec, arg_values, plain_args, nodes, result)
        raise UnsupportedConstruct(f"{name}: unhandled taint mode {spec.taint}")

    def _charwise(self, name, spec, arg_values, plain_args, nodes, full_result):
        subject = (
            arg_values[spec.subject] if spec.subject < len(arg_values) else TStr.of("")
        )
        subject = to_tstr(subject)
        pieces: list[Seg] = []
        for seg in subject.segs:
            seg_args = list(plain_args)
            seg_args[spec.subject] = seg.text
            try:
                piece = spec.fn(seg_args, nodes, self.state)
            except (ValueError, OverflowError) as exc:
                raise UnsupportedConstruct(f"{name}: {exc}") from exc
            pieces.append(Seg(to_php_str(piece), seg.labels, seg.exact))
        woven = TStr(pieces)
        if woven.text == full_result:
            return woven
        # the function looked across segment boundaries (e.g. a replaced
        # substring straddles tainted and untrusted text): keep the true
        # text, blur the taint extent
        labels = subject.labels
        return TStr.of(full_result, labels, exact=not labels)

    # -- taint-weaving structural builtins ----------------------------------

    def _weave_builtin(self, name: str, arg_values: list, nodes: list):
        """Builtins whose result's taint is *woven* from argument spans
        (``ConcreteSpec.taint == "interp"``).  Returns :data:`_MISS` for
        every other builtin."""
        spec = CONCRETE.get(name)
        if spec is None or spec.taint != "interp":
            return _MISS
        handler = _WEAVERS.get(name)
        if handler is None:
            return _MISS
        return handler(self, arg_values, nodes)


_MISS = object()


def _blur_like(subject: TStr, text: str) -> TStr:
    labels = subject.labels
    return TStr.of(text, labels, exact=not labels)


def _slice_by_find(subject: TStr, result_text: str) -> TStr:
    if not result_text:
        return TStr.of("")
    index = subject.text.find(result_text)
    if index >= 0:
        return subject.slice(index, index + len(result_text))
    return _blur_like(subject, result_text)


def _arg(values: list, index: int, default=None):
    return values[index] if index < len(values) else default


def _w_trim(kind: str):
    def weave(interp: Interpreter, values: list, nodes: list):
        subject = to_tstr(_arg(values, 0, TStr.of("")))
        charlist = (
            to_php_str(plain(values[1])) if len(values) > 1 else None
        )
        chars = builtins.trim_charlist(charlist)
        text = subject.text
        lo, hi = 0, len(text)
        if kind in ("trim", "ltrim"):
            while lo < hi and text[lo] in chars:
                lo += 1
        if kind in ("trim", "rtrim"):
            while hi > lo and text[hi - 1] in chars:
                hi -= 1
        return subject.slice(lo, hi)

    return weave


def _w_substr(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    text = subject.text
    start = php_int(plain(_arg(values, 1, 0)))
    length = php_int(plain(values[2])) if len(values) > 2 else None
    result = php_substr(text, start, length)
    if result == "":
        return TStr.of("")
    size = len(text)
    lo = max(0, size + start) if start < 0 else start
    return subject.slice(lo, lo + len(result))


def _w_strstr_family(find_kind: str):
    def weave(interp: Interpreter, values: list, nodes: list):
        haystack = to_tstr(_arg(values, 0, TStr.of("")))
        needle = to_php_str(plain(_arg(values, 1, "")))
        if not needle:
            return False
        text = haystack.text
        if find_kind == "stristr":
            index = text.lower().find(needle.lower())
        elif find_kind == "strrchr":
            index = text.rfind(needle[0])
        else:
            index = text.find(needle)
        if index < 0:
            return False
        before = (
            find_kind == "strstr"
            and len(values) > 2
            and _truthy(values[2])
        )
        return haystack.slice(0, index) if before else haystack.slice(index, len(text))

    return weave


def _w_strrev(interp: Interpreter, values: list, nodes: list):
    return to_tstr(_arg(values, 0, TStr.of(""))).reversed()


def _w_str_repeat(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    count = max(0, php_int(plain(_arg(values, 1, 0))))
    if count * len(subject.text) > 100_000:
        raise UnsupportedConstruct("str_repeat result too large")
    result = TStr.of("")
    for _ in range(count):
        result = result.concat(subject)
    return result


def _w_str_pad(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    length = php_int(plain(_arg(values, 1, 0)))
    pad = to_php_str(plain(values[2])) if len(values) > 2 else " "
    pad_type = (
        nodes[3].name
        if len(nodes) > 3 and isinstance(nodes[3], ast.ConstFetch)
        else "STR_PAD_RIGHT"
    )
    missing = length - len(subject.text)
    if missing <= 0 or not pad:
        return subject
    if pad_type == "STR_PAD_LEFT":
        return TStr.of((pad * missing)[:missing]).concat(subject)
    if pad_type == "STR_PAD_BOTH":
        left = missing // 2
        right = missing - left
        return (
            TStr.of((pad * left)[:left])
            .concat(subject)
            .concat(TStr.of((pad * right)[:right]))
        )
    return subject.concat(TStr.of((pad * missing)[:missing]))


def _format_piece(directive: str, spec: dict, value) -> TStr:
    """One sprintf directive as a TStr: ``%s`` splices the argument's
    spans, everything else renders untainted text."""
    if directive != "s":
        return TStr.of(builtins._format_directive(directive, spec, plain(value)))
    body = to_tstr(value)
    if spec["precision"] is not None:
        body = body.slice(0, spec["precision"])
    width = spec["width"]
    if width > len(body.text):
        pad = TStr.of((spec["pad"] or " ") * (width - len(body.text)))
        body = body.concat(pad) if "-" in spec["flags"] else pad.concat(body)
    return body


def _sprintf_weave(interp: Interpreter, fmt_value, fargs: list):
    fmt = to_tstr(fmt_value)
    if fmt.labels:
        # a tainted format: the model is Σ*+taint anyway — blur
        text = php_sprintf(fmt.text, [plain(a) for a in fargs])
        labels = fmt.labels
        for value in fargs:
            labels |= _value_labels(value)
        return TStr.of(text, labels, exact=False)
    fmt_text = fmt.text
    out = TStr.of("")
    arg_index = 0
    i = 0
    while i < len(fmt_text):
        char = fmt_text[i]
        if char == "%" and i + 1 < len(fmt_text):
            if fmt_text[i + 1] == "%":
                out = out.concat(TStr.of("%"))
                i += 2
                continue
            spec, directive, next_i = builtins.parse_sprintf_spec(fmt_text, i)
            if directive is None:
                out = out.concat(TStr.of(char))
                i += 1
                continue
            index = spec["argnum"] - 1 if spec["argnum"] else arg_index
            value = fargs[index] if index < len(fargs) else TStr.of("")
            out = out.concat(_format_piece(directive, spec, value))
            if not spec["argnum"]:
                arg_index += 1
            i = next_i
            continue
        out = out.concat(TStr.of(char))
        i += 1
    expected = php_sprintf(fmt_text, [plain(a) for a in fargs])
    if out.text != expected:
        labels = out.labels
        return TStr.of(expected, labels, exact=not labels)
    return out


def _w_sprintf(interp: Interpreter, values: list, nodes: list):
    return _sprintf_weave(interp, _arg(values, 0, TStr.of("")), values[1:])


def _w_vsprintf(interp: Interpreter, values: list, nodes: list):
    array_value = _arg(values, 1)
    fargs = (
        list(array_value.elements.values())
        if isinstance(array_value, PhpArray)
        else []
    )
    return _sprintf_weave(interp, _arg(values, 0, TStr.of("")), fargs)


def _w_implode(interp: Interpreter, values: list, nodes: list):
    glue_value = _arg(values, 0)
    pieces_value = _arg(values, 1)
    if isinstance(glue_value, PhpArray) and not isinstance(pieces_value, PhpArray):
        glue_value, pieces_value = pieces_value, glue_value
    if not isinstance(pieces_value, PhpArray):
        return to_tstr(pieces_value) if pieces_value is not None else TStr.of("")
    glue = to_tstr(glue_value) if glue_value is not None else TStr.of("")
    out = TStr.of("")
    for index, item in enumerate(pieces_value.elements.values()):
        if index:
            out = out.concat(glue)
        out = out.concat(to_tstr(item))
    return out


def _pieces_to_array(subject: TStr, pieces: list[str], separators: list[int]) -> PhpArray:
    """Contiguous split pieces back to spans of ``subject``.
    ``separators[i]`` is the separator length *after* piece ``i``."""
    result = PhpArray()
    position = 0
    text = subject.text
    for index, piece in enumerate(pieces):
        if text[position : position + len(piece)] != piece:
            return PhpArray(
                {
                    str(i): _blur_like(subject, p)
                    for i, p in enumerate(pieces)
                }
            )
        result.push(subject.slice(position, position + len(piece)))
        position += len(piece)
        if index < len(separators):
            position += separators[index]
    return result


def _w_explode(interp: Interpreter, values: list, nodes: list):
    delimiter = to_php_str(plain(_arg(values, 0, "")))
    subject = to_tstr(_arg(values, 1, TStr.of("")))
    limit = php_int(plain(values[2])) if len(values) > 2 else None
    pieces = builtins.php_explode(delimiter, subject.text, limit)
    if pieces is False:
        return False
    return _pieces_to_array(subject, pieces, [len(delimiter)] * (len(pieces)))


def _w_str_split(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    length = php_int(plain(values[1])) if len(values) > 1 else 1
    if length < 1:
        return False
    result = PhpArray()
    text = subject.text
    if not text:
        result.push(TStr.of(""))
        return result
    for i in range(0, len(text), length):
        result.push(subject.slice(i, i + length))
    return result


def _w_regex_split(php_pattern: bool):
    def weave(interp: Interpreter, values: list, nodes: list):
        pattern_text = to_php_str(plain(_arg(values, 0, "")))
        subject = to_tstr(_arg(values, 1, TStr.of("")))
        try:
            pattern = (
                builtins.compile_php_pattern(pattern_text)
                if php_pattern
                else re.compile(pattern_text)
            )
        except (ValueError, re.error) as exc:
            raise UnsupportedConstruct(f"split pattern: {exc}") from exc
        text = subject.text
        pieces: list[str] = []
        separators: list[int] = []
        position = 0
        for match in pattern.finditer(text):
            if match.end() == match.start():
                # zero-width separators make offsets ambiguous
                return _pieces_to_array(subject, pattern.split(text), [])
            pieces.append(text[position : match.start()])
            separators.append(match.end() - match.start())
            position = match.end()
        pieces.append(text[position:])
        return _pieces_to_array(subject, pieces, separators)

    return weave


def _w_strval(interp: Interpreter, values: list, nodes: list):
    return to_tstr(_arg(values, 0, TStr.of("")))


def _w_basename(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    suffix = to_php_str(plain(values[1])) if len(values) > 1 else ""
    return _slice_by_find(subject, builtins.php_basename(subject.text, suffix))


def _w_dirname(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    return _slice_by_find(subject, builtins.php_dirname(subject.text))


def _w_pathinfo(interp: Interpreter, values: list, nodes: list):
    subject = to_tstr(_arg(values, 0, TStr.of("")))
    info = builtins.php_pathinfo(subject.text)
    return PhpArray(
        {key: _slice_by_find(subject, text) for key, text in info.items()}
    )


_WEAVERS = {
    "trim": _w_trim("trim"),
    "ltrim": _w_trim("ltrim"),
    "rtrim": _w_trim("rtrim"),
    "chop": _w_trim("rtrim"),
    "substr": _w_substr,
    "mb_substr": _w_substr,
    "strstr": _w_strstr_family("strstr"),
    "strchr": _w_strstr_family("strstr"),
    "stristr": _w_strstr_family("stristr"),
    "strrchr": _w_strstr_family("strrchr"),
    "strrev": _w_strrev,
    "str_repeat": _w_str_repeat,
    "str_pad": _w_str_pad,
    "sprintf": _w_sprintf,
    "vsprintf": _w_vsprintf,
    "implode": _w_implode,
    "join": _w_implode,
    "explode": _w_explode,
    "str_split": _w_str_split,
    "preg_split": _w_regex_split(php_pattern=True),
    "split": _w_regex_split(php_pattern=False),
    "strval": _w_strval,
    "basename": _w_basename,
    "dirname": _w_dirname,
    "pathinfo": _w_pathinfo,
}


def execute_page(
    project_root: str | Path,
    entry: str | Path,
    vector: InputVector,
    state: ConcreteState | None = None,
    resolver: IncludeResolver | None = None,
    extra_sinks: dict[str, int] | None = None,
    trees: Mapping[str, ast.File] | None = None,
) -> list[ConcreteHit]:
    """Run ``entry`` under ``vector``; returns the sink hits.

    ``trees`` is the ``AnalysisResult.trees`` of an analysis that saw
    the same files; pass it only then, since a file edited after that
    analysis would be served its old tree.

    Raises :class:`UnsupportedConstruct` when the page (or this
    particular execution) leaves the consistency-mirrored subset.
    """
    interpreter = Interpreter(
        project_root, vector, state=state, resolver=resolver,
        extra_sinks=extra_sinks, trees=trees,
    )
    return interpreter.run(entry)
