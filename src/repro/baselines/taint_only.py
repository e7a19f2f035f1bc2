"""Baseline: classic binary taint analysis (Pixy / Huang-et-al. style).

The related-work comparison the paper motivates (§1.1, §6.2): static
taint checking classifies every value as *tainted* or *untainted* and
every function as *sanitizer* or *irrelevant*.  It cannot express "this
input is sanitized **for string-literal contexts** but dangerous in a
numeric context", nor model what a regular-expression test actually
admits.  Two systematic failure modes fall out:

* **false negative** — ``escape_quotes`` output used *outside* quotes
  (numeric context): taint analysis says sanitized ⇒ safe; the paper's
  analysis reports it.
* **false positive** — an unanchored-looking but actually tight regex
  test, or a hand-rolled quoting function the whitelist doesn't know:
  taint analysis cannot look inside, so it reports.

This baseline reuses the PHP front end and the same source/sink tables,
so head-to-head comparisons differ only in the *analysis*, not in the
frontend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.php import ast
from repro.php.includes import IncludeResolver
from repro.php.parser import PhpParseError, parse
from repro.analysis import sources

#: functions whose return value the baseline considers untainted when
#: called on tainted data — the standard Pixy-style sanitizer whitelist
SANITIZERS = frozenset(
    """
    addslashes mysql_real_escape_string mysql_escape_string
    mysqli_real_escape_string pg_escape_string sqlite_escape_string
    htmlspecialchars htmlentities intval floatval doubleval
    md5 sha1 crc32 count strlen number_format abs round floor ceil
    urlencode rawurlencode base64_encode
    """.split()
)

#: numeric/no-data builtins: untainted output regardless of input
UNTAINTED_RESULTS = frozenset(
    """
    time mktime rand mt_rand date strftime gmdate uniqid ord hexdec
    phpversion php_uname gettype
    """.split()
)


@dataclass
class TaintFinding:
    file: str
    line: int
    sink: str
    category: str  # "direct" | "indirect"


@dataclass
class TaintResult:
    findings: list[TaintFinding] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)


#: taint lattice: frozenset of labels; empty = untainted
Taint = frozenset


class TaintOnlyAnalysis:
    """Flow-sensitive binary taint propagation over the PHP subset."""

    def __init__(self, project_root: str | Path) -> None:
        self.project_root = Path(project_root)
        self.resolver = IncludeResolver(self.project_root)
        self.result = TaintResult()
        self.functions: dict[str, ast.FunctionDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.globals: dict[str, Taint] = {}
        self._included: set[Path] = set()
        self._stack: list[str] = []
        self.current_file = ""

    def analyze_file(self, entry: str | Path) -> TaintResult:
        path = Path(entry)
        if not path.is_absolute():
            path = self.project_root / path
        self._interpret(path, self.globals)
        return self.result

    # -- plumbing ----------------------------------------------------------

    def _interpret(self, path: Path, env: dict[str, Taint]) -> None:
        try:
            tree = parse(path.read_text(), str(path))
        except (OSError, PhpParseError, ValueError) as exc:
            self.result.parse_errors.append(str(exc))
            return
        for node in ast.walk(tree.body):
            if isinstance(node, ast.FunctionDef):
                self.functions.setdefault(node.name.lower(), node)
            elif isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, node)
        previous = self.current_file
        self.current_file = str(path)
        try:
            self._exec_block(tree.body, env)
        finally:
            self.current_file = previous

    def _exec_block(self, block: ast.Block, env: dict[str, Taint]) -> None:
        for stmt in block.statements:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.Stmt, env: dict[str, Taint]) -> None:
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, env)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, env)
        elif isinstance(stmt, ast.Echo):
            for value in stmt.values:
                self.eval(value, env)
        elif isinstance(stmt, ast.If):
            branch_envs = []
            for _, body in [(stmt.condition, stmt.then)] + stmt.elifs:
                branch = dict(env)
                self._exec_block(body, branch)
                branch_envs.append(branch)
            if stmt.orelse is not None:
                branch = dict(env)
                self._exec_block(stmt.orelse, branch)
                branch_envs.append(branch)
            else:
                branch_envs.append(dict(env))
            merged: dict[str, Taint] = {}
            for branch in branch_envs:
                for name, taint in branch.items():
                    merged[name] = merged.get(name, frozenset()) | taint
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            if isinstance(stmt, ast.While):
                self.eval(stmt.condition, env)
            before = dict(env)
            self._exec_block(stmt.body, env)
            for name, taint in before.items():
                env[name] = env.get(name, frozenset()) | taint
        elif isinstance(stmt, ast.For):
            for expr in stmt.init:
                self.eval(expr, env)
            self._exec_block(stmt.body, env)
            for expr in stmt.step:
                self.eval(expr, env)
        elif isinstance(stmt, ast.Foreach):
            subject_taint = self.eval(stmt.subject, env)
            if isinstance(stmt.value_var, ast.Var):
                env[stmt.value_var.name] = subject_taint
            if isinstance(stmt.key_var, ast.Var):
                env[stmt.key_var.name] = subject_taint
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Switch):
            self.eval(stmt.subject, env)
            for _, body in stmt.cases:
                branch = dict(env)
                self._exec_block(body, branch)
                for name, taint in branch.items():
                    env[name] = env.get(name, frozenset()) | taint
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self.eval(stmt.value, env)
                if self._stack:
                    env["__return__"] = env.get("__return__", frozenset()) | taint
        elif isinstance(stmt, ast.GlobalDecl):
            for name in stmt.names:
                env[name] = self.globals.get(name, frozenset())
        elif isinstance(stmt, ast.Include):
            self._include(stmt, env)
        elif isinstance(stmt, ast.FunctionDef):
            self.functions.setdefault(stmt.name.lower(), stmt)
        elif isinstance(stmt, ast.ClassDef):
            self.classes.setdefault(stmt.name, stmt)

    def _include(self, stmt: ast.Include, env: dict[str, Taint]) -> None:
        from repro.analysis.stringtaint import StringTaintAnalysis

        # reuse the grammar machinery only to resolve the path statically
        helper = StringTaintAnalysis(self.project_root)
        helper.current_file = self.current_file
        value = helper.eval(stmt.path, helper.globals)
        files = helper.resolver.resolve(
            helper.builder.grammar,
            helper.builder.force(helper.builder.to_str(value)).nt,
            Path(self.current_file).parent if self.current_file else self.project_root,
        )
        for file in files:
            if stmt.once and file in self._included:
                continue
            self._included.add(file)
            self._interpret(file, env)

    # -- expressions --------------------------------------------------------

    def eval(self, expr: ast.Expr | None, env: dict[str, Taint]) -> Taint:
        clean: Taint = frozenset()
        if expr is None:
            return clean
        if isinstance(expr, ast.Literal):
            return clean
        if isinstance(expr, ast.Var):
            label = sources.superglobal_label(expr.name)
            if label is not None:
                return frozenset({label})
            return env.get(expr.name, clean)
        if isinstance(expr, ast.ArrayDim):
            return self.eval(expr.base, env)
        if isinstance(expr, ast.Prop):
            return self.eval(expr.base, env)
        if isinstance(expr, ast.Interp):
            taint = clean
            for part in expr.parts:
                taint |= self.eval(part, env)
            return taint
        if isinstance(expr, ast.BinOp):
            return self.eval(expr.left, env) | self.eval(expr.right, env)
        if isinstance(expr, (ast.UnaryOp, ast.Suppress)):
            return self.eval(expr.operand, env)
        if isinstance(expr, ast.Cast):
            if expr.kind in ("int", "float", "bool"):
                return clean
            return self.eval(expr.operand, env)
        if isinstance(expr, ast.Assign):
            taint = self.eval(expr.value, env)
            if expr.op == ".=" and isinstance(expr.target, ast.Var):
                taint |= env.get(expr.target.name, clean)
            target = expr.target
            while isinstance(target, (ast.ArrayDim, ast.Prop)):
                target = target.base
            if isinstance(target, ast.Var):
                if expr.op not in ("=", ".="):
                    taint = clean  # arithmetic result: a number
                env[target.name] = taint
            return taint
        if isinstance(expr, ast.Ternary):
            taint = self.eval(expr.condition, env)
            branches = clean
            if expr.if_true is not None:
                branches |= self.eval(expr.if_true, env)
            else:
                branches |= taint
            branches |= self.eval(expr.if_false, env)
            return branches
        if isinstance(expr, (ast.IssetExpr, ast.EmptyExpr)):
            return clean
        if isinstance(expr, ast.ArrayLit):
            taint = clean
            for _, value in expr.items:
                taint |= self.eval(value, env)
            return taint
        if isinstance(expr, ast.Call):
            return self._call(expr, env)
        if isinstance(expr, ast.MethodCall):
            return self._method_call(expr, env)
        if isinstance(expr, ast.New):
            for arg in expr.args:
                self.eval(arg, env)
            return clean
        return clean

    def _call(self, expr: ast.Call, env: dict[str, Taint]) -> Taint:
        arg_taints = [self.eval(arg, env) for arg in expr.args]
        name = expr.name
        clean: Taint = frozenset()
        sink_index = sources.query_argument_index(name)
        if sink_index is not None:
            if sink_index < len(arg_taints) and arg_taints[sink_index]:
                self._report(expr, name, arg_taints[sink_index])
            return clean
        if sources.is_fetch_function(name):
            return frozenset({"indirect"})
        if name in SANITIZERS or name in UNTAINTED_RESULTS:
            return clean
        user = self.functions.get(name)
        if user is not None and name not in self._stack and len(self._stack) < 8:
            local: dict[str, Taint] = {}
            for index, param in enumerate(user.params):
                local[param.name] = (
                    arg_taints[index] if index < len(arg_taints) else clean
                )
            self._stack.append(name)
            try:
                self._exec_block(user.body, local)
            finally:
                self._stack.pop()
            return local.get("__return__", clean)
        # unknown function: taint flows through
        taint = clean
        for arg_taint in arg_taints:
            taint |= arg_taint
        return taint

    def _method_call(self, expr: ast.MethodCall, env: dict[str, Taint]) -> Taint:
        self.eval(expr.obj, env)
        arg_taints = [self.eval(arg, env) for arg in expr.args]
        if sources.is_query_method(expr.name):
            if arg_taints and arg_taints[0]:
                self._report(expr, f"->{expr.name}", arg_taints[0])
            return frozenset()
        if sources.is_fetch_method(expr.name):
            return frozenset({"indirect"})
        taint: Taint = frozenset()
        for arg_taint in arg_taints:
            taint |= arg_taint
        return taint

    def _report(self, node: ast.Expr, sink: str, taint: Taint) -> None:
        category = "direct" if "direct" in taint else "indirect"
        self.result.findings.append(
            TaintFinding(
                file=self.current_file, line=node.line, sink=sink, category=category
            )
        )


def analyze_page_taint_only(project_root: str | Path, entry: str | Path) -> TaintResult:
    return TaintOnlyAnalysis(project_root).analyze_file(entry)
