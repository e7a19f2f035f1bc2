"""Phase 1: the string-taint analysis (paper §3.1).

A flow-sensitive abstract interpreter over the PHP AST that builds one
growing CFG reflecting the program's dataflow (Figure 5): every
assignment mints a fresh nonterminal, control-flow joins become φ
productions, loops become cyclic productions, string operations become
transducer images, and regular-expression conditionals refine the
branch environments by CFG∩FSA intersection (Figure 7).  Untrusted
sources are born with ``DIRECT``/``INDIRECT`` labels that Theorem 3.1
keeps attached through every construction.

The output is a list of :class:`Hotspot` records — one per reachable
query-sink call — each carrying the annotated grammar rooted at the
query's nonterminal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from repro.lang.fsa import NFA
from repro.lang.grammar import Grammar, INDIRECT, Nonterminal
from repro.lang.regex import Pattern
from repro.obs.metrics import PERF
from repro.php import ast, builtins
from repro.obs.timeline import TIMELINE
from repro.php.includes import IncludeResolver
from repro.php.parser import PhpParseError, parse

from . import sources
from .absdom import GrammarBuilder
from .diskcache import DiskCache
from .policies.config import DEFAULT_CONFIG, PolicyConfig
from .values import ArrVal, ObjVal, StrVal, Value

MAX_CALL_DEPTH = 8

log = logging.getLogger(__name__)


def _has_eval_modifier(pattern: str) -> bool:
    """True for PCRE pattern literals carrying the ``/e`` modifier."""
    if len(pattern) < 2:
        return False
    delimiter = pattern[0]
    closing = {"(": ")", "[": "]", "{": "}", "<": ">"}.get(delimiter, delimiter)
    end = pattern.rfind(closing)
    if end <= 0:
        return False
    return "e" in pattern[end + 1 :]


@dataclass
class Hotspot:
    """One query-construction point: a sink call and its query grammar.

    ``kind`` names the sink policy the hotspot belongs to: ``"sql"`` for
    the classic query sinks, or a :mod:`repro.analysis.policies` id
    (``"xss"``, ``"shell"``, ``"eval"``, ``"path"``, …) for sinks
    recorded on behalf of an enabled policy config.
    """

    file: str
    line: int
    query: StrVal
    sink: str
    kind: str = "sql"


@dataclass
class AnalysisResult:
    builder: GrammarBuilder
    hotspots: list[Hotspot]
    parse_errors: list[str] = field(default_factory=list)
    files_analyzed: list[str] = field(default_factory=list)
    #: the entry page this result belongs to
    page: str = ""
    #: parsed ASTs of the include closure, keyed by absolute path — what
    #: the soundness audit (:mod:`repro.analysis.audit`) inventories
    trees: dict[str, ast.File] = field(default_factory=dict)
    #: lower-cased names of user functions seen anywhere in the closure
    known_functions: frozenset[str] = frozenset()
    #: the run-time :class:`~repro.analysis.audit.AuditTrail`, when one
    #: was attached to the interpreter
    audit_trail: object | None = None
    #: every file this page's analysis observed (absolute-path strings):
    #: the entry page, every parsed or parse-failed file, and every file
    #: an include resolved to even if interpretation then skipped it.
    #: This is the page's file-dependency closure — the exact set whose
    #: contents can influence the page's grammar (see
    #: :mod:`repro.server.depgraph`)
    dep_files: frozenset[str] = frozenset()
    #: True when the page's dependencies go beyond ``dep_files`` content:
    #: some include argument was dynamic (its resolution intersects the
    #: *project layout*, paper §4) or resolved to no file at all (a file
    #: created later could satisfy it) — such a page must be re-analyzed
    #: whenever resolver-visible files are added or removed
    layout_sensitive: bool = False

    @property
    def grammar(self) -> Grammar:
        return self.builder.grammar


class _Terminated(Exception):
    """Control left the current trace (exit/die or return)."""

    def __init__(self, value: Value | None = None, kind: str = "exit") -> None:
        self.value = value
        self.kind = kind  # "exit" | "return"


class Env:
    """A flow-sensitive variable environment."""

    def __init__(self, variables: dict[str, Value] | None = None) -> None:
        self.variables: dict[str, Value] = dict(variables or {})

    def copy(self) -> "Env":
        return Env(self.variables)

    def get(self, name: str) -> Value | None:
        return self.variables.get(name)

    def set(self, name: str, value: Value) -> None:
        self.variables[name] = value


class StringTaintAnalysis:
    """The interpreter.  One instance per analyzed entry page."""

    def __init__(
        self,
        project_root: str | Path,
        builder: GrammarBuilder | None = None,
        parse_cache: dict | None = None,
        resolver: IncludeResolver | None = None,
        audit=None,
        disk_cache=None,
        policies: PolicyConfig = DEFAULT_CONFIG,
    ) -> None:
        self.project_root = Path(project_root)
        self.builder = builder or GrammarBuilder()
        self.resolver = resolver or IncludeResolver(self.project_root)
        #: the run's :class:`repro.analysis.policies.PolicyConfig`: the
        #: sink signatures of its enabled policies besides SQL (shell,
        #: eval, path, XSS…) record hotspots alongside the classic SQL
        #: query sinks, and its extra sources taint their variables
        self.policies = policies
        self._extra_function_sinks = policies.function_sink_table()
        self._construct_sinks = policies.construct_sink_table()
        self._preg_eval_kinds = policies.preg_eval_kinds()
        self._extra_sources = dict(policies.extra_sources)
        # soundness-audit instrumentation (an AuditTrail, or None); the
        # builder shares it so grammar-level widenings get attributed
        self.audit = audit
        if audit is not None:
            self.builder.audit = audit
        self.hotspots: list[Hotspot] = []
        self.functions: dict[str, ast.FunctionDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.parse_errors: list[str] = []
        self.files_analyzed: list[str] = []
        self.trees: dict[str, ast.File] = {}
        # the page's file-dependency closure + layout sensitivity (see
        # AnalysisResult.dep_files / .layout_sensitive)
        self.dep_files: set[str] = set()
        self.layout_sensitive = False
        self._included_once: set[Path] = set()
        # files currently being interpreted: breaks include cycles (a
        # dynamic include whose path language matches the includer)
        self._include_stack: list[str] = []
        self._call_stack: list[str] = []
        self._return_collectors: list[list[Value]] = []
        # ASTs can be shared across the per-page analyses of one project
        # (the paper's §5.3 memoization observation); interpretation state
        # cannot, but parsing dominates I/O on large apps.  Entries are
        # (tree, error) pairs so cache hits still report parse failures
        # and still count toward the page's include closure.
        self._parse_cache: dict[Path, tuple[ast.File | None, str | None]] = (
            parse_cache if parse_cache is not None else {}
        )
        #: optional :class:`repro.analysis.diskcache.DiskCache` — parsed
        #: trees keyed by content hash survive across runs (``--cache-dir``)
        self.disk_cache = disk_cache
        self.globals = Env()
        self.constants: dict[str, Value] = {}
        self.current_file = ""

    # -- entry ------------------------------------------------------------------

    def analyze_file(self, entry: str | Path) -> AnalysisResult:
        entry_path = Path(entry)
        if not entry_path.is_absolute() and not entry_path.exists():
            # a bare page name is project-root-relative; paths that
            # already resolve from the cwd (e.g. entry_pages() output
            # under a relative root) are used as-is, not double-joined
            entry_path = self.project_root / entry_path
        tree = self._parse(entry_path)
        if tree is not None:
            self._interpret_file(tree, self.globals)
        self.builder.settle(spot.query.nt for spot in self.hotspots)
        return AnalysisResult(
            builder=self.builder,
            hotspots=self.hotspots,
            parse_errors=self.parse_errors,
            files_analyzed=self.files_analyzed,
            page=str(entry_path),
            trees=dict(self.trees),
            known_functions=frozenset(self.functions),
            audit_trail=self.audit,
            dep_files=frozenset(self.dep_files),
            layout_sensitive=self.layout_sensitive,
        )

    def _parse(self, path: Path) -> ast.File | None:
        # every file we so much as try to read is a dependency of this
        # page — parse failures included (the failure is reported)
        self.dep_files.add(str(path))
        with TIMELINE.phase("parse", file=str(path)):
            if path in self._parse_cache:
                PERF.incr("parse.memory_hits")
                TIMELINE.annotate("cache", "memory")
                tree, error = self._parse_cache[path]
            else:
                tree, error = self._parse_uncached(path)
                self._parse_cache[path] = (tree, error)
        # per-page bookkeeping happens on cache hits too: this page's
        # include closure (and its parse failures) must be complete for
        # the soundness audit, regardless of which page parsed first
        key = str(path)
        if tree is not None:
            if key not in self.trees:
                self.trees[key] = tree
                self.files_analyzed.append(key)
        elif error is not None and error not in self.parse_errors:
            self.parse_errors.append(error)
        return tree

    def _parse_uncached(self, path: Path) -> tuple[ast.File | None, str | None]:
        """Read + parse one file, consulting the on-disk AST cache."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            PERF.incr("parse.files")
            return None, str(exc)
        if self.disk_cache is not None:
            ast_key = DiskCache.ast_key(data, str(path))
            entry = self.disk_cache.load("ast", ast_key)
            # a readable pickle of anything but a (tree, error) pair is
            # as damaged as a truncated one: re-parse and overwrite it
            if (
                type(entry) is tuple
                and len(entry) == 2
                and isinstance(entry[0], (ast.File, type(None)))
                and isinstance(entry[1], (str, type(None)))
            ):
                TIMELINE.annotate("cache", "disk")
                return entry
        TIMELINE.annotate("cache", "miss")
        try:
            with PERF.timer("parse"):
                source = data.decode("utf-8")
                tree, error = parse(source, str(path)), None
        except (PhpParseError, ValueError) as exc:
            tree, error = None, str(exc)
        PERF.incr("parse.files")
        if self.disk_cache is not None:
            self.disk_cache.store("ast", ast_key, (tree, error))
        return tree, error

    def _interpret_file(self, tree: ast.File, env: Env) -> None:
        previous = self.current_file
        self.current_file = tree.path
        self._include_stack.append(tree.path)
        try:
            self._collect_definitions(tree)
            self._exec_block(tree.body, env)
        except _Terminated:
            pass
        finally:
            self._include_stack.pop()
            self.current_file = previous

    def _collect_definitions(self, tree: ast.File) -> None:
        for stmt in tree.facts().definitions:
            if isinstance(stmt, ast.FunctionDef):
                self.functions.setdefault(stmt.name.lower(), stmt)
            else:
                self.classes.setdefault(stmt.name, stmt)

    # -- statements ------------------------------------------------------------------

    def _exec_block(self, block: ast.Block, env: Env) -> None:
        for stmt in block.statements:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.Stmt, env: Env) -> None:
        if stmt.line:
            # provenance context: origin events minted while this
            # statement is interpreted carry its site
            self.builder.site = (self.current_file, stmt.line)
            if self.audit is not None:
                self.audit.location = (self.current_file, stmt.line)
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is not None:
            method(stmt, env)

    def _exec_Block(self, stmt: ast.Block, env: Env) -> None:
        self._exec_block(stmt, env)

    def _exec_ExprStmt(self, stmt: ast.ExprStmt, env: Env) -> None:
        self.eval(stmt.expr, env)
        if isinstance(stmt.expr, ast.Call) and stmt.expr.name == "exit":
            raise _Terminated()

    def _exec_Echo(self, stmt: ast.Echo, env: Env) -> None:
        kinds = self._construct_sinks.get("echo", ())
        for value in stmt.values:
            result = self.eval(value, env)
            for kind in kinds:
                self.hotspots.append(
                    Hotspot(
                        file=self.current_file,
                        line=stmt.line,
                        query=self.builder.to_str(result),
                        sink="echo",
                        kind=kind,
                    )
                )

    def _exec_InlineHtml(self, stmt: ast.InlineHtml, env: Env) -> None:
        pass

    def _exec_If(self, stmt: ast.If, env: Env) -> None:
        branches: list[tuple[ast.Expr | None, ast.Block]] = [(stmt.condition, stmt.then)]
        branches.extend(stmt.elifs)
        surviving: list[Env] = []
        current_neg = env
        for index, (condition, body) in enumerate(branches):
            branch_env = current_neg.copy()
            if condition is not None:
                self._refine_condition(condition, branch_env, positive=True)
            try:
                self._exec_block(body, branch_env)
                surviving.append(branch_env)
            except _Terminated:
                pass  # exit/return: this branch contributes nothing downstream
            next_neg = current_neg.copy()
            if condition is not None:
                self._refine_condition(condition, next_neg, positive=False)
            current_neg = next_neg
        if stmt.orelse is not None:
            else_env = current_neg
            try:
                self._exec_block(stmt.orelse, else_env)
                surviving.append(else_env)
            except _Terminated:
                pass
        else:
            surviving.append(current_neg)
        if not surviving:
            raise _Terminated()
        merged = self._merge_envs(surviving)
        env.variables = merged.variables

    def _exec_While(self, stmt: ast.While, env: Env) -> None:
        self.eval(stmt.condition, env)
        self._exec_loop(stmt.body, env, condition=stmt.condition)

    def _exec_DoWhile(self, stmt: ast.DoWhile, env: Env) -> None:
        self._exec_loop(stmt.body, env, condition=stmt.condition)

    def _exec_For(self, stmt: ast.For, env: Env) -> None:
        for expr in stmt.init:
            self.eval(expr, env)
        if stmt.condition is not None:
            self.eval(stmt.condition, env)
        body = ast.Block(
            statements=list(stmt.body.statements)
            + [ast.ExprStmt(expr=e, line=stmt.line) for e in stmt.step],
            line=stmt.body.line,
        )
        self._exec_loop(body, env, condition=stmt.condition)

    def _exec_Foreach(self, stmt: ast.Foreach, env: Env) -> None:
        subject = self.eval(stmt.subject, env)
        if isinstance(subject, ArrVal):
            element_values = subject.all_values()
            element = (
                self._join_values(element_values)
                if element_values
                else self.builder.literal("")
            )
            keys = [self.builder.literal(k) for k in subject.elements]
            key_value: Value = (
                self.builder.join(keys, "keys")
                if keys and subject.default is None
                else self.builder.any_string(hint="key")
            )
        else:
            element = self.builder.any_string(hint="elem")
            self.builder.taint_through(element, [subject], "foreach")
            key_value = self.builder.any_string(hint="key")
        if stmt.key_var is not None:
            self._assign_to(stmt.key_var, key_value, env)
        self._assign_to(stmt.value_var, element, env)
        self._exec_loop(stmt.body, env, condition=None)

    def _exec_loop(
        self, body: ast.Block, env: Env, condition: ast.Expr | None
    ) -> None:
        """Loop fixed point: header φ nonterminals with back-edge
        productions (the natural cyclic-grammar encoding)."""
        assigned = self._assigned_variables(body)
        headers: dict[str, Nonterminal] = {}
        for name in assigned:
            current = env.get(name)
            header = self.builder.fresh(f"loop.{name}")
            if isinstance(current, StrVal):
                self.builder.grammar.add(header, (current.nt,))
            elif current is None:
                self.builder.grammar.add(header, ())
            else:
                # arrays/objects flow through loops without φ (coarse)
                continue
            headers[name] = header
            env.set(name, StrVal(header))
        body_env = env.copy()
        if condition is not None:
            self._refine_condition(condition, body_env, positive=True)
        try:
            self._exec_block(body, body_env)
        except _Terminated:
            pass
        for name, header in headers.items():
            result = body_env.get(name)
            if isinstance(result, StrVal) and result.nt is not header:
                self.builder.grammar.add(header, (result.nt,))
        for name in assigned:
            if name not in headers and body_env.get(name) is not None:
                merged = self._join_values(
                    [v for v in (env.get(name), body_env.get(name)) if v is not None]
                )
                env.set(name, merged)

    def _assigned_variables(self, body: ast.Block) -> list[str]:
        names: list[str] = []
        for node in ast.walk(body):
            if isinstance(node, ast.Assign):
                target = node.target
                while isinstance(target, (ast.ArrayDim, ast.Prop)):
                    target = target.base
                if isinstance(target, ast.Var) and target.name not in names:
                    names.append(target.name)
            elif isinstance(node, ast.Foreach):
                for var in (node.key_var, node.value_var):
                    if isinstance(var, ast.Var) and var.name not in names:
                        names.append(var.name)
        return names

    def _exec_Switch(self, stmt: ast.Switch, env: Env) -> None:
        self.eval(stmt.subject, env)
        surviving: list[Env] = []
        has_default = any(label is None for label, _ in stmt.cases)
        for index in range(len(stmt.cases)):
            case_env = env.copy()
            label = stmt.cases[index][0]
            if label is not None and isinstance(stmt.subject, ast.Var):
                self._refine_equality(stmt.subject, label, case_env, positive=True)
            try:
                # fallthrough: execute from this case until Break
                for _, case_block in stmt.cases[index:]:
                    done = self._exec_until_break(case_block, case_env)
                    if done:
                        break
                surviving.append(case_env)
            except _Terminated:
                pass
        if not has_default:
            surviving.append(env.copy())
        if not surviving:
            raise _Terminated()
        env.variables = self._merge_envs(surviving).variables

    def _exec_until_break(self, block: ast.Block, env: Env) -> bool:
        for stmt in block.statements:
            if isinstance(stmt, ast.Break):
                return True
            self._exec(stmt, env)
        return False

    def _exec_Break(self, stmt: ast.Break, env: Env) -> None:
        pass  # loop bodies are interpreted once; break is a no-op join

    def _exec_Continue(self, stmt: ast.Continue, env: Env) -> None:
        pass

    def _exec_Return(self, stmt: ast.Return, env: Env) -> None:
        value = self.eval(stmt.value, env) if stmt.value is not None else None
        if self._return_collectors:
            if value is not None:
                self._return_collectors[-1].append(value)
            raise _Terminated(value, kind="return")
        raise _Terminated()  # top-level return ends the page

    def _exec_GlobalDecl(self, stmt: ast.GlobalDecl, env: Env) -> None:
        for name in stmt.names:
            value = self.globals.get(name)
            if value is None:
                value = self.builder.any_string(hint=f"global.{name}")
                self.globals.set(name, value)
            env.set(name, value)

    def _exec_Include(self, stmt: ast.Include, env: Env) -> None:
        with TIMELINE.phase("include", file=self.current_file, line=stmt.line):
            path_value = self.builder.to_str(self.eval(stmt.path, env))
            include_kinds = self._construct_sinks.get("include", ())
            if include_kinds:
                sink = ("require" if stmt.required else "include") + (
                    "_once" if stmt.once else ""
                )
                for kind in include_kinds:
                    self.hotspots.append(
                        Hotspot(
                            file=self.current_file,
                            line=stmt.line,
                            query=path_value,
                            sink=sink,
                            kind=kind,
                        )
                    )
            current_dir = Path(self.current_file).parent if self.current_file else self.project_root
            files = self.resolver.resolve(
                self.builder.grammar,
                self.builder.force(path_value).nt,
                current_dir,
                audit=self.audit,
                site=(self.current_file, stmt.line),
                literal=isinstance(stmt.path, ast.Literal),
                deps=self.dep_files,
            )
            # a dynamic include's resolution — and a failed one's — is a
            # function of the project layout itself, not just of the
            # resolved files' contents: adding/removing files can change it
            if not isinstance(stmt.path, ast.Literal) or not files:
                self.layout_sensitive = True
            TIMELINE.annotate("resolved", len(files))
            log.debug(
                "include at %s:%s resolved to %d file(s)",
                self.current_file, stmt.line, len(files),
            )
            pending = []
            for file in files:
                if stmt.once and file in self._included_once:
                    continue
                self._included_once.add(file)
                tree = self._parse(file)
                if tree is not None and tree.path not in self._include_stack:
                    pending.append(tree)
            if not pending:
                return
            if len(pending) == 1:
                self._interpret_file(pending[0], env)
                return
            # several candidate files: each is an *alternative* execution
            branch_envs = []
            for tree in pending:
                branch = env.copy()
                self._interpret_file(tree, branch)
                branch_envs.append(branch)
            env.variables = self._merge_envs(branch_envs).variables

    def _exec_FunctionDef(self, stmt: ast.FunctionDef, env: Env) -> None:
        self.functions.setdefault(stmt.name.lower(), stmt)

    def _exec_ClassDef(self, stmt: ast.ClassDef, env: Env) -> None:
        self.classes.setdefault(stmt.name, stmt)

    # -- joins -----------------------------------------------------------------------

    def _merge_envs(self, envs: list[Env]) -> Env:
        if len(envs) == 1:
            return envs[0]
        merged = Env()
        names = {name for env in envs for name in env.variables}
        for name in names:
            values = [env.get(name) for env in envs]
            present = [v for v in values if v is not None]
            if len(present) < len(values):
                # undefined on some path: PHP yields "" there
                present.append(self.builder.literal(""))
            merged.set(name, self._join_values(present))
        return merged

    def _join_values(self, values: list[Value]) -> Value:
        if len(values) == 1:
            return values[0]
        if all(isinstance(v, ArrVal) for v in values):
            keys = set()
            for v in values:
                keys |= set(v.elements)
            elements = {}
            for key in keys:
                slot = [v.elements.get(key) or v.default for v in values]
                elements[key] = self._join_values([s for s in slot if s is not None])
            defaults = [v.default for v in values if v.default is not None]
            default = self._join_values(defaults) if defaults else None
            return ArrVal(elements=elements, default=default)
        if all(isinstance(v, ObjVal) for v in values):
            return values[0]
        return self.builder.join([self.builder.to_str(v) for v in values])

    # -- condition refinement (§3.1.2) --------------------------------------------------

    def _refine_condition(self, condition: ast.Expr, env: Env, positive: bool) -> None:
        self.eval(condition, env.copy())  # surface nested hotspots/effects
        self._refine(condition, env, positive)

    def _refine(self, condition: ast.Expr, env: Env, positive: bool) -> None:
        if isinstance(condition, ast.UnaryOp) and condition.op == "!":
            self._refine(condition.operand, env, not positive)
            return
        if isinstance(condition, ast.Suppress):
            self._refine(condition.operand, env, positive)
            return
        if isinstance(condition, ast.BinOp):
            if condition.op == "&&" and positive:
                self._refine(condition.left, env, True)
                self._refine(condition.right, env, True)
                return
            if condition.op == "||" and not positive:
                self._refine(condition.left, env, False)
                self._refine(condition.right, env, False)
                return
            if condition.op in ("==", "===") :
                self._refine_equality(condition.left, condition.right, env, positive)
                self._refine_equality(condition.right, condition.left, env, positive)
                return
            if condition.op in ("!=", "!==", "<>"):
                self._refine_equality(condition.left, condition.right, env, not positive)
                self._refine_equality(condition.right, condition.left, env, not positive)
                return
        if isinstance(condition, ast.Call):
            predicate = builtins.predicate_language(condition)
            if predicate is not None:
                subject_node, language = predicate
                self._refine_to_language(subject_node, language, env, positive)
                return
            wrapped = self._user_predicate(condition)
            if wrapped is not None:
                subject_node, language, negated = wrapped
                self._refine_to_language(
                    subject_node, language, env, positive != negated
                )
            return
        if isinstance(condition, ast.Assign):
            # while ($row = fetch(...)) — evaluate for effect
            self.eval(condition, env)
            return

    def _user_predicate(
        self, call: ast.Call
    ) -> tuple[ast.Expr, object, bool] | None:
        """Resolve predicate *wrapper* functions interprocedurally.

        A user function whose body is a single ``return preg_match(...)``
        (possibly negated) applied to one of its parameters acts as a
        predicate on the corresponding call argument — the common
        ``function check_id($v) { return preg_match('/^\\d+$/', $v); }``
        idiom.  Returns ``(argument_node, language, negated)``.
        """
        definition = self.functions.get(call.name)
        if definition is None:
            return None
        statements = [
            stmt
            for stmt in definition.body.statements
            if not isinstance(stmt, ast.InlineHtml)
        ]
        if len(statements) != 1 or not isinstance(statements[0], ast.Return):
            return None
        inner = statements[0].value
        negated = False
        while isinstance(inner, ast.UnaryOp) and inner.op == "!":
            inner = inner.operand
            negated = not negated
        if not isinstance(inner, ast.Call):
            return None
        predicate = builtins.predicate_language(inner)
        if predicate is None:
            return None
        subject_node, language = predicate
        if not isinstance(subject_node, ast.Var):
            return None
        for index, param in enumerate(definition.params):
            if param.name == subject_node.name:
                if index < len(call.args):
                    return call.args[index], language, negated
                return None
        return None

    def _refine_equality(
        self, subject: ast.Expr, other: ast.Expr, env: Env, positive: bool
    ) -> None:
        if not isinstance(subject, ast.Var):
            return
        if not isinstance(other, ast.Literal):
            return
        if isinstance(other.value, bool) or other.value is None:
            return  # boolean/null comparisons need type reasoning (§5.2!)
        text = (
            other.value
            if isinstance(other.value, str)
            else builtins._php_number_str(other.value)
        )
        if positive:
            env.set(subject.name, self.builder.literal(text))
        else:
            current = env.get(subject.name)
            if isinstance(current, StrVal):
                complement = NFA.from_string(text).determinize().complement()
                env.set(subject.name, self.builder.refine(current, complement, "≠"))

    def _refine_to_language(
        self,
        subject_node: ast.Expr,
        language: Pattern | NFA,
        env: Env,
        positive: bool,
    ) -> None:
        if not isinstance(subject_node, ast.Var):
            return
        current = env.get(subject_node.name)
        if not isinstance(current, StrVal):
            return
        if isinstance(language, Pattern):
            refined = self.builder.refine_regex(current, language, positive)
        else:
            dfa = language.determinize()
            if not positive:
                dfa = dfa.complement()
            refined = self.builder.refine(current, dfa, "set∩")
        env.set(subject_node.name, refined)

    # -- expressions ----------------------------------------------------------------------

    def eval(self, expr: ast.Expr | None, env: Env) -> Value:
        if expr is None:
            return self.builder.literal("")
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            return self.builder.any_string(hint=type(expr).__name__)
        return method(expr, env)

    def _eval_Literal(self, expr: ast.Literal, env: Env) -> Value:
        value = expr.value
        if isinstance(value, str):
            return self.builder.literal(value)
        if isinstance(value, bool):
            return self.builder.literal("1" if value else "")
        if value is None:
            return self.builder.literal("")
        return self.builder.literal(builtins._php_number_str(value))

    def _eval_Var(self, expr: ast.Var, env: Env) -> Value:
        label = sources.superglobal_label(expr.name)
        if label is None:
            # YAML-declared extra taint sources (--policy-config sources:)
            label = self._extra_sources.get(expr.name)
        if label is not None:
            origin = {}
            if expr.span is not None:
                origin["span"] = list(expr.span)
            return ArrVal(
                default=self.builder.any_string(label, hint=expr.name, **origin)
            )
        value = env.get(expr.name)
        if value is None:
            return self.builder.literal("")
        return value

    def _eval_ArrayDim(self, expr: ast.ArrayDim, env: Env) -> Value:
        # superglobal reads like $_GET['id'] mint their taint source while
        # evaluating the base: hand the birth event the full expression's
        # byte span and the literal key, so remediation can both splice a
        # patch and rebuild a witness input vector
        extra: dict | None = None
        if isinstance(expr.base, ast.Var):
            extra = {}
            if expr.span is not None:
                extra["span"] = list(expr.span)
            if isinstance(expr.index, ast.Literal) and isinstance(
                expr.index.value, (str, int)
            ):
                extra["key"] = str(expr.index.value)
            self.builder.source_extra = extra
        try:
            base = self.eval(expr.base, env)
        finally:
            if extra is not None:
                self.builder.source_extra = None
        key = self._static_key(expr.index, env)
        if isinstance(base, ArrVal):
            value = base.get(key)
            if value is not None:
                return value
            return self.builder.literal("")
        if isinstance(base, StrVal):
            # $s[0]: one character of the string
            char_value = self.builder.charset_star(
                self.builder.grammar.charset_closure(base.nt), "char"
            )
            return self.builder.taint_through(char_value, [base], "str-index")
        return self.builder.literal("")

    def _static_key(self, index: ast.Expr | None, env: Env) -> str | None:
        if isinstance(index, ast.Literal):
            if isinstance(index.value, str):
                return index.value
            if isinstance(index.value, (int, float)):
                return builtins._php_number_str(index.value)
        return None

    def _eval_Prop(self, expr: ast.Prop, env: Env) -> Value:
        base = self.eval(expr.base, env)
        if isinstance(base, ObjVal):
            value = base.props.get(expr.name)
            if value is not None:
                return value
        return self.builder.any_string(hint=f"prop.{expr.name}")

    def _eval_Interp(self, expr: ast.Interp, env: Env) -> Value:
        parts = [self.builder.to_str(self.eval(part, env)) for part in expr.parts]
        return self.builder.concat_all(parts)

    def _eval_BinOp(self, expr: ast.BinOp, env: Env) -> Value:
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if expr.op == ".":
            return self.builder.concat(
                self.builder.to_str(left), self.builder.to_str(right)
            )
        if expr.op in ("+", "-", "*", "/", "%", "<<", ">>"):
            return builtins.regular_result(
                self.builder, r"-?[0-9]+(\.[0-9]+)?", "arith"
            )
        # comparisons and logic: boolean
        return self._boolean_value()

    def _boolean_value(self) -> StrVal:
        return self.builder.join(
            [self.builder.literal(""), self.builder.literal("1")], "bool"
        )

    def _eval_UnaryOp(self, expr: ast.UnaryOp, env: Env) -> Value:
        self.eval(expr.operand, env)
        if expr.op == "-":
            return builtins.regular_result(self.builder, r"-?[0-9]+(\.[0-9]+)?", "neg")
        return self._boolean_value()

    def _eval_Suppress(self, expr: ast.Suppress, env: Env) -> Value:
        return self.eval(expr.operand, env)

    def _eval_Cast(self, expr: ast.Cast, env: Env) -> Value:
        operand = self.eval(expr.operand, env)
        if expr.kind in ("int", "float"):
            return builtins.regular_result(
                self.builder, r"-?[0-9]+(\.[0-9]+)?", f"cast{expr.kind}"
            )
        if expr.kind == "bool":
            return self._boolean_value()
        if expr.kind == "string":
            return self.builder.to_str(operand)
        if expr.kind == "array":
            if isinstance(operand, ArrVal):
                return operand
            return ArrVal(default=self.builder.to_str(operand))
        return operand

    def _eval_Assign(self, expr: ast.Assign, env: Env) -> Value:
        value = self.eval(expr.value, env)
        if expr.op == ".=":
            current = self.builder.to_str(self._read_target(expr.target, env))
            value = self.builder.concat(current, self.builder.to_str(value))
        elif expr.op != "=":
            value = builtins.regular_result(
                self.builder, r"-?[0-9]+(\.[0-9]+)?", "compound"
            )
        self._assign_to(expr.target, value, env)
        return value

    def _read_target(self, target: ast.Expr, env: Env) -> Value:
        return self.eval(target, env)

    def _assign_to(self, target: ast.Expr, value: Value, env: Env) -> None:
        if isinstance(target, ast.Var):
            env.set(target.name, value)
            if env is not self.globals and self.globals.get(target.name) is env.get(
                target.name
            ):
                pass
            return
        if isinstance(target, ast.ArrayDim) and isinstance(target.base, ast.Var):
            base = env.get(target.base.name)
            if not isinstance(base, ArrVal):
                base = ArrVal()
            else:
                base = ArrVal(elements=dict(base.elements), default=base.default)
            key = self._static_key(target.index, env)
            if key is None:
                joined_parts = [v for v in (base.default, value) if v is not None]
                base.default = self._join_values(joined_parts)
            else:
                base.elements[key] = value
            env.set(target.base.name, base)
            return
        if isinstance(target, ast.Prop) and isinstance(target.base, ast.Var):
            obj = env.get(target.base.name)
            if isinstance(obj, ObjVal):
                obj.props[target.name] = value
            return
        # other targets (nested dims on props, …): drop the write (sound for
        # reads, which default to Σ*)

    def _eval_Ternary(self, expr: ast.Ternary, env: Env) -> Value:
        then_env = env.copy()
        else_env = env.copy()
        self._refine(expr.condition, then_env, True)
        self._refine(expr.condition, else_env, False)
        condition_value = self.eval(expr.condition, env.copy())
        if expr.if_true is None:
            true_value: Value = condition_value
        else:
            true_value = self.eval(expr.if_true, then_env)
        false_value = self.eval(expr.if_false, else_env)
        merged = self._merge_envs([then_env, else_env])
        env.variables = merged.variables
        return self._join_values([true_value, false_value])

    def _eval_IssetExpr(self, expr: ast.IssetExpr, env: Env) -> Value:
        return self._boolean_value()

    def _eval_EmptyExpr(self, expr: ast.EmptyExpr, env: Env) -> Value:
        self.eval(expr.target, env)
        return self._boolean_value()

    def _eval_ArrayLit(self, expr: ast.ArrayLit, env: Env) -> Value:
        result = ArrVal()
        auto_index = 0
        for key_node, value_node in expr.items:
            value = self.eval(value_node, env)
            if key_node is None:
                key: str | None = str(auto_index)
                auto_index += 1
            else:
                key = self._static_key(key_node, env)
            if key is None:
                parts = [v for v in (result.default, value) if v is not None]
                result.default = self._join_values(parts)
            else:
                result.elements[key] = value
        return result

    def _eval_VarVar(self, expr: ast.VarVar, env: Env) -> Value:
        # which variable this reads is unknown: Σ* (the audit flags the
        # site as escaped — a *write* through $$x is invisible to us)
        self.eval(expr.name_expr, env)
        return self.builder.any_string(hint="varvar")

    def _eval_DynCall(self, expr: ast.DynCall, env: Env) -> Value:
        # callee unknown: Σ* carrying the arguments' taint, like any
        # unmodeled call (the audit flags the site as escaped)
        self.eval(expr.target, env)
        arg_values = [self.eval(arg, env) for arg in expr.args]
        result = self.builder.any_string(hint="dyncall")
        return self.builder.taint_through(result, arg_values, "dyncall")

    def _eval_ConstFetch(self, expr: ast.ConstFetch, env: Env) -> Value:
        if expr.name in self.constants:
            return self.constants[expr.name]
        # PHP's fallback for an undefined constant is its own name
        return self.builder.literal(expr.name)

    def _eval_New(self, expr: ast.New, env: Env) -> Value:
        for arg in expr.args:
            self.eval(arg, env)
        obj = ObjVal(class_name=expr.class_name)
        class_def = self.classes.get(expr.class_name)
        if class_def is not None:
            for prop_name, default in class_def.properties:
                obj.props[prop_name] = (
                    self.eval(default, env) if default is not None else self.builder.literal("")
                )
            constructor = self._find_method(class_def, expr.class_name) or self._find_method(
                class_def, "__construct"
            )
            if constructor is not None:
                self._call_function(constructor, expr.args, env, this=obj)
        return obj

    def _find_method(self, class_def: ast.ClassDef, name: str) -> ast.FunctionDef | None:
        for method in class_def.methods:
            if method.name.lower() == name.lower():
                return method
        parent = self.classes.get(class_def.parent) if class_def.parent else None
        if parent is not None:
            return self._find_method(parent, name)
        return None

    # -- calls ---------------------------------------------------------------------------

    def _eval_Call(self, expr: ast.Call, env: Env) -> Value:
        name = expr.name
        if name == "exit":
            for arg in expr.args:
                self.eval(arg, env)
            return self.builder.literal("")
        if name in ("include", "include_once", "require", "require_once"):
            # include in expression position ($ok = include $page;):
            # same semantics as the statement form — the included file
            # must be analyzed, not treated as an unknown call
            self._exec_Include(
                ast.Include(
                    path=expr.args[0] if expr.args else None,
                    once=name.endswith("_once"),
                    required=name.startswith("require"),
                    line=expr.line,
                ),
                env,
            )
            return self.builder.literal("1")
        arg_values = [self.eval(arg, env) for arg in expr.args]

        if name == "define" and len(expr.args) >= 2:
            constant_name = builtins.literal_str(expr.args[0])
            if constant_name is not None:
                self.constants[constant_name] = arg_values[1]
            return self.builder.literal("1")
        if name == "constant" and expr.args:
            constant_name = builtins.literal_str(expr.args[0])
            if constant_name is not None and constant_name in self.constants:
                return self.constants[constant_name]
            return self.builder.any_string(hint="constant")
        if name == "defined" and expr.args:
            return self._boolean_value()

        # sinks
        sink_index = sources.query_argument_index(name)
        if sink_index is not None:
            self._record_hotspot(expr, arg_values, sink_index, name)
            return self.builder.literal("")

        # policy-declared sinks (shell/eval/path/…, --policy-config):
        # record a hotspot per claiming policy, then *fall through* — the
        # call's value still follows the builtin model when one exists
        # (file_get_contents etc.), or the tainted-Σ* fallthrough below.
        extra_sinks = self._extra_function_sinks.get(name)
        if extra_sinks is not None:
            for kind, index in extra_sinks:
                self._record_hotspot(expr, arg_values, index, name, kind=kind)

        # preg_replace with a literal /e-modifier pattern evaluates its
        # replacement argument as PHP code (removed in PHP 7, a classic
        # dynamic-code sink) — the eval policy claims the replacement
        if (
            self._preg_eval_kinds
            and name == "preg_replace"
            and len(arg_values) >= 2
            and expr.args
        ):
            pattern = builtins.literal_str(expr.args[0])
            if pattern is not None and _has_eval_modifier(pattern):
                for kind in self._preg_eval_kinds:
                    self._record_hotspot(
                        expr, arg_values, 1, "preg_replace/e", kind=kind
                    )
                # fall through: the value result still follows the normal
                # preg_replace model

        # indirect sources
        fetch_shape = sources.is_fetch_function(name)
        if fetch_shape is not None:
            return self._fetch_result(fetch_shape)

        # user-defined functions
        user = self.functions.get(name)
        if user is not None:
            return self._call_function(user, expr.args, env, arg_values=arg_values)

        # builtin models; the audit call-context pins widenings that
        # happen inside a handler to this call site, and the builder's
        # call_name names the sanitizer in provenance events
        if self.audit is not None:
            self.audit.call_context = (name, self.current_file, expr.line)
        self.builder.call_name = name
        try:
            modeled = builtins.model_call(
                name, self.builder, arg_values, expr.args, audit=self.audit
            )
        finally:
            self.builder.call_name = None
            if self.audit is not None:
                self.audit.call_context = None
        if modeled is not None:
            return modeled

        # unknown: Σ* carrying the arguments' taint (sound flow-through)
        if (
            self.audit is not None
            and name not in builtins.PREDICATE_FUNCTIONS
            and extra_sinks is None
        ):
            # predicates have no string result to model — the refinement
            # machinery (not this fallthrough) is their model; a declared
            # policy sink is not an unknown-call soundness hole either —
            # the policy's check is its model
            self.audit.record_unknown_call(name, self.current_file, expr.line)
        result = self.builder.any_string(hint=f"call.{name}")
        return self.builder.taint_through(result, arg_values, f"call.{name}")

    def _eval_MethodCall(self, expr: ast.MethodCall, env: Env) -> Value:
        obj = self.eval(expr.obj, env)
        arg_values = [self.eval(arg, env) for arg in expr.args]
        if sources.is_query_method(expr.name):
            self._record_hotspot(expr, arg_values, 0, f"->{expr.name}")
            return self.builder.literal("")
        if sources.is_fetch_method(expr.name):
            return self._fetch_result("array")
        if isinstance(obj, ObjVal):
            class_def = self.classes.get(obj.class_name)
            if class_def is not None:
                method = self._find_method(class_def, expr.name)
                if method is not None:
                    return self._call_function(
                        method, expr.args, env, arg_values=arg_values, this=obj
                    )
        result = self.builder.any_string(hint=f"method.{expr.name}")
        return self.builder.taint_through(
            result, arg_values, f"method.{expr.name}"
        )

    def _eval_StaticCall(self, expr: ast.StaticCall, env: Env) -> Value:
        arg_values = [self.eval(arg, env) for arg in expr.args]
        class_def = self.classes.get(expr.class_name)
        if class_def is not None:
            method = self._find_method(class_def, expr.name)
            if method is not None:
                return self._call_function(method, expr.args, env, arg_values=arg_values)
        return self.builder.any_string(hint=f"static.{expr.name}")

    def _fetch_result(self, shape: str) -> Value:
        scalar = self.builder.any_string(INDIRECT, hint="db")
        if shape == "array":
            return ArrVal(default=scalar)
        if shape == "object":
            # property reads fall back to Σ*; make them INDIRECT via default
            return ArrVal(default=scalar)
        return scalar

    def _call_function(
        self,
        definition: ast.FunctionDef,
        arg_nodes: list[ast.Expr],
        caller_env: Env,
        arg_values: list[Value] | None = None,
        this: ObjVal | None = None,
    ) -> Value:
        if (
            definition.name.lower() in self._call_stack
            or len(self._call_stack) >= MAX_CALL_DEPTH
        ):
            if self.audit is not None:
                file, line = self.audit.location
                self.audit.record_recursion(definition.name, file, line)
            result = self.builder.any_string(hint=f"rec.{definition.name}")
            values = arg_values or [self.eval(a, caller_env) for a in arg_nodes]
            return self.builder.taint_through(
                result, values, f"rec.{definition.name}"
            )
        if arg_values is None:
            arg_values = [self.eval(arg, caller_env) for arg in arg_nodes]
        local = Env()
        if this is not None:
            local.set("this", this)
        for index, param in enumerate(definition.params):
            if index < len(arg_values):
                local.set(param.name, arg_values[index])
            elif param.default is not None:
                local.set(param.name, self.eval(param.default, caller_env))
            else:
                local.set(param.name, self.builder.literal(""))
        self._call_stack.append(definition.name.lower())
        returns: list[Value] = []
        self._return_collectors.append(returns)
        try:
            self._exec_block(definition.body, local)
        except _Terminated as term:
            if term.kind != "return":
                raise  # exit() inside a function ends the page
        finally:
            self._return_collectors.pop()
            self._call_stack.pop()
        if not returns:
            return self.builder.literal("")
        return self._join_values(returns)

    def _record_hotspot(
        self,
        call: ast.Expr,
        arg_values: list[Value],
        sink_index: int,
        sink_name: str,
        kind: str = "sql",
    ) -> None:
        if sink_index >= len(arg_values):
            return
        query = self.builder.to_str(arg_values[sink_index])
        log.debug(
            "hotspot %s at %s:%s", sink_name, self.current_file, call.line
        )
        self.hotspots.append(
            Hotspot(
                file=self.current_file,
                line=call.line,
                query=query,
                sink=sink_name,
                kind=kind,
            )
        )

