"""Context-sensitive XSS policy (DESIGN §5g).

Where the context-blind ``xss`` policy applies one ``<>"'`` automaton
everywhere, this policy first *classifies* where each untrusted
nonterminal lands in the page's trusted HTML skeleton, then applies a
per-context inertness automaton:

1. Build the hotspot's context grammar (the paper's ``R_t``
   construction, shared with check C2): the labeled nonterminal becomes
   the reserved MARKER terminal, other untrusted pieces become NEUTRAL.
2. Enumerate the context language exhaustively under a bound
   (:func:`enumerate_skeletons`).  The skeleton of real pages is the
   finite set of trusted templates around the dynamic data, so the
   enumeration usually completes; when it cannot (unbounded or
   oversized skeleton, or a character-class symbol from widened trusted
   data), classification falls back to the ``unknown`` context.
3. Run an HTML lexer over each enumerated skeleton and record the
   lexical context of every MARKER occurrence: HTML body, single- or
   double-quoted attribute value, URL-valued attribute, unquoted
   attribute, or script (JS) block.
4. Check the labeled nonterminal's language against each observed
   context's danger automaton.  ``unknown`` uses the strictest check
   (any non-alphanumeric-ish character), so ambiguity only ever *adds*
   findings — the conservative direction (soundness argument in
   DESIGN §5g).

The acceptance example: ``htmlspecialchars($_GET['x'])`` (default
flags) is SAFE in HTML-body context (``<`` is encoded), a VIOLATION in
a single-quoted attribute (``'`` passes through), and a VIOLATION in a
URL attribute (a ``javascript:`` prefix needs no special character at
all) — three different verdicts for the same value on one page.
"""

from __future__ import annotations

from functools import lru_cache

from repro.lang.charset import CharSet
from repro.lang.fsa import DFA, NFA
from repro.lang.grammar import Lit, Nonterminal

from .. import quotes
from ..policy import NEUTRAL, _contexts_grammar
from .base import SinkPolicy, contains_any, not_only

MARKER = quotes.MARKER

#: attributes whose value is a URL — a dangerous-scheme prefix executes
#: without any markup metacharacter
URL_ATTRS = frozenset(
    "href src action formaction background data poster cite".split()
)

#: enumeration bounds for the trusted skeleton (step 2)
MAX_SKELETONS = 64
MAX_SKELETON_LEN = 4096
MAX_STEPS = 20000


@lru_cache(maxsize=1)
def dangerous_url_scheme() -> DFA:
    """Strings that, used as a URL, execute script: an (optionally
    whitespace-prefixed, case-insensitive) ``javascript:``/``vbscript:``/
    ``data:`` scheme prefix."""
    from repro.lang.regex import compile_pattern, parse_regex

    patterns = [
        r"[ \t\r\n]*[jJ][aA][vV][aA][sS][cC][rR][iI][pP][tT]:",
        r"[ \t\r\n]*[vV][bB][sS][cC][rR][iI][pP][tT]:",
        r"[ \t\r\n]*[dD][aA][tT][aA]:",
    ]
    core = NFA.nothing()
    for pattern in patterns:
        core = core.union(compile_pattern(parse_regex(pattern)))
    return core.concat(NFA.any_string()).determinize().minimize()


#: context key → (SARIF rule id, danger automata thunk, description)
def _context_table():
    # the strictest danger language: any character outside a small inert
    # repertoire.  It must *contain* every other context's danger
    # language for the DESIGN §5g fallback argument to hold — hence no
    # space (attr-unq breakout), no ':' or '/' (URL schemes), and none
    # of the markup or JS metacharacters are inert.
    strict = (not_only(r"[a-zA-Z0-9_.,-]*"),)
    return {
        "html-body": (
            "xss-context-body",
            (contains_any("<"),),
            "HTML body: '<' opens an element or script",
        ),
        "attr-dq": (
            "xss-context-attr",
            (contains_any('"<'),),
            'double-quoted attribute: \'"\' breaks out',
        ),
        "attr-sq": (
            "xss-context-attr",
            (contains_any("'<"),),
            "single-quoted attribute: \"'\" breaks out",
        ),
        "attr-unq": (
            "xss-context-attr",
            (contains_any("\"'<> \t\n"),),
            "unquoted attribute: whitespace or a quote breaks out",
        ),
        "url-dq": (
            "xss-context-url",
            (contains_any('"<'), dangerous_url_scheme()),
            "URL attribute: breakout or a script-capable scheme",
        ),
        "url-sq": (
            "xss-context-url",
            (contains_any("'<"), dangerous_url_scheme()),
            "URL attribute: breakout or a script-capable scheme",
        ),
        "url-unq": (
            "xss-context-url",
            (contains_any("\"'<> \t\n"), dangerous_url_scheme()),
            "URL attribute: breakout or a script-capable scheme",
        ),
        "js-block": (
            "xss-context-js",
            strict,
            "script block: any JS metacharacter is live",
        ),
        "unknown": (
            "xss-context-unknown",
            strict,
            "unclassifiable context: strictest check applies",
        ),
    }


def enumerate_skeletons(grammar, root) -> tuple[list[str], bool]:
    """Bounded exhaustive enumeration of a context grammar's language.

    Returns ``(strings, complete)``; ``complete`` is False when any
    bound was hit or a character-class symbol (widened trusted data)
    made exact enumeration impossible — callers must then fall back to
    the ``unknown`` context.  Character-class symbols are replaced by
    NEUTRAL so lexing of the partial skeletons can still proceed.

    Stack entries share structure with the entry they were expanded
    from: the prefix is a ``(text, parent)`` chain plus its length, the
    pending symbols a ``(symbol, tail)`` cons chain.  A push costs the
    new text piece or the new rule's symbols, never a copy of the whole
    prefix or of the pending tail, and a string is built only for a
    finished skeleton (DESIGN §5g).
    """
    results: list[str] = []
    complete = True
    productions = grammar.productions
    stack: list[tuple] = [(None, 0, (root, None))]
    steps = 0
    while stack:
        steps += 1
        if steps > MAX_STEPS or len(results) > MAX_SKELETONS:
            return results, False
        prefix, length, symbols = stack.pop()
        if length > MAX_SKELETON_LEN:
            complete = False
            continue
        if symbols is None:
            results.append(_chain_text(prefix))
            continue
        head, rest = symbols
        if isinstance(head, Lit):
            stack.append(((head.text, prefix), length + len(head.text), rest))
        elif isinstance(head, Nonterminal):
            rules = productions.get(head, ())
            if not rules:
                continue  # severed nonterminal: dead derivation
            for rhs in rules:
                tail = rest
                for symbol in reversed(rhs):
                    tail = (symbol, tail)
                stack.append((prefix, length, tail))
        elif isinstance(head, CharSet):
            complete = False
            stack.append(((NEUTRAL, prefix), length + len(NEUTRAL), rest))
        else:  # pragma: no cover - no other symbol kinds exist
            complete = False
            stack.append((prefix, length, rest))
    return results, complete


def _chain_text(prefix) -> str:
    """The string a ``(text, parent)`` prefix chain spells."""
    parts = []
    while prefix is not None:
        text, prefix = prefix
        parts.append(text)
    parts.reverse()
    return "".join(parts)


def lex_marker_contexts(text: str) -> set[str]:
    """The lexical contexts of every MARKER occurrence in ``text``.

    A linear HTML tokenizer: TEXT / comment / tag-name / in-tag /
    attribute values (double-, single-, un-quoted) / script block.
    NEUTRAL placeholders are treated as benign character data.
    Anything the lexer cannot place lands in ``unknown``.
    """
    contexts: set[str] = set()
    state = "text"
    tag = ""
    attr = ""
    script = False
    i, n = 0, len(text)

    def value_context(quoted: str) -> str:
        base = "url" if attr.lower() in URL_ATTRS else "attr"
        return f"{base}-{quoted}"

    while i < n:
        char = text[i]
        if state == "text":
            if char == MARKER:
                contexts.add("js-block" if script else "html-body")
            elif char == "<":
                if script:
                    if text[i : i + 9].lower().startswith("</script"):
                        script = False
                        state = "tag-name"
                        tag = "/"
                        i += 1  # consume '<'; tag-name collects '/script'
                    # otherwise '<' is ordinary JS source
                elif text.startswith("<!--", i):
                    state = "comment"
                    i += 3
                else:
                    state = "tag-name"
                    tag = ""
        elif state == "comment":
            if char == MARKER:
                contexts.add("unknown")
            elif text.startswith("-->", i):
                state = "text"
                i += 2
        elif state == "tag-name":
            if char == MARKER:
                contexts.add("unknown")
            elif char in " \t\r\n":
                state = "in-tag"
                attr = ""
            elif char == ">":
                state = "text"
                script = tag.lower() == "script"
            else:
                tag += char
        elif state == "in-tag":
            if char == MARKER:
                contexts.add("unknown")
            elif char == ">":
                state = "text"
                script = tag.lower() == "script"
            elif char == "=":
                state = "before-value"
            elif char in " \t\r\n/":
                attr = ""
            else:
                attr += char
        elif state == "before-value":
            if char == '"':
                state = "value-dq"
            elif char == "'":
                state = "value-sq"
            elif char in " \t\r\n":
                pass
            elif char == ">":
                state = "text"
                script = tag.lower() == "script"
            elif char == MARKER:
                contexts.add(value_context("unq"))
                state = "value-unq"
            else:
                state = "value-unq"
                continue  # re-lex char as part of the value
        elif state == "value-dq":
            if char == MARKER:
                contexts.add(value_context("dq"))
            elif char == '"':
                state = "in-tag"
                attr = ""
        elif state == "value-sq":
            if char == MARKER:
                contexts.add(value_context("sq"))
            elif char == "'":
                state = "in-tag"
                attr = ""
        elif state == "value-unq":
            if char == MARKER:
                contexts.add(value_context("unq"))
            elif char == ">":
                state = "text"
                script = tag.lower() == "script"
            elif char in " \t\r\n":
                state = "in-tag"
                attr = ""
        i += 1
    if state != "text":
        # the skeleton ended mid-construct; MARKERs already classified
        # keep their context, but an unterminated state means later
        # markers (none) — nothing extra to do
        pass
    return contexts


def classify_contexts(scope, root, labeled, others) -> set[str]:
    """The set of output contexts ``labeled`` can occur in; falls back
    to {'unknown'} (strictest) when classification is not exact."""
    context_grammar = _contexts_grammar(scope, root, labeled, others)
    skeletons, complete = enumerate_skeletons(context_grammar, root)
    contexts: set[str] = set()
    for skeleton in skeletons:
        if MARKER in skeleton:
            contexts |= lex_marker_contexts(skeleton)
    if not complete or not contexts:
        contexts.add("unknown")
    return contexts


class ContextXssPolicy(SinkPolicy):
    id = "xss-context"
    title = "Cross-site scripting (context-sensitive)"
    functions = {"print": 0}
    constructs = frozenset({"echo"})
    rules = [
        {
            "id": "xss-context-body",
            "name": "XssHtmlBodyContext",
            "shortDescription": {
                "text": "Untrusted data in HTML-body context can emit '<' "
                        "and open an element or script."
            },
            "defaultConfiguration": {"level": "error"},
        },
        {
            "id": "xss-context-attr",
            "name": "XssAttributeContext",
            "shortDescription": {
                "text": "Untrusted data in an attribute value can break "
                        "out of its quoting."
            },
            "defaultConfiguration": {"level": "error"},
        },
        {
            "id": "xss-context-url",
            "name": "XssUrlAttributeContext",
            "shortDescription": {
                "text": "Untrusted data in a URL attribute can break out "
                        "or supply a script-capable scheme "
                        "(javascript:, vbscript:, data:)."
            },
            "defaultConfiguration": {"level": "error"},
        },
        {
            "id": "xss-context-js",
            "name": "XssScriptBlockContext",
            "shortDescription": {
                "text": "Untrusted data inside a script block can carry "
                        "live JavaScript metacharacters."
            },
            "defaultConfiguration": {"level": "error"},
        },
        {
            "id": "xss-context-unknown",
            "name": "XssUnknownContext",
            "shortDescription": {
                "text": "Untrusted data in an unclassifiable output "
                        "context; the strictest inertness check applies "
                        "(conservative fallback, DESIGN §5g)."
            },
            "defaultConfiguration": {"level": "error"},
        },
    ]

    def warm(self) -> None:
        # building the table forces every per-context danger DFA through
        # its lru_cache constructor
        _context_table()

    def check_labeled(self, scope, root, labeled, hotspot, others):
        table = _context_table()
        findings = []
        for context in sorted(classify_contexts(scope, root, labeled, others)):
            check, dangers, description = table[context]
            findings.append(
                self.danger_finding(
                    scope,
                    labeled,
                    hotspot,
                    dangers=dangers,
                    check=check,
                    safe_detail=f"inert in {context} context",
                    unsafe_detail=f"not inert in {context} context — "
                    f"{description}",
                    context=context,
                )
            )
        return findings
