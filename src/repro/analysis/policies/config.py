"""Policy configuration: the ``--policy-config`` YAML schema.

A config names the enabled sink policies and may extend their sink and
source tables declaratively::

    policies: [sql, shell, path]
    sinks:
      shell:
        functions:
          my_exec_wrapper: 0
    sources:
      _ENV: direct

:class:`PolicyConfig` is frozen and tuple-valued so instances hash,
pickle across worker processes, and digest deterministically — the
digest participates in the disk-cache page key, so switching configs
can never replay another config's verdicts.

Configs are read by one in-tree parser for the schema's YAML subset
(:func:`_mini_yaml`), so what a config means never depends on whether
PyYAML is installed, and reading one imports no YAML library.  All
schema violations raise the typed :class:`PolicyConfigError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: taint labels accepted for extra sources
_SOURCE_LABELS = ("direct", "indirect")

_KNOWN_TOP_KEYS = ("policies", "sinks", "sources")


class PolicyConfigError(ValueError):
    """A policy config file failed parsing or schema validation."""


@dataclass(frozen=True)
class PolicyConfig:
    """Which sink policies run, plus declarative sink/source extensions."""

    #: enabled policy ids, normalized to registry order; always holds
    #: ``sql``, whose hotspots the interpreter records under any config
    enabled: tuple[str, ...] = ("sql",)
    #: extra function sinks: ``(policy id, function name, argument index)``
    extra_sinks: tuple[tuple[str, str, int], ...] = ()
    #: extra taint sources: ``(variable name, label)``
    extra_sources: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # ``sql`` leads the registry, so prepending keeps registry order
        if "sql" not in self.enabled:
            object.__setattr__(self, "enabled", ("sql", *self.enabled))

    def digest(self) -> str:
        """Deterministic content digest (disk-cache key component)."""
        blob = json.dumps(
            {
                "enabled": list(self.enabled),
                "sinks": [list(entry) for entry in self.extra_sinks],
                "sources": [list(entry) for entry in self.extra_sources],
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- resolved views consumed by the interpreter / renderers -------------

    def policies(self) -> list:
        """Enabled policy instances, in registry order."""
        from .registry import policy_instance

        return [policy_instance(pid) for pid in self.enabled]

    def policy_for(self, kind: str):
        """The enabled policy owning hotspots of ``kind``."""
        from .registry import policy_instance

        if kind not in self.enabled:
            raise KeyError(f"no enabled policy for sink kind {kind!r}")
        return policy_instance(kind)

    def function_sink_table(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """``name -> ((policy id, argument index), …)`` over enabled
        policies, excluding the classic SQL query functions (those keep
        their dedicated interpreter fast path)."""
        from .sql import SqlPolicy

        table: dict[str, list[tuple[str, int]]] = {}

        def add(name: str, policy_id: str, index: int) -> None:
            entry = (policy_id, index)
            bucket = table.setdefault(name, [])
            if entry not in bucket:
                bucket.append(entry)

        for policy in self.policies():
            if policy.id == SqlPolicy.id:
                continue
            for name, index in sorted(policy.functions.items()):
                add(name, policy.id, index)
        for policy_id, name, index in self.extra_sinks:
            if policy_id in self.enabled and policy_id != SqlPolicy.id:
                add(name, policy_id, index)
        return {name: tuple(entries) for name, entries in table.items()}

    def construct_sink_table(self) -> dict[str, tuple[str, ...]]:
        """``construct -> (policy id, …)`` for echo/include-style sinks."""
        table: dict[str, list[str]] = {}
        for policy in self.policies():
            for construct in sorted(policy.constructs):
                bucket = table.setdefault(construct, [])
                if policy.id not in bucket:
                    bucket.append(policy.id)
        return {construct: tuple(ids) for construct, ids in table.items()}

    def preg_eval_kinds(self) -> tuple[str, ...]:
        """Policies claiming ``preg_replace``'s ``/e`` replacement arg."""
        return tuple(p.id for p in self.policies() if p.claims_preg_eval)


#: the config of every run without ``--policy-config``: SQL confinement
#: only
DEFAULT_CONFIG = PolicyConfig()


def load_policy_config(path: str | Path) -> PolicyConfig:
    """Parse and validate a policy YAML file (typed errors)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PolicyConfigError(f"{path}: {exc}") from exc
    data = parse_policy_yaml(text, source=str(path))
    return config_from_dict(data, source=str(path))


def parse_policy_yaml(text: str, source: str = "<policy-config>"):
    """The document a policy config's text holds (:func:`_mini_yaml`)."""
    return _mini_yaml(text, source)


def config_from_dict(data, source: str = "<policy-config>") -> PolicyConfig:
    """Validate a parsed document into a :class:`PolicyConfig`."""
    from .registry import REGISTRY

    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise PolicyConfigError(f"{source}: top level must be a mapping")
    unknown = sorted(set(data) - set(_KNOWN_TOP_KEYS))
    if unknown:
        raise PolicyConfigError(
            f"{source}: unknown key(s) {unknown}; expected a subset of "
            f"{list(_KNOWN_TOP_KEYS)}"
        )

    raw_policies = data.get("policies", ["sql"])
    if not isinstance(raw_policies, list) or not raw_policies:
        raise PolicyConfigError(
            f"{source}: 'policies' must be a non-empty list of policy ids"
        )
    requested = []
    for pid in raw_policies:
        if not isinstance(pid, str) or pid not in REGISTRY:
            raise PolicyConfigError(
                f"{source}: unknown policy id {pid!r}; known ids: "
                f"{sorted(REGISTRY)}"
            )
        if pid not in requested:
            requested.append(pid)
    enabled = tuple(pid for pid in REGISTRY if pid in requested)

    sinks = data.get("sinks") or {}
    if not isinstance(sinks, dict):
        raise PolicyConfigError(f"{source}: 'sinks' must be a mapping")
    extra_sinks: list[tuple[str, str, int]] = []
    for policy_id in sorted(sinks):
        if policy_id not in REGISTRY:
            raise PolicyConfigError(
                f"{source}: sinks.{policy_id}: unknown policy id; known "
                f"ids: {sorted(REGISTRY)}"
            )
        spec = sinks[policy_id] or {}
        if not isinstance(spec, dict):
            raise PolicyConfigError(
                f"{source}: sinks.{policy_id}: must be a mapping"
            )
        bad_keys = sorted(set(spec) - {"functions"})
        if bad_keys:
            raise PolicyConfigError(
                f"{source}: sinks.{policy_id}: unknown key(s) {bad_keys}; "
                "expected 'functions'"
            )
        functions = spec.get("functions") or {}
        if not isinstance(functions, dict):
            raise PolicyConfigError(
                f"{source}: sinks.{policy_id}.functions: must map function "
                "names to argument indices"
            )
        for name in sorted(functions):
            index = functions[name]
            if not isinstance(name, str) or not name:
                raise PolicyConfigError(
                    f"{source}: sinks.{policy_id}.functions: function names "
                    "must be non-empty strings"
                )
            if isinstance(index, bool) or not isinstance(index, int) or index < 0:
                raise PolicyConfigError(
                    f"{source}: sinks.{policy_id}.functions.{name}: argument "
                    f"index must be a non-negative integer, got {index!r}"
                )
            extra_sinks.append((policy_id, name.lower(), index))

    sources_map = data.get("sources") or {}
    if not isinstance(sources_map, dict):
        raise PolicyConfigError(f"{source}: 'sources' must be a mapping")
    extra_sources: list[tuple[str, str]] = []
    for name in sorted(sources_map):
        label = sources_map[name]
        if not isinstance(name, str) or not name:
            raise PolicyConfigError(
                f"{source}: sources: variable names must be non-empty strings"
            )
        if label not in _SOURCE_LABELS:
            raise PolicyConfigError(
                f"{source}: sources.{name}: label must be one of "
                f"{list(_SOURCE_LABELS)}, got {label!r}"
            )
        extra_sources.append((name, label))

    return PolicyConfig(
        enabled=enabled,
        extra_sinks=tuple(extra_sinks),
        extra_sources=tuple(extra_sources),
    )


# -- fallback YAML-subset parser --------------------------------------------


def _mini_yaml(text: str, source: str):
    """Indentation-based parser for the schema's YAML subset.

    Handles nested mappings, ``- item`` block lists, ``[a, b]`` flow
    lists, comments, and int/bool/string scalars — everything the policy
    schema uses.  Anything else raises :class:`PolicyConfigError`.
    """
    lines: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        no_comment = _strip_comment(raw)
        if not no_comment.strip():
            continue
        indent = len(no_comment) - len(no_comment.lstrip(" "))
        if "\t" in no_comment[:indent] or no_comment.lstrip(" ").startswith("\t"):
            raise PolicyConfigError(
                f"{source}:{lineno}: tabs are not allowed in indentation"
            )
        lines.append((lineno, indent, no_comment.strip()))
    if not lines:
        return {}
    value, pos = _parse_block(lines, 0, source, lines[0][1])
    if pos != len(lines):
        lineno = lines[pos][0]
        raise PolicyConfigError(f"{source}:{lineno}: unexpected indentation")
    return value


def _strip_comment(line: str) -> str:
    """Drop a trailing ``# comment`` (quote-aware enough for the schema)."""
    out = []
    quote = ""
    for char in line:
        if quote:
            out.append(char)
            if char == quote:
                quote = ""
        elif char in "'\"":
            quote = char
            out.append(char)
        elif char == "#":
            break
        else:
            out.append(char)
    return "".join(out).rstrip()


def _parse_block(lines, pos, source, indent):
    lineno, first_indent, content = lines[pos]
    if first_indent != indent:
        raise PolicyConfigError(f"{source}:{lineno}: bad indentation")
    if content.startswith("- ") or content == "-":
        items = []
        while (
            pos < len(lines)
            and lines[pos][1] == indent
            and (lines[pos][2].startswith("- ") or lines[pos][2] == "-")
        ):
            lineno, _, content = lines[pos]
            item_text = content[1:].strip()
            pos += 1
            if item_text:
                items.append(_scalar(item_text, source, lineno))
            elif pos < len(lines) and lines[pos][1] > indent:
                value, pos = _parse_block(lines, pos, source, lines[pos][1])
                items.append(value)
            else:
                raise PolicyConfigError(f"{source}:{lineno}: empty list item")
        return items, pos
    result: dict = {}
    while pos < len(lines) and lines[pos][1] == indent:
        lineno, _, content = lines[pos]
        if content.startswith("- "):
            raise PolicyConfigError(
                f"{source}:{lineno}: list item inside a mapping block"
            )
        key, sep, rest = content.partition(":")
        if not sep:
            raise PolicyConfigError(
                f"{source}:{lineno}: expected 'key: value', got {content!r}"
            )
        key = _unquote(key.strip())
        rest = rest.strip()
        pos += 1
        if rest:
            result[key] = _scalar(rest, source, lineno)
        elif pos < len(lines) and lines[pos][1] > indent:
            value, pos = _parse_block(lines, pos, source, lines[pos][1])
            result[key] = value
        else:
            result[key] = None
    return result, pos


def _scalar(text: str, source: str, lineno: int):
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [
            _scalar(part.strip(), source, lineno) for part in inner.split(",")
        ]
    if text.startswith("{"):
        raise PolicyConfigError(
            f"{source}:{lineno}: flow mappings are not supported"
        )
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("null", "~"):
        return None
    try:
        return int(text, 10)
    except ValueError:
        pass
    return _unquote(text)


def _unquote(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text
