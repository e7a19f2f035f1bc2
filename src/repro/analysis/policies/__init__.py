"""Pluggable sink policies over the string-analysis core.

Each policy (SQL confinement, context-blind and context-sensitive XSS,
shell-command injection, dynamic-code evaluation, path traversal)
declares its sink signatures and its per-substring check over a
hotspot's labeled grammar; the surrounding machinery — hotspot
recording, verdict memoization, provenance, SARIF, disk cache, server,
differential fuzzing — is shared.  See README "Policies" for the
``--policy-config`` schema.

The names below resolve on first access (PEP 562): every run carries a
:class:`PolicyConfig`, so :mod:`.config` must load without the policies
themselves, which import the analysis stack (DESIGN §5q).
"""

from importlib import import_module

#: public name → the submodule that defines it
_EXPORTS = {
    "DEFAULT_CONFIG": "config",
    "PolicyConfig": "config",
    "PolicyConfigError": "config",
    "config_from_dict": "config",
    "load_policy_config": "config",
    "parse_policy_yaml": "config",
    "REGISTRY": "registry",
    "policy_instance": "registry",
    "SinkPolicy": "base",
    "ContextXssPolicy": "xss_context",
    "EvalPolicy": "evalinj",
    "MarkupXssPolicy": "xss",
    "markup_capable": "xss",
    "PathPolicy": "path",
    "ShellPolicy": "shell",
    "SqlPolicy": "sql",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
