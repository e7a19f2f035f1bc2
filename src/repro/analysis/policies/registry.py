"""The policy registry: id → where its :class:`~.base.SinkPolicy` lives.

Registry order is the canonical policy order — enabled sets are
normalized to it, so configs listing the same policies in any order
produce identical analysis output and cache digests.  A policy's module
is imported only when a run asks for its instance, so a default (SQL
only) run loads none of the others.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module

#: policy id → (submodule, class name), in canonical order
REGISTRY: dict[str, tuple[str, str]] = {
    "sql": ("sql", "SqlPolicy"),
    "xss": ("xss", "MarkupXssPolicy"),
    "xss-context": ("xss_context", "ContextXssPolicy"),
    "shell": ("shell", "ShellPolicy"),
    "eval": ("evalinj", "EvalPolicy"),
    "path": ("path", "PathPolicy"),
}


@lru_cache(maxsize=None)
def policy_instance(policy_id: str):
    """The shared (stateless) instance for ``policy_id``."""
    module, name = REGISTRY[policy_id]
    return getattr(import_module(f"{__package__}.{module}"), name)()
