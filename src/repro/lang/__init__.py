"""The formal-language substrate: everything the analysis is built on.

* :mod:`~repro.lang.charset` — interval character sets (a Boolean algebra)
* :mod:`~repro.lang.fsa` — NFA/DFA over charset labels
* :mod:`~repro.lang.regex` — PCRE/POSIX-subset regex engine
* :mod:`~repro.lang.fst` — finite-state transducers (string operations)
* :mod:`~repro.lang.grammar` — taint-labeled context-free grammars
* :mod:`~repro.lang.intersect` — CFG ∩ FSA with taint (paper Fig. 7)
* :mod:`~repro.lang.image` — CFG image under an FST with taint
* :mod:`~repro.lang.earley` — sentential-form Earley parsing and
  Definition 3.2 grammar derivability

The names below resolve on first access (PEP 562): importing one
submodule, as the report classes do with ``grammar``, loads no other.
"""

from importlib import import_module

#: public name → the submodule that defines it
_EXPORTS = {
    "CharSet": "charset",
    "DFA": "fsa",
    "DIRECT": "grammar",
    "FST": "fst",
    "Grammar": "grammar",
    "INDIRECT": "grammar",
    "Lit": "grammar",
    "NFA": "fsa",
    "Nonterminal": "grammar",
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
