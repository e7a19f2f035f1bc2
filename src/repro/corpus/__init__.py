"""The synthetic evaluation corpus (paper §5.1's five subjects).

``build_corpus(root)`` writes all five applications under ``root`` and
returns their manifests in Table 1 order.  See DESIGN.md §3 for why each
app is shaped the way it is.

``APPS`` loads the apps on first access (PEP 562), so importing a
submodule such as the fuzz oracle's :mod:`.generator` loads none.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .manifest import AppManifest


def __getattr__(name: str):
    if name != "APPS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import e107, eve, tiger, unp, warp

    #: (module, directory name) in Table 1 row order
    apps = globals()["APPS"] = [(m, m.APP) for m in (e107, eve, tiger, unp, warp)]
    return apps


def build_corpus(root: str | Path) -> list[AppManifest]:
    """Write all five applications under ``root``; returns the manifests."""
    from . import APPS

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return [module.build(root) for module, _ in APPS]


def build_app(root: str | Path, name: str) -> AppManifest:
    """Write one application by its directory name."""
    from . import APPS

    for module, app_dir in APPS:
        if app_dir == name:
            return module.build(Path(root))
    raise KeyError(f"unknown corpus app {name!r}; have {[d for _, d in APPS]}")
