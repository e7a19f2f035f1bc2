"""Differential checker: concrete executions vs. the static analysis.

For one page the checker runs the abstract interpreter once, then
replays any number of concrete :class:`~repro.oracle.interp.InputVector`
executions against the result — on the analysis's own parsed trees, so
each file is parsed once — asserting the two promises the analysis
makes:

1. **Membership** (soundness of the grammar, paper Theorem 3.4): every
   concrete string that reached a sink must be a member of *some*
   hotspot grammar recorded at that ``(file, line, sink)`` site.  The
   analysis may record the same syntactic site several times (once per
   refined condition polarity); the union of those grammars is the
   site's abstraction, so membership in any one suffices.
2. **Verdict** (soundness of the policy): when *every* report at the
   site is safe, each exactly-tracked tainted substring of the concrete
   query must be syntactically confined
   (:func:`repro.sql.confinement.check_confinement`).  Blurred (inexact)
   taint spans are skipped — their extent is conservative, not ground
   truth.

With ``policy="shell"`` the checker additionally enables the shell
sink policy in the static analysis, records concrete hits at the
``exec``/``system``/… sinks, and asserts the shell verdict: at a
statically-safe shell site no exact tainted span may be accepted by
:func:`repro.analysis.policies.shell.shell_breakout` (the rejected set
is closed under concatenation — its only non-accepting state is the
start state — so merged adjacent spans cannot produce false alarms).

A failure of either promise is a :class:`Divergence`.  The absence of
divergences proves nothing (the oracle witnesses unsoundness only);
their presence is always a bug in the analysis, the builtin models, or
the oracle's own mirror semantics — all three are worth knowing about.

Membership uses the character-level Earley lowering
(:func:`repro.lang.earley.char_token_grammar`), prepared once per
hotspot and reused across every vector — the CYK-based
``Grammar.generates`` is far too slow for a fuzzing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.policy import VerdictCache, check_hotspot
from repro.analysis.stringtaint import StringTaintAnalysis
from repro.lang.earley import char_membership, char_token_grammar
from repro.sql.confinement import check_confinement

from .interp import ConcreteHit, InputVector, execute_page

#: divergence kinds, in decreasing severity
MISSING_HOTSPOT = "missing-hotspot"
MEMBERSHIP = "membership"
VERDICT = "verdict"


def _policy_extra_sinks(policy: str | None) -> dict[str, int] | None:
    """Concrete sink table for a differential policy mode."""
    if policy is None:
        return None
    if policy == "shell":
        from repro.analysis import sources

        return dict(sources.SHELL_FUNCTIONS)
    raise ValueError(f"unsupported differential policy: {policy!r}")


@dataclass
class Divergence:
    """One witnessed violation of an analysis promise."""

    kind: str  # MISSING_HOTSPOT | MEMBERSHIP | VERDICT
    file: str
    line: int
    sink: str
    query: str
    detail: str
    vector: dict = field(default_factory=dict)

    def render(self) -> str:
        return (
            f"[{self.kind}] {Path(self.file).name}:{self.line} ({self.sink})\n"
            f"  query:  {self.query!r}\n"
            f"  detail: {self.detail}\n"
            f"  vector: {self.vector!r}"
        )


class PageOracle:
    """Analysis result for one page, prepared for fast differential
    replay of concrete executions."""

    def __init__(
        self,
        project_root: str | Path,
        entry: str | Path,
        policy: str | None = None,
    ) -> None:
        self.project_root = Path(project_root)
        self.entry = entry
        self.policy = policy
        self.extra_sinks = _policy_extra_sinks(policy)
        policies = None
        if policy is not None:
            from repro.analysis.policies import PolicyConfig

            policies = PolicyConfig(enabled=("sql", policy))
        analysis = StringTaintAnalysis(self.project_root, policies=policies)
        self.result = analysis.analyze_file(entry)
        self.grammar = self.result.grammar
        # hotspots grouped by concrete-visible site identity
        self.sites: dict[tuple[str, int, str], list] = {}
        for spot in self.result.hotspots:
            self.sites.setdefault((spot.file, spot.line, spot.sink), []).append(spot)
        self._prepared: dict[int, tuple] = {}
        self._verdicts: dict[tuple[str, int, str], bool] = {}
        self._cache = VerdictCache()

    # -- lazy per-hotspot artifacts ----------------------------------------

    def _membership_grammar(self, spot):
        prepared = self._prepared.get(id(spot))
        if prepared is None:
            root = spot.query.nt
            scope = self.grammar.subgrammar(root).trim(root)
            prepared = char_token_grammar(scope, root)
            self._prepared[id(spot)] = prepared
        return prepared

    def _spot_verified(self, spot) -> bool:
        if spot.kind == "sql":
            return check_hotspot(self.grammar, spot, cache=self._cache).verified
        from repro.analysis.policies import policy_instance

        policy = policy_instance(spot.kind)
        return policy.check(self.grammar, spot, cache=self._cache).verified

    def _site_safe(self, key: tuple[str, int, str]) -> bool:
        """True iff every analysis report at this site is *safe*."""
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = all(self._spot_verified(spot) for spot in self.sites[key])
            self._verdicts[key] = verdict
        return verdict

    # -- the two promises ---------------------------------------------------

    def check_hit(self, hit: ConcreteHit, vector: InputVector) -> list[Divergence]:
        key = (hit.file, hit.line, hit.sink)
        spots = self.sites.get(key)
        out: list[Divergence] = []
        if not spots:
            out.append(
                Divergence(
                    kind=MISSING_HOTSPOT,
                    file=hit.file,
                    line=hit.line,
                    sink=hit.sink,
                    query=hit.query,
                    detail=(
                        "concrete execution reached a sink the analysis "
                        f"recorded no hotspot for (static sites: "
                        f"{sorted(set((Path(f).name, ln) for f, ln, _ in self.sites))})"
                    ),
                    vector=vector.as_dict(),
                )
            )
            return out
        if not any(
            char_membership(self._membership_grammar(spot), hit.query)
            for spot in spots
        ):
            out.append(
                Divergence(
                    kind=MEMBERSHIP,
                    file=hit.file,
                    line=hit.line,
                    sink=hit.sink,
                    query=hit.query,
                    detail=(
                        f"concrete query is not a member of any of the "
                        f"{len(spots)} grammar(s) the analysis recorded here"
                    ),
                    vector=vector.as_dict(),
                )
            )
            return out
        if self._site_safe(key):
            # the static verdict checks the labeled substring languages,
            # so the concrete counterpart checks the tainted spans: SQL
            # sites via syntactic confinement, shell sites by running
            # the same breakout automaton the policy intersects with
            shell_site = any(spot.kind == "shell" for spot in spots)
            for lo, hi, exact in hit.runs:
                if not exact or lo == hi:
                    continue
                if shell_site:
                    from repro.analysis.policies.shell import shell_breakout

                    confined = not shell_breakout().accepts_string(
                        hit.query[lo:hi]
                    )
                    reason = (
                        f"tainted span {lo}..{hi} ({hit.query[lo:hi]!r}) "
                        "reaches an unquoted shell metacharacter or "
                        "unbalances quoting"
                    )
                else:
                    try:
                        confined = check_confinement(hit.query, lo, hi).confined
                    except ValueError as exc:
                        confined = False
                        reason = f"confinement check failed: {exc}"
                    else:
                        reason = (
                            f"tainted span {lo}..{hi} "
                            f"({hit.query[lo:hi]!r}) is not syntactically confined"
                        )
                if not confined:
                    out.append(
                        Divergence(
                            kind=VERDICT,
                            file=hit.file,
                            line=hit.line,
                            sink=hit.sink,
                            query=hit.query,
                            detail=f"analysis verdict is safe, but {reason}",
                            vector=vector.as_dict(),
                        )
                    )
        return out

    def check_vector(self, vector: InputVector) -> list[Divergence]:
        """Execute the page under ``vector`` and check every hit.

        Raises :class:`~repro.oracle.interp.UnsupportedConstruct` when
        the execution leaves the mirrored subset — callers skip those.
        """
        hits = execute_page(
            self.project_root, self.entry, vector, extra_sinks=self.extra_sinks,
            trees=self.result.trees,
        )
        out: list[Divergence] = []
        for hit in hits:
            out.extend(self.check_hit(hit, vector))
        return out


def diff_page(
    project_root: str | Path,
    entry: str | Path,
    vectors: list[InputVector],
    stats: dict | None = None,
    policy: str | None = None,
) -> list[Divergence]:
    """Analyze ``entry`` once, replay every vector, return divergences.

    ``stats``, when given, accumulates ``vectors``, ``skipped`` (vectors
    that left the supported subset) and ``hits`` counts.  ``policy``
    enables a policy's sinks on both sides (see module docstring).
    """
    from .interp import UnsupportedConstruct

    oracle = PageOracle(project_root, entry, policy=policy)
    divergences: list[Divergence] = []
    skipped = 0
    hits = 0
    for vector in vectors:
        try:
            concrete_hits = execute_page(
                oracle.project_root, oracle.entry, vector,
                extra_sinks=oracle.extra_sinks, trees=oracle.result.trees,
            )
        except UnsupportedConstruct:
            skipped += 1
            continue
        hits += len(concrete_hits)
        for hit in concrete_hits:
            divergences.extend(oracle.check_hit(hit, vector))
    if stats is not None:
        stats["vectors"] = stats.get("vectors", 0) + len(vectors)
        stats["skipped"] = stats.get("skipped", 0) + skipped
        stats["hits"] = stats.get("hits", 0) + hits
    return divergences
