"""Finite automata over character-set labels.

Two classes:

* :class:`NFA` — nondeterministic automaton with epsilon moves and
  :class:`~repro.lang.charset.CharSet` edge labels.  Supports the regular
  operations (union, concatenation, star, …) used by the regex compiler
  and by the grammar analyses.
* :class:`DFA` — deterministic automaton with *disjoint* charset labels
  per state and an implicit dead state (missing transition = reject).
  Supports minimization, complement, product intersection, emptiness,
  and shortest-witness extraction.

Automaton states are small integers local to each automaton.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .charset import CharSet


def _alphabet(
    labels: Iterable[CharSet],
) -> tuple[dict[CharSet, list[int]], list[list[tuple[int, int]]]]:
    """Refine ``labels`` into the coarsest classes that each label holds
    whole or not at all: two codepoints share a class when exactly the
    same labels contain them.  Returns the classes each label holds, in
    ascending order, and each class's intervals.  Classes are numbered
    by their lowest codepoint."""
    labels = list(labels)
    bounds = sorted(
        {lo for label in labels for lo, _ in label.intervals}
        | {hi + 1 for label in labels for _, hi in label.intervals}
    )
    index_of = {bound: index for index, bound in enumerate(bounds)}
    spans = [
        [(index_of[lo], index_of[hi + 1]) for lo, hi in label.intervals]
        for label in labels
    ]
    signature = [0] * max(len(bounds) - 1, 0)
    for bit, label_spans in enumerate(spans):
        for first, stop in label_spans:
            for index in range(first, stop):
                signature[index] |= 1 << bit
    class_of_signature: dict[int, int] = {}
    class_of_index: list[int] = []
    pieces: list[list[tuple[int, int]]] = []
    for index, sig in enumerate(signature):
        if not sig:
            class_of_index.append(-1)  # a gap no label covers
            continue
        number = class_of_signature.get(sig)
        if number is None:
            number = class_of_signature[sig] = len(pieces)
            pieces.append([])
        pieces[number].append((bounds[index], bounds[index + 1] - 1))
        class_of_index.append(number)
    covers = {
        label: sorted(
            {class_of_index[index] for first, stop in label_spans for index in range(first, stop)}
        )
        for label, label_spans in zip(labels, spans)
    }
    return covers, pieces


class NFA:
    """Nondeterministic finite automaton with epsilon transitions."""

    def __init__(self) -> None:
        self.num_states = 0
        self.start = 0
        self.accepts: set[int] = set()
        self.transitions: dict[int, list[tuple[CharSet, int]]] = {}
        self.epsilons: dict[int, set[int]] = {}

    # -- construction helpers -----------------------------------------

    def new_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        return state

    def add_edge(self, src: int, label: CharSet, dst: int) -> None:
        if label:
            self.transitions.setdefault(src, []).append((label, dst))

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilons.setdefault(src, set()).add(dst)

    # -- primitive automata --------------------------------------------

    @staticmethod
    def nothing() -> "NFA":
        """The empty language."""
        nfa = NFA()
        nfa.start = nfa.new_state()
        return nfa

    @staticmethod
    def epsilon_language() -> "NFA":
        """The language containing only the empty string."""
        nfa = NFA()
        nfa.start = nfa.new_state()
        nfa.accepts = {nfa.start}
        return nfa

    @staticmethod
    def from_charset(charset: CharSet) -> "NFA":
        nfa = NFA()
        nfa.start = nfa.new_state()
        end = nfa.new_state()
        nfa.add_edge(nfa.start, charset, end)
        nfa.accepts = {end}
        return nfa

    @staticmethod
    def from_string(text: str) -> "NFA":
        nfa = NFA()
        nfa.start = nfa.new_state()
        current = nfa.start
        for char in text:
            nxt = nfa.new_state()
            nfa.add_edge(current, CharSet.of(char), nxt)
            current = nxt
        nfa.accepts = {current}
        return nfa

    @staticmethod
    def from_strings(texts: Iterable[str]) -> "NFA":
        """The finite language ``texts``: one chain per string from a
        shared start state (no ε-moves, no copying per string)."""
        nfa = NFA()
        nfa.start = nfa.new_state()
        for text in texts:
            current = nfa.start
            for char in text:
                nxt = nfa.new_state()
                nfa.add_edge(current, CharSet.of(char), nxt)
                current = nxt
            nfa.accepts.add(current)
        return nfa

    @staticmethod
    def any_string() -> "NFA":
        """Sigma* — all strings."""
        return NFA.from_charset(CharSet.any_char()).star()

    # -- regular operations (functional: return new automata) ----------

    def _import_states(self, other: "NFA") -> dict[int, int]:
        """Copy ``other``'s states/edges into ``self``; return the state map."""
        offset = self.num_states
        mapping = {s: s + offset for s in range(other.num_states)}
        self.num_states += other.num_states
        for src, edges in other.transitions.items():
            for label, dst in edges:
                self.add_edge(mapping[src], label, mapping[dst])
        for src, dsts in other.epsilons.items():
            for dst in dsts:
                self.add_epsilon(mapping[src], mapping[dst])
        return mapping

    def union(self, other: "NFA") -> "NFA":
        result = NFA()
        result.start = result.new_state()
        map_self = result._import_states(self)
        map_other = result._import_states(other)
        result.add_epsilon(result.start, map_self[self.start])
        result.add_epsilon(result.start, map_other[other.start])
        result.accepts = {map_self[s] for s in self.accepts}
        result.accepts |= {map_other[s] for s in other.accepts}
        return result

    def concat(self, other: "NFA") -> "NFA":
        result = NFA()
        result.start = result.new_state()
        map_self = result._import_states(self)
        map_other = result._import_states(other)
        result.add_epsilon(result.start, map_self[self.start])
        for s in self.accepts:
            result.add_epsilon(map_self[s], map_other[other.start])
        result.accepts = {map_other[s] for s in other.accepts}
        return result

    def star(self) -> "NFA":
        result = NFA()
        result.start = result.new_state()
        mapping = result._import_states(self)
        result.add_epsilon(result.start, mapping[self.start])
        for s in self.accepts:
            result.add_epsilon(mapping[s], result.start)
        result.accepts = {result.start}
        return result

    def plus(self) -> "NFA":
        return self.concat(self.star())

    def optional(self) -> "NFA":
        return self.union(NFA.epsilon_language())

    def repeat(self, low: int, high: int | None) -> "NFA":
        """``{low,high}`` quantifier; ``high=None`` means unbounded."""
        result = NFA.epsilon_language()
        for _ in range(low):
            result = result.concat(self)
        if high is None:
            result = result.concat(self.star())
        else:
            for _ in range(high - low):
                result = result.concat(self.optional())
        return result

    # -- semantics ------------------------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for nxt in self.epsilons.get(state, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def accepts_string(self, text: str) -> bool:
        current = self.epsilon_closure([self.start])
        for char in text:
            moved = set()
            for state in current:
                for label, dst in self.transitions.get(state, ()):
                    if char in label:
                        moved.add(dst)
            if not moved:
                return False
            current = self.epsilon_closure(moved)
        return bool(current & self.accepts)

    def determinize(self) -> "DFA":
        """Subset construction over the NFA's refined alphabet.

        The alphabet is refined once for the whole automaton
        (:func:`_alphabet`), each state becomes a row ``class → ε-closed
        targets`` and each subset a bitmask of states.  A subset's
        out-edges group its classes by target subset, in the order of
        each target's lowest codepoint, which is also the order new
        subsets are numbered in: the same DFA, state for state and edge
        for edge, as refining the alphabet per subset
        (``tests/lang/reference.py``)."""
        transitions = self.transitions
        covers, pieces = _alphabet(
            {label for edges in transitions.values() for label, _ in edges}
        )
        closures: dict[int, int] = {}

        def closure(state: int) -> int:
            mask = closures.get(state)
            if mask is None:
                mask = 0
                stack = [state]
                while stack:
                    current = stack.pop()
                    bit = 1 << current
                    if not mask & bit:
                        mask |= bit
                        stack.extend(self.epsilons.get(current, ()))
                closures[state] = mask
            return mask

        rows: dict[int, dict[int, int]] = {}

        def row(state: int) -> dict[int, int]:
            """One NFA state's ε-closed targets on each class it moves on."""
            found = rows.get(state)
            if found is None:
                found = rows[state] = {}
                for label, dst in transitions[state]:
                    mask = closure(dst)
                    for index in covers[label]:
                        found[index] = found.get(index, 0) | mask
            return found

        accept_mask = has_edges = 0
        for state in self.accepts:
            accept_mask |= 1 << state
        for state, edges in transitions.items():
            if edges:
                has_edges |= 1 << state
        class_labels: dict[tuple[int, ...], CharSet] = {}

        def label_of(indices: tuple[int, ...]) -> CharSet:
            label = class_labels.get(indices)
            if label is None:
                label = class_labels[indices] = CharSet(
                    [piece for index in indices for piece in pieces[index]]
                )
            return label

        dfa = DFA()
        start = closure(self.start)
        state_ids = {start: dfa.new_state()}
        dfa.start = 0
        if start & accept_mask:
            dfa.accepts.add(0)
        queue = deque([start])
        while queue:
            subset = queue.popleft()
            members = subset & has_edges
            if not members:
                continue
            low = members & -members
            members ^= low
            moves = row(low.bit_length() - 1)
            if members:
                moves = dict(moves)
                while members:
                    low = members & -members
                    members ^= low
                    for index, mask in row(low.bit_length() - 1).items():
                        moves[index] = moves.get(index, 0) | mask
            groups: dict[int, list[int]] = {}
            for index in sorted(moves):
                target = moves[index]
                group = groups.get(target)
                if group is None:
                    groups[target] = [index]
                else:
                    group.append(index)
            edges = []
            for target, indices in groups.items():
                dst = state_ids.get(target)
                if dst is None:
                    dst = state_ids[target] = dfa.new_state()
                    if target & accept_mask:
                        dfa.accepts.add(dst)
                    queue.append(target)
                edges.append((label_of(tuple(indices)), dst))
            dfa.transitions[state_ids[subset]] = edges
        return dfa

    def is_empty(self) -> bool:
        return self.determinize().is_empty()

    def reverse(self) -> "NFA":
        result = NFA()
        result.num_states = self.num_states
        new_start = result.new_state()
        result.start = new_start
        for src, edges in self.transitions.items():
            for label, dst in edges:
                result.add_edge(dst, label, src)
        for src, dsts in self.epsilons.items():
            for dst in dsts:
                result.add_epsilon(dst, src)
        for acc in self.accepts:
            result.add_epsilon(new_start, acc)
        result.accepts = {self.start}
        return result


class DFA:
    """Deterministic automaton; absent transitions go to an implicit sink."""

    def __init__(self) -> None:
        self.num_states = 0
        self.start = 0
        self.accepts: set[int] = set()
        self.transitions: dict[int, list[tuple[CharSet, int]]] = {}
        #: lazily built per-state ASCII jump tables for :meth:`step`;
        #: invalidated by the (only) two transition mutators below.
        self._step_cache: dict[int, dict[str, int]] | None = None

    def new_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        return state

    def add_edge(self, src: int, label: CharSet, dst: int) -> None:
        if label:
            self.transitions.setdefault(src, []).append((label, dst))
            self._step_cache = None

    def _merge_parallel_edges(self) -> None:
        for src, edges in self.transitions.items():
            by_target: dict[int, list[CharSet]] = {}
            for label, dst in edges:
                by_target.setdefault(dst, []).append(label)
            self.transitions[src] = [
                (CharSet.union_of(labels), dst) for dst, labels in by_target.items()
            ]
        self._step_cache = None

    # -- semantics ------------------------------------------------------

    def _step_tables(self) -> dict[int, dict[str, int]]:
        tables = self._step_cache
        if tables is None:
            tables = {}
            for src, edges in self.transitions.items():
                jump: dict[str, int] = {}
                for label, dst in edges:
                    bits = label.ascii_bits
                    while bits:
                        low = bits & -bits
                        jump[chr(low.bit_length() - 1)] = dst
                        bits ^= low
                tables[src] = jump
            self._step_cache = tables
        return tables

    def step(self, state: int, char: str) -> int | None:
        if char < "\x80":
            tables = self._step_cache
            if tables is None:
                tables = self._step_tables()
            jump = tables.get(state)
            return jump.get(char) if jump is not None else None
        for label, dst in self.transitions.get(state, ()):
            if char in label:
                return dst
        return None

    def accepts_string(self, text: str) -> bool:
        state: int | None = self.start
        for char in text:
            state = self.step(state, char)
            if state is None:
                return False
        return state in self.accepts

    def run_string(self, state: int, text: str) -> int | None:
        """Run ``text`` from ``state``; None if it falls off the automaton."""
        current: int | None = state
        for char in text:
            current = self.step(current, char)
            if current is None:
                return None
        return current

    def is_empty(self) -> bool:
        return self.shortest_string() is None

    def shortest_string(self) -> str | None:
        """A shortest accepted string, or None if the language is empty."""
        if self.start in self.accepts:
            return ""
        seen = {self.start}
        queue: deque[tuple[int, str]] = deque([(self.start, "")])
        while queue:
            state, prefix = queue.popleft()
            for label, dst in self.transitions.get(state, ()):
                if dst in seen:
                    continue
                seen.add(dst)
                word = prefix + label.sample_char()
                if dst in self.accepts:
                    return word
                queue.append((dst, word))
        return None

    def live_states(self) -> set[int]:
        """States reachable from start that can reach an accept state."""
        reachable = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            for _, dst in self.transitions.get(state, ()):
                if dst not in reachable:
                    reachable.add(dst)
                    queue.append(dst)
        # backward reachability from accepts
        incoming: dict[int, set[int]] = {}
        for src, edges in self.transitions.items():
            for _, dst in edges:
                incoming.setdefault(dst, set()).add(src)
        productive = set(self.accepts)
        queue = deque(self.accepts)
        while queue:
            state = queue.popleft()
            for src in incoming.get(state, ()):
                if src not in productive:
                    productive.add(src)
                    queue.append(src)
        return reachable & productive

    # -- boolean operations ----------------------------------------------

    def complement(self) -> "DFA":
        """Complement; makes the automaton total by materializing the sink."""
        result = DFA()
        result.num_states = self.num_states
        result.start = self.start
        sink = result.new_state()
        for state in range(self.num_states):
            edges = self.transitions.get(state, [])
            covered = CharSet.union_of([label for label, _ in edges])
            for label, dst in edges:
                result.add_edge(state, label, dst)
            rest = covered.complement()
            if rest:
                result.add_edge(state, rest, sink)
        result.add_edge(sink, CharSet.any_char(), sink)
        result.accepts = {
            s for s in range(result.num_states) if s not in self.accepts
        }
        return result

    def intersect(self, other: "DFA") -> "DFA":
        result = DFA()
        state_ids: dict[tuple[int, int], int] = {}

        def get_id(pair: tuple[int, int]) -> int:
            if pair not in state_ids:
                state_ids[pair] = result.new_state()
            return state_ids[pair]

        start_pair = (self.start, other.start)
        result.start = get_id(start_pair)
        queue = deque([start_pair])
        seen = {start_pair}
        while queue:
            pair = queue.popleft()
            s1, s2 = pair
            src_id = state_ids[pair]
            if s1 in self.accepts and s2 in other.accepts:
                result.accepts.add(src_id)
            for label1, dst1 in self.transitions.get(s1, ()):
                for label2, dst2 in other.transitions.get(s2, ()):
                    both = label1.intersect(label2)
                    if not both:
                        continue
                    target = (dst1, dst2)
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
                    result.add_edge(src_id, both, get_id(target))
        result._merge_parallel_edges()
        return result

    def difference(self, other: "DFA") -> "DFA":
        return self.intersect(other.complement())

    def is_subset_of(self, other: "DFA") -> bool:
        return self.difference(other).is_empty()

    def minimize(self) -> "DFA":
        """Moore's partition-refinement minimization.

        A state's signature is its block and the block it reaches on each
        class of the live labels' alphabet (:func:`_alphabet`).  Blocks
        are numbered by their lowest state; each block's edges are its
        lowest state's, merged per target block (the other members' edges
        cover the same classes)."""
        live = self.live_states()
        if self.start not in live:
            empty = DFA()
            empty.start = empty.new_state()
            return empty
        states = sorted(live)
        live_edges = {
            s: [(label, dst) for label, dst in self.transitions.get(s, ()) if dst in live]
            for s in states
        }
        covers, pieces = _alphabet(
            {label for edges in live_edges.values() for label, _ in edges}
        )

        # dest_table[s][i] is where state s goes on class i (None = dead)
        dest_table: dict[int, list[int | None]] = {}
        for s in states:
            row: list[int | None] = [None] * len(pieces)
            for label, dst in live_edges[s]:
                for index in covers[label]:
                    row[index] = dst
            dest_table[s] = row

        partition: dict[int | None, object] = {s: (s in self.accepts) for s in states}
        partition[None] = None
        count = len(set(partition.values())) - 1
        while True:
            blocks: dict[object, int] = {}
            new_partition: dict[int | None, object] = {None: None}
            block_of = partition.__getitem__
            for s in states:
                key = (partition[s], tuple(map(block_of, dest_table[s])))
                block = blocks.get(key)
                if block is None:
                    block = len(blocks)
                    blocks[key] = block
                new_partition[s] = block
            partition = new_partition
            if len(blocks) == count:
                break
            count = len(blocks)

        result = DFA()
        result.num_states = count
        result.start = partition[self.start]
        result.accepts = {partition[s] for s in self.accepts if s in live}
        for s in states:
            block = partition[s]
            if block in result.transitions or not live_edges[s]:
                continue
            by_target: dict[int, list[CharSet]] = {}
            for label, dst in live_edges[s]:
                by_target.setdefault(partition[dst], []).append(label)
            result.transitions[block] = [
                (merged[0] if len(merged) == 1 else CharSet.union_of(merged), target)
                for target, merged in by_target.items()
            ]
        return result

    def to_nfa(self) -> NFA:
        nfa = NFA()
        nfa.num_states = self.num_states
        nfa.start = self.start
        nfa.accepts = set(self.accepts)
        for src, edges in self.transitions.items():
            for label, dst in edges:
                nfa.add_edge(src, label, dst)
        return nfa
