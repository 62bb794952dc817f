"""Kernel: word order, divisibility automaton, reducer, overlap scan.

Words over the free algebra are bytes; each byte is a variable id.

Word order (graded, admissible): shorter words first; equal lengths compare
letterwise from the right, and the word whose first differing letter is the
smaller variable is the larger word.  Encoding trick: (len(w), bytes of
255 - b over reversed w) is an ascending sort key, so equal-length comparison
is a memcmp.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable

BACKEND = "python"

# maps each byte b to 255 - b
_COMPLEMENT = bytes(range(255, -1, -1))


def sort_key(w: bytes) -> tuple[int, bytes]:
    """Ascending word-order key."""
    return (len(w), w[::-1].translate(_COMPLEMENT))


def compare_words(w1: bytes, w2: bytes) -> int:
    """-1, 0, or 1 as w1 is below, equal to, or above w2."""
    if len(w1) != len(w2):
        return -1 if len(w1) < len(w2) else 1
    if w1 == w2:
        return 0
    # first difference from the right; smaller letter means larger word
    return 1 if w1[::-1] < w2[::-1] else -1


class Automaton:
    """Aho-Corasick automaton over byte words with incremental insertion.

    Every insert keeps the failure links and outputs exact (Aho and Corasick,
    CACM 18, 1975; Meyer, "Incremental string matching", IPL 21, 1985), so a
    query never rebuilds anything.  New nodes are added one prefix at a time:
    a new node's failure link comes from its parent's failure chain, and older
    nodes whose word ends with the new node's word are found in a
    suffix-to-nodes index and re-pointed to it when it is longer than their
    current link.  first_match reports the match with the earliest end
    position; ties at one position resolve to the lowest pattern index.
    """

    def __init__(self, patterns: list[bytes] | None = None):
        self._goto: list[dict[int, int]] = [{}]
        self._fail: list[int] = [0]
        self._depth: list[int] = [0]
        # lowest index of a pattern that is a suffix of the node's word, -1 when none
        self._out: list[int] = [-1]
        # word -> nodes whose word has it as a proper, nonempty suffix
        self._suffixed: dict[bytes, list[int]] = {}
        self._count = 0
        if patterns:
            for p in patterns:
                self.insert(p)

    def __len__(self) -> int:
        return self._count

    def insert(self, pattern: bytes) -> int:
        if not pattern:
            raise ValueError("empty pattern not allowed")
        goto = self._goto
        fail = self._fail
        depth = self._depth
        out = self._out
        suffixed = self._suffixed
        node = 0
        for k, b in enumerate(pattern, 1):
            nxt = goto[node].get(b)
            if nxt is None:
                # the links on the parent's failure chain are exact: every
                # node added so far was re-pointed when it was added
                f = 0
                if node:
                    f = fail[node]
                    while f and b not in goto[f]:
                        f = fail[f]
                    f = goto[f].get(b, 0)
                nxt = len(goto)
                goto[node][b] = nxt
                goto.append({})
                fail.append(f)
                depth.append(k)
                out.append(out[f])
                word = pattern[:k]
                for i in range(1, k):
                    suffix = word[i:]
                    holders = suffixed.get(suffix)
                    if holders is None:
                        suffixed[suffix] = [nxt]
                    else:
                        holders.append(nxt)
                # older nodes ending with the new word now fail to it
                for x in suffixed.get(word, ()):
                    if depth[fail[x]] < k:
                        fail[x] = nxt
            node = nxt
        idx = self._count
        self._count += 1
        # the new index is the largest, so only nodes without an output change
        if out[node] == -1:
            out[node] = idx
            for x in suffixed.get(pattern, ()):
                if out[x] == -1:
                    out[x] = idx
        return idx

    def first_match(self, text: bytes) -> tuple[int, int]:
        """(end_index, pattern_index) of the earliest-ending match, or (-1, -1)."""
        goto = self._goto
        fail = self._fail
        out = self._out
        node = 0
        for pos, b in enumerate(text):
            while node and b not in goto[node]:
                node = fail[node]
            node = goto[node].get(b, 0)
            o = out[node]
            if o != -1:
                return (pos, o)
        return (-1, -1)


class Reducer:
    """A monic basis in kernel form and its matching automaton, kept in step.

    data[i] = (leading word, descending tail terms) of a monic element, and
    automaton pattern i is data[i][0]: append is the only way in, so the
    reduce_terms contract holds for every reduce.  An entry may be replaced
    in place by one with the same leading word.
    """

    def __init__(self, data: Iterable[tuple[bytes, tuple]] = ()):
        self.data: list[tuple[bytes, tuple]] = []
        self.automaton = Automaton()
        for d in data:
            self.append(d)

    def append(self, d: tuple[bytes, tuple]) -> None:
        self.automaton.insert(d[0])
        self.data.append(d)

    def reduce(
        self, terms: dict[bytes, Fraction], trace: list | None = None
    ) -> dict[bytes, Fraction]:
        """Normal form of a term dict; see reduce_terms."""
        return reduce_terms(terms, self.data, self.automaton, trace)


def reduce_terms(
    terms: dict[bytes, Fraction],
    basis: list[tuple[bytes, tuple[tuple[bytes, Fraction], ...]]],
    automaton: Automaton,
    trace: list | None = None,
) -> dict[bytes, Fraction]:
    """Two-sided normal form of a term dict against basis with matching automaton.

    Contract: basis[i] = (leading word, tail terms) of a monic element and
    automaton pattern i is basis[i]'s leading word, so a match of pattern i
    is len(basis[i][0]) letters long.  Reducer keeps this for its callers.
    Terms are processed in descending word order; a term whose word contains
    some leading word is rewritten through the earliest-ending match, with
    its own coefficient as the cofactor; others move to the output.  When
    trace is a list, (cofactor, left, index, right) quadruples are appended
    such that input = sum of cofactor * left * basis[index] * right + output.
    """
    work = dict(terms)
    heap = [(-len(w), w[::-1], w) for w in work]
    heapify(heap)
    out: dict[bytes, Fraction] = {}
    while heap:
        _, _, w = heappop(heap)
        c = work.pop(w, None)
        if c is None:
            continue
        end, idx = automaton.first_match(w)
        if idx < 0:
            out[w] = c
            continue
        lt, tail = basis[idx]
        start = end + 1 - len(lt)
        a = w[:start]
        b = w[end + 1 :]
        if trace is not None:
            trace.append((c, a, idx, b))
        for v, cv in tail:
            nw = a + v + b
            old = work.get(nw)
            if old is None:
                work[nw] = -c * cv
                heappush(heap, (-len(nw), nw[::-1], nw))
            else:
                nc = old - c * cv
                if nc:
                    work[nw] = nc
                else:
                    del work[nw]
    return out


def overlap_obstructions(
    u: bytes, v: bytes, same: bool
) -> list[tuple[bytes, bytes, bytes, bytes]]:
    """Obstruction placements (lf, rf, lg, rg) with lf+u+rf == lg+v+rg.

    same=True treats u and v as the same basis element: only proper
    self-overlaps count and the identical placement is dropped.  Disjoint
    placements are never produced.
    """
    out: list[tuple[bytes, bytes, bytes, bytes]] = []
    lu = len(u)
    lv = len(v)
    empty = b""
    if same:
        for k in range(1, lu):
            if u[lu - k :] == u[:k]:
                out.append((empty, u[k:], u[: lu - k], empty))
        return out
    upper = min(lu, lv)
    for k in range(1, upper):
        # suffix of u meets prefix of v
        if u[lu - k :] == v[:k]:
            out.append((empty, v[k:], u[: lu - k], empty))
        # suffix of v meets prefix of u
        if v[lv - k :] == u[:k]:
            out.append((v[: lv - k], empty, empty, u[k:]))
    if lv <= lu:
        for i in range(lu - lv + 1):
            if u[i : i + lv] == v:
                out.append((empty, empty, u[:i], u[i + lv :]))
    if lu < lv:
        for i in range(lv - lu + 1):
            if v[i : i + lu] == u:
                out.append((v[:i], v[i + lu :], empty, empty))
    return out
