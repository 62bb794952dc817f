"""Kernel: word order, divisibility trie, reducer, overlap scan.

Words over the free algebra are bytes; each byte is a variable id.

Every reduction is reduce_terms(terms, reducer).  A Reducer holds a monic
basis, its matching automaton and an exact normal-form memo, kept in step,
so a memo is only read against the basis it was filled from.  The basis
only grows, by append.  Between two appends every word is rewritten by a
fixed rule, so the normal form is linear, NF(sum c*w) = sum c*NF(w), and a
stored NF(w) can stand in for the rewrites of w.  An append whose leading
word has length n clears the memo for lengths >= n only: the order is
graded, so no rewrite makes a word longer, and a shorter word and its whole
rewrite chain cannot contain the new leading word.  Two bounds keep the
memo small: it stores only words no longer than the longest leading word,
and a word only from its second meeting since its length was last cleared.

A longer word reuses the stored NF of its prefix.  Write NF(x)*y for
sum cu*(u y) over NF(x) = sum cu*u.  Then NF(x y) = NF(NF(x)*y) for all
words x and y.  If x is irreducible there is nothing to show.  Otherwise
the earliest-ending match in x y ends inside x, and it is the one in x,
with the same lowest-index tie at that end, so x y is rewritten to
(rewrite of x)*y; induction over the word order and linearity finish the
proof.  It uses only the rewrite rule, so it holds against any basis:
complete, truncated or aborted.  The mirror form NF(x y) = NF(x*NF(y))
does not hold in general, because the rule favours the left: the
earliest-ending match in x y can straddle the border, rewriting y first
can destroy it, and against a basis that is not complete two rewrite
orders can end in different normal forms.  Every word of NF(x)*y is
smaller than x y (graded order, shared suffix), and the prefix NF is an
ordinary memo entry, so the clearing rule covers it too.

Word order (graded, admissible): shorter words first; equal lengths compare
letterwise from the right, and the word whose first differing letter is the
smaller variable is the larger word.  Encoding trick: (len(w), bytes of
255 - b over reversed w) is an ascending sort key, so equal-length comparison
is a memcmp.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
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
    """Trie of byte pattern words; first_match walks it from each text position.

    A walk stops at the first pattern node it reaches, the shortest and so
    earliest-ending pattern from its start, and goes no further than the best
    end found so far.  The earliest end wins; ties at one end go to the lowest
    pattern index.  A query costs at most |text| times the longest pattern.
    """

    def __init__(self, patterns: list[bytes] | None = None):
        self._goto: list[dict[int, int]] = [{}]
        # lowest index of a pattern equal to the node's word, -1 when none
        self._out: list[int] = [-1]
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
        node = 0
        for b in pattern:
            nxt = goto[node].get(b)
            if nxt is None:
                nxt = len(goto)
                goto[node][b] = nxt
                goto.append({})
                self._out.append(-1)
            node = nxt
        idx = self._count
        self._count += 1
        if self._out[node] == -1:
            self._out[node] = idx
        return idx

    def first_match(self, text: bytes) -> tuple[int, int]:
        """(end_index, pattern_index) of the earliest-ending match, or (-1, -1)."""
        goto = self._goto
        out = self._out
        root = goto[0]
        n = end = len(text)
        idx = -1
        for start, b in enumerate(text):
            if start > end:
                break
            node = root.get(b)
            pos = start
            while node is not None:
                o = out[node]
                if o != -1:
                    if pos < end or o < idx:
                        end, idx = pos, o
                    break
                pos += 1
                if pos == n or pos > end:
                    break
                node = goto[node].get(text[pos])
        return (end, idx) if idx >= 0 else (-1, -1)


class Reducer:
    """A monic basis in kernel form, its matching automaton and a normal-form memo.

    data[i] = (leading word, descending tail terms) of a monic element, and
    automaton pattern i is data[i][0], so a match of pattern i is
    len(data[i][0]) letters long.  append is the only way to change a
    Reducer, and it keeps the three fields in step.

    memo[n] maps a word of length n to its normal form against the current
    data, a flat tuple (w0, c0, w1, c1, ...), or to None when the word has
    been met once since its length was last cleared.  There is one dict per
    length from 0 to that of the longest pattern, and no longer word is
    stored.  append(d) clears the lengths >= len(d[0]) and no others, which
    keeps every stored normal form exact (see the module docstring).
    """

    def __init__(self, data: Iterable[tuple[bytes, tuple]] = ()):
        self.data: list[tuple[bytes, tuple]] = []
        self.automaton = Automaton()
        self.memo: list[dict[bytes, tuple | None]] = [{}]
        for d in data:
            self.append(d)

    def append(self, d: tuple[bytes, tuple]) -> None:
        self.automaton.insert(d[0])
        self.data.append(d)
        # clear the memo for word lengths >= n and keep one dict per length <= n
        n = len(d[0])
        memo = self.memo
        for k in range(n, len(memo)):
            memo[k].clear()
        memo.extend({} for _ in range(len(memo), n + 1))


# a word that the memo has not met since its length was last cleared
_UNSEEN = object()


def reduce_terms(
    terms: dict[bytes, Fraction], reducer: Reducer, trace: list | None = None
) -> dict[bytes, Fraction]:
    """Two-sided normal form of a term dict against reducer.data.

    Terms are processed in descending word order; a term whose word contains
    some leading word is rewritten through the earliest-ending match, with
    its own coefficient as the cofactor; others move to the output.  When
    trace is a list, (cofactor, left, index, right) quadruples are appended
    such that input = sum of cofactor * left * data[index] * right + output.

    The pending words sit in one heap of reversed words per word length,
    kept in a dict by length, and the longest pending length is taken out
    first.  Among words of one length the smallest reversed word is the
    largest word, so each heap pops in descending word order.  Every word
    pushed while length n is popped is smaller than the word just popped (a
    rewrite and a prefix substitution both give smaller words, and the order
    is graded), so its length is n or shorter: it joins the heap being
    popped, or the list of a shorter length, which is heapified when that
    length is taken out.  So the pops run in descending word order across
    lengths too, as from one heap over all words.

    An untraced call uses the reducer's memo; a traced one leaves it alone,
    and both give the same output.  The normal form is linear (see the module
    docstring): a word of length below len(memo) whose NF is stored adds
    c*NF(w) to the output.  A word met for the second time since its length
    was last cleared has its NF computed and stored first (_normal_form); any
    other word is marked as met and takes the rewrite step above.  A longer
    word w looks up its prefix x = w[:len(memo) - 1] the same way, and when
    NF(x) is stored and is not x itself, c*w is replaced by c*NF(x)*y for
    w = x y (the prefix lemma in the module docstring); otherwise w takes
    the rewrite step.  The memo table is chosen once per length.
    """
    basis, automaton, memo = reducer.data, reducer.automaton, reducer.memo
    work = dict(terms)
    heaps: dict[int, list[bytes]] = {}
    for w in work:
        heaps.setdefault(len(w), []).append(w[::-1])
    out: dict[bytes, Fraction] = {}
    top = len(memo) if trace is None else 0
    # the longest stored length, the prefix length for longer words
    bound = top - 1
    prefixes = memo[bound] if trace is None else None
    while heaps:
        # the longest pending length; no push makes a longer word
        n = max(heaps)
        heap = heaps.pop(n)
        heapify(heap)
        table = memo[n] if n < top else None
        while heap:
            w = heappop(heap)[::-1]
            c = work.pop(w, None)
            if c is None:
                continue
            if table is not None:
                nf = table.get(w, _UNSEEN)
                if nf is _UNSEEN:
                    table[w] = None
                else:
                    if nf is None:
                        nf = _normal_form(w, reducer)
                    _add_flat(out, nf, c)
                    continue
            elif prefixes is not None:
                x = w[:bound]
                nf = prefixes.get(x, _UNSEEN)
                if nf is _UNSEEN:
                    prefixes[x] = None
                else:
                    if nf is None:
                        nf = _normal_form(x, reducer)
                    if nf != (x, 1):
                        # NF(x y) = NF(NF(x) y): replace c*w by c*sum cu*(u y)
                        y = w[bound:]
                        it = iter(nf)
                        for u, cu in zip(it, it):
                            nw = u + y
                            old = work.get(nw)
                            if old is None:
                                work[nw] = c * cu
                                if len(nw) == n:
                                    heappush(heap, nw[::-1])
                                else:
                                    heaps.setdefault(len(nw), []).append(nw[::-1])
                            else:
                                nc = old + c * cu
                                if nc:
                                    work[nw] = nc
                                else:
                                    del work[nw]
                        continue
            end, idx = automaton.first_match(w)
            if idx < 0:
                # memoized normal forms may have put w in the output already
                old = out.get(w)
                s = c if old is None else old + c
                if s:
                    out[w] = s
                else:
                    del out[w]
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
                    if len(nw) == n:
                        heappush(heap, nw[::-1])
                    else:
                        heaps.setdefault(len(nw), []).append(nw[::-1])
                else:
                    nc = old - c * cv
                    if nc:
                        work[nw] = nc
                    else:
                        del work[nw]
    return out


def _normal_form(w: bytes, reducer: Reducer) -> tuple:
    """NF(w) as a flat tuple, stored in the memo with the NF of every word it rewrites to.

    The rewrite chains are walked with an explicit stack, since their length
    has no fixed bound.  A frame (x, tail, children) with children None asks
    for x; once x is rewritten it comes back with the words its rewrite step
    makes, above them on the stack, and is combined when they are all done:
    NF(x) = -sum cv * NF(a v b).  The rewrite never makes a word longer, so
    every word on the stack has a length below len(memo).
    """
    basis, automaton, memo = reducer.data, reducer.automaton, reducer.memo
    stack: list[tuple] = [(w, None, None)]
    while stack:
        x, tail, children = stack.pop()
        table = memo[len(x)]
        if children is None:
            if type(table.get(x)) is tuple:
                continue
            end, idx = automaton.first_match(x)
            if idx < 0:
                table[x] = (x, 1)
                continue
            lt, tail = basis[idx]
            a = x[: end + 1 - len(lt)]
            b = x[end + 1 :]
            children = [a + v + b for v, _ in tail]
            stack.append((x, tail, children))
            stack.extend((y, None, None) for y in children if type(memo[len(y)].get(y)) is not tuple)
            continue
        acc: dict[bytes, Fraction] = {}
        for (_, cv), y in zip(tail, children):
            _add_flat(acc, memo[len(y)][y], -cv)
        table[x] = tuple(chain.from_iterable(acc.items()))
    return memo[len(w)][w]


def _add_flat(terms: dict[bytes, Fraction], nf: tuple, scale: Fraction) -> None:
    """terms += scale * nf for a flat (w0, c0, w1, c1, ...) tuple, dropping zero sums."""
    it = iter(nf)
    for u, cu in zip(it, it):
        old = terms.get(u)
        if old is None:
            terms[u] = scale * cu
        else:
            s = old + scale * cu
            if s:
                terms[u] = s
            else:
                del terms[u]


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
