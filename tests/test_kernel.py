"""Kernel: automaton, reduction loop, overlap scan, word order."""

import heapq
import random
from fractions import Fraction

import pytest

from qmatroid import kernel

# One kernel; the id keeps the test names it has always had.
backends = pytest.mark.parametrize("mod", [kernel], ids=[kernel.BACKEND])


def naive_first_match(patterns, text):
    """O(|text| * sum(|patterns|)) factor scan, earliest end then lowest index."""
    best = (-1, -1)
    for end in range(len(text)):
        for idx, p in enumerate(patterns):
            start = end + 1 - len(p)
            if start >= 0 and text[start : end + 1] == p:
                return (end, idx)
    return best


def random_patterns(rng, alphabet, count):
    out = []
    for _ in range(count):
        out.append(bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 5))))
    return out


def related_patterns(rng, alphabet, count):
    """Patterns that often share prefixes and suffixes with earlier ones."""
    out = []
    for _ in range(count):
        fresh = bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 4)))
        if out and rng.random() < 0.7:
            old = rng.choice(out)
            cut = rng.randrange(len(old) + 1)
            p = old[:cut] + fresh if rng.random() < 0.5 else fresh + old[cut:]
        else:
            p = fresh
        out.append(p or bytes([rng.choice(alphabet)]))
    return out


def naive_obstructions(u, v, same):
    """Every overlapping placement of u and v in a common word, by brute force.

    With same=True only placements with v strictly to the right of u count
    (the mirror images and the identical placement are the same obstruction).
    """
    lu, lv = len(u), len(v)
    out = []
    # v starts d letters after u (d < 0: before it) and the two overlap
    for d in range(-(lv - 1), lu):
        if same and d <= 0:
            continue
        lo, hi = max(0, d), min(lu, d + lv)
        if u[lo:hi] != v[lo - d : hi - d]:
            continue
        lf = v[:-d] if d < 0 else b""
        lg = u[:d] if d > 0 else b""
        rf = v[lu - d :] if d + lv > lu else b""
        rg = u[d + lv :] if d + lv < lu else b""
        out.append((lf, rf, lg, rg))
    return out


@backends
class TestAutomaton:
    def test_direct_factor_example(self, mod):
        # patterns {u11*u12} over a 2x2 universe (ids 0..3), text u21*u11*u12*u22
        auto = mod.Automaton([bytes([0, 1])])
        assert auto.first_match(bytes([2, 0, 1, 3])) == (2, 0)

    def test_empty_pattern_set(self, mod):
        auto = mod.Automaton()
        assert len(auto) == 0
        assert auto.first_match(b"anything") == (-1, -1)

    def test_empty_pattern_rejected(self, mod):
        with pytest.raises(ValueError):
            mod.Automaton([b""])

    def test_len_counts_patterns(self, mod):
        auto = mod.Automaton([b"ab", b"c"])
        assert len(auto) == 2
        auto.insert(b"abcd")
        assert len(auto) == 3

    def test_earliest_end_lowest_index(self, mod):
        # both patterns end at position 2; index 0 wins
        auto = mod.Automaton([b"abc", b"bc"])
        assert auto.first_match(b"xabc") == (3, 0)
        auto2 = mod.Automaton([b"bc", b"abc"])
        assert auto2.first_match(b"xabc") == (3, 0)
        # a later, shorter pattern ends first, so the scan goes on after its first hit
        auto3 = mod.Automaton([b"abcd", b"bc"])
        assert auto3.first_match(b"xabcd") == (3, 1)
        # a duplicate pattern gets its own index, but the first one is reported
        dup = mod.Automaton([b"ab"])
        assert dup.insert(b"ab") == 1
        assert dup.first_match(b"xab") == (2, 0)

    def test_incremental_insert_matches_fresh_build(self, mod):
        rng = random.Random(31)
        alphabet = list(range(6))
        patterns = random_patterns(rng, alphabet, 12)
        texts = [
            bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 15)))
            for _ in range(80)
        ]
        auto = mod.Automaton()
        for k, p in enumerate(patterns):
            auto.insert(p)
            fresh = mod.Automaton(patterns[: k + 1])
            for t in texts:
                assert auto.first_match(t) == fresh.first_match(t)

    def test_grown_one_pattern_at_a_time_vs_naive(self, mod):
        # small alphabets and related patterns make many patterns share trie paths
        rng = random.Random(61)
        for _ in range(150):
            alphabet = list(range(rng.randrange(2, 5)))
            patterns = related_patterns(rng, alphabet, rng.randrange(1, 16))
            texts = [
                bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
                for _ in range(12)
            ]
            auto = mod.Automaton()
            for k, p in enumerate(patterns):
                assert auto.insert(p) == k
                for t in texts + patterns[: k + 1]:
                    assert auto.first_match(t) == naive_first_match(patterns[: k + 1], t)

    def test_agrees_with_naive_scan_1200_cases(self, mod):
        rng = random.Random(37)
        checked = 0
        while checked < 1200:
            alphabet = list(range(rng.randrange(2, 9)))
            patterns = random_patterns(rng, alphabet, rng.randrange(1, 9))
            auto = mod.Automaton(patterns)
            text = bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
            assert auto.first_match(text) == naive_first_match(patterns, text)
            checked += 1

    def test_ideal_leading_words_vs_naive(self, mod):
        from qmatroid.groebner import EngineConfig, buchberger
        from qmatroid.matroids import uniform
        from qmatroid.ncpoly import Algebra, monic_data
        from qmatroid.quantum import qsym_ideal_generators, quantum_aut_spec

        alg = Algebra((1, 2, 3))
        patterns = [monic_data(g.terms)[0] for g in qsym_ideal_generators(alg)]
        auto = mod.Automaton(patterns)
        rng = random.Random(41)
        for _ in range(1000):
            text = bytes(rng.randrange(alg.nvars) for _ in range(5))
            assert auto.first_match(text) == naive_first_match(patterns, text)
        # the complete U(2,4) bases basis, on texts of up to 7 letters, the
        # longest the engine was seen to match
        gb = buchberger(quantum_aut_spec(uniform(2, 4), "bases").generators, EngineConfig())
        assert gb.status.is_complete
        patterns = [monic_data(g.terms)[0] for g in gb.generators]
        auto = mod.Automaton(patterns)
        for _ in range(1000):
            text = bytes(rng.randrange(gb.algebra.nvars) for _ in range(rng.randrange(1, 8)))
            assert auto.first_match(text) == naive_first_match(patterns, text)


@backends
class TestReduceTerms:
    def idempotent_basis(self):
        # x^2 - x as (lt, tail) with x = byte 0
        return [(bytes([0, 0]), ((bytes([0]), Fraction(-1)),))]

    def test_rewrites_power_to_generator(self, mod):
        reducer = mod.Reducer(self.idempotent_basis())
        out = mod.reduce_terms({bytes([0, 0, 0]): Fraction(1)}, reducer)
        assert out == {bytes([0]): Fraction(1)}

    def test_trace_protocol(self, mod):
        reducer = mod.Reducer(self.idempotent_basis())
        trace = []
        out = mod.reduce_terms({bytes([0, 0]): Fraction(2)}, reducer, trace)
        assert out == {bytes([0]): Fraction(2)}
        assert trace == [(Fraction(2), b"", 0, b"")]

    def test_cancellation_inside_work_queue(self, mod):
        reducer = mod.Reducer(self.idempotent_basis())
        # x^2 - x reduces to x - x = 0
        out = mod.reduce_terms({bytes([0, 0]): Fraction(1), bytes([0]): Fraction(-1)}, reducer)
        assert out == {}

    def test_backends_agree_on_random_reductions(self, mod):
        # no independent second backend any more: check each result against
        # the definition of a normal form and its certificate
        from qmatroid.ncpoly import Algebra, monic_data
        from qmatroid.quantum import qsym_ideal_generators

        alg = Algebra((1, 2))
        data = [monic_data(g.terms) for g in qsym_ideal_generators(alg)]
        patterns = [d[0] for d in data]
        rng = random.Random(43)
        for case in range(60):
            terms = {
                bytes(rng.randrange(4) for _ in range(rng.randrange(1, 5))): Fraction(
                    rng.randrange(1, 5)
                )
                for _ in range(rng.randrange(1, 4))
            }
            reducer = mod.Reducer(data)
            trace = []
            out = mod.reduce_terms(dict(terms), reducer, trace)
            for w in out:
                assert naive_first_match(patterns, w) == (-1, -1)
            rebuilt = dict(out)
            for q, left, idx, right in trace:
                lt, tail = data[idx]
                for v, c in ((lt, 1), *tail):
                    nw = left + v + right
                    rebuilt[nw] = rebuilt.get(nw, 0) + q * c
            assert {w: c for w, c in rebuilt.items() if c} == terms


class TestReducer:
    def test_append_keeps_patterns_in_step(self):
        data = [
            (b"ab", ((b"a", Fraction(-1)),)),
            (b"c", ()),
        ]
        reducer = kernel.Reducer(data[:1])
        reducer.append(data[1])
        assert reducer.data == data
        assert len(reducer.automaton) == 2
        for text in (b"cab", b"abab", b"ba", b""):
            end, idx = reducer.automaton.first_match(text)
            expected = naive_first_match([d[0] for d in data], text)
            assert (end, idx) == expected


def random_entry(rng, alphabet, lt):
    """Monic kernel data (lt, tail) with a random tail below lt."""
    words = {bytes(rng.choice(alphabet) for _ in range(rng.randrange(len(lt) + 1))) for _ in range(3)}
    key = kernel.sort_key
    tail = [
        (v, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
        for v in words
        if key(v) < key(lt)
    ]
    tail.sort(key=lambda item: key(item[0]), reverse=True)
    return (lt, tuple(tail[: rng.randrange(3)]))


def memo_words(reducer):
    return [w for table in reducer.memo for w in table]


class TestNormalFormMemo:
    """An untraced reduction, which uses the memo, equals a traced one, which never reads it."""

    @staticmethod
    def memo_free(reducer, terms):
        return kernel.reduce_terms(dict(terms), reducer, trace=[])

    def test_equals_memo_free_across_appends(self):
        rng = random.Random(53)
        shorter = hits = prefixed = 0
        for _ in range(400):
            alphabet = list(range(rng.randrange(2, 4)))
            reducer = kernel.Reducer()
            for _ in range(rng.randrange(1, 12)):
                lt = bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
                if reducer.automaton.first_match(lt)[1] >= 0:
                    continue
                if reducer.data and len(lt) < max(len(d[0]) for d in reducer.data):
                    shorter += 1
                reducer.append(random_entry(rng, alphabet, lt))
                for _ in range(rng.randrange(1, 6)):
                    terms = {
                        bytes(rng.choice(alphabet) for _ in range(rng.randrange(7))): rng.randrange(1, 4)
                        for _ in range(rng.randrange(1, 4))
                    }
                    stored = sum(
                        type(reducer.memo[len(w)].get(w)) is tuple
                        for w in terms
                        if len(w) < len(reducer.memo)
                    )
                    hits += stored
                    # input words longer than the memo bound whose prefix has a
                    # stored normal form other than itself: the prefix step
                    bound = len(reducer.memo) - 1
                    for w in terms:
                        if len(w) > bound:
                            nf = reducer.memo[bound].get(w[:bound])
                            prefixed += type(nf) is tuple and nf != (w[:bound], 1)
                    memoized = kernel.reduce_terms(dict(terms), reducer)
                    assert memoized == self.memo_free(reducer, terms)
                    longest = max(len(d[0]) for d in reducer.data)
                    assert all(len(w) <= longest for w in memo_words(reducer))
        # the run met every case it is meant to cover
        assert shorter > 100 and hits > 100 and prefixed > 100

    def test_shorter_append_drops_longer_normal_forms(self):
        # x*y*z - z; then x*y - y ends earlier in x*y*z, so NF(x*y*z) turns
        # from z into NF(y*z) = y*z
        x, y, z = b"\x00", b"\x01", b"\x02"
        reducer = kernel.Reducer([(x + y + z, ((z, -1),))])
        for _ in range(2):
            assert kernel.reduce_terms({x + y + z: 1, z + z: 1}, reducer) == {z: 1, z + z: 1}
        assert reducer.memo[3][x + y + z] == (z, 1)
        reducer.append((x + y, ((y, -1),)))
        # a shorter word cannot contain the new leading word: kept
        assert reducer.memo[1] and not reducer.memo[2] and not reducer.memo[3]
        assert kernel.reduce_terms({x + y + z: 1}, reducer) == {y + z: 1}

    @staticmethod
    def queried(reducer):
        """The texts reducer.automaton.first_match is asked about, in order."""
        texts = []
        first_match = reducer.automaton.first_match

        def recording(text):
            texts.append(text)
            return first_match(text)

        reducer.automaton.first_match = recording
        return texts

    def test_irreducible_prefix_takes_the_rewrite_step(self):
        # x*y - z; the prefix y*x of y*x*y*z is irreducible, so the whole
        # word is matched and rewritten to y*z*z, which is matched in turn
        x, y, z = b"\x00", b"\x01", b"\x02"
        reducer = kernel.Reducer([(x + y, ((z, -1),))])
        texts = self.queried(reducer)
        for _ in range(2):
            texts.clear()
            assert kernel.reduce_terms({y + x + y + z: 1}, reducer) == {y + z + z: 1}
        assert reducer.memo[2][y + x] == (y + x, 1)
        # second meeting: each prefix's NF is computed, then each whole word matched
        assert texts == [y + x, y + x + y + z, y + z, y + z + z]
        assert self.memo_free(reducer, {y + x + y + z: 1}) == {y + z + z: 1}

    def test_prefix_normal_form_with_multi_letter_suffix(self):
        # x*y - z and z*x - y: NF(x*y*x*y) = NF(z*(x*y)) = NF(y*y), the
        # substituted word z*x*y reducing again through its prefix z*x
        x, y, z = b"\x00", b"\x01", b"\x02"
        reducer = kernel.Reducer([(x + y, ((z, -1),)), (z + x, ((y, -1),))])
        texts = self.queried(reducer)
        assert kernel.reduce_terms({x + y + x + y: 2}, reducer) == {y + y: 2}
        # first meeting: the prefixes are only marked and the words rewritten
        assert reducer.memo[2][x + y] is None and reducer.memo[2][z + x] is None
        assert texts == [x + y + x + y, z + x + y, y + y]
        texts.clear()
        assert kernel.reduce_terms({x + y + x + y: 2}, reducer) == {y + y: 2}
        assert reducer.memo[2][x + y] == (z, 1) and reducer.memo[2][z + x] == (y, 1)
        # second meeting: no word longer than the bound is matched
        assert all(len(t) <= 2 for t in texts)
        assert self.memo_free(reducer, {x + y + x + y: 2}) == {y + y: 2}

    def test_traced_reduction_leaves_memo_untouched(self):
        from qmatroid.ncpoly import Algebra, monic_data, normal_remainder, replay_trace
        from qmatroid.quantum import qsym_ideal_generators

        alg = Algebra((1, 2))
        basis = qsym_ideal_generators(alg)
        reducer = kernel.Reducer(monic_data(g.terms) for g in basis)
        rng = random.Random(59)
        polys = [
            alg.poly(
                {
                    bytes(rng.randrange(alg.nvars) for _ in range(rng.randrange(1, 6))): rng.randrange(1, 5)
                    for _ in range(rng.randrange(1, 5))
                }
            )
            for _ in range(40)
        ]
        for p in polys * 2:
            normal_remainder(p, reducer)
        before = [dict(table) for table in reducer.memo]
        assert any(type(nf) is tuple for table in before for nf in table.values())
        remainders = []
        for p in polys:
            trace: list = []
            remainders.append(normal_remainder(p, reducer, trace))
            assert reducer.memo == before
            assert replay_trace(trace, basis, remainders[-1]) == p
        assert remainders == [normal_remainder(p, reducer) for p in polys]


def single_heap_reduce_terms(terms, reducer, trace=None):
    """Reference reduce_terms: one heap keyed (-len(w), reversed w, w) over all lengths.

    The same steps as kernel.reduce_terms, memo and prefix substitution
    included, with every pending word in one heap and the memo table chosen
    on every pop.
    """
    basis, automaton, memo = reducer.data, reducer.automaton, reducer.memo
    work = dict(terms)
    heap = [(-len(w), w[::-1], w) for w in work]
    heapq.heapify(heap)
    out = {}
    top = len(memo) if trace is None else 0
    bound = top - 1
    prefixes = memo[bound] if trace is None else None

    def push(nw, c):
        old = work.get(nw)
        if old is None:
            work[nw] = c
            heapq.heappush(heap, (-len(nw), nw[::-1], nw))
        elif old + c:
            work[nw] = old + c
        else:
            del work[nw]

    while heap:
        n, _, w = heapq.heappop(heap)
        c = work.pop(w, None)
        if c is None:
            continue
        if -n < top:
            table = memo[-n]
            nf = table.get(w, kernel._UNSEEN)
            if nf is kernel._UNSEEN:
                table[w] = None
            else:
                kernel._add_flat(out, kernel._normal_form(w, reducer) if nf is None else nf, c)
                continue
        elif prefixes is not None:
            x = w[:bound]
            nf = prefixes.get(x, kernel._UNSEEN)
            if nf is kernel._UNSEEN:
                prefixes[x] = None
            else:
                if nf is None:
                    nf = kernel._normal_form(x, reducer)
                if nf != (x, 1):
                    it = iter(nf)
                    for u, cu in zip(it, it):
                        push(u + w[bound:], c * cu)
                    continue
        end, idx = automaton.first_match(w)
        if idx < 0:
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                del out[w]
            continue
        lt, tail = basis[idx]
        a, b = w[: end + 1 - len(lt)], w[end + 1 :]
        if trace is not None:
            trace.append((c, a, idx, b))
        for v, cv in tail:
            push(a + v + b, -c * cv)
    return out


class TestPerLengthHeaps:
    """reduce_terms, with one heap per word length, takes the same steps as one heap over all."""

    def test_equals_single_heap_reference(self):
        rng = random.Random(67)
        memoized_cases = 0
        for _ in range(320):
            alphabet = list(range(rng.randrange(2, 4)))
            data = []
            for _ in range(rng.randrange(1, 10)):
                lt = bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
                if naive_first_match([d[0] for d in data], lt)[1] < 0:
                    data.append(random_entry(rng, alphabet, lt))
            # two reducers in the same state, one for each loop
            ours, theirs = kernel.Reducer(data), kernel.Reducer(data)
            for _ in range(rng.randrange(1, 6)):
                # mixed lengths, the empty word and words beyond the memo bound among them
                terms = {
                    bytes(rng.choice(alphabet) for _ in range(rng.randrange(9))): rng.randrange(-3, 4) or 1
                    for _ in range(rng.randrange(1, 6))
                }
                trace, expected_trace = [], []
                got = kernel.reduce_terms(dict(terms), ours, trace)
                expected = single_heap_reduce_terms(dict(terms), theirs, expected_trace)
                assert list(got.items()) == list(expected.items())
                assert trace == expected_trace
                got = kernel.reduce_terms(dict(terms), ours)
                expected = single_heap_reduce_terms(dict(terms), theirs)
                assert list(got.items()) == list(expected.items())
                assert ours.memo == theirs.memo
                memoized_cases += any(type(nf) is tuple for table in ours.memo for nf in table.values())
        assert memoized_cases > 300

    def test_empty_terms(self):
        reducer = kernel.Reducer([(b"\x00\x00", ((b"\x00", Fraction(-1)),))])
        trace = []
        assert kernel.reduce_terms({}, reducer, trace) == {} and trace == []
        assert kernel.reduce_terms({}, reducer) == {}
        # the empty word is irreducible and comes out as it went in
        assert kernel.reduce_terms({b"": Fraction(3)}, reducer) == {b"": Fraction(3)}

    def test_word_of_300_letters(self):
        # x*x - x rewrites x^300 down to x in 299 steps, through 300 lengths
        x = b"\x00"
        reducer = kernel.Reducer([(x + x, ((x, Fraction(-1)),))])
        trace = []
        assert kernel.reduce_terms({x * 300: Fraction(2)}, reducer, trace) == {x: Fraction(2)}
        assert trace == [(Fraction(2), b"", 0, x * k) for k in range(298, -1, -1)]
        assert kernel.reduce_terms({x * 300: Fraction(2)}, reducer) == {x: Fraction(2)}
        # y*x - x*y sorts a long word with both letters, pushing within one length
        rng = random.Random(71)
        w = bytes(rng.randrange(2) for _ in range(300))
        ours = kernel.Reducer([(b"\x01\x00", ((b"\x00\x01", Fraction(-1)),))])
        theirs = kernel.Reducer(ours.data)
        ones = w.count(1)
        for trace in ([], None):
            got = kernel.reduce_terms({w: 1, x: 1}, ours, trace)
            assert got == single_heap_reduce_terms({w: 1, x: 1}, theirs, None if trace is None else [])
            assert got == {bytes(300 - ones) + bytes([1]) * ones: 1, x: 1}


@backends
class TestOverlaps:
    def test_proper_overlap_each_direction(self, mod):
        u = bytes([0, 1])  # u11*u12
        v = bytes([1, 0])  # u12*u11
        obs = mod.overlap_obstructions(u, v, False)
        for lf, rf, lg, rg in obs:
            assert lf + u + rf == lg + v + rg
        # one proper overlap in each direction, no containments
        assert len(obs) == 2

    def test_disjoint_supports_no_obstruction(self, mod):
        assert mod.overlap_obstructions(bytes([0]), bytes([3]), False) == []

    def test_self_overlap_square(self, mod):
        u = bytes([0, 0])  # u11^2
        obs = mod.overlap_obstructions(u, u, True)
        assert obs == [(b"", bytes([0]), bytes([0]), b"")]
        lf, rf, lg, rg = obs[0]
        assert lf + u + rf == lg + u + rg == bytes([0, 0, 0])

    def test_containment_placements(self, mod):
        u = bytes([0, 1, 0])
        v = bytes([1])
        obs = mod.overlap_obstructions(u, v, False)
        assert (b"", b"", bytes([0]), bytes([0])) in obs
        for lf, rf, lg, rg in obs:
            assert lf + u + rf == lg + v + rg

    def test_identical_placement_dropped_for_same(self, mod):
        u = bytes([0, 1])
        assert mod.overlap_obstructions(u, u, True) == []

    def test_backends_agree_on_random_pairs(self, mod):
        # against a brute-force placement scan
        rng = random.Random(47)
        for _ in range(400):
            u = bytes(rng.randrange(3) for _ in range(rng.randrange(1, 6)))
            v = bytes(rng.randrange(3) for _ in range(rng.randrange(1, 6)))
            same = rng.random() < 0.3
            if same:
                v = u
            got = mod.overlap_obstructions(u, v, same)
            want = naive_obstructions(u, v, same)
            assert sorted(got) == sorted(want)
            assert len(set(got)) == len(got)
            for lf, rf, lg, rg in got:
                assert lf + u + rf == lg + v + rg


@backends
class TestOrderPrimitives:
    def test_sort_key_and_compare_agree(self, mod):
        rng = random.Random(53)
        words = [
            bytes(rng.randrange(5) for _ in range(rng.randrange(0, 6)))
            for _ in range(100)
        ]
        for w1 in words[:30]:
            for w2 in words[:30]:
                c = mod.compare_words(w1, w2)
                k1, k2 = mod.sort_key(w1), mod.sort_key(w2)
                assert c == (k1 > k2) - (k1 < k2)

    def test_backends_same_keys(self, mod):
        # the translate-table key equals the generator formula it replaced
        rng = random.Random(59)
        for _ in range(500):
            w = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 9)))
            assert mod.sort_key(w) == (len(w), bytes(255 - b for b in reversed(w)))

    def test_sort_key_sorts_like_generator_formula(self, mod):
        rng = random.Random(71)
        for alphabet in (3, 7, 256):
            words = [
                bytes(rng.randrange(alphabet) for _ in range(rng.randrange(0, 7)))
                for _ in range(300)
            ]
            old = sorted(words, key=lambda w: (len(w), bytes(255 - b for b in reversed(w))))
            assert sorted(words, key=mod.sort_key) == old
