"""Heaps of pieces over a graph: traces, pyramids, rotation, Lyndon heaps.

A heap over graph G is an equivalence class of words on the vertex alphabet,
where two neighbouring letters may be swapped iff their vertices are distinct
and non-adjacent.  Each class is represented by its canonical word: the
lexicographically largest member, computed greedily by always emitting the
largest-vertex piece among those with no unemitted earlier dependency.
Pieces are referred to by their index (0-based) in the canonical word.
"""
from __future__ import annotations

import itertools
from functools import cache

from .graphs import mask_of
from .numbers import divisors, mobius


@cache
def _deps(g):
    """Closed-neighbourhood masks: bit u-1 of dep[v] is set iff pieces u and
    v do not commute (u == v or u ~ v).  Index 0 is unused."""
    return tuple(a | (1 << (v - 1)) if v else 0 for v, a in enumerate(g.adj))


def canonical_word_with_perm(g, word):
    """Canonical (lex-max) word of the trace of `word`, plus the permutation
    perm with perm[k] = index in `word` of the piece at canonical slot k."""
    dep = _deps(g)
    n = len(word)
    preds = []  # preds[i]: bitmask of earlier positions that block i
    for i, v in enumerate(word):
        d = dep[v]
        m = 0
        for j in range(i):
            if d >> (word[j] - 1) & 1:
                m |= 1 << j
        preds.append(m)
    left = (1 << n) - 1
    out = []
    perm = []
    for _ in range(n):
        best = -1
        for i in range(n):
            if (left >> i & 1 and not preds[i] & left
                    and (best < 0 or word[i] > word[best])):
                best = i
        left ^= 1 << best
        out.append(word[best])
        perm.append(best)
    return tuple(out), tuple(perm)


def canonical_word(g, word):
    return canonical_word_with_perm(g, word)[0]


class Heap:
    """A trace over a host graph, held in canonical-word form."""

    __slots__ = ("graph", "word", "support_mask")

    def __init__(self, graph, word):
        word = tuple(word)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "support_mask", mask_of(word))

    def __setattr__(self, *a):
        raise AttributeError("Heap is immutable")

    @property
    def size(self):
        return len(self.word)

    def __eq__(self, other):
        return (isinstance(other, Heap)
                and self.graph == other.graph and self.word == other.word)

    def __hash__(self):
        return hash((self.graph.n, self.graph.edges, self.word))

    def __repr__(self):
        return f"Heap[{word_str(self.word)}]"


def word_str(word):
    if all(v < 10 for v in word):
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def heap_from_word(g, word):
    word = tuple(word)
    for v in word:
        if not (1 <= v <= g.n):
            raise ValueError(f"letter {v} outside vertex range 1..{g.n}")
    return Heap(g, canonical_word(g, word))


def sources(h):
    """Piece indices with no dependent piece before them."""
    dep = _deps(h.graph)
    below = 0  # vertices that do not commute with some earlier piece
    out = []
    for i, v in enumerate(h.word):
        if not below >> (v - 1) & 1:
            out.append(i)
        below |= dep[v]
    return out


def is_pyramid(h):
    return h.size >= 1 and len(sources(h)) == 1


def _upper_closure(dep, w, p):
    """Bitmask of the piece indices at or above piece p of word w."""
    reach = 1 << p
    blocked = dep[w[p]]
    for j in range(p + 1, len(w)):
        if blocked >> (w[j] - 1) & 1:
            reach |= 1 << j
            blocked |= dep[w[j]]
    return reach


def rotate(h, p):
    """One rotation step at piece p: split off the upward closure C of p and
    put it below the rest R.  Returns (rotated heap, new index of p).
    Oracle step, reached from rotation-example-P3-2311 and _lyndon_by_filter.

    The new index is the first occurrence of p's letter.  Pieces with one
    letter do not commute, so every word of a heap lists them in the same
    order, from the bottom up.  In C o R every other piece of C lies above
    p, since the order inside C is kept, and every piece of R with p's
    letter lies above C's pieces with that letter, since R is stacked on C.
    So p is the lowest piece with its letter.
    """
    g, w = h.graph, h.word
    if not (0 <= p < len(w)):
        raise IndexError("piece index out of range")
    reach = _upper_closure(_deps(g), w, p)
    new_word = (tuple(v for i, v in enumerate(w) if reach >> i & 1)
                + tuple(v for i, v in enumerate(w) if not reach >> i & 1))
    canon = canonical_word(g, new_word)
    return Heap(g, canon), canon.index(w[p])


def rotate_to_source(h, p):
    """Iterate rotation at p until p is the unique bottom piece; returns the
    resulting pyramid.  Oracle step, as for rotate.

    Precondition: h is a pyramid.  Then at most size - 1 rotations are
    needed.  Let C be the upward closure of p in the current heap H, so that
    H = R o C with R the remaining pieces.  Rotation gives C o R, in which
    the closure of p still contains C, since the order inside C is kept.  If
    it contained nothing more, no piece of R would depend on a piece of C:
    the letters of C and of R would commute, so every heap with the letters
    of h, h among them, would have a bottom piece in each part, and h would
    not be a pyramid.  So each rotation adds at least one piece to the
    closure of p, which starts with one piece, and once it holds all pieces,
    p is the unique bottom piece.
    """
    dep = _deps(h.graph)
    full = (1 << h.size) - 1
    cur, cp = h, p
    for _ in range(h.size):
        if _upper_closure(dep, cur.word, cp) == full:
            return cur
        cur, cp = rotate(cur, cp)
    raise ValueError(f"rotation at piece {p} of {h!r} did not reach a "
                     "pyramid within size - 1 steps: not a pyramid")


def rotation_class(h):
    """The set of pyramids reachable by rotating each piece of h to the
    bottom, sorted by canonical word (precondition: h is a pyramid).  The
    oracle of enumerate_lyndon, for the verify check rotation-example-P3-2311
    and the tests' _lyndon_by_filter."""
    if not is_pyramid(h):
        raise ValueError("rotation class is defined for pyramids")
    seen = {}
    for p in range(h.size):
        r = rotate_to_source(h, p)
        seen[r.word] = r
    return [seen[w] for w in sorted(seen)]


def is_lyndon(h):
    """Aperiodic pyramid that is the lex-least member of its rotation class.
    The definition, kept as the oracle for the callers rotation_class names."""
    if not is_pyramid(h):
        return False
    cls = rotation_class(h)
    if len(cls) != h.size:
        return False  # periodic: rotation class collapses
    return h.word == cls[0].word


def _extends_canonically(dep, w, v):
    d = dep[v]
    for u in reversed(w):
        if d >> (u - 1) & 1:
            return True
        if u < v:
            return False
    return True


@cache
def enumerate_heaps(g, n):
    """All heaps of size n on g, sorted by canonical word.

    Canonical words are extended letter by letter (every prefix of a
    canonical word is canonical).  For canonical w, the word w + (v,) is
    canonical iff every letter of the longest suffix of w that commutes with
    v is larger than v: a smaller one could be overtaken by v.  Extending
    the sorted words of size n - 1 by ascending letters keeps them sorted.
    """
    if n == 0:
        return (Heap(g, ()),)
    dep = _deps(g)
    return tuple(Heap(g, h.word + (v,))
                 for h in enumerate_heaps(g, n - 1)
                 for v in g.vertices()
                 if _extends_canonically(dep, h.word, v))


@cache
def enumerate_pyramids(g, n):
    """Pyramids of size n, sorted by canonical word."""
    return tuple(h for h in enumerate_heaps(g, n) if is_pyramid(h))


@cache
def enumerate_lyndon(g, n):
    """Lyndon heaps of size n, sorted by canonical word.

    A pyramid h is a Lyndon heap iff its canonical word w is a Lyndon word:
    smaller than each proper suffix, or each proper rotation.  Suppose the
    bottom letter a = w[0] is least in w.  (1) Then every power of w is
    canonical.  A violation is a letter after a run of letters it commutes
    with, back to a smaller letter.  The run holds no copy of the letter, so
    it is shorter than w, and w is canonical, so it reaches into the copy
    before: the letter commutes with all letters before it in its own copy,
    so it is the bottom piece a, which is least.
    (2) For w[i] == a, rotate_to_source(h, i) has the word w[i:] + w[:i].
    A first later piece j not above i would commute with w[i:j] and so
    exceed a, breaking canonicity.  So one rotation gives w[i:] + w[:i],
    canonical by (1) as a factor of w + w, and for the same reason with i
    alone at the bottom.  Any piece p rotates to a pyramid whose word starts
    with w[p].  So if h is a Lyndon heap, a is least; rotations of w at
    other letters start higher, and those at a-pieces are words of other
    members by (2), so w is below each.  If w is a Lyndon word, a is least
    and h is the least member.  h is aperiodic, as h = k o ... o k would
    make w a power of k's word by (1); by Lalonde's dichotomy (checked by
    test_lalonde_dichotomy) the class of an aperiodic pyramid has n members.
    """
    return tuple(h for h in enumerate_pyramids(g, n)
                 if all(h.word < h.word[i:] for i in range(1, n)))


@cache
def _lyndon_counts_by_support(g, n):
    """table[S] = number of Lyndon heaps of size n whose support lies inside
    the vertex bitmask S: exact-support counts, summed over subsets (zeta
    transform)."""
    table = [0] * (1 << g.n)
    for h in enumerate_lyndon(g, n):
        table[h.support_mask] += 1
    for b in range(g.n):
        bit = 1 << b
        for s in range(1 << g.n):
            if s & bit:
                table[s] += table[s ^ bit]
    return table


def lyndon_count(g, n, support=None):
    """Number of Lyndon heaps of size n; if support is a bitmask, only heaps
    whose pieces all lie inside it are counted."""
    if support is None:
        return len(enumerate_lyndon(g, n))
    return _lyndon_counts_by_support(g, n)[support & g.full_mask]


_CACHED = (_deps, enumerate_heaps, enumerate_pyramids, enumerate_lyndon,
           _lyndon_counts_by_support)


def clear_caches():
    """Empty every module-level cache of the heap layer, so that the next
    call recomputes from scratch."""
    for fn in _CACHED:
        fn.cache_clear()


def _downward_closed_subsets(h, size):
    """Piece index sets of the given size closed under dependency
    predecessors."""
    dep, w = _deps(h.graph), h.word
    n = len(w)
    preds = [{j for j in range(i) if dep[w[i]] >> (w[j] - 1) & 1}
             for i in range(n)]
    for subset in itertools.combinations(range(n), size):
        s = set(subset)
        if all(preds[i] <= s for i in s):
            yield subset


def left_divide(h, l):
    """All heaps k with h = l o k (usually zero or one)."""
    out = []
    seen = set()
    for subset in _downward_closed_subsets(h, l.size):
        s = set(subset)
        lower = tuple(h.word[i] for i in subset)
        upper = tuple(h.word[i] for i in range(h.size) if i not in s)
        if canonical_word(h.graph, lower) == l.word:
            k = Heap(h.graph, canonical_word(h.graph, upper))
            if k.word not in seen:
                # confirm the factorization reassembles h
                if canonical_word(h.graph, l.word + k.word) == h.word:
                    seen.add(k.word)
                    out.append(k)
    return out


def lyndon_factorize(h):
    """The unique factorization of h into Lyndon heaps L1 o ... o Lk with
    canonical words nonincreasing lexicographically."""
    g = h.graph
    lyndon_pool = []
    for n in range(1, h.size + 1):
        lyndon_pool.extend(enumerate_lyndon(g, n))

    results = []

    def search(rest, bound, acc):
        if rest.size == 0:
            results.append(list(acc))
            return
        for l in lyndon_pool:
            if l.size > rest.size:
                continue
            if bound is not None and l.word > bound:
                continue
            for k in left_divide(rest, l):
                search(k, l.word, acc + [l])

    search(h, None, [])
    if len(results) != 1:
        raise RuntimeError(
            f"expected exactly one nonincreasing Lyndon factorization of "
            f"{h!r}, found {len(results)}")
    return results[0]


def ascent_count(g, w):
    """Pairs of pieces (a, b) of the heap with word w on g, with a before b
    in w, vertices adjacent in g, and vertex(a) < vertex(b).  Adjacent
    pieces never commute, so every word of the heap lists each such pair in
    the same order and gives the same count."""
    total = 0
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] < w[j] and g.adjacent(w[i], w[j]):
                total += 1
    return total


def lyndon_mobius_check(g, n):
    """Both sides of k*#Lyndon(k) = sum_{d | k} mobius(k/d) * #Pyramids(d),
    for k = n."""
    lhs = n * len(enumerate_lyndon(g, n))
    rhs = sum(mobius(n // d) * len(enumerate_pyramids(g, d))
              for d in divisors(n))
    return lhs, rhs
