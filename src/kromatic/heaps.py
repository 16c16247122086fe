"""Heaps of pieces over a graph: traces, pyramids, rotation, Lyndon heaps.

A heap over graph G is an equivalence class of words on the vertex alphabet,
where two neighbouring letters may be swapped iff their vertices are distinct
and non-adjacent.  A heap is its canonical word, a tuple of vertices: the
lexicographically largest member, which is the greedy word that always
takes the largest piece with nothing untaken below it.  Canonical words
have one encoding, the growth step _extends_canonically: the enumerations
grow by it, and canonical_word inserts each letter of any word at the last
place it allows.
Pieces are referred to by their index (0-based) in the canonical word.
Every function that needs the graph takes it first, as (g, w).

Pyramids and Lyndon heaps grow letter by letter as canonical words, Lyndon
heaps as prenecklaces.  The rotation functions are the oracles; the
enumeration of every heap is a test oracle in tests/helpers.py.  The other
modules read counts, never words: Lyndon heaps by support and pyramids by
class, one cached table per (graph, size).
"""
from collections import Counter
from functools import cache
from types import MappingProxyType

from .graphs import mask_of
from .numbers import divisors, mobius


@cache
def _deps(g):
    """Closed-neighbourhood masks: bit u-1 of dep[v] is set iff pieces u and
    v do not commute (u == v or u ~ v).  Index 0 is unused."""
    return tuple(a | (1 << (v - 1)) if v else 0 for v, a in enumerate(g.adj))


def canonical_word_with_perm(g, word):
    """Canonical (lex-max) word of the trace of `word`, plus the permutation
    perm with perm[k] = index in `word` of the piece at canonical slot k.

    Built by insertion, letter by letter.  The lex-max word is the greedy
    one, which always takes the largest piece with nothing unplaced below
    it.  Nothing lies above the newest piece v, so deleting it leaves the
    greedy order of the others unchanged: v goes somewhere into the
    canonical word out of the others.  It goes at the last place p where
    out[:p] + (v,) is canonical (p = 0 always is).  Every piece after v's
    place commutes with v, and the greedy took v before the first of them,
    which is smaller than v, so no later place passes
    _extends_canonically; v's own place does, as a prefix of a canonical
    word.
    """
    dep = _deps(g)
    out, perm = [], []
    for i, v in enumerate(word):
        p = len(out)
        while not _extends_canonically(dep, out[:p], v):
            p -= 1
        out.insert(p, v)
        perm.insert(p, i)
    return tuple(out), tuple(perm)


def canonical_word(g, word):
    return canonical_word_with_perm(g, word)[0]


def word_str(word):
    if all(v < 10 for v in word):
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def heap_from_word(g, word):
    word = tuple(word)
    for v in word:
        if not (1 <= v <= g.n):
            raise ValueError(f"letter {v} outside vertex range 1..{g.n}")
    return canonical_word(g, word)


def _upper_closure(dep, w, p):
    """Bitmask of the piece indices at or above piece p of word w."""
    reach = 1 << p
    blocked = dep[w[p]]
    for j in range(p + 1, len(w)):
        if blocked >> (w[j] - 1) & 1:
            reach |= 1 << j
            blocked |= dep[w[j]]
    return reach


def is_pyramid(g, w):
    """Whether the heap has one bottom piece.  The first piece of a word is
    a bottom piece, so the heap is a pyramid iff every piece lies above
    it."""
    return bool(w) and _upper_closure(_deps(g), w, 0) == (1 << len(w)) - 1


def rotate(g, w, p):
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
    if not (0 <= p < len(w)):
        raise IndexError("piece index out of range")
    reach = _upper_closure(_deps(g), w, p)
    new_word = (tuple(v for i, v in enumerate(w) if reach >> i & 1)
                + tuple(v for i, v in enumerate(w) if not reach >> i & 1))
    canon = canonical_word(g, new_word)
    return canon, canon.index(w[p])


def rotate_to_source(g, w, p):
    """Iterate rotation at p until p is the unique bottom piece; returns the
    resulting pyramid.  Oracle step, as for rotate.

    Precondition: w is a pyramid.  Then at most size - 1 rotations are
    needed.  Let C be the upward closure of p in the current heap H, so that
    H = R o C with R the remaining pieces.  Rotation gives C o R, in which
    the closure of p still contains C, since the order inside C is kept.  If
    it contained nothing more, no piece of R would depend on a piece of C:
    the letters of C and of R would commute, so every heap with the letters
    of w, w among them, would have a bottom piece in each part, and w would
    not be a pyramid.  So each rotation adds at least one piece to the
    closure of p, which starts with one piece, and once it holds all pieces,
    p is the unique bottom piece.
    """
    dep = _deps(g)
    full = (1 << len(w)) - 1
    cur, cp = w, p
    for _ in range(len(w)):
        if _upper_closure(dep, cur, cp) == full:
            return cur
        cur, cp = rotate(g, cur, cp)
    raise ValueError(f"rotation at piece {p} of [{word_str(w)}] did not "
                     "reach a pyramid within size - 1 steps: not a pyramid")


def rotation_class(g, w):
    """The words of the pyramids reachable by rotating each piece of w to
    the bottom, sorted (precondition: w is a pyramid).  The oracle of
    enumerate_lyndon, for the verify check rotation-example-P3-2311 and the
    tests' _lyndon_by_filter."""
    if not is_pyramid(g, w):
        raise ValueError("rotation class is defined for pyramids")
    return sorted({rotate_to_source(g, w, p) for p in range(len(w))})


def is_lyndon(g, w):
    """Aperiodic pyramid that is the lex-least member of its rotation class.
    The definition, kept as the oracle for the callers rotation_class names."""
    if not is_pyramid(g, w):
        return False
    cls = rotation_class(g, w)
    if len(cls) != len(w):
        return False  # periodic: rotation class collapses
    return w == cls[0]


def _extends_canonically(dep, w, v):
    """Whether w + (v,) is canonical, for canonical w: the step by which
    canonical words grow letter by letter (every prefix of a canonical word
    is canonical).  It is iff every letter of the longest suffix of w that
    commutes with v is larger than v: a smaller one could be overtaken by
    v.  Extending sorted words by ascending letters keeps them sorted."""
    d = dep[v]
    for u in reversed(w):
        if d >> (u - 1) & 1:
            return True
        if u < v:
            return False
    return True


@cache
def enumerate_pyramids(g, n):
    """Pyramids of size n, sorted by canonical word, grown by
    _extends_canonically.  A source of a prefix, a letter commuting with all
    letters before it, is a source of the word, so every prefix of a
    pyramid is a pyramid, and w + (v,) is one iff w is, v is no second
    source (it fails to commute with some letter of w) and w + (v,) is
    canonical."""
    if n <= 1:
        return tuple((v,) for v in g.vertices()) if n else ()
    dep = _deps(g)
    out = []
    for w in enumerate_pyramids(g, n - 1):
        m = mask_of(w)
        out.extend(w + (v,) for v in g.vertices()
                   if m & dep[v] and _extends_canonically(dep, w, v))
    return tuple(out)


@cache
def _prenecklaces(g, n):
    """Sorted canonical words of size n that are prenecklaces, each with
    its period p, grown by _extends_canonically.  By Fredricksen-Kessler-
    Maiorana, w + (v,) is a prenecklace iff v >= w[-p], of period p if
    v == w[-p] and n otherwise; those of period n are the Lyndon words."""
    if n <= 1:
        return tuple(((v,), 1) for v in g.vertices()) if n else ()
    dep = _deps(g)
    return tuple((w + (v,), p if v == w[-p] else n)
                 for w, p in _prenecklaces(g, n - 1)
                 for v in g.vertices()
                 if v >= w[-p] and _extends_canonically(dep, w, v))


def enumerate_lyndon(g, n):
    """Lyndon heaps of size n, sorted by canonical word: the canonical
    Lyndon words of _prenecklaces.  A canonical Lyndon word is a pyramid:
    its first letter is least, and a second source would commute with every
    earlier letter and so, by canonicity, be smaller than the first.

    A pyramid h is a Lyndon heap iff its canonical word w is a Lyndon word:
    smaller than each proper suffix, or each proper rotation.  Suppose the
    bottom letter a = w[0] is least in w.  (1) Then every power of w is
    canonical.  A violation is a letter after a run of letters it commutes
    with, back to a smaller letter.  The run holds no copy of the letter, so
    it is shorter than w, and w is canonical, so it reaches into the copy
    before: the letter commutes with all letters before it in its own copy,
    so it is the bottom piece a, which is least.
    (2) For w[i] == a, rotate_to_source(g, w, i) has the word w[i:] + w[:i].
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
    return tuple(w for w, p in _prenecklaces(g, n) if p == n)


@cache
def lyndon_support_counts(g, n):
    """{vertex bitmask S: number of Lyndon heaps of size n with support
    exactly S}, read-only."""
    return MappingProxyType(Counter(map(mask_of, enumerate_lyndon(g, n))))


@cache
def _lyndon_counts_by_support(g, n):
    """table[S] = number of Lyndon heaps of size n whose support lies inside
    the vertex bitmask S: lyndon_support_counts summed over subsets (zeta
    transform)."""
    table = [lyndon_support_counts(g, n).get(s, 0) for s in range(1 << g.n)]
    for b in range(g.n):
        bit = 1 << b
        for s in range(1 << g.n):
            if s & bit:
                table[s] += table[s ^ bit]
    return table


def lyndon_count(g, n, support=None):
    """Number of Lyndon heaps of size n; if support is a bitmask, only heaps
    whose pieces all lie inside it are counted."""
    mask = g.full_mask if support is None else support & g.full_mask
    return _lyndon_counts_by_support(g, n)[mask]


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


@cache
def pyramid_classes(g, n):
    """{(pieces per vertex, own ascents): number of pyramids of size n},
    read-only: all that a list of pyramids needs of each member to count
    its ascents (see quasisym.pyramid_p_expansion_q)."""
    return MappingProxyType(Counter(
        (tuple(map(w.count, g.vertices())), ascent_count(g, w))
        for w in enumerate_pyramids(g, n)))


def lyndon_mobius_check(g, n):
    """Both sides of k*#Lyndon(k) = sum_{d | k} mobius(k/d) * #Pyramids(d),
    for k = n, the pyramids counted by pyramid_classes."""
    lhs = n * len(enumerate_lyndon(g, n))
    rhs = sum(mobius(n // d) * sum(pyramid_classes(g, d).values())
              for d in divisors(n))
    return lhs, rhs
