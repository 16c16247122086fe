import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kromatic import BUNDLED_GRAPHS, bundled_graph, heaps
from kromatic.graphs import Graph, independence_polynomial, mask_of
from kromatic.heaps import (
    _deps, _extends_canonically, ascent_count, canonical_word,
    canonical_word_with_perm, enumerate_lyndon, enumerate_pyramids,
    heap_from_word, is_lyndon, is_pyramid, lyndon_count,
    lyndon_mobius_check, lyndon_support_counts, rotate, rotate_to_source,
    rotation_class, word_str,
)
from kromatic.numbers import divisors, mobius

from helpers import (check_canonical_invariance, clear_caches, compose_all,
                     enumerate_heaps, heap_count_identity_defect,
                     is_aperiodic, lyndon_factorize, series_log,
                     series_neg_sub, series_reciprocal, small_graphs,
                     sources)

K2 = bundled_graph("k2")
P3 = bundled_graph("p3")
P4 = bundled_graph("p4")
C4 = bundled_graph("c4")
PAW = bundled_graph("paw")
BUNDLED = [bundled_graph(name) for name in BUNDLED_GRAPHS]


def test_canonical_word_examples():
    assert heap_from_word(P3, (2, 1, 1, 3)) == (2, 3, 1, 1)
    assert heap_from_word(P3, (1, 1, 3, 2)) == (3, 1, 1, 2)
    # complete graphs never commute: word survives as-is
    assert heap_from_word(K2, (1, 2, 1, 2)) == (1, 2, 1, 2)
    assert heap_from_word(P3, ()) == ()
    with pytest.raises(ValueError):
        heap_from_word(K2, (3,))


def test_type_and_support():
    w = heap_from_word(P3, (2, 1, 1, 3))
    assert len(w) == 4
    assert mask_of(w) == 0b111


def test_compose():
    a = heap_from_word(P3, (1,))
    b = heap_from_word(P3, (3,))
    assert compose_all(P3, [a, b]) == (3, 1)
    assert compose_all(P3, [b, a]) == (3, 1)
    assert compose_all(P3, [a, a, b]) == (3, 1, 1)
    # composition is associative
    c = heap_from_word(P3, (2,))
    assert (compose_all(P3, [compose_all(P3, [a, b]), c])
            == compose_all(P3, [a, compose_all(P3, [b, c])]))


def test_sources_and_pyramids():
    h = heap_from_word(P3, (2, 3, 1, 1))
    assert sources(P3, h) == [0]
    assert is_pyramid(P3, h)
    w = heap_from_word(P3, (3, 1, 1, 2))
    assert sources(P3, w) == [0, 1]
    assert not is_pyramid(P3, w)
    assert not is_pyramid(P3, heap_from_word(P3, ()))


def test_rotation_walkthrough():
    h = heap_from_word(P3, (2, 3, 1, 1))
    r1, p1 = rotate(P3, h, 1)  # rotate at the 3-piece
    assert r1 == (3, 2, 1, 1) and p1 == 0
    # rotating the lower 1-piece of [3211] passes through the non-pyramid
    # [3112] before reaching [1123]
    mid, pm = rotate(P3, r1, 2)
    assert mid == (3, 1, 1, 2) and not is_pyramid(P3, mid) and pm == 1
    assert rotate_to_source(P3, r1, 2) == (1, 1, 2, 3)
    top = heap_from_word(P3, (1, 1, 2, 3))
    assert rotate_to_source(P3, top, 1) == (1, 2, 3, 1)


def test_rotation_class_p3():
    h = heap_from_word(P3, (2, 3, 1, 1))
    cls = rotation_class(P3, h)
    assert cls == [
        (1, 1, 2, 3), (1, 2, 3, 1), (2, 3, 1, 1), (3, 2, 1, 1)]
    assert is_lyndon(P3, heap_from_word(P3, (1, 1, 2, 3)))
    assert not is_lyndon(P3, heap_from_word(P3, (1, 2, 3, 1)))


def test_rotation_class_periodic():
    h = heap_from_word(K2, (1, 2, 1, 2))
    cls = rotation_class(K2, h)
    assert cls == [(1, 2, 1, 2), (2, 1, 2, 1)]
    assert not is_aperiodic(K2, h)
    assert not is_lyndon(K2, h)


def test_lyndon_counts_k2():
    assert [len(enumerate_lyndon(K2, n)) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    assert list(enumerate_lyndon(K2, 4)) == [
        (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]


def test_lyndon_counts_p3():
    assert len(enumerate_lyndon(P3, 1)) == 3
    assert len(enumerate_lyndon(P3, 2)) == 2


def test_lyndon_count_support_filter():
    assert lyndon_count(P3, 2) == 2
    assert lyndon_count(P3, 2, support=0b011) == 1  # only [12]-type inside {1,2}
    assert lyndon_count(P3, 1, support=0b100) == 1


def test_heap_counting_identity():
    for g in (K2, P3, K2, C4, PAW):
        assert heap_count_identity_defect(g, 6) == [0] * 7


def test_lyndon_mobius_identities():
    for g in (K2, P3):
        for n in range(1, 7):
            lhs, rhs = lyndon_mobius_check(g, n)
            assert lhs == rhs
            # equivalent statement: pyramids of size n decompose by period
            assert len(enumerate_pyramids(g, n)) == sum(
                d * len(enumerate_lyndon(g, d)) for d in divisors(n))


def test_lalonde_dichotomy():
    for g in (K2, P3, PAW):
        for n in range(1, 6):
            for h in enumerate_pyramids(g, n):
                cls = rotation_class(g, h)
                if is_aperiodic(g, h):
                    assert len(cls) == n
                    assert sum(1 for c in cls if is_lyndon(g, c)) == 1
                else:
                    assert len(cls) < n
                    assert all(not is_aperiodic(g, c) for c in cls)


def test_lyndon_factorize_examples():
    h = heap_from_word(K2, (1, 2, 1, 2))
    assert lyndon_factorize(h) == [(1, 2), (1, 2)]
    k = heap_from_word(K2, (2, 1))
    assert lyndon_factorize(k) == [(2,), (1,)]


def test_lyndon_factorize_exhaustive():
    # every heap of size <= 6 on every bundled graph (8,871 heaps): Lyndon
    # factors by the rotation oracle, nonincreasing words, recomposition
    total = 0
    for g in BUNDLED:
        for n in range(1, 7):
            for h in enumerate_heaps(g, n):
                factors = lyndon_factorize(h)
                assert all(is_lyndon(g, l) for l in factors)
                assert factors == sorted(factors, reverse=True)
                assert compose_all(g, factors) == h
                total += 1
    assert total == 8871


def _nonincreasing_lists(pool, n, bound=None):
    """Lists of heaps from pool with sizes summing to n and canonical words
    nonincreasing (each at most bound)."""
    if n == 0:
        yield []
        return
    for l in pool:
        if len(l) <= n and (bound is None or l <= bound):
            for rest in _nonincreasing_lists(pool, n - len(l), l):
                yield [l] + rest


@pytest.mark.parametrize("g", BUNDLED, ids=BUNDLED_GRAPHS)
def test_lyndon_factorization_is_unique(g):
    # composing every nonincreasing list of Lyndon heaps (by the rotation
    # oracle) of total size n gives each heap of size n exactly once
    pool = [l for k in range(1, 6) for l in _lyndon_by_filter(g, k)]
    for n in range(1, 6):
        composed = sorted(compose_all(g, ls)
                          for ls in _nonincreasing_lists(pool, n))
        assert composed == list(enumerate_heaps(g, n))


def test_ascent_count():
    assert ascent_count(K2, (1, 2)) == 1
    assert ascent_count(K2, (2, 1)) == 0
    assert ascent_count(P3, (2, 3, 1, 1)) == 1
    assert ascent_count(P3, (1, 1, 2, 3)) == 3
    # every word of a heap gives the count of its canonical word
    assert heap_from_word(P3, (1, 1, 3, 2)) == (3, 1, 1, 2)
    assert ascent_count(P3, (1, 1, 3, 2)) == ascent_count(P3, (3, 1, 1, 2))
    # same-vertex pairs never count
    assert ascent_count(K2, (1, 1)) == 0
    # non-adjacent pairs never count
    assert ascent_count(P3, (3, 1)) == 0


def test_word_str():
    assert word_str((1, 2, 10)) == "1,2,10"
    assert word_str((1, 2, 3)) == "123"


def test_canonical_invariance_randomized():
    assert check_canonical_invariance(trials=200) == 200


# ---------------------------------------------------------------------------
# differential tests: each fast route against a slow oracle, on random graphs
# with at most 5 vertices (including the empty graph, isolated vertices and
# disconnected graphs) and on the bundled graphs

DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=60,
                        deadline=None)


@st.composite
def graph_and_word(draw, max_len=6):
    g = draw(small_graphs())
    if g.n == 0:
        return g, ()
    word = draw(st.lists(st.integers(1, g.n), max_size=max_len))
    return g, tuple(word)


def _lex_max_by_swaps(g, word):
    """Largest word of the commutation class, by search over swaps of
    adjacent commuting letters."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and not g.adjacent(a, b):
                x = w[:i] + (b, a) + w[i + 2:]
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
    return max(seen)


def _lyndon_by_filter(g, k):
    return [h for h in enumerate_heaps(g, k) if is_lyndon(g, h)]


def _lyndon_count_by_formula(g, k, support):
    """Viennot: log(1 / I_W(-t)) = sum over pyramids P in W of t^|P| / |P|;
    then k * #Lyndon(k) = sum over d | k of mobius(k / d) * #Pyramids(d)."""
    heaps = series_reciprocal(
        series_neg_sub(independence_polynomial(g, support)), k)
    log = series_log(heaps, k)
    total = sum(mobius(k // d) * d * log[d] for d in divisors(k))
    assert total % k == 0
    return int(total / k)


@DIFFERENTIAL
@given(graph_and_word())
def test_canonical_word_is_lex_max_of_class(gw):
    g, word = gw
    clear_caches()
    canon, perm = canonical_word_with_perm(g, word)
    assert canon == _lex_max_by_swaps(g, word)
    assert sorted(perm) == list(range(len(word)))
    assert tuple(word[i] for i in perm) == canon


@DIFFERENTIAL
@given(graph_and_word(max_len=7))
def test_growth_step_is_lex_max_by_swaps(gw):
    # the growth step is the one encoding of canonical words: hold it to
    # the swap search for every letter after a canonical word
    g, word = gw
    w = _lex_max_by_swaps(g, word)
    for v in g.vertices():
        assert (_extends_canonically(_deps(g), w, v)
                == (_lex_max_by_swaps(g, w + (v,)) == w + (v,))), (w, v)


@DIFFERENTIAL
@given(small_graphs())
def test_enumerate_heaps_matches_all_words(g):
    for k in range(4):
        clear_caches()
        fast = list(enumerate_heaps(g, k))
        words = itertools.product(range(1, g.n + 1), repeat=k)
        assert fast == sorted({_lex_max_by_swaps(g, w) for w in words})


def _check_lyndon_routes(g, k):
    clear_caches()
    fast = list(enumerate_lyndon(g, k))
    assert fast == _lyndon_by_filter(g, k)
    assert lyndon_count(g, k) == len(fast)
    for support in range(1 << g.n):
        got = lyndon_count(g, k, support)
        assert got == sum(1 for h in fast
                          if mask_of(h) & ~support == 0)
        assert got == _lyndon_count_by_formula(g, k, support)


@DIFFERENTIAL
@given(small_graphs())
def test_lyndon_routes_random_graphs(g):
    for k in range(1, 5):
        _check_lyndon_routes(g, k)


@pytest.mark.parametrize("g", BUNDLED, ids=BUNDLED_GRAPHS)
def test_lyndon_routes_bundled(g):
    for k in range(1, 7):
        _check_lyndon_routes(g, k)


def _labelled_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_lyndon_routes_all_labelled_graphs():
    # both growths against filters over all heaps on every labelled graph
    # with at most 4 vertices (76 graphs): pyramids against is_pyramid,
    # Lyndon heaps against the rotation classes.  The vertex order decides
    # which words are canonical, so isomorphic copies all count
    graphs = list(_labelled_graphs(4))
    assert len(graphs) == 76
    for g in graphs:
        for k in range(1, 6):
            clear_caches()
            assert list(enumerate_pyramids(g, k)) == [
                h for h in enumerate_heaps(g, k) if is_pyramid(g, h)], \
                (g.n, g.edges, k)
            assert list(enumerate_lyndon(g, k)) == _lyndon_by_filter(g, k), \
                (g.n, g.edges, k)


def test_enumerate_lyndon_does_not_rotate(monkeypatch):
    # the rotation functions and the pyramid test are the oracle only: both
    # growths and counts by support must not fall back to them
    def refuse(*args):
        raise AssertionError("oracle called")

    for name in ("rotation_class", "rotate", "rotate_to_source", "is_lyndon",
                 "is_pyramid", "_upper_closure"):
        monkeypatch.setattr(heaps, name, refuse)
    clear_caches()
    for g in BUNDLED:
        for k in range(1, 7):
            enumerate_pyramids(g, k)
            found = enumerate_lyndon(g, k)
            for support in range(1 << g.n):
                lyndon_count(g, k, support)
            assert lyndon_count(g, k, g.full_mask) == len(found)


def test_clear_caches_recomputes():
    for table in (enumerate_pyramids, lyndon_support_counts):
        first = table(PAW, 4)
        assert table(PAW, 4) is first
        clear_caches()
        again = table(PAW, 4)
        assert again == first and again is not first
    # every cached function of the module, and the heap oracle, is emptied
    cached = [f for f in vars(heaps).values() if hasattr(f, "cache_info")]
    cached.append(enumerate_heaps)
    lyndon_count(PAW, 4, 0b11)
    enumerate_heaps(PAW, 3)
    clear_caches()
    assert all(f.cache_info().currsize == 0 for f in cached)


@pytest.mark.parametrize("g", BUNDLED, ids=BUNDLED_GRAPHS)
def test_rotation_steps_within_proved_bound(g):
    # rotate_to_source proves that size - 1 rotations suffice; count them
    # here with the public one-step rotation
    for k in range(1, 7):
        for h in enumerate_pyramids(g, k):
            for p in range(k):
                cur, cp, steps = h, p, 0
                while sources(g, cur) != [cp]:
                    assert steps < k - 1, (h, p)
                    cur, cp = rotate(g, cur, cp)
                    steps += 1
                assert rotate_to_source(g, h, p) == cur


def test_rotate_to_source_rejects_split_heap():
    # the pieces 3 and 1 of P3 commute: no rotation joins them
    with pytest.raises(ValueError):
        rotate_to_source(P3, heap_from_word(P3, (3, 1)), 0)


@pytest.mark.parametrize("call, error", [
    # without the guard, index -1 would read the last piece
    (lambda: rotate(P3, (1, 2), -1), IndexError),
    # 3 and 1 are two sources: rotate_to_source would still return the
    # pyramids (3, 2, 1), (1, 2, 3) and (2, 3, 1)
    (lambda: rotation_class(P3, (3, 1, 2)), ValueError),
], ids=["rotate-negative-index", "rotation-class-of-two-sources"])
def test_direct_calls_raise(call, error):
    with pytest.raises(error):
        call()
