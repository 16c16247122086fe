"""Shared randomized-property drivers, reused by the acceptance suite, and
the random-graph strategy of the differential tests."""
import itertools
import random

from hypothesis import strategies as st

from kromatic import bundled_graph
from kromatic.graphs import Graph
from kromatic.heaps import canonical_word, heap_from_word


@st.composite
def small_graphs(draw, max_n=5):
    """Random graphs on at most max_n vertices: the empty graph, isolated
    vertices and disconnected graphs included."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def random_word_and_swaps(g, rng, max_len=8, swaps=30):
    """A random word plus an equivalent word reached by legal swaps."""
    word = [rng.randint(1, g.n) for _ in range(rng.randint(0, max_len))]
    other = list(word)
    for _ in range(swaps):
        if len(other) < 2:
            break
        i = rng.randrange(len(other) - 1)
        a, b = other[i], other[i + 1]
        if a != b and not g.adjacent(a, b):
            other[i], other[i + 1] = b, a
    return tuple(word), tuple(other)


def check_canonical_invariance(trials=200, seed=20260822):
    """Canonical form is constant across each commutation class."""
    rng = random.Random(seed)
    graphs = [bundled_graph(n) for n in ("k2", "k3", "p3", "p4", "c4", "paw")]
    for _ in range(trials):
        g = rng.choice(graphs)
        word, other = random_word_and_swaps(g, rng)
        cw = canonical_word(g, word)
        assert canonical_word(g, other) == cw
        # canonicalization is idempotent and produces a member of the class
        assert canonical_word(g, cw) == cw
        assert sorted(cw) == sorted(word)
        assert heap_from_word(g, word) == heap_from_word(g, other)
    return trials
