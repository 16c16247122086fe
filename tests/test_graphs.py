import itertools
import json

import pytest
from hypothesis import given, settings

from kromatic import (BUNDLED_GRAPHS, BUNDLED_MODELS, bundled_graph,
                      bundled_model)
from kromatic.core import chromatic_p_expansion_oracles
from kromatic.graphs import (
    Graph, acyclic_orientations, clan_graph, graph_from_json,
    independence_polynomial, independent_sets, mask_of, mask_vertices,
    model_from_json, popcount, source_components, unit_interval_bounds,
    unit_interval_graph,
)

from helpers import has_induced_c4_or_claw, induced_subgraph, small_graphs

K2 = bundled_graph("k2")
K3 = bundled_graph("k3")
P3 = bundled_graph("p3")
P4 = bundled_graph("p4")
C4 = bundled_graph("c4")
PAW = bundled_graph("paw")
ALL = [bundled_graph(n) for n in ("k1", "k2", "k3", "p3", "p4", "c4", "paw")]
# the natural unit-interval bounds of each bundled model, written down apart
# from the code that builds or recognizes them
MODEL_BOUNDS = {"ui-k2": (2, 2), "ui-k3": (3, 3, 3), "ui-p3": (2, 3, 3),
                "ui-p4": (2, 3, 4, 4), "ui-paw": (3, 3, 4, 4)}


def test_masks():
    assert mask_of([1, 3]) == 0b101
    assert mask_vertices(0b1011) == [1, 2, 4]
    assert popcount(0b1011) == 3


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])


def test_json_round_trip():
    for g in ALL:
        obj = {"n": g.n, "edges": [list(e) for e in g.edges]}
        assert graph_from_json(json.loads(json.dumps(obj))) == g
    with pytest.raises(ValueError):
        graph_from_json({"edges": []})


def test_induced_subgraph():
    sub, mapping = induced_subgraph(P3, mask_of([1, 3]))
    assert sub.n == 2 and sub.edges == ()
    assert mapping == {1: 1, 3: 2}
    sub2, _ = induced_subgraph(PAW, mask_of([1, 2, 3]))
    assert sub2.edges == ((1, 2), (1, 3), (2, 3))


def test_clan_graph():
    cg = clan_graph(P3, (2, 0, 1))
    # two copies of vertex 1 (a K2) plus one copy of vertex 3, no cross edges
    assert cg.n == 3
    assert cg.edges == ((1, 2),)
    cg2 = clan_graph(K2, (1, 2))
    assert cg2.edges == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        clan_graph(K2, (1,))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_graphs(max_n=7))
def test_independence_polynomial(g):
    assert independence_polynomial(K2) == (1, 2)
    assert independence_polynomial(P3) == (1, 3, 1)
    assert independence_polynomial(K3) == (1, 3)
    assert independence_polynomial(C4) == (1, 4, 2)
    # against the direct subset filter, on every mask
    independent = [s for s in range(g.full_mask + 1)
                   if not any(g.adjacent(u, v) for u, v in
                              itertools.combinations(mask_vertices(s), 2))]
    assert independent_sets(g) == independent
    for mask in range(g.full_mask + 1):
        by_filter = [0] * (popcount(mask) + 1)
        for s in independent:
            if not s & ~mask:
                by_filter[popcount(s)] += 1
        while by_filter[-1] == 0:
            by_filter.pop()
        assert independence_polynomial(g, mask) == tuple(by_filter)


def test_acyclic_orientation_count_vs_chromatic():
    # |AO(G)| = |chi_G(-1)|, with chi read off the edge-subset expansion:
    # p_lam at x ones is x^len(lam)
    for g in ALL:
        edges = chromatic_p_expansion_oracles(g)[0]
        at_minus_one = sum(c * (-1) ** len(lam)
                           for lam, c in edges.coeffs.items())
        assert len(acyclic_orientations(g)) == abs(at_minus_one)
    assert len(acyclic_orientations(K3)) == 6
    assert len(acyclic_orientations(bundled_graph("c4"))) == 14


def test_source_components():
    # K2 oriented 2 -> 1: least vertex 1 reaches nothing, then 2
    comps = source_components(K2, ((2, 1),))
    assert comps == [{1}, {2}]
    comps = source_components(K2, ((1, 2),))
    assert comps == [{1, 2}]
    # P3 with 1 -> 2 and 3 -> 2: start at 1, flood {1, 2}; then {3}
    comps = source_components(P3, ((1, 2), (3, 2)))
    assert comps == [{1, 2}, {3}]


def test_unit_interval_models():
    assert unit_interval_graph(3, (2, 3, 3)) == P3
    assert set(MODEL_BOUNDS) == set(BUNDLED_MODELS)
    for name, h in MODEL_BOUNDS.items():
        assert unit_interval_graph(len(h), h) == bundled_model(name)
    with pytest.raises(ValueError, match="nondecreasing"):
        unit_interval_graph(3, (3, 2, 3))
    with pytest.raises(ValueError, match=r"h\[1\]=0 outside \[1, 2\]"):
        unit_interval_graph(2, (0, 2))
    with pytest.raises(ValueError, match="length"):
        model_from_json({"n": 2, "bounds": [2]})


def test_natural_unit_interval_recognition():
    assert unit_interval_bounds(K2) == (2, 2)
    assert unit_interval_bounds(P3) == (2, 3, 3)
    assert unit_interval_bounds(PAW) == (3, 3, 4, 4)
    assert unit_interval_bounds(C4) is None
    for name, h in MODEL_BOUNDS.items():
        assert unit_interval_bounds(bundled_model(name)) == h


def test_bundled_models_are_bundled_graphs():
    # each model ui-x is the bundled graph x, which must have natural
    # unit-interval labels (an alias such as ui-c4 would have none)
    for name in BUNDLED_MODELS:
        assert name.startswith("ui-") and name[3:] in BUNDLED_GRAPHS, name
        assert bundled_model(name) == bundled_graph(name[3:])
        assert unit_interval_bounds(bundled_graph(name[3:])) is not None, name
    with pytest.raises(KeyError, match="no bundled model"):
        bundled_model("ui-c4")


def test_unit_interval_pattern_freeness():
    # graphs with a natural unit-interval model contain no induced C4 or claw
    for g in ALL:
        if unit_interval_bounds(g) is not None:
            assert not has_induced_c4_or_claw(g)
    assert has_induced_c4_or_claw(C4)
    claw = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert has_induced_c4_or_claw(claw)
    assert unit_interval_bounds(claw) is None


@pytest.mark.parametrize("call, error", [
    (lambda: bundled_graph("x"), KeyError),
    (lambda: setattr(K2, "n", 3), AttributeError),
], ids=["unknown-bundled-graph", "graph-is-immutable"])
def test_direct_calls_raise(call, error):
    with pytest.raises(error):
        call()
