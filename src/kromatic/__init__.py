"""Exact arithmetic for K-theoretic chromatic symmetric functions."""

from importlib import resources
import json

from .graphs import Graph, graph_from_json

__version__ = "0.1.0"

BUNDLED_GRAPHS = ("k1", "k2", "k3", "p3", "p4", "c4", "paw")
BUNDLED_MODELS = ("ui-k2", "ui-k3", "ui-p3", "ui-p4", "ui-paw")


def _load_data(name):
    text = resources.files("kromatic.data").joinpath(name + ".json").read_text()
    return json.loads(text)


def bundled_graph(name):
    """Load one of the graphs shipped with the package by short name."""
    if name not in BUNDLED_GRAPHS:
        raise KeyError(f"no bundled graph {name!r}; have {BUNDLED_GRAPHS}")
    return graph_from_json(_load_data(name))


def bundled_model(name):
    """A unit-interval model shipped with the package, as its graph: the
    model ui-x is the bundled graph x, whose labels are already natural."""
    if name not in BUNDLED_MODELS:
        raise KeyError(f"no bundled model {name!r}; have {BUNDLED_MODELS}")
    return bundled_graph(name[3:])
