"""Finite simple graphs on ordered vertices 1..n, with bitmask subsets.

Vertex subsets are plain Python ints used as bitmasks (bit v-1 for vertex v),
so capacity is unbounded.  Graphs are immutable and hashable.
"""
from functools import cache
from itertools import zip_longest


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def mask_vertices(mask):
    """Vertices of a bitmask, ascending."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def popcount(mask):
    return mask.bit_count()


class Graph:
    """Simple undirected graph; vertices 1..n carry a fixed total order."""

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        try:  # adj[v] = bitmask of neighbours, index 0 unused
            adj = [0] * (n + 1)
        except (OverflowError, MemoryError):  # refused before allocating
            raise ValueError(
                f"vertex count {n} is too large to index a list") from None
        norm = []
        for e in edges:
            u, v = e
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {e} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "adj", tuple(adj))
        # graphs key the heap-layer caches, so hash once, not per lookup
        object.__setattr__(self, "_hash", hash((n, self.edges)))

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def vertices(self):
        return range(1, self.n + 1)

    def adjacent(self, u, v):
        return bool(self.adj[u] >> (v - 1) & 1)

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _require_int(x, what):
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def graph_from_json(obj):
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph json must have keys 'n' and 'edges'")
    n = _require_int(obj["n"], "vertex count")
    edges = obj["edges"]
    if not isinstance(edges, (list, tuple)):
        raise ValueError("graph json 'edges' must be a list")
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(f"edge {e!r} must be a list of two vertices")
        for v in e:
            _require_int(v, "edge endpoint")
    return Graph(n, [tuple(e) for e in edges])


def clan_graph(g, alpha):
    """Blow each vertex v into a clique of alpha[v-1] copies.

    Copies of the same vertex are mutually adjacent; copies of adjacent
    vertices are all adjacent.  Pieces are ordered by host vertex then copy
    index.
    """
    if len(alpha) != g.n:
        raise ValueError("composition length must equal vertex count")
    host = [v for v in g.vertices() for _ in range(alpha[v - 1])]
    m = len(host)
    edges = []
    for p in range(1, m + 1):
        for r in range(p + 1, m + 1):
            u, v = host[p - 1], host[r - 1]
            if u == v or g.adjacent(u, v):
                edges.append((p, r))
    return Graph(m, edges)


@cache
def _independence_table(g):
    """The coefficients (i_0, i_1, ...) of I_W, the independence polynomial
    of g restricted to W, for every mask W, in one ascending pass.  With v
    the lowest vertex of W, an independent subset of W either misses v or
    holds v and none of its neighbours, so I_W = I_{W-v} + t I_{W-N[v]},
    and both masks are smaller than W.  No entry has a trailing zero, as
    alpha(W) = max(alpha(W-v), alpha(W-N[v]) + 1)."""
    table = [(1,)]
    for w in range(1, g.full_mask + 1):
        low = w & -w
        table.append(tuple(map(sum, zip_longest(
            table[w ^ low], (0,) + table[w & ~low & ~g.adj[low.bit_length()]],
            fillvalue=0))))
    return tuple(table)


def independent_sets(g):
    """Every independent set of g as a bitmask, ascending, the empty set
    first: the masks W whose I_W has degree |W|."""
    return [w for w, poly in enumerate(_independence_table(g))
            if len(poly) == popcount(w) + 1]


def independence_polynomial(g, mask=None):
    """Coefficients (i_0, i_1, ...) of the independence polynomial of g
    restricted to the vertices in mask (default: all)."""
    return _independence_table(g)[g.full_mask if mask is None else mask]


def acyclic_orientations(g):
    """All acyclic orientations, each a tuple of directed edges (u, v)=u->v."""
    m = len(g.edges)
    out = []
    for bits in range(1 << m):
        oriented = tuple((u, v) if not (bits >> i & 1) else (v, u)
                         for i, (u, v) in enumerate(g.edges))
        if _is_acyclic(g.n, oriented):
            out.append(oriented)
    return out


def _is_acyclic(n, oriented):
    succ = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for u, v in oriented:
        succ[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def source_components(g, oriented):
    """Partition of the vertices by repeated least-vertex reachability.

    Take the least unused vertex, flood everything reachable from it along
    the orientation through unused vertices, remove, repeat.  Returns the
    list of vertex sets in extraction order.
    """
    succ = [0] * (g.n + 1)
    for u, v in oriented:
        succ[u] |= 1 << (v - 1)
    unused = g.full_mask
    comps = []
    while unused:
        start = (unused & -unused).bit_length()
        comp = 1 << (start - 1)
        frontier = comp
        while frontier:
            nxt = 0
            for v in mask_vertices(frontier):
                nxt |= succ[v]
            frontier = nxt & unused & ~comp
            comp |= frontier
        comps.append(set(mask_vertices(comp)))
        unused &= ~comp
    return comps


# ---------------------------------------------------------------------------
# natural unit-interval graphs

def unit_interval_graph(n, bounds):
    """The graph on 1..n in which vertex i is adjacent to every j with
    i < j <= bounds[i-1]; the bounds satisfy i <= bounds[i-1] <= n and are
    nondecreasing."""
    h = tuple(bounds)
    if len(h) != n:
        raise ValueError("bounds length must equal n")
    for i, b in enumerate(h, start=1):
        if not (i <= b <= n):
            raise ValueError(f"bound h[{i}]={b} outside [{i}, {n}]")
    if any(h[i] > h[i + 1] for i in range(n - 1)):
        raise ValueError("bounds must be nondecreasing")
    return Graph(n, [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, h[i - 1] + 1)])


def model_from_json(obj):
    if not isinstance(obj, dict) or "n" not in obj or "bounds" not in obj:
        raise ValueError("model json must have keys 'n' and 'bounds'")
    bounds = obj["bounds"]
    if not isinstance(bounds, (list, tuple)):
        raise ValueError("model json 'bounds' must be a list")
    return unit_interval_graph(_require_int(obj["n"], "vertex count"),
                               [_require_int(b, "bound") for b in bounds])


def unit_interval_bounds(g):
    """The bounds h with unit_interval_graph(g.n, h) == g under g's own
    labels, or None if there are none."""
    # the only candidate: each vertex reaches up to its highest neighbour
    h = tuple(max(i, g.adj[i].bit_length()) for i in g.vertices())
    if any(h[i] > h[i + 1] for i in range(g.n - 1)):
        return None
    return h if unit_interval_graph(g.n, h) == g else None
