"""Two-colored bipartite instances and the covering parameter rho.

An instance is a bipartite graph on nodes A1..AX, B1..BY whose edges carry
one of two colors: qualified (the secret must be decodable from that signal
pair) or unqualified (nothing may leak). rho is the minimum size of a
connected qualified edge cover taken over all (internal qualified edge,
unqualified path) pairs; it drives both the converse bound and the
synthesizer.

Every graph computation runs on Python-int node bitmasks: bit i stands for
``inst.nodes()[i]``, so bit order is ``node_key`` order, and a graph is a
list of neighbour bitmasks, one per node (``neighbour_masks``). Two walks
serve all callers: ``reach_mask`` (the nodes joined to a start set inside
a node mask) and ``components`` (the components on a node mask, listed by
least node).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[str, str]  # (A-node, B-node), e.g. ("A1", "B2")
EdgeSet = tuple[int, int, int, tuple[int, ...]]  # see _connected_edge_sets


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


def node_key(node: str) -> tuple[int, int]:
    """Sort key: A-nodes before B-nodes, then by index."""
    side = 0 if node[0] == "A" else 1
    return (side, int(node[1:]))


def a_node(x: int) -> str:
    return f"A{x}"


def b_node(y: int) -> str:
    return f"B{y}"


def edge_nodes(pair: tuple[int, int]) -> Edge:
    return (a_node(pair[0]), b_node(pair[1]))


@dataclass(frozen=True)
class CdsInstance:
    """A CDS instance: bipartite node sets plus colored edge sets.

    Indices are 1-based. The two edge sets must be disjoint; pairs absent
    from both sets are inputs that never occur. Nodes may have no
    unqualified edge (several of the catalog instances do); callers that
    need the normalization can ask via ``nodes_without_unqualified``.
    """

    name: str
    a_count: int
    b_count: int
    qualified: frozenset[tuple[int, int]]
    unqualified: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.a_count < 1 or self.b_count < 1:
            raise InstanceError("a_count and b_count must be positive")
        for label, edges in (("qualified", self.qualified), ("unqualified", self.unqualified)):
            for x, y in edges:
                if not (1 <= x <= self.a_count and 1 <= y <= self.b_count):
                    raise InstanceError(
                        f"{label} edge ({x},{y}) out of range for {self.a_count}x{self.b_count} instance"
                    )
        both = self.qualified & self.unqualified
        if both:
            x, y = min(both)
            raise InstanceError(f"edge ({x},{y}) listed as both qualified and unqualified")

    # -- node / edge views ---------------------------------------------------

    def nodes(self) -> list[str]:
        return [a_node(x) for x in range(1, self.a_count + 1)] + [
            b_node(y) for y in range(1, self.b_count + 1)
        ]

    def qualified_node_edges(self) -> list[Edge]:
        return [edge_nodes(p) for p in sorted(self.qualified)]  # (x, y) order is node_key order

    def edges_with_kind(self) -> Iterator[tuple[tuple[int, int], str]]:
        for p in sorted(self.qualified):
            yield p, "qualified"
        for p in sorted(self.unqualified):
            yield p, "unqualified"

    def nodes_without_unqualified(self) -> list[str]:
        return [n for n, m in zip(self.nodes(), neighbour_masks(self, self.unqualified)) if not m]


def neighbour_masks(inst: CdsInstance, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Each node's neighbours along the (x, y) ``pairs`` as a bitmask, in which
    bit i stands for ``inst.nodes()[i]``, so that bit order is node_key order."""
    masks = [0] * (inst.a_count + inst.b_count)
    for x, y in pairs:
        masks[x - 1] |= 1 << inst.a_count + y - 1
        masks[inst.a_count + y - 1] |= 1 << x - 1
    return masks


def reach_mask(adj: Sequence[int], start: int, within: int) -> int:
    """The nodes joined to those of the node mask ``start`` by edges of
    ``adj`` (a neighbour bitmask per node) whose ends lie in ``within``,
    ``start`` included, grown one frontier at a time."""
    members = frontier = start
    within &= ~start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= adj[low.bit_length() - 1]
        frontier = grown & within
        within ^= frontier
        members |= frontier
    return members


def components(adj: Sequence[int], within: int) -> list[int]:
    """The components, as node bitmasks, of the graph ``adj`` (a neighbour
    bitmask per node) on the nodes of the mask ``within``, listed by least
    node; a node with no neighbour in ``within`` is a component of its own,
    taken off without growing it."""
    found = []
    while within:
        low = within & -within
        found.append(reach_mask(adj, low, within) if adj[low.bit_length() - 1] & within else low)
        within ^= found[-1]
    return found


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- parsing and serialization ------------------------------------------------


def _edge_list(obj, label: str) -> frozenset[tuple[int, int]]:
    if not isinstance(obj, list):
        raise InstanceError(f"field '{label}' must be a list of [x, y] pairs")
    pairs = set()
    for i, item in enumerate(obj):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise InstanceError(f"{label}[{i}] must be a pair of integers, got {item!r}")
        pairs.add((item[0], item[1]))
    return frozenset(pairs)


def parse_instance(text: str) -> CdsInstance:
    """Parse and validate the instance JSON format.

    Rejects malformed JSON, out-of-range indices and overlapping edge
    colors. The model normalization (every node incident to an unqualified
    edge) is not enforced, because several published instances violate it.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceError(f"malformed JSON: {e.msg} (line {e.lineno}, column {e.colno})") from e
    if not isinstance(obj, dict):
        raise InstanceError("instance file must contain a JSON object")
    for key in ("a_count", "b_count"):
        if not isinstance(obj.get(key), int) or isinstance(obj.get(key), bool):
            raise InstanceError(f"field '{key}' must be an integer")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise InstanceError("field 'name' must be a string")
    return CdsInstance(
        name=name,
        a_count=obj["a_count"],
        b_count=obj["b_count"],
        qualified=_edge_list(obj.get("qualified", []), "qualified"),
        unqualified=_edge_list(obj.get("unqualified", []), "unqualified"),
    )


def serialize_instance(inst: CdsInstance) -> str:
    """Canonical JSON: fixed key order, edge lists sorted lexicographically."""
    obj = {
        "name": inst.name,
        "a_count": inst.a_count,
        "b_count": inst.b_count,
        "qualified": [list(p) for p in sorted(inst.qualified)],
        "unqualified": [list(p) for p in sorted(inst.unqualified)],
    }
    return json.dumps(obj, indent=2) + "\n"


# -- qualified components ------------------------------------------------------


@dataclass(frozen=True)
class QualifiedComponent:
    nodes: tuple[str, ...]
    kind: str  # "path" | "cycle" | "other"
    traversal: tuple[str, ...] | None


def qualified_components(inst: CdsInstance) -> list[QualifiedComponent]:
    """Partition into maximal qualified-connected components with shapes.

    A component is a path or cycle iff every node has qualified degree <= 2
    (being connected, it is then one path or one cycle); isolated nodes
    count as one-node paths. Components come in the order of their least
    node. Traversals are deterministic: paths start at the lesser endpoint;
    cycles start at the lowest-indexed A-node and move toward its
    lower-indexed qualified neighbor.
    """
    adj, names = neighbour_masks(inst, inst.qualified), inst.nodes()
    comps: list[QualifiedComponent] = []
    for comp in components(adj, (1 << len(adj)) - 1):
        if not adj[comp.bit_length() - 1]:  # an isolated node, the commonest component of a sparse instance
            node = (names[comp.bit_length() - 1],)
            comps.append(QualifiedComponent(node, "path", node))
            continue
        nodes = _bits(comp)
        degrees = [adj[i].bit_count() for i in nodes]
        if max(degrees) > 2:
            comps.append(QualifiedComponent(tuple([names[i] for i in nodes]), "other", None))
            continue
        least = min(degrees)  # 1 on a path, whose first end is its lesser one; 2 on a cycle
        trav = tuple([names[i] for i in _walk(adj, nodes[degrees.index(least)])])
        comps.append(QualifiedComponent(tuple([names[i] for i in nodes]), "path" if least < 2 else "cycle", trav))
    return comps


def _walk(adj: Sequence[int], start: int) -> list[int]:
    """A path or cycle from node ``start``, each step to the least unvisited
    neighbour (the lowest bit of its neighbour mask off the walk)."""
    order, seen = [start], 1 << start
    while nxt := adj[order[-1]] & ~seen:
        order.append((nxt & -nxt).bit_length() - 1)
        seen |= 1 << order[-1]
    return order


# -- candidate paths ------------------------------------------------------------


def _simple_paths(adj: Sequence[int], start: int, goal: int) -> Iterator[tuple[int, ...]]:
    """All simple paths start..goal, as node indices, in lexicographic order."""
    reach = reach_mask(adj, 1 << goal, (1 << len(adj)) - 1)

    def extend(path: tuple[int, ...], on: int) -> Iterator[tuple[int, ...]]:
        for nb in _bits(adj[path[-1]] & reach & ~on):
            yield from [path + (goal,)] if nb == goal else extend(path + (nb,), on | 1 << nb)

    return extend((start,), 1 << start) if reach >> start & 1 else iter(())


def internal_qualified_edge_candidates(inst: CdsInstance) -> list[tuple[Edge, tuple[str, ...]]]:
    """All (qualified edge e, unqualified simple path P between e's endpoints).

    ``rho`` does not list these paths; this enumeration is the reference
    the tests compare it against. Restricting P's endpoints to e's
    endpoints loses no generality for the minimum: if e = {u, v} joins two
    interior nodes of a path P', the sub-path of P' between u and v is
    itself an unqualified path whose node set is contained in P''s, so any
    cover of P' covers it.
    """
    uadj, names = neighbour_masks(inst, inst.unqualified), inst.nodes()
    return [
        (edge_nodes((x, y)), tuple(names[i] for i in path))
        for x, y in sorted(inst.qualified)
        for path in _simple_paths(uadj, x - 1, inst.a_count + y - 1)
    ]


# -- connected edge sets ----------------------------------------------------------


@dataclass(frozen=True)
class CoverWitness:
    """Certificate for a value of rho(e, P).

    ``edge`` is the internal qualified edge, ``path`` the unqualified path
    (as a node sequence joining the edge's endpoints) and ``cover`` the
    connected qualified edge set containing ``edge`` that covers every path
    node.
    """

    edge: Edge
    path: tuple[str, ...]
    cover: frozenset[Edge]

    @property
    def size(self) -> int:
        return len(self.cover)

    def violations(self, inst: CdsInstance) -> list[str]:
        """Re-check every invariant independently; empty list means valid."""
        problems = _pair_problems(inst, self.edge, self.path)
        if not set(map(edge_nodes, inst.qualified)).issuperset(self.cover):
            problems.append("cover contains non-qualified edges")
        if self.edge not in self.cover:
            problems.append("cover does not contain the internal edge")
        covered = {n: i for i, n in enumerate({n for e in self.cover for n in e})}
        missing = [n for n in self.path if n not in covered]
        if missing:
            problems.append(f"cover misses path nodes {missing}")
        adj = [0] * len(covered)  # the cover's own graph, on the nodes it covers
        for a, b in self.cover:
            adj[covered[a]] |= 1 << covered[b]
            adj[covered[b]] |= 1 << covered[a]
        if len(components(adj, (1 << len(adj)) - 1)) > 1:
            problems.append("cover is not connected")
        return problems


def _pair_problems(inst: CdsInstance, e: Edge, path: Sequence[str]) -> list[str]:
    """What is wrong with (e, P): e must be a qualified edge, P a path of
    distinct nodes through both of e's endpoints, and each step of P an
    unqualified edge. An empty list means the pair is valid. Edges are
    matched by their canonical names, so "A01" or "Bx" is no node."""
    problems = []
    if e not in set(map(edge_nodes, inst.qualified)):
        problems.append(f"edge {e} is not a qualified edge of {inst.name!r}")
    if e[0] not in path or e[1] not in path:
        problems.append("edge endpoints not on the path")
    if len(set(path)) != len(path):
        problems.append("path nodes are not distinct")
    unqualified = set(map(edge_nodes, inst.unqualified))
    for a, b in zip(path, path[1:]):
        if (a, b) not in unqualified and (b, a) not in unqualified:
            problems.append(f"path step {a}-{b} is not an unqualified edge")
    return problems


def _edge_masks(inst: CdsInstance) -> tuple[list[int], list[list[int]]]:
    """Each qualified edge's ends as a node bitmask, the edges numbered in
    ``qualified_node_edges()`` order, and each node's edge ids in that order."""
    ends, incident = [], [[] for _ in range(inst.a_count + inst.b_count)]
    for j, (x, y) in enumerate(sorted(inst.qualified)):
        a, b = x - 1, inst.a_count + y - 1
        ends.append(1 << a | 1 << b)
        incident[a].append(j)
        incident[b].append(j)
    return ends, incident


def _connected_edge_sets(
    ends: list[int], incident: list[list[int]], uadj: list[int], e: int
) -> Iterator[list[EdgeSet]]:
    """Every connected qualified edge set containing edge ``e``, one size at a time.

    A set is (edge-id mask, node mask, reach, frontier), reach being the
    nodes that the set's unqualified edges join to e's lesser end u. Yields,
    for sizes 1, 2, ... until none is left, the sets that gain a node on
    their parent ({e} at size 1). Each set is produced exactly once: it grows
    only by an edge of its frontier (qualified edges touching it), and the
    frontier edges before the chosen one are dropped from that branch for
    good. A new node w brings its edges to nodes outside the set onto the
    frontier (its other edges are there or dropped already), and grows the
    reach, from w alone, when it touches it.
    """
    u, v = (ends[e] & -ends[e]).bit_length() - 1, ends[e].bit_length() - 1
    frontier = tuple(f for n in (u, v) for f in incident[n] if f != e)
    level = fresh = [(1 << e, ends[e], 1 << u, frontier)]  # e is qualified, so not unqualified
    while level:
        yield fresh
        grown, fresh = [], []
        for edges, nodes, reach, frontier in level:
            for i, f in enumerate(frontier):
                w = ends[f] & ~nodes
                if not w:
                    grown.append((edges | 1 << f, nodes, reach, frontier[i + 1 :]))
                    continue
                n = w.bit_length() - 1
                rest = frontier[i + 1 :] + tuple(g for g in incident[n] if not ends[g] & nodes)
                grew = reach | reach_mask(uadj, w, nodes & ~reach) if uadj[n] & reach else reach
                grown.append((edges | 1 << f, nodes | w, grew, rest))
                fresh.append(grown[-1])
        level = grown


def _least_cover(inst: CdsInstance, sets: list[EdgeSet], target: int) -> frozenset[Edge] | None:
    """The least by ``tuple(sorted(cover))``, in string order, of the ``sets`` whose nodes hold ``target``."""
    qedges = inst.qualified_node_edges()
    covers = [tuple(sorted(qedges[j] for j in range(len(qedges)) if edges >> j & 1))
              for edges, nodes, _, _ in sets if nodes & target == target]
    return frozenset(min(covers)) if covers else None


def min_connected_edge_cover(inst: CdsInstance, e: Edge, path: Sequence[str]) -> CoverWitness | None:
    """Minimum connected qualified edge cover for (e, P); None means infinite.

    Connected edge sets containing ``e`` are searched in increasing size;
    among the smallest that cover every node of P, the least by
    ``tuple(sorted(cover))`` is returned.
    """
    problems = _pair_problems(inst, e, path)
    if problems:
        raise InstanceError(problems[0])
    target = sum(1 << inst.nodes().index(n) for n in path)
    ends, incident = _edge_masks(inst)
    j = inst.qualified_node_edges().index(e)
    if target & ~reach_mask(neighbour_masks(inst, inst.qualified), ends[j], (1 << len(incident)) - 1):
        return None
    levels = _connected_edge_sets(ends, incident, neighbour_masks(inst, inst.unqualified), j)  # the component covers P
    cover = next(filter(None, (_least_cover(inst, level, target) for level in levels)))
    return CoverWitness(edge=e, path=tuple(path), cover=cover)


@dataclass(frozen=True)
class RhoResult:
    value: int | None  # None encodes +infinity
    witness: CoverWitness | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def _least_path(uadj: list[int], nodes: int, u: int, v: int) -> tuple[int, ...]:
    """The least simple unqualified u-v path inside the node mask ``nodes``, as
    node indices (so least in node_key-lexicographic order): each step takes
    the least neighbour from which v can still be reached off the path."""
    path = [u]
    while path[-1] != v:
        step = uadj[path[-1]] & reach_mask(uadj, 1 << v, nodes & ~sum(1 << n for n in path))
        path.append((step & -step).bit_length() - 1)
    return tuple(path)


def rho(inst: CdsInstance) -> RhoResult:
    """min over all (e, P) of the connected edge cover size, with witness.

    rho is the least size of a connected qualified edge set C containing a
    qualified edge e = {u, v} whose endpoints are joined by unqualified
    edges inside the nodes of C: an unqualified u-v path inside C gives the
    pair (e, P), and the nodes of any cover of P hold P. Edges whose
    endpoints are not unqualified-connected inside their qualified
    component are skipped; the others are searched together, one set size
    at a time, so no search goes past the smallest size any edge reaches.
    The search runs on node bitmasks (bit i is ``inst.nodes()[i]``) and
    tests only sets that gain a node: a set with its parent's nodes has its
    parent's reach from u, and that parent, one size smaller, was rejected.

    The witness is fixed by three tie-breaks: the first qualified edge in
    ``node_key`` order that attains rho; then the ``node_key``-
    lexicographically least unqualified path inside any optimal set for
    that edge; then the least ``tuple(sorted(cover))`` optimal set whose
    nodes hold that path.
    """
    uadj, qadj = neighbour_masks(inst, inst.unqualified), neighbour_masks(inst, inst.qualified)
    ends, incident = _edge_masks(inst)
    component_of = [0] * len(qadj)  # the qualified component of each node on a qualified edge
    for comp in components(qadj, sum(1 << i for i, m in enumerate(qadj) if m)):
        for i in _bits(comp):
            component_of[i] = comp
    searches = []
    for e, both in enumerate(ends):
        u, v = (both & -both).bit_length() - 1, both.bit_length() - 1
        if reach_mask(uadj, 1 << u, component_of[u]) >> v & 1:
            searches.append((e, u, v, _connected_edge_sets(ends, incident, uadj, e)))
    if not searches:
        return RhoResult(None, None)
    while True:
        # a search accepts its whole component at the latest, since only
        # edges whose endpoints it joins were kept, so next() never runs out
        for e, u, v, levels in searches:
            joined = [s for s in next(levels) if s[2] >> v & 1]  # u's reach holds v
            if joined:
                path = min(_least_path(uadj, nodes, u, v) for _, nodes, _, _ in joined)
                cover = _least_cover(inst, joined, sum(1 << n for n in path))
                names = inst.nodes()
                witness = CoverWitness(inst.qualified_node_edges()[e], tuple(names[n] for n in path), cover)
                return RhoResult(witness.size, witness)


# -- instance generators --------------------------------------------------------


def random_instance(
    seed: int,
    a_count: int,
    b_count: int,
    shape: str,
    unqualified_density: float,
    name: str | None = None,
) -> CdsInstance:
    """Seeded instance whose qualified edges form exactly one path or cycle.

    Unqualified edges are sampled independently at the given density among
    the non-qualified pairs, then repaired (preferring partners that are
    themselves uncovered) so every node touches at least one unqualified
    edge. Deterministic function of the arguments.
    """
    if shape not in ("path", "cycle"):
        raise InstanceError(f"unknown shape {shape!r}")
    if not 0.0 <= unqualified_density <= 1.0:
        raise InstanceError("unqualified_density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    sides = [[a_node(int(v) + 1) for v in rng.permutation(a_count)]]
    sides.append([b_node(int(v) + 1) for v in rng.permutation(b_count)])
    if shape == "path" and abs(a_count - b_count) > 1:
        raise InstanceError("a path must alternate sides: |a_count - b_count| <= 1")
    if shape == "cycle" and (a_count != b_count or a_count < 2):
        raise InstanceError("a qualified cycle needs a_count == b_count >= 2")
    # a path starts on its larger side, or on a drawn side when neither is larger
    if b_count > a_count or (shape == "path" and a_count == b_count and not rng.integers(0, 2)):
        sides.reverse()
    order = sides[0] + sides[1]
    order[::2], order[1::2] = sides  # the two sides interleaved
    qualified = {_pair(u, v) for u, v in zip(order, order[1:])}
    if shape == "cycle":
        qualified.add(_pair(order[-1], order[0]))

    non_qualified = [(x, y) for x in range(1, a_count + 1) for y in range(1, b_count + 1) if (x, y) not in qualified]
    draws = rng.random(len(non_qualified))
    unqualified = {p for p, r in zip(non_qualified, draws) if r < unqualified_density}
    inst = CdsInstance(name or f"random-{shape}-{seed}", a_count, b_count, frozenset(qualified), frozenset(unqualified))
    unqualified.update(_minimal_repair(inst, rng))
    return CdsInstance(inst.name, a_count, b_count, frozenset(qualified), frozenset(unqualified))


def _minimal_repair(inst: CdsInstance, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Minimum set of addable unqualified edges covering every uncovered node.

    Maximum matching between uncovered A- and B-nodes (over pairs free for
    an unqualified edge) pairs up as many as possible; the rest each take
    one arbitrary free partner. |lacking| - |matching| edges is optimal for
    covering the lacking set.
    """
    lacking = inst.nodes_without_unqualified()
    if not lacking:
        return []
    taken = inst.qualified | inst.unqualified
    lack_a = [int(n[1:]) for n in lacking if n[0] == "A"]
    lack_b = [int(n[1:]) for n in lacking if n[0] == "B"]
    adj = {x: [y for y in lack_b if (x, y) not in taken] for x in lack_a}
    match_of_b: dict[int, int] = {}
    for x in lack_a:
        _augment(x, adj, match_of_b)
    added = [(x, y) for y, x in sorted(match_of_b.items())]
    covered = {a_node(x) for x, _ in added} | {b_node(y) for _, y in added}
    for node in lacking:
        if node in covered:
            continue
        pool = [p for p in _unqualified_pool(inst, node) if p not in added]
        if not pool:
            raise InstanceError(f"cannot give node {node} an unqualified edge")
        added.append(pool[int(rng.integers(0, len(pool)))])
    return added


def _augment(root: int, adj: dict[int, list[int]], match_of_b: dict[int, int]) -> None:
    """Kuhn's augmenting-path search from ``root``, depth first with an
    explicit stack so that long paths need no recursion. Neighbours are
    tried in ``adj`` order and each B-node is visited at most once; that
    order fixes which maximum matching, and so which seeded instance,
    comes out."""
    visited: set[int] = set()
    stack = [(root, iter(adj[root]))]  # (A-node, its untried neighbours)
    path: list[int] = []  # path[i] is the B-node through which stack[i + 1] was reached
    while stack:
        y = next((y for y in stack[-1][1] if y not in visited), None)
        if y is None:
            stack.pop()
            if path:
                path.pop()
            continue
        visited.add(y)
        if y not in match_of_b:
            # flip the path: each A-node on the stack takes the B-node after it
            for (x, _), b in zip(stack, path + [y]):
                match_of_b[b] = x
            return
        path.append(y)
        stack.append((match_of_b[y], iter(adj[match_of_b[y]])))


def _pair(u: str, v: str) -> tuple[int, int]:
    if u[0] == "A":
        return (int(u[1:]), int(v[1:]))
    return (int(v[1:]), int(u[1:]))


def _unqualified_pool(inst: CdsInstance, node: str) -> list[tuple[int, int]]:
    taken = inst.qualified | inst.unqualified
    if node[0] == "A":
        x = int(node[1:])
        return [(x, y) for y in range(1, inst.b_count + 1) if (x, y) not in taken]
    y = int(node[1:])
    return [(x, y) for x in range(1, inst.a_count + 1) if (x, y) not in taken]


def disjoint_union(
    first: CdsInstance,
    second: CdsInstance,
    cross_density: float = 0.0,
    seed: int = 0,
    name: str | None = None,
) -> CdsInstance:
    """Combine two instances side by side, optionally sampling cross
    unqualified edges between them (qualified edges never cross)."""
    rng = np.random.default_rng(seed)
    ax, by = first.a_count, first.b_count
    qualified = first.qualified | {(x + ax, y + by) for x, y in second.qualified}
    unqualified = set(first.unqualified) | {(x + ax, y + by) for x, y in second.unqualified}
    cross = [
        (x, y + by) for x in range(1, ax + 1) for y in range(1, second.b_count + 1)
    ] + [(x + ax, y) for x in range(1, second.a_count + 1) for y in range(1, by + 1)]
    draws = rng.random(len(cross))
    unqualified |= {p for p, r in zip(cross, draws) if r < cross_density}
    name = name or f"{first.name}+{second.name}"
    return CdsInstance(name, ax + second.a_count, by + second.b_count, qualified, frozenset(unqualified))
