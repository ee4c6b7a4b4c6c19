import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import cdscover as cc
from cdscover.graph import (
    CdsInstance,
    CoverWitness,
    InstanceError,
    _augment,
    components,
    edge_nodes,
    internal_qualified_edge_candidates,
    min_connected_edge_cover,
    neighbour_masks,
    node_key,
    parse_instance,
    qualified_components,
    random_instance,
    reach_mask,
    rho,
    serialize_instance,
)

from conftest import random_corpus, set_adjacency


def test_parse_minimal_instance():
    inst = parse_instance('{"name": "m", "a_count": 1, "b_count": 1, "unqualified": [[1, 1]]}')
    assert inst.nodes() == ["A1", "B1"]
    assert not inst.qualified


def test_parse_rejects_overlapping_colors():
    text = json.dumps(
        {"name": "x", "a_count": 1, "b_count": 1, "qualified": [[1, 1]], "unqualified": [[1, 1]]}
    )
    with pytest.raises(InstanceError, match=r"\(1,1\)"):
        parse_instance(text)


def test_parse_rejects_out_of_range():
    text = json.dumps({"name": "x", "a_count": 1, "b_count": 1, "qualified": [[2, 1]]})
    with pytest.raises(InstanceError, match="out of range"):
        parse_instance(text)


def test_parse_reports_json_position():
    with pytest.raises(InstanceError, match="line"):
        parse_instance("{oops")


def test_parse_accepts_nodes_without_unqualified_edges():
    text = json.dumps(
        {"name": "x", "a_count": 1, "b_count": 2, "qualified": [[1, 1]], "unqualified": [[1, 2]]}
    )
    # B1 touches only a qualified edge
    inst = parse_instance(text)
    assert inst.nodes_without_unqualified() == ["B1"]


def test_fig2_roundtrip_is_canonical():
    text = cc.catalog.instance_text("fig2")
    first = parse_instance(text)
    again = parse_instance(serialize_instance(first))
    assert first == again
    assert serialize_instance(first) == serialize_instance(again)


def test_components_no_qualified_edges():
    inst = CdsInstance("u", 2, 2, frozenset(), frozenset({(1, 1), (2, 2), (1, 2), (2, 1)}))
    comps = qualified_components(inst)
    assert len(comps) == 4
    assert all(c.kind == "path" and len(c.nodes) == 1 for c in comps)


def test_components_fig5_shapes(catalog_instances):
    comps = qualified_components(catalog_instances["fig5"])
    kinds = sorted((c.kind, len(c.nodes)) for c in comps)
    assert kinds == [("cycle", 12), ("path", 8)]
    path = next(c for c in comps if c.kind == "path")
    assert path.traversal == ("A1", "B1", "A2", "B2", "A3", "B3", "A4", "B4")
    cycle = next(c for c in comps if c.kind == "cycle")
    assert cycle.traversal[0] == "A5" and cycle.traversal[1] == "B5"
    assert len(cycle.traversal) == 12


def test_components_fig2_other(catalog_instances):
    comps = qualified_components(catalog_instances["fig2"])
    big = next(c for c in comps if "A4" in c.nodes)
    assert big.kind == "other"
    # A4 has qualified degree 3
    adj = set_adjacency(catalog_instances["fig2"], catalog_instances["fig2"].qualified)
    assert len(adj["A4"]) == 3


def test_candidates_fig2_includes_stated_pair(catalog_instances):
    cands = internal_qualified_edge_candidates(catalog_instances["fig2"])
    assert (("A1", "B1"), ("A1", "B2", "A3", "B1")) in cands


def test_candidates_fig5_includes_stated_pair(catalog_instances):
    cands = internal_qualified_edge_candidates(catalog_instances["fig5"])
    assert (("A1", "B1"), ("A1", "B2", "A4", "B1")) in cands


def test_candidates_empty_for_unreachable_matching(catalog_instances):
    # unqualified edges form a perfect matching that joins no qualified edge's endpoints
    assert internal_qualified_edge_candidates(catalog_instances["matching2"]) == []


def test_min_cover_fig2_matches_paper(catalog_instances):
    fig2 = catalog_instances["fig2"]
    w = min_connected_edge_cover(fig2, ("A1", "B1"), ("A1", "B2", "A3", "B1"))
    assert w.size == 5
    assert w.cover == frozenset(
        {("A4", "B1"), ("A4", "B2"), ("A4", "B3"), ("A1", "B1"), ("A3", "B3")}
    )
    assert w.violations(fig2) == []


def test_min_cover_fig5_left_is_the_qualified_path(catalog_instances):
    fig5 = catalog_instances["fig5"]
    w = min_connected_edge_cover(fig5, ("A1", "B1"), ("A1", "B2", "A4", "B1"))
    assert w.size == 6
    assert w.cover == frozenset(
        {("A1", "B1"), ("A2", "B1"), ("A2", "B2"), ("A3", "B2"), ("A3", "B3"), ("A4", "B3")}
    )


def test_min_cover_infinite_when_path_leaves_component():
    # P = A1-B2-A2-B1 exists, but B2's only qualified edge lies in another
    # component and A2 has none, so no connected cover reaches them
    inst = CdsInstance(
        "split",
        3,
        2,
        frozenset({(1, 1), (3, 2)}),
        frozenset({(1, 2), (2, 2), (2, 1)}),
    )
    w = min_connected_edge_cover(inst, ("A1", "B1"), ("A1", "B2", "A2", "B1"))
    assert w is None
    assert rho(inst).is_infinite


def test_min_cover_validates_pair(catalog_instances):
    fig2 = catalog_instances["fig2"]
    with pytest.raises(InstanceError):
        min_connected_edge_cover(fig2, ("A1", "B2"), ("A1", "B2"))  # not qualified
    with pytest.raises(InstanceError):
        min_connected_edge_cover(fig2, ("A1", "B1"), ("A1", "B2", "A3"))  # B1 not on path


@pytest.mark.parametrize(
    "edge, path, problem",
    [
        (("A1", "B2"), ("A1", "B2"), "edge ('A1', 'B2') is not a qualified edge of 'fig2'"),
        (("A1", "B1"), ("A1", "B2", "A3"), "edge endpoints not on the path"),
        (("A1", "B1"), ("A1", "B2", "A3", "B2", "A3", "B1"), "path nodes are not distinct"),
        (("A1", "B1"), ("A1", "B1"), "path step A1-B1 is not an unqualified edge"),
        # (1, 1) is qualified, but the edge must be given A-node first
        (("B1", "A1"), ("A1", "B2", "A3", "B1"), "edge ('B1', 'A1') is not a qualified edge of 'fig2'"),
        # A3 and A1 are both A-nodes, though (3, 1) is an unqualified pair
        (("A1", "B1"), ("B1", "A3", "A1", "B2"), "path step A3-A1 is not an unqualified edge"),
        (("A3", "B3"), ("A1", "B2", "A3", "B3"), "path step A3-B3 is not an unqualified edge"),
        # all but the repeated node at once: the cover search raises the first
        (("A1", "B2"), ("A1", "B1"), "edge ('A1', 'B2') is not a qualified edge of 'fig2'"),
    ],
    ids=[
        "not-qualified",
        "endpoint-off-path",
        "repeated-node",
        "qualified-step",
        "swapped-edge",
        "same-side-step",
        "qualified-last-step",
        "several",
    ],
)
def test_pair_checks_agree(catalog_instances, edge, path, problem):
    # the cover search and the witness checker report the same problem
    fig2 = catalog_instances["fig2"]
    cover = frozenset(fig2.qualified_node_edges())
    assert CoverWitness(edge=edge, path=path, cover=cover).violations(fig2)[0] == problem
    with pytest.raises(InstanceError) as err:
        min_connected_edge_cover(fig2, edge, path)
    assert str(err.value) == problem


def _exhaustive_min_cover(inst, e, path, max_size=None):
    """Independent oracle: enumerate all qualified edge subsets containing e.

    Returns the least ``tuple(sorted(cover))`` among the smallest connected
    covers of at most ``max_size`` edges, or None.
    """
    qedges = inst.qualified_node_edges()
    target = set(path)

    def connected(edges):
        nodes = {n for ed in edges for n in ed}
        adj = {n: set() for n in nodes}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        stack = [next(iter(nodes))]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(adj[n])
        return len(seen) == len(nodes)

    others = [q for q in qedges if q != e]
    for size in range(1, (max_size or len(qedges)) + 1):
        covers = []
        for combo in itertools.combinations(others, size - 1):
            edges = set(combo) | {e}
            covered = {n for ed in edges for n in ed}
            if target <= covered and connected(edges):
                covers.append(tuple(sorted(edges)))
        if covers:
            return min(covers)
    return None


def _assert_cover_search_matches_oracle(inst):
    for e, path in internal_qualified_edge_candidates(inst):
        got = min_connected_edge_cover(inst, e, path)
        expected = _exhaustive_min_cover(inst, e, path)
        if expected is None:
            assert got is None
        else:
            assert got is not None and tuple(sorted(got.cover)) == expected


def test_cover_search_matches_exhaustive_oracle(catalog_instances):
    # minimality spot-check against subset enumeration (<= 12 qualified edges)
    instances = [catalog_instances["fig2"], catalog_instances["fig8"]]
    instances += [
        inst
        for inst, _ in random_corpus(6, start_seed=900)
        if len(inst.qualified) <= 12
    ]
    assert len(instances) >= 4
    for inst in instances:
        _assert_cover_search_matches_oracle(inst)


def test_rho_values(catalog_instances):
    assert rho(catalog_instances["fig2"]).value == 5
    assert rho(catalog_instances["fig5"]).value == 6
    assert rho(catalog_instances["fig8"]).value == 5
    assert rho(catalog_instances["matching2"]).is_infinite


def test_rho_witness_revalidates(catalog_instances):
    for name in ("fig2", "fig5", "fig8", "fig9"):
        inst = catalog_instances[name]
        r = rho(inst)
        assert r.witness is not None
        assert r.witness.violations(inst) == []
        assert r.witness.size == r.value


def test_rho_at_least_five_on_corpus():
    for inst, r in random_corpus(25, start_seed=100):
        assert r.value >= 5
        assert r.witness.violations(inst) == []


def test_rho_infinite_iff_no_internal_edge_in_component():
    # Remark-style equivalence, checked with an independent predicate
    corpus = [inst for inst, _ in random_corpus(10, start_seed=300)]
    corpus.append(cc.catalog.builtin_instance("matching2"))
    corpus.append(cc.catalog.builtin_instance("fig2"))
    for inst in corpus:
        r = rho(inst)
        comps = qualified_components(inst)
        node_comp = {n: i for i, c in enumerate(comps) for n in c.nodes}
        has_internal_within_component = any(
            all(node_comp[n] == node_comp[e[0]] for n in path)
            for e, path in internal_qualified_edge_candidates(inst)
        )
        assert r.is_infinite == (not has_internal_within_component)


def _reference_rho(inst):
    """rho by listing every (edge, unqualified path) pair and searching all
    covers of each: the first pair in list order that attains the minimum,
    with its least sorted minimum cover."""
    best = None
    for e, path in internal_qualified_edge_candidates(inst):
        cap = None if best is None else len(best.cover) - 1
        if cap == 0:
            break
        cover = _exhaustive_min_cover(inst, e, path, max_size=cap)
        if cover is not None:
            best = CoverWitness(edge=e, path=path, cover=frozenset(cover))
    return best


def _assert_rho_matches_reference(inst):
    got, want = rho(inst), _reference_rho(inst)
    if want is None:
        assert got.is_infinite and got.witness is None
    else:
        assert (got.value, got.witness) == (want.size, want)


# the witness edge has several optimal sets: their least paths differ, the
# least path is not least as a string, and the least cover overall does
# not hold the least path
TIED_WITNESS = CdsInstance(
    "tied",
    12,
    12,
    frozenset({(2, 9), (2, 10), (5, 8), (5, 9), (8, 5), (8, 8), (9, 2), (9, 10), (10, 2), (10, 12), (11, 12)}),
    frozenset(
        {(2, 8), (2, 12), (5, 5), (5, 10), (5, 12), (8, 2), (8, 9), (8, 12), (9, 5), (9, 8), (9, 12), (10, 5)}
        | {(10, 8), (11, 2), (11, 5), (11, 8), (11, 9)}
    ),
)


# two optimal sets hold the least path, and the least of them by string
# order (A10 < A12 < A8) is not the least by node_key order
TIED_COVER = CdsInstance(
    "tied-cover",
    12,
    12,
    frozenset({(8, 1), (8, 8), (8, 9), (10, 1), (12, 1), (12, 8)}),
    frozenset({(10, 8), (10, 9), (12, 9)}),
)


def test_rho_matches_reference_on_catalog_and_corpus(catalog_instances):
    instances = [TIED_WITNESS, TIED_COVER, *catalog_instances.values()]
    instances += [inst for inst, _ in random_corpus(12, start_seed=500) if len(inst.qualified) <= 12]
    assert len(instances) >= 10
    for inst in instances:
        _assert_rho_matches_reference(inst)


@st.composite
def small_instances(draw):
    """Paths, cycles, chorded paths ("other" components) and unions of two,
    each with at most 12 qualified edges."""
    try:
        inst = _small_instance(draw)
    except InstanceError:  # no unqualified edge can be given to some node
        assume(False)
    if draw(st.booleans()):
        # spread the nodes over indices 1..12, where node_key order and
        # string order disagree
        a_map, b_map = draw(st.permutations(range(1, 13))), draw(st.permutations(range(1, 13)))

        def relabel(pairs):
            return frozenset((a_map[x - 1], b_map[y - 1]) for x, y in pairs)

        inst = CdsInstance(inst.name, 12, 12, relabel(inst.qualified), relabel(inst.unqualified))
    return inst


def _small_instance(draw):
    seed = draw(st.integers(0, 10_000))
    density = draw(st.sampled_from((0.1, 0.2, 0.3, 0.45, 0.6)))
    kind = draw(st.sampled_from(("path", "cycle", "other", "union")))
    if kind == "union":
        sides = draw(st.tuples(st.integers(2, 3), st.integers(2, 3)))
        left, right = (
            random_instance(seed + i, s, s, draw(st.sampled_from(("path", "cycle"))), density)
            for i, s in enumerate(sides)
        )
        return cc.disjoint_union(left, right, cross_density=draw(st.sampled_from((0.0, 0.1, 0.3))), seed=seed)
    side = draw(st.integers(2, 6 if kind == "cycle" else 5))
    inst = random_instance(seed, side, side, "path" if kind == "other" else kind, density)
    if kind != "other":
        return inst
    free = sorted((x, y) for x in range(1, side + 1) for y in range(1, side + 1) if (x, y) not in inst.qualified)
    chords = set(draw(st.lists(st.sampled_from(free), min_size=1, max_size=3)))
    return CdsInstance(inst.name, side, side, inst.qualified | chords, inst.unqualified - chords)


@settings(max_examples=150, deadline=None)
@given(small_instances())
def test_rho_matches_reference_on_random_instances(inst):
    assert len(inst.qualified) <= 12
    _assert_rho_matches_reference(inst)


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_cover_search_matches_exhaustive_oracle_on_random_instances(inst):
    # the relabelled draws put indices 10..12 on the nodes, where the string
    # order of the cover's edges differs from their edge-id (node_key) order
    assert len(inst.qualified) <= 12
    _assert_cover_search_matches_oracle(inst)


def _reach(adj, start, within):
    """Reference: the nodes joined to ``start`` by edges of the dict-of-sets
    ``adj`` whose ends lie in ``within`` (``start`` included)."""
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb in within and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reach_mask_matches_set_reach(data):
    # up to 70 nodes, so the masks run past 64 bits
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(60, 70)))
    node = st.integers(0, n - 1)
    adj = {i: set() for i in range(n)}
    for a, b in data.draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        adj[a].add(b)
        adj[b].add(a)
    masks = [sum(1 << j for j in adj[i]) for i in range(n)]
    within = data.draw(st.integers(0, (1 << n) - 1))
    starts = data.draw(st.sets(node, min_size=1, max_size=3))
    want = set().union(*(_reach(adj, s, {i for i in range(n) if within >> i & 1}) for s in starts))
    assert reach_mask(masks, sum(1 << s for s in starts), within) == sum(1 << i for i in want)


def _by_least_node(groups):
    groups = [tuple(sorted(g, key=node_key)) for g in groups]
    return sorted(groups, key=lambda g: node_key(g[0]))


@st.composite
def large_instances(draw):
    """Instances of 77 or 80 nodes, so that node masks run past one machine
    word: a 40x40 random cycle, or a path, a cycle and a chorded path side
    by side, with or without unqualified edges across them."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        return random_instance(seed, 40, 40, "cycle", 0.03)
    third = random_instance(seed + 2, 14, 14, "path", 0.05)
    chords = set(draw(st.lists(st.tuples(st.integers(1, 14), st.integers(1, 14)), max_size=3))) - third.qualified
    third = CdsInstance(third.name, 14, 14, third.qualified | chords, third.unqualified - chords)
    cross = draw(st.sampled_from((0.0, 0.02)))
    first = random_instance(seed, 13, 12, "path", 0.05)
    both = cc.disjoint_union(first, random_instance(seed + 1, 12, 12, "cycle", 0.05), cross, seed)
    return cc.disjoint_union(both, third, cross, seed + 1)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_instances(), large_instances()))
def test_components_and_classes_match_networkx(inst):
    nx = pytest.importorskip("networkx")
    qgraph, ugraph = nx.Graph(), nx.Graph()
    qgraph.add_nodes_from(inst.nodes())
    ugraph.add_nodes_from(inst.nodes())
    qgraph.add_edges_from(map(edge_nodes, inst.qualified))
    ugraph.add_edges_from(map(edge_nodes, inst.unqualified))
    comps = qualified_components(inst)
    assert [c.nodes for c in comps] == _by_least_node(nx.connected_components(qgraph))
    names, uadj = inst.nodes(), neighbour_masks(inst, inst.unqualified)
    for c in comps:
        want = _by_least_node(nx.connected_components(ugraph.subgraph(c.nodes)))
        classes = components(uadj, sum(1 << names.index(n) for n in c.nodes))
        assert [tuple(n for i, n in enumerate(names) if m >> i & 1) for m in classes] == want
        degrees = [qgraph.degree(n) for n in c.nodes]
        if max(degrees) > 2:
            assert (c.kind, c.traversal) == ("other", None)
            continue
        t = c.traversal
        assert c.kind == ("cycle" if min(degrees) == 2 else "path")
        assert sorted(t, key=node_key) == list(c.nodes)
        steps = list(zip(t, t[1:]))
        if c.kind == "cycle":
            steps.append((t[-1], t[0]))
            assert t[0] == c.nodes[0] and t[1] == min(qgraph[t[0]], key=node_key)
        else:
            assert t[0] == min((n for n in c.nodes if qgraph.degree(n) < 2), key=node_key)
        assert all(qgraph.has_edge(u, v) for u, v in steps)


def _set_components(adj, within):
    """Reference: the components of the dict-of-sets graph ``adj`` on the node
    set ``within``, as node sets listed by least node."""
    left, found = set(within), []
    for v in sorted(within):
        if v in left:
            found.append(_reach(adj, v, left))
            left -= found[-1]
    return found


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 1500), st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05, 0.5, 2.0)), st.booleans())
def test_components_match_set_reference_on_wide_masks(n, seed, degree, everything):
    # up to 1500 nodes, mostly lone, so most components are taken off without
    # being grown
    rng = random.Random(seed)
    adj = {i: set() for i in range(n)}
    for _ in range(int(degree * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        adj[a].add(b)
        adj[b].add(a)
    masks = [sum(1 << j for j in adj[i]) for i in range(n)]
    within = (1 << n) - 1 if everything else rng.getrandbits(n)
    want = _set_components(adj, {i for i in range(n) if within >> i & 1})
    assert components(masks, within) == [sum(1 << i for i in c) for c in want]


@pytest.mark.parametrize("side, qualified", [(20000, 0), (3000, 400), (3000, 3000), (300, 250)])
def test_qualified_components_match_set_reference_on_sparse_instances(side, qualified):
    # the edgeless 20000x20000 instance has 40000 one-node components, none
    # of which needs a reachability walk
    rng = random.Random(side + qualified)
    pairs = {(rng.randint(1, side), rng.randint(1, side)) for _ in range(qualified)}
    inst = CdsInstance("sparse", side, side, frozenset(pairs), frozenset())
    names = inst.nodes()
    index = {v: i for i, v in enumerate(names)}
    adj = {index[v]: {index[m] for m in nbrs} for v, nbrs in set_adjacency(inst, pairs).items()}
    want = [tuple(names[i] for i in sorted(c)) for c in _set_components(adj, set(range(len(names))))]
    comps = qualified_components(inst)
    assert [c.nodes for c in comps] == want
    assert all((c.kind, c.traversal) == ("path", c.nodes) for c in comps if len(c.nodes) == 1)


def test_random_instance_deterministic():
    a = random_instance(7, 5, 5, "cycle", 0.3)
    b = random_instance(7, 5, 5, "cycle", 0.3)
    assert a == b


def test_random_instance_cycle_shape():
    inst = random_instance(7, 5, 5, "cycle", 0.3)
    comps = qualified_components(inst)
    assert [c.kind for c in comps] == ["cycle"]
    assert len(comps[0].nodes) == 10
    assert inst.nodes_without_unqualified() == []


def test_random_instance_density_zero_repair_is_minimal():
    inst = random_instance(1, 3, 3, "path", 0.0)
    assert inst.nodes_without_unqualified() == []
    # all 6 nodes lacked coverage; pairing uncovered nodes needs exactly 3 edges
    assert len(inst.unqualified) == 3


# sha256 prefixes of serialize_instance, pinned from the recursive matching
# that the repair used before; at density 0 every node needs the repair
PINNED_INSTANCES = {
    (0, 5, 5, "cycle", 0.0): "3cdc3d5dfec3a760",
    (1, 6, 6, "cycle", 0.1): "0d7b1f8770492363",
    (2, 7, 6, "path", 0.0): "4c26c3d5798c61f8",
    (3, 6, 7, "path", 0.2): "05426d86b0fbc811",
    (4, 12, 12, "cycle", 0.05): "62fcab6f5d075e3d",
    (5, 30, 30, "path", 0.0): "b6672d80c3f714cf",
    (6, 40, 40, "cycle", 0.02): "dd195f425623e598",
    (7, 9, 9, "path", 0.5): "ac7f6478e22893b1",
    (0, 150, 150, "cycle", 0.0): "4a8ca7fc537cbaf4",
    (1, 151, 150, "path", 0.0): "0e0b8dc0c4ac1454",
}


def _instance_hash(inst):
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:16]


@pytest.mark.parametrize("args", list(PINNED_INSTANCES))
def test_random_instance_is_pinned(args):
    assert _instance_hash(random_instance(*args)) == PINNED_INSTANCES[args]


def test_repair_matching_needs_no_recursion():
    # at density 0 the augmenting path of the i-th A-node runs through
    # about i matched nodes; a recursive search needed a frame for each
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        inst = random_instance(0, 150, 150, "cycle", 0.0)
    finally:
        sys.setrecursionlimit(limit)
    assert _instance_hash(inst) == PINNED_INSTANCES[(0, 150, 150, "cycle", 0.0)]


def _recursive_matching(lack_a, adj):
    """Reference: Kuhn's augmenting-path search written recursively."""
    match_of_b = {}

    def augment(x, visited):
        for y in adj[x]:
            if y in visited:
                continue
            visited.add(y)
            if y not in match_of_b or augment(match_of_b[y], visited):
                match_of_b[y] = x
                return True
        return False

    for x in lack_a:
        augment(x, set())
    return match_of_b


@st.composite
def bipartite_adjacency(draw):
    lack_a = draw(st.lists(st.integers(1, 12), unique=True, max_size=10))
    return lack_a, {x: draw(st.lists(st.integers(1, 12), unique=True, max_size=10)) for x in lack_a}


@given(bipartite_adjacency())
@settings(max_examples=300, deadline=None)
def test_augment_matches_recursive_reference(graph):
    lack_a, adj = graph
    match_of_b = {}
    for x in lack_a:
        _augment(x, adj, match_of_b)
    assert match_of_b == _recursive_matching(lack_a, adj)


def test_random_instance_rejects_impossible_shapes():
    with pytest.raises(InstanceError):
        random_instance(1, 5, 2, "path", 0.1)
    with pytest.raises(InstanceError):
        random_instance(1, 1, 1, "cycle", 0.1)
    with pytest.raises(InstanceError):
        random_instance(1, 1, 1, "path", 0.0)  # repair impossible


def test_disjoint_union_offsets():
    left = random_instance(11, 3, 3, "path", 0.2)
    right = random_instance(12, 3, 3, "cycle", 0.2)
    both = cc.disjoint_union(left, right, cross_density=0.0, seed=1)
    comps = qualified_components(both)
    assert sorted(c.kind for c in comps) == ["cycle", "path"]
    assert both.a_count == 6 and both.b_count == 6


def test_witness_violations_detect_problems(catalog_instances):
    fig2 = catalog_instances["fig2"]
    w = rho(fig2).witness
    bad = CoverWitness(edge=w.edge, path=w.path, cover=frozenset(list(w.cover)[:3]))
    assert bad.violations(fig2)


def _respell(witness, old, new):
    def name(n):
        return new if n == old else n

    cover = frozenset(tuple(map(name, e)) for e in witness.cover)
    return CoverWitness(tuple(map(name, witness.edge)), tuple(map(name, witness.path)), cover)


def test_witness_violations_list_a_path_node_that_is_no_node(catalog_instances):
    fig2 = catalog_instances["fig2"]
    w = rho(fig2).witness
    problems = CoverWitness(w.edge, ("A1", "Bx", "B1"), w.cover).violations(fig2)
    assert "path step A1-Bx is not an unqualified edge" in problems
    assert "cover misses path nodes ['Bx']" in problems


def test_witness_violations_match_canonical_names(catalog_instances):
    # "A01" is no node of fig2, though int("01") == 1
    fig2 = catalog_instances["fig2"]
    assert rho(fig2).witness.edge[0] == "A1"
    problems = _respell(rho(fig2).witness, "A1", "A01").violations(fig2)
    assert "edge ('A01', 'B1') is not a qualified edge of 'fig2'" in problems
    assert "cover contains non-qualified edges" in problems


def test_min_connected_edge_cover_refuses_a_path_node_that_is_no_node(catalog_instances):
    with pytest.raises(InstanceError, match="path step A1-Bx is not an unqualified edge"):
        min_connected_edge_cover(catalog_instances["fig2"], ("A1", "B1"), ("A1", "Bx", "B1"))
