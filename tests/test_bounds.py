import collections
import functools
import hashlib
import importlib.util
import operator
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cdscover as cc
from cdscover.bounds import (
    SEARCH_INNER_DRAWS,
    _coordinate_classes,
    _number_classes,
    _sample_atoms,
    _solve_alignment,
    classify_linear_capacity,
    color_isomorphic,
    linear_converse_bound,
    random_scheme_search,
)
from cdscover.fields import FieldMatrix, PrimeField
from cdscover.graph import CdsInstance, a_node, b_node
from cdscover.linalg import nullspace, residue_rank
from cdscover.scheme import LinearScheme, serialize_scheme

FIXTURE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_fixtures.py"


def test_bound_values(catalog_instances):
    assert linear_converse_bound(catalog_instances["fig2"])[0] == Fraction(2, 5)
    assert linear_converse_bound(catalog_instances["fig5"])[0] == Fraction(5, 12)
    # strictly above the true linear capacity 7/18
    assert linear_converse_bound(catalog_instances["fig8"])[0] == Fraction(2, 5)
    assert linear_converse_bound(catalog_instances["fig9"])[0] == Fraction(2, 5)


def test_bound_infinite_rho(catalog_instances):
    bound, witness = linear_converse_bound(catalog_instances["matching2"])
    assert bound == Fraction(1, 2) and witness is None


def test_bound_witness_attains(catalog_instances):
    bound, witness = linear_converse_bound(catalog_instances["fig2"])
    assert witness.size == 5
    assert bound == Fraction(witness.size - 1, 2 * witness.size)


def test_classify_catalog(catalog_instances):
    v5 = classify_linear_capacity(catalog_instances["fig5"])
    assert (v5.kind, v5.value, v5.is_open) == ("exact", Fraction(5, 12), False)
    v8 = classify_linear_capacity(catalog_instances["fig8"])
    assert (v8.kind, v8.value) == ("exact", Fraction(7, 18))
    v9 = classify_linear_capacity(catalog_instances["fig9"])
    assert (v9.kind, v9.value, v9.is_open) == ("bounded-above", Fraction(2, 5), True)
    v2 = classify_linear_capacity(catalog_instances["fig2"])
    assert (v2.kind, v2.value) == ("exact", Fraction(2, 5))
    vm = classify_linear_capacity(catalog_instances["matching2"])
    assert (vm.kind, vm.value, vm.is_open) == ("bounded-above", Fraction(1, 2), False)


def _relabel(inst, a_perm, b_perm, swap=False):
    q = {(a_perm[x], b_perm[y]) for x, y in inst.qualified}
    u = {(a_perm[x], b_perm[y]) for x, y in inst.unqualified}
    if swap:
        return CdsInstance("swapped", inst.b_count, inst.a_count,
                           frozenset((y, x) for x, y in q), frozenset((y, x) for x, y in u))
    return CdsInstance("relabel", inst.a_count, inst.b_count, frozenset(q), frozenset(u))


def test_isomorphism_relabelled(catalog_instances):
    fig8 = catalog_instances["fig8"]
    relabelled = _relabel(fig8, {1: 3, 2: 1, 3: 4, 4: 2}, {1: 2, 2: 4, 3: 1, 4: 3})
    assert color_isomorphic(fig8, relabelled)
    v = classify_linear_capacity(relabelled)
    assert (v.kind, v.value) == ("exact", Fraction(7, 18))


def test_isomorphism_side_swap(catalog_instances):
    fig8 = catalog_instances["fig8"]
    swapped = _relabel(fig8, {i: i for i in range(1, 5)}, {i: i for i in range(1, 5)}, swap=True)
    assert color_isomorphic(fig8, swapped)


def _brute_iso(g1, g2):
    """Independent oracle: try all relabelings of g1 against g2 and against
    g2 with its sides swapped."""
    import itertools

    rng_a = range(1, g1.a_count + 1)
    rng_b = range(1, g1.b_count + 1)
    swapped = ({(y, x) for x, y in g2.qualified}, {(y, x) for x, y in g2.unqualified})
    for sides, (q2, u2) in (
        ((g2.a_count, g2.b_count), (set(g2.qualified), set(g2.unqualified))),
        ((g2.b_count, g2.a_count), swapped),
    ):
        if (g1.a_count, g1.b_count) != sides:
            continue
        for pa in itertools.permutations(rng_a):
            ma = dict(zip(rng_a, pa))
            for pb in itertools.permutations(rng_b):
                mb = dict(zip(rng_b, pb))
                q = {(ma[x], mb[y]) for x, y in g1.qualified}
                u = {(ma[x], mb[y]) for x, y in g1.unqualified}
                if q == q2 and u == u2:
                    return True
    return False


def test_isomorphism_matches_brute_force(catalog_instances):
    fig8 = catalog_instances["fig8"]
    variants = [
        # recoloring absorbed by swapping A2 and A3
        CdsInstance(
            "tweak",
            4,
            4,
            (fig8.qualified - {(3, 3)}) | {(2, 3)},
            (fig8.unqualified - {(2, 3)}) | {(3, 3)},
        ),
        # moving one unqualified endpoint genuinely changes the structure
        CdsInstance("tweak2", 4, 4, fig8.qualified, (fig8.unqualified - {(1, 2)}) | {(4, 2)}),
        CdsInstance("tweak3", 4, 4, fig8.qualified, (fig8.unqualified - {(1, 2)}) | {(1, 4)}),
    ]
    for other in variants:
        assert color_isomorphic(fig8, other) == _brute_iso(fig8, other), other.name
    assert not color_isomorphic(fig8, variants[1])
    assert not color_isomorphic(fig8, catalog_instances["fig9"])

    # a qualified 8-cycle and two qualified 4-cycles on 4+4 nodes: every node
    # has side degree 2 and no unqualified edge, so only the colour check of
    # the mapped pairs can tell them apart
    cycle8 = {(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (1, 4)}
    two4 = {(1, 1), (2, 1), (2, 2), (1, 2), (3, 3), (4, 3), (4, 4), (3, 4)}
    cycle8, two4 = (CdsInstance("q", 4, 4, frozenset(q), frozenset()) for q in (cycle8, two4))
    # a 2x3 instance and a relabelling of it with the sides swapped (3x2),
    # which only a side-swapping relabelling maps back
    small = CdsInstance("small", 2, 3, frozenset({(1, 1), (1, 2), (2, 3)}), frozenset({(2, 1), (1, 3)}))
    swapped = _relabel(small, {1: 2, 2: 1}, {1: 3, 2: 1, 3: 2}, swap=True)
    assert (swapped.a_count, swapped.b_count) == (3, 2)
    for g1, g2, want in ((cycle8, two4, False), (small, swapped, True)):
        assert color_isomorphic(g1, g2) == _brute_iso(g1, g2) == want


def _networkx_color_isomorphic(first, second):
    """Independent oracle: networkx isomorphism that keeps edge colours and
    maps all A-nodes to one side, with the sides kept or swapped."""
    nx = pytest.importorskip("networkx")

    def graph(inst):
        g = nx.Graph()
        g.add_nodes_from((("A", x), {"side": "A"}) for x in range(1, inst.a_count + 1))
        g.add_nodes_from((("B", y), {"side": "B"}) for y in range(1, inst.b_count + 1))
        g.add_edges_from((("A", x), ("B", y), {"color": "q"}) for x, y in inst.qualified)
        g.add_edges_from((("A", x), ("B", y), {"color": "u"}) for x, y in inst.unqualified)
        return g

    g1, g2 = graph(first), graph(second)
    return any(
        nx.is_isomorphic(
            g1,
            g2,
            node_match=lambda n1, n2: (n1["side"] == n2["side"]) == kept,
            edge_match=lambda e1, e2: e1["color"] == e2["color"],
        )
        for kept in (True, False)
    )


@st.composite
def instance_pairs(draw):
    """An instance and a relabelling of it, with sides kept or swapped,
    after one pair was possibly recoloured or two rows swapped their
    colours on two columns (which keeps every row's colour counts)."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = [(x, y) for x in range(1, a + 1) for y in range(1, b + 1)]
    colors = dict(zip(pairs, draw(st.lists(st.sampled_from("-qu"), min_size=len(pairs), max_size=len(pairs)))))

    def make(name, col):
        q = frozenset(k for k, c in col.items() if c == "q")
        return CdsInstance(name, a, b, q, frozenset(k for k, c in col.items() if c == "u"))

    first = make("first", colors)
    change = draw(st.sampled_from(("none", "recolour", "switch")))
    if change == "recolour":
        colors[draw(st.sampled_from(pairs))] = draw(st.sampled_from("-qu"))
    elif change == "switch" and a > 1 and b > 1:
        x1, x2 = draw(st.permutations(range(1, a + 1)))[:2]
        y1, y2 = draw(st.permutations(range(1, b + 1)))[:2]
        for x in (x1, x2):
            colors[x, y1], colors[x, y2] = colors[x, y2], colors[x, y1]
    a_perm = dict(zip(range(1, a + 1), draw(st.permutations(range(1, a + 1)))))
    b_perm = dict(zip(range(1, b + 1), draw(st.permutations(range(1, b + 1)))))
    return first, _relabel(make("second", colors), a_perm, b_perm, swap=draw(st.booleans()))


@given(instance_pairs())
@settings(max_examples=300, deadline=None)
def test_isomorphism_matches_networkx(pair):
    first, second = pair
    assert color_isomorphic(first, second) == _networkx_color_isomorphic(first, second)


def test_search_finds_fig2_scheme(catalog_instances):
    inst = catalog_instances["fig2"]
    scheme = random_scheme_search(inst, p=3, L=4, N=5, L_Z=9, seed=0, budget=2000)
    assert scheme is not None
    assert cc.rate(scheme) == Fraction(2, 5)
    assert cc.verify_linear(inst, scheme).overall


def test_search_seeded_scheme_is_pinned(catalog_instances):
    # the serialized scheme of this seeded search was pinned when the search
    # still solved its alignment constraints by elimination
    scheme = random_scheme_search(catalog_instances["fig2"], p=3, L=4, N=5, L_Z=9, seed=0, budget=2000)
    digest = hashlib.sha256(serialize_scheme(scheme).encode()).hexdigest()
    assert digest == "a75e35fa42386e932bcaab82552d31b60bbb327b297954657627348ad38d34ff"


def test_search_stream_is_pinned_across_a_grid(catalog_instances):
    # one digest over the searches' serialized schemes ("None" when a search
    # fails), so any change to the order or the arguments of the searches'
    # rng calls shows: fig2 found (A2 is edgeless) and above its bound, then
    # fig5, matching2 and seeded 3x3 paths and cycles at rates L/(2N) up to 1/2
    cases = [(catalog_instances["fig2"], 4, 5, 9, 0, 2000), (catalog_instances["fig2"], 1, 1, 2, 3, 300)]
    for name in ("fig5", "matching2", "path", "cycle"):
        for seed in (0, 1, 2):
            inst = catalog_instances.get(name) or cc.random_instance(seed, 3, 3, name, 0.3)
            for L in (1, 2):
                for N in (L, L + 1):
                    cases.append((inst, L, N, 2 * N, seed, 40))
    h = hashlib.sha256()
    for inst, L, N, L_Z, seed, budget in cases:
        scheme = random_scheme_search(inst, p=3, L=L, N=N, L_Z=L_Z, seed=seed, budget=budget)
        h.update((serialize_scheme(scheme) if scheme is not None else "None").encode())
    assert h.hexdigest() == "363a9b4688de0153720ccfcc6da2e3b077082f8f2cf099458c7e125912a689b1"


# -- reference solver: one union-find over every (node, coordinate) slot ------------
#
# ``_solve_alignment`` must agree with it on every result, class numbering and
# generator state. It reaches the slots through a (node, t) -> slot dict.


def _slot_classes(total: int, pairs: list[tuple[int, int]]) -> tuple[int, np.ndarray]:
    """Classes of the slots 0..total-1 under the equalities ``pairs``.

    Returns the class count k and each slot's class index. Classes are
    numbered by their largest slot. The search draws row ``i`` of its
    coefficients for class ``i``, so this numbering is part of its rng
    stream: the pinned search results depend on it.
    """
    parent = list(range(total))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for s, t in pairs:
        rs, rt = find(s), find(t)
        if rs != rt:
            # the larger root stays a root, so each root is its class's largest slot
            parent[min(rs, rt)] = max(rs, rt)
    roots = [find(s) for s in range(total)]
    number = {r: i for i, r in enumerate(sorted(set(roots)))}
    return len(number), np.array([number[r] for r in roots], dtype=np.intp)


def _union_find_solve_alignment(
    inst: CdsInstance,
    field: PrimeField,
    L: int,
    N: int,
    L_Z: int,
    nodes: list[str],
    node_idx: dict[str, int],
    atoms: dict[str, set[int]],
    qedges: list[tuple[str, str]],
    uedges: list[tuple[str, str]],
    rng: np.random.Generator,
) -> LinearScheme | None:
    total = len(nodes) * N
    cols = {n: sorted(atoms[n]) for n in nodes}
    slot = {(n, t): node_idx[n] * N + r for n in nodes for r, t in enumerate(cols[n])}
    # each unqualified constraint F_u[t] = F_v[t] joins two slots of noise
    # coordinate t, so the solution space is spanned by the indicator vectors
    # of the slot classes, no class holds two coordinates, and the member for
    # class rows ``coeffs`` has slot rows coeffs[cls]
    k, cls = _slot_classes(total, [(slot[u, t], slot[v, t]) for u, v in uedges for t in atoms[u] & atoms[v]])
    # a qualified edge decodes when its shared slots' row differences, the
    # coeffs[a] - coeffs[b] over their class pairs with a != b, have rank L.
    # One coordinate per class means these pairs share no class, so the rank
    # can reach L only with at least L pairs; with fewer, the draws are still
    # made, which keeps the rng stream, and all fail.
    checks = []
    for u, v in qedges:
        shared = list(atoms[u] & atoms[v])
        a, b = cls[[slot[u, t] for t in shared]], cls[[slot[v, t] for t in shared]]
        checks.append((a[a != b], b[a != b]))
    short = any(len(a) < L for a, _ in checks)
    for _ in range(SEARCH_INNER_DRAWS):
        coeffs = rng.integers(0, field.p, size=(k, L), dtype=np.int64)
        if not short and all(residue_rank(coeffs[a] - coeffs[b], field.p) == L for a, b in checks):
            break
    else:
        return None
    rows = coeffs[cls]
    precoders = {}
    for n in nodes:
        h = np.zeros((N, L_Z), dtype=np.int64)
        h[np.arange(N), cols[n]] = 1
        precoders[n] = (FieldMatrix(rows[node_idx[n] * N : node_idx[n] * N + N], field), FieldMatrix(h, field))
    return LinearScheme(
        field=field,
        L=L,
        L_Z=L_Z,
        N=N,
        precoders=precoders,
        name=f"search-{inst.name}" if inst.name else "search",
    )


@st.composite
def equality_systems(draw):
    """(p, slot count, pairs of distinct slots to equate)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    total = draw(st.integers(1, 9))
    pairs = []
    if total > 1:
        steps = st.tuples(st.integers(0, total - 1), st.integers(1, total - 1))
        pairs = draw(st.lists(steps.map(lambda s: (s[0], (s[0] + s[1]) % total)), max_size=12))
    return p, total, pairs


@given(equality_systems())
@example((2, 1, []))
@example((2, 4, []))
@example((2, 3, [(0, 2), (2, 0), (1, 2)]))
@settings(max_examples=200, deadline=None)
def test_slot_classes_match_nullspace(system):
    p, total, pairs = system
    field = PrimeField(p)
    eqs = []
    for s, t in pairs:
        row = [0] * total
        row[s], row[t] = 1, p - 1
        eqs.append(row)
    basis = nullspace(FieldMatrix.from_rows(eqs, field, cols=total)).array
    k, cls = _slot_classes(total, pairs)
    indicators = np.zeros((k, total), dtype=np.int64)
    indicators[cls, np.arange(total)] = 1
    assert np.array_equal(indicators, basis)
    coeffs = np.random.default_rng(total).integers(0, p, size=(k, 3), dtype=np.int64)
    assert np.array_equal(coeffs[cls], np.mod(basis.T @ coeffs, p))


@st.composite
def class_pair_systems(draw):
    """(class count k, pairs of classes; a pair may repeat its class)."""
    k = draw(st.integers(1, 8))
    return k, draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=12))


@given(class_pair_systems())
@example((1, [(0, 0)]))
@example((4, [(0, 1), (1, 2), (2, 0)]))
@settings(max_examples=200, deadline=None)
def test_class_pair_rank_is_incidence_rank(system):
    # _slot_classes counts connected components: a +-1 incidence matrix on
    # k vertices has rank k minus its components over every field
    k, pairs = system
    incidence = np.zeros((len(pairs), k), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        incidence[i, a] += 1
        incidence[i, b] -= 1
    for p in (2, 3, 5):
        assert k - _slot_classes(k, pairs)[0] == residue_rank(incidence, p)


def _adjacency(nodes, uedges):
    """Each node's unqualified neighbours as a bitmask over node indices."""
    index = {n: i for i, n in enumerate(nodes)}
    adj = [0] * len(nodes)
    for u, v in uedges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj


def _slots(nodes, N, atoms):
    """Each (node, noise coordinate) slot's index: node i's coordinates, in
    order, take slots i*N .. i*N+N-1, as in the search."""
    return {(n, t): i * N + r for i, n in enumerate(nodes) for r, t in enumerate(sorted(atoms[n]))}


def _dense_solve_alignment(inst, field, L, N, L_Z, nodes, node_idx, atoms, qedges, uedges, rng):
    """Reference for ``_solve_alignment`` from the equality system itself: a
    basis of its solutions from ``nullspace`` of the +-1 equality rows, one
    +-1 check matrix per qualified edge, and SEARCH_INNER_DRAWS draws of basis
    coefficients on every configuration. Also returns whether some qualified
    edge's checks have rank below L on the solution space."""
    p, total = field.p, len(nodes) * N
    slot = _slots(nodes, N, atoms)
    eqs = []
    for u, v in uedges:
        for t in sorted(atoms[u] & atoms[v]):
            row = [0] * total
            row[slot[u, t]], row[slot[v, t]] = 1, p - 1
            eqs.append(row)
    basis = nullspace(FieldMatrix.from_rows(eqs, field, cols=total)).array
    checks = []
    for u, v in qedges:
        shared = sorted(atoms[u] & atoms[v])
        d = np.zeros((len(shared), total), dtype=np.int64)
        for i, t in enumerate(shared):
            d[i, slot[u, t]], d[i, slot[v, t]] = 1, -1
        checks.append(d)
    deficient = any(residue_rank(d @ basis.T, p) < L for d in checks)
    for _ in range(SEARCH_INNER_DRAWS):
        rows = np.mod(basis.T @ rng.integers(0, p, size=(len(basis), L), dtype=np.int64), p)
        if all(residue_rank(d @ rows, p) == L for d in checks):
            break
    else:
        return None, deficient
    precoders = {}
    for n in nodes:
        h = np.zeros((N, L_Z), dtype=np.int64)
        h[np.arange(N), sorted(atoms[n])] = 1
        precoders[n] = (FieldMatrix(rows[node_idx[n] * N : node_idx[n] * N + N], field), FieldMatrix(h, field))
    name = f"search-{inst.name}" if inst.name else "search"
    return LinearScheme(field=field, L=L, L_Z=L_Z, N=N, precoders=precoders, name=name), deficient


@st.composite
def search_cases(draw):
    """(instance, p, L, N, L_Z, seed): small random paths and cycles, and
    paths with up to two qualified chords."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(("path", "cycle", "chorded")))
    side = draw(st.integers(2, 4))
    density = draw(st.sampled_from((0.2, 0.4, 0.6)))
    try:
        inst = cc.random_instance(seed, side, side, "path" if kind == "chorded" else kind, density)
    except cc.InstanceError:  # no unqualified edge can be given to some node
        assume(False)
    if kind == "chorded":
        free = sorted((x, y) for x in range(1, side + 1) for y in range(1, side + 1) if (x, y) not in inst.qualified)
        assume(free)
        chords = set(draw(st.lists(st.sampled_from(free), min_size=1, max_size=2)))
        inst = CdsInstance(inst.name, side, side, inst.qualified | chords, inst.unqualified - chords)
    L = draw(st.integers(1, 3))
    N = draw(st.sampled_from((L, L + 1)))
    return inst, draw(st.sampled_from((2, 3, 5))), L, N, draw(st.sampled_from((N + 1, 2 * N))), seed


def test_solve_alignment_matches_dense_reference():
    # two generators of one seed run the search loop side by side, one through
    # _solve_alignment and one through the dense reference: every result and
    # every generator state must agree, on both sides of the rank check
    seen = set()

    @given(search_cases())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def check(case):
        inst, p, L, N, L_Z, seed = case
        field, nodes = PrimeField(p), inst.nodes()
        node_idx = {n: i for i, n in enumerate(nodes)}
        qedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]
        uedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.unqualified)]
        adj = _adjacency(nodes, uedges)
        fast, dense = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(6):
            atoms = _sample_atoms(fast, nodes, qedges, L, N, L_Z)
            assert atoms == _sample_atoms(dense, nodes, qedges, L, N, L_Z)
            if atoms is None:
                continue
            args = (inst, field, L, N, L_Z, nodes, node_idx, atoms, qedges)
            got = _solve_alignment(*args, adj, fast)
            want, deficient = _dense_solve_alignment(*args, uedges, dense)
            assert (got is None) == (want is None)
            if got is not None:
                assert serialize_scheme(got) == serialize_scheme(want)
            assert fast.bit_generator.state == dense.bit_generator.state
            seen.add("early exit" if deficient else "draws")

    check()
    assert seen == {"early exit", "draws"}


@given(search_cases())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_slot_classes_hold_one_coordinate(case):
    # the search's early exit counts a qualified edge's class pairs with
    # a != b, which is their differences' rank bound only because every
    # unqualified equality joins two slots of one noise coordinate: each
    # class then holds one coordinate and those pairs share no class. The
    # search's per-coordinate classes are the union-find's, numbered alike
    inst, _, L, N, L_Z, seed = case
    nodes = inst.nodes()
    qedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]
    uedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.unqualified)]
    rng = np.random.default_rng(seed)
    for _ in range(6):
        atoms = _sample_atoms(rng, nodes, qedges, L, N, L_Z)
        if atoms is None:
            continue
        slot = _slots(nodes, N, atoms)
        k, cls = _slot_classes(len(slot), [(slot[u, t], slot[v, t]) for u, v in uedges for t in atoms[u] & atoms[v]])
        coordinates = [set() for _ in range(k)]
        for (_, t), s in slot.items():
            coordinates[cls[s]].add(t)
        assert all(len(ts) == 1 for ts in coordinates)
        for u, v in qedges:
            pairs = [(cls[slot[u, t]], cls[slot[v, t]]) for t in atoms[u] & atoms[v]]
            ends = [c for a, b in pairs if a != b for c in (a, b)]
            assert len(ends) == len(set(ends))
        _assert_coordinate_classes_match(nodes, N, L_Z, atoms, uedges, k, cls)


def _assert_coordinate_classes_match(nodes, N, L_Z, atoms, uedges, k, cls):
    """The search's classes of each coordinate split its holders, and once
    numbered they are the union-find's classes ``cls`` (k of them) slot for
    slot."""
    cols = [sorted(atoms[n]) for n in nodes]
    classes = _coordinate_classes(cols, _adjacency(nodes, uedges), L_Z)
    for t, masks in enumerate(classes):
        holders = sum(1 << i for i, n in enumerate(nodes) if t in atoms[n])
        assert sum(masks) == functools.reduce(operator.or_, masks, 0) == holders
    assert sum(map(len, classes)) == k
    label = _number_classes(classes, cols, N)
    assert [label[i][t] for i, ts in enumerate(cols) for t in ts] == cls.tolist()


def _lockstep(inst, p, L, N, L_Z, seed, configurations):
    """Run ``configurations`` rounds of the search loop from two generators of
    one seed, one through ``_solve_alignment`` and one through the union-find
    reference, and check that results, serialized schemes, classes and
    generator states agree after every configuration. Returns how many
    configurations failed repair, were short, had all their draws fail the
    rank test, or gave a scheme."""
    field, nodes = PrimeField(p), inst.nodes()
    node_idx = {n: i for i, n in enumerate(nodes)}
    qedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]
    uedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.unqualified)]
    adj = _adjacency(nodes, uedges)
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    outcomes = collections.Counter()
    for _ in range(configurations):
        atoms = _sample_atoms(new, nodes, qedges, L, N, L_Z)
        ref_atoms = _sample_atoms(ref, nodes, qedges, L, N, L_Z)
        assert atoms == ref_atoms
        if atoms is None:
            outcomes["repair failed"] += 1
            continue
        got = _solve_alignment(inst, field, L, N, L_Z, nodes, node_idx, atoms, qedges, adj, new)
        want = _union_find_solve_alignment(inst, field, L, N, L_Z, nodes, node_idx, ref_atoms, qedges, uedges, ref)
        assert (got is None) == (want is None)
        if got is not None:
            assert serialize_scheme(got) == serialize_scheme(want)
        assert new.bit_generator.state == ref.bit_generator.state
        slot = _slots(nodes, N, atoms)
        k, cls = _slot_classes(len(slot), [(slot[u, t], slot[v, t]) for u, v in uedges for t in atoms[u] & atoms[v]])
        _assert_coordinate_classes_match(nodes, N, L_Z, atoms, uedges, k, cls)
        short = any(len({t for t in atoms[u] & atoms[v] if cls[slot[u, t]] != cls[slot[v, t]]}) < L for u, v in qedges)
        outcomes["short" if short else "rank failed" if got is None else "scheme"] += 1
    return outcomes


def test_solve_alignment_matches_union_find_reference():
    seen = collections.Counter()

    @given(search_cases())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def check(case):
        inst, p, L, N, L_Z, seed = case
        seen.update(_lockstep(inst, p, L, N, L_Z, seed, 6))

    check()
    assert seen.keys() == {"repair failed", "short", "rank failed", "scheme"}


@pytest.mark.parametrize(
    "name, p, L, N, L_Z, seed, configurations, expected",
    [
        # the fixture search's shape: repairs, short configurations and a scheme
        pytest.param("fig2", 3, 4, 5, 9, 0, 600, {"repair failed", "short", "rank failed", "scheme"}, id="fig2"),
        # 80 nodes: node bitmasks past 64 bits
        pytest.param("cycle", 5, 1, 3, 4, 1, 30, {"short", "rank failed", "scheme"}, id="cycle-40x40"),
        # 70 noise coordinates: more coordinates than an int64 has bits
        pytest.param("fig5", 3, 2, 66, 70, 2, 10, {"scheme"}, id="fig5-Lz70-found"),
        pytest.param("fig5", 3, 1, 8, 70, 2, 30, {"short", "rank failed"}, id="fig5-Lz70-sparse"),
    ],
)
def test_solve_alignment_matches_union_find_reference_at_scale(
    catalog_instances, name, p, L, N, L_Z, seed, configurations, expected
):
    inst = catalog_instances[name] if name != "cycle" else cc.random_instance(seed, 40, 40, "cycle", 0.03)
    assert _lockstep(inst, p, L, N, L_Z, seed, configurations).keys() == expected


def test_search_deterministic(catalog_instances):
    inst = catalog_instances["fig2"]
    s1 = random_scheme_search(inst, p=3, L=4, N=5, L_Z=9, seed=7, budget=500)
    s2 = random_scheme_search(inst, p=3, L=4, N=5, L_Z=9, seed=7, budget=500)
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        assert s1.precoders == s2.precoders


def test_search_budget_zero(catalog_instances):
    assert random_scheme_search(catalog_instances["fig2"], 3, 4, 5, 9, seed=1, budget=0) is None


def test_search_impossible_shape_returns_none(catalog_instances):
    # no full-row-rank noise precoder exists when N > L_Z
    assert random_scheme_search(catalog_instances["fig2"], 3, 1, 3, 2, seed=1, budget=10) is None


@pytest.mark.parametrize(
    "name, L, N, L_Z", [("fig2", 2, 1, 3), ("matching2", 2, 1, 2), ("fig8", 3, 2, 4), ("fig5", 4, 3, 6)]
)
def test_search_returns_none_before_drawing_when_L_exceeds_N(catalog_instances, monkeypatch, name, L, N, L_Z):
    # N coordinates per node can never share L > N on a qualified edge, so
    # every sampled configuration fails repair and the search needs no draw
    inst = catalog_instances[name]
    nodes = inst.nodes()
    qedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]
    rng = np.random.default_rng(0)
    assert all(_sample_atoms(rng, nodes, qedges, L, N, L_Z) is None for _ in range(200))

    def draw(*args):
        raise AssertionError("the search drew a configuration")

    monkeypatch.setattr("cdscover.bounds._sample_atoms", draw)
    assert random_scheme_search(inst, p=3, L=L, N=N, L_Z=L_Z, seed=0, budget=10**9) is None
    # the refusals still come first
    with pytest.raises(cc.FieldError):
        random_scheme_search(inst, 4, L, N, L_Z, seed=0, budget=1)
    with pytest.raises(ValueError):
        random_scheme_search(inst, 3, L, N, L_Z, seed=-1, budget=1)


def test_search_above_bound_returns_none(catalog_instances):
    # rate 1/2 target on a bound-2/5 instance can never verify
    inst = catalog_instances["fig2"]
    assert random_scheme_search(inst, p=3, L=1, N=1, L_Z=2, seed=3, budget=3000) is None


def test_search_contradictory_demands_return_none():
    # with a single noise coordinate every pair of nodes shares all noise, so
    # the unqualified chain A1-B2-A2-B1 forces equal secret precoders and the
    # qualified edge A1-B1 can never decode, at any budget
    inst = CdsInstance(
        "chain",
        2,
        2,
        frozenset({(1, 1)}),
        frozenset({(1, 2), (2, 2), (2, 1)}),
    )
    assert random_scheme_search(inst, p=3, L=1, N=1, L_Z=1, seed=0, budget=800) is None


def test_search_validates_parameters(catalog_instances):
    with pytest.raises(cc.FieldError):
        random_scheme_search(catalog_instances["fig2"], 4, 1, 1, 1, seed=0, budget=1)
    with pytest.raises(ValueError):
        random_scheme_search(catalog_instances["fig2"], 3, 0, 1, 1, seed=0, budget=1)


# -- the fig2 fixture solver in scripts/build_fixtures.py ---------------------------


@pytest.fixture(scope="module")
def fixture_script():
    spec = importlib.util.spec_from_file_location("build_fixtures", FIXTURE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_scheme_for_noise_with_pins(fixture_script):
    inst = CdsInstance("pair", 1, 1, frozenset(), frozenset({(1, 1)}))
    field = PrimeField(3)
    h = FieldMatrix([[1, 0, 0], [0, 1, 0]], field)
    rng = np.random.default_rng(0)
    scheme = fixture_script.solve_scheme_for_noise(
        inst,
        field,
        L=2,
        h_map={"A1": h, "B1": h},
        rng=rng,
        pinned_rows=[("A1", 0, [1, 2])],
        pinned_diffs=[],
    )
    assert scheme is not None
    assert scheme.f_of("A1").to_lists()[0] == [1, 2]
    # full overlap forces equal secret precoders
    assert scheme.f_of("A1") == scheme.f_of("B1")
    assert cc.verify_linear(inst, scheme).overall


def test_solve_scheme_inconsistent_pins_return_none(fixture_script):
    inst = CdsInstance("pair", 1, 1, frozenset(), frozenset({(1, 1)}))
    field = PrimeField(3)
    h = FieldMatrix([[1, 0, 0], [0, 1, 0]], field)
    rng = np.random.default_rng(0)
    scheme = fixture_script.solve_scheme_for_noise(
        inst,
        field,
        L=2,
        h_map={"A1": h, "B1": h},
        rng=rng,
        pinned_rows=[("A1", 0, [1, 2]), ("B1", 0, [2, 2])],  # alignment forces equality
        pinned_diffs=[],
    )
    assert scheme is None


def test_solve_scheme_for_noise_zeroes_edgeless_nodes(fixture_script):
    # A2 has no edge, so its secret precoder is all zero whatever was drawn;
    # the pin on A1 gives the solve the equation it needs
    inst = CdsInstance("pair-and-isolated", 2, 1, frozenset({(1, 1)}), frozenset())
    field = PrimeField(3)
    h = FieldMatrix([[1, 0], [0, 1]], field)
    scheme = fixture_script.solve_scheme_for_noise(
        inst,
        field,
        L=1,
        h_map={"A1": h, "A2": h, "B1": h},
        rng=np.random.default_rng(0),
        pinned_rows=[("A1", 0, [1])],
        pinned_diffs=[],
    )
    assert scheme is not None
    assert scheme.f_of("A2").to_lists() == [[0], [0]]
    assert scheme.f_of("A1").to_lists()[0] == [1]
    assert scheme.f_of("A1") != scheme.f_of("B1")
    assert cc.verify_linear(inst, scheme).overall
