"""Reference answers for checking cdscover's outputs.

Nothing here imports cdscover. Instances and schemes are the plain JSON
objects the CLI reads and writes; nodes are named "A<x>" and "B<y>" as in
the CLI's witness output. The rho computation follows the definition
directly: rho is the least size of a connected qualified edge set S that
contains a qualified edge whose two endpoints are joined by unqualified
edges inside the node set of S.
"""

from __future__ import annotations

from fractions import Fraction


def node_a(x: int) -> str:
    return f"A{x}"


def node_b(y: int) -> str:
    return f"B{y}"


def edge_of(pair) -> tuple[str, str]:
    return (node_a(pair[0]), node_b(pair[1]))


def adjacency(inst: dict, kind: str) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for x in range(1, inst["a_count"] + 1):
        adj[node_a(x)] = set()
    for y in range(1, inst["b_count"] + 1):
        adj[node_b(y)] = set()
    for pair in inst[kind]:
        a, b = edge_of(pair)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _reach(adj: dict[str, set[str]], start: str, allowed: set[str]) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nb in adj[cur]:
            if nb in allowed and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def components(inst: dict) -> list[tuple[str, list[str], list[tuple[str, str]]]]:
    """Qualified components as (shape, traversal-or-nodes, edges).

    Shape is "path", "cycle" or "other"; for paths and cycles the node list
    is a traversal, so consecutive nodes (and, for a cycle, the last and
    first) are joined by the component's qualified edges.
    """
    qadj = adjacency(inst, "qualified")
    seen: set[str] = set()
    out = []
    for start in qadj:
        if start in seen:
            continue
        nodes = _reach(qadj, start, set(qadj))
        seen |= nodes
        edges = sorted({tuple(sorted((u, v))) for u in nodes for v in qadj[u]})
        degrees = [len(qadj[n]) for n in nodes]
        if len(nodes) == 1:
            out.append(("path", [start], []))
            continue
        if max(degrees) <= 2 and len(edges) == len(nodes) - 1:
            first = next(n for n in nodes if len(qadj[n]) == 1)
            out.append(("path", _walk(qadj, first, len(nodes)), edges))
        elif max(degrees) == 2 and min(degrees) == 2:
            out.append(("cycle", _walk(qadj, start, len(nodes)), edges))
        else:
            out.append(("other", sorted(nodes), edges))
    return out


def _walk(qadj: dict[str, set[str]], first: str, length: int) -> list[str]:
    order = [first]
    prev = None
    while len(order) < length:
        nxt = next(m for m in qadj[order[-1]] if m != prev)
        prev = order[-1]
        order.append(nxt)
    return order


def _joined_inside(edges, node_set: set[str], uadj: dict[str, set[str]]) -> bool:
    """Does some edge of ``edges`` have unqualified-connected endpoints
    within ``node_set``?"""
    for u, v in edges:
        if v in _reach(uadj, u, node_set):
            return True
    return False


def rho_path_or_cycle(traversal: list[str], cyclic: bool, uadj: dict[str, set[str]]) -> int | None:
    """Least k such that some arc of k consecutive qualified edges qualifies.

    The connected qualified edge sets of a path or cycle are exactly its
    arcs, so scanning arcs by increasing length gives rho for the component.
    On a cycle an arc of n-1 edges already spans every node.
    """
    n = len(traversal)
    for k in range(1, n):
        starts = range(n) if cyclic else range(n - k)
        for i in starts:
            arc = [traversal[(i + m) % n] for m in range(k + 1)]
            edges = list(zip(arc, arc[1:]))
            if _joined_inside(edges, set(arc), uadj):
                return k
    return None


def rho_other(edges: list[tuple[str, str]], uadj: dict[str, set[str]]) -> int | None:
    """Least size of a qualifying connected edge set, by breadth-first
    enumeration of connected edge sets in order of size."""
    all_nodes = {n for e in edges for n in e}
    if not _joined_inside(edges, all_nodes, uadj):
        return None
    touching: dict[str, list[tuple[str, str]]] = {n: [] for n in all_nodes}
    for e in edges:
        touching[e[0]].append(e)
        touching[e[1]].append(e)
    level = {frozenset([e]) for e in edges}
    size = 1
    while level:
        for edge_set in level:
            nodes = {n for e in edge_set for n in e}
            if _joined_inside(edge_set, nodes, uadj):
                return size
        grown = set()
        for edge_set in level:
            nodes = {n for e in edge_set for n in e}
            for n in nodes:
                for e in touching[n]:
                    if e not in edge_set:
                        grown.add(edge_set | {e})
        level = grown
        size += 1
    return None


def reference_rho(inst: dict) -> int | None:
    """rho of the whole instance: the least component value, None if infinite."""
    uadj = adjacency(inst, "unqualified")
    best = None
    for shape, nodes, edges in components(inst):
        if not edges:
            continue
        if shape == "other":
            r = rho_other(edges, uadj)
        else:
            r = rho_path_or_cycle(nodes, shape == "cycle", uadj)
        if r is not None and (best is None or r < best):
            best = r
    return best


def converse_bound(rho_value: int | None) -> Fraction:
    if rho_value is None:
        return Fraction(1, 2)
    return Fraction(rho_value - 1, 2 * rho_value)


def fraction_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def witness_problems(inst: dict, witness: dict, rho_value: int) -> list[str]:
    """Check a CLI witness {"edge", "path", "cover", "size"} from scratch."""
    problems = []
    qedges = {edge_of(p) for p in inst["qualified"]}
    uedges = {frozenset(edge_of(p)) for p in inst["unqualified"]}
    edge = tuple(witness["edge"])
    path = list(witness["path"])
    cover = {tuple(e) for e in witness["cover"]}
    if edge not in qedges:
        problems.append(f"witness edge {edge} is not qualified")
    if len(path) < 2 or {path[0], path[-1]} != set(edge):
        problems.append("witness path does not join the edge's endpoints")
    if len(set(path)) != len(path):
        problems.append("witness path repeats a node")
    for u, v in zip(path, path[1:]):
        if frozenset((u, v)) not in uedges:
            problems.append(f"witness path step {u}-{v} is not unqualified")
    if not cover <= qedges:
        problems.append("witness cover holds a non-qualified edge")
    if edge not in cover:
        problems.append("witness cover lacks the edge")
    cover_nodes = {n for e in cover for n in e}
    if not set(path) <= cover_nodes:
        problems.append("witness cover misses a path node")
    if cover:
        cadj: dict[str, set[str]] = {n: set() for n in cover_nodes}
        for u, v in cover:
            cadj[u].add(v)
            cadj[v].add(u)
        if _reach(cadj, next(iter(cover_nodes)), cover_nodes) != cover_nodes:
            problems.append("witness cover is not connected")
    if len(cover) != rho_value or witness.get("size") != rho_value:
        problems.append(f"witness cover size {len(cover)} != rho {rho_value}")
    return problems


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def smallest_prime_at_least(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination on Python integers."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def selection_columns(h: list[list[int]]) -> list[int] | None:
    """Column of the single 1 in each row, or None unless H selects
    distinct noise coordinates."""
    cols = []
    for row in h:
        ones = [c for c, v in enumerate(row) if v]
        if len(ones) != 1 or row[ones[0]] != 1:
            return None
        cols.append(ones[0])
    return cols if len(set(cols)) == len(cols) else None


def alignment_problems(inst: dict, scheme: dict) -> list[str] | None:
    """Linear feasibility of a scheme whose noise precoders are selections.

    Two signals share exactly the noise coordinates both select, so the
    noise overlap of an edge is spanned by those coordinates. A qualified
    edge needs the differences of the secret rows on shared coordinates
    to have rank L; an unqualified edge needs them all zero. Returns None
    when some noise precoder is not a selection matrix.
    """
    p, L, N = scheme["p"], scheme["L"], scheme["N"]
    rows_of: dict[str, dict[int, list[int]]] = {}
    problems = []
    names = [node_a(x) for x in range(1, inst["a_count"] + 1)]
    names += [node_b(y) for y in range(1, inst["b_count"] + 1)]
    for name in names:
        entry = scheme["nodes"].get(name)
        if entry is None:
            return [f"scheme lacks node {name}"]
        if len(entry["F"]) != N or len(entry["H"]) != N:
            return [f"node {name} does not have N={N} rows"]
        cols = selection_columns(entry["H"])
        if cols is None:
            return None
        rows_of[name] = {c: entry["F"][r] for r, c in enumerate(cols)}
    for kind in ("qualified", "unqualified"):
        for pair in inst[kind]:
            u, v = edge_of(pair)
            shared = sorted(set(rows_of[u]) & set(rows_of[v]))
            diffs = [[(a - b) % p for a, b in zip(rows_of[u][t], rows_of[v][t])] for t in shared]
            if kind == "qualified" and (len(diffs) < L or rank_mod_p(diffs, p) != L):
                problems.append(f"qualified {u}-{v}: secret difference has rank below L={L}")
            if kind == "unqualified" and any(any(d) for d in diffs):
                problems.append(f"unqualified {u}-{v}: secret rows differ on shared noise")
    return problems


def referenced_noise_count(scheme: dict, u: str, v: str) -> int:
    """Noise coordinates that either precoder of an edge touches."""
    cols = set()
    for name in (u, v):
        for row in scheme["nodes"][name]["H"]:
            cols.update(c for c, val in enumerate(row) if val % scheme["p"])
    return len(cols)
