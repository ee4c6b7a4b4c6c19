"""Converse bound, capacity classification, and randomized scheme search.

The converse bound (rho-1)/(2*rho) holds for every linear scheme; when rho
is infinite it degenerates to 1/2. Classification combines that bound with
the path/cycle achievability condition and with catalog knowledge reached
through color-preserving bipartite isomorphism. The randomized search is
the constructive companion to the feasibility framework: it samples noise
structures with the required qualified overlaps, solves the unqualified
alignment constraints exactly, and keeps a draw only if every qualified
edge ends up decodable; anything returned has passed the real verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import FieldMatrix, PrimeField
from .graph import CdsInstance, CoverWitness, a_node, b_node, qualified_components, rho
from .linalg import nullspace, residue_rank, rowspace_intersection, solve_right
from .scheme import LinearScheme, check_field_size, verify_linear


def linear_converse_bound(inst: CdsInstance) -> tuple[Fraction, CoverWitness | None]:
    """Upper bound on the rate of any linear scheme, with the rho witness.

    (rho-1)/(2*rho) for finite rho; exactly 1/2 (and no witness) when rho
    is infinite.
    """
    r = rho(inst)
    if r.is_infinite:
        return Fraction(1, 2), None
    return Fraction(r.value - 1, 2 * r.value), r.witness


# -- isomorphism ------------------------------------------------------------------


def color_isomorphic(first: CdsInstance, second: CdsInstance) -> bool:
    """Isomorphism over relabelings that preserve edge colors.

    Tries side-preserving relabelings and, when the node counts permit,
    side-swapping ones: ``second`` with its A and B nodes renamed.
    """
    if (len(first.qualified), len(first.unqualified)) != (len(second.qualified), len(second.unqualified)):
        return False
    kept = (first.a_count, first.b_count) == (second.a_count, second.b_count)
    swapped = (first.a_count, first.b_count) == (second.b_count, second.a_count)
    if not (kept or swapped):
        return False
    colour = _colours(first)
    return (kept and _map_nodes(colour, _colours(second))) or (
        swapped and _map_nodes(colour, _colours(second, swap=True))
    )


def _colours(inst: CdsInstance, swap: bool = False) -> dict[tuple, dict[tuple, str]]:
    """Each node's neighbours with the colour of the edge to them, so that a
    pair's colour can be looked up in either order. Nodes are (side, index);
    ``swap`` renames the A nodes B and the B nodes A."""
    a, b = ("B", "A") if swap else ("A", "B")
    colour: dict[tuple, dict[tuple, str]] = {}
    for edges, c in ((inst.qualified, "q"), (inst.unqualified, "u")):
        for x, y in edges:
            colour.setdefault((a, x), {})[b, y] = c
            colour.setdefault((b, y), {})[a, x] = c
    return colour


def _map_nodes(colour1: dict[tuple, dict[tuple, str]], colour2: dict[tuple, dict[tuple, str]]) -> bool:
    """Whether some bijection between the nodes with edges keeps every node
    pair's colour. A node's images are the unused nodes of equal signature
    (side, qualified degree, unqualified degree); nodes without edges match
    once the side sizes agree."""
    sig1, sig2 = _signatures(colour1), _signatures(colour2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    pool: dict[tuple, list[tuple]] = {}
    for n in sorted(sig2):
        pool.setdefault(sig2[n], []).append(n)
    order = sorted(sig1, key=lambda n: (sig1[n], n), reverse=True)
    image: dict[tuple, tuple] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for img in pool[sig1[v]]:
            if img in image.values() or any(colour1[v].get(w) != colour2[img].get(iw) for w, iw in image.items()):
                continue
            image[v] = img
            if extend(i + 1):
                return True
            del image[v]
        return False

    return extend(0)


def _signatures(colour: dict[tuple, dict[tuple, str]]) -> dict[tuple, tuple]:
    sig = {}
    for u, nbrs in colour.items():
        colours = list(nbrs.values())
        sig[u] = (u[0], colours.count("q"), colours.count("u"))
    return sig


# -- classification ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # "exact" | "bounded-above"
    value: Fraction
    reason: str
    is_open: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "reason": self.reason,
            "open": self.is_open,
        }


def classify_linear_capacity(inst: CdsInstance) -> Verdict:
    """Exact capacity when achievability or catalog knowledge settles it,
    else the covering upper bound (flagged open when catalog knowledge
    shows an unresolved gap below the bound)."""
    from . import catalog

    bound, witness = linear_converse_bound(inst)
    comps = qualified_components(inst)
    if witness is not None and all(c.kind in ("path", "cycle") for c in comps):
        return Verdict(
            kind="exact",
            value=bound,
            reason="every qualified component is a path or cycle, so the converse bound is achievable",
        )
    for entry in catalog.known_results():
        if not color_isomorphic(inst, catalog.builtin_instance(entry.name)):
            continue
        if entry.exact_capacity is not None:
            return Verdict(
                kind="exact",
                value=entry.exact_capacity,
                reason=f"isomorphic to catalog instance {entry.name!r} with a known capacity proof",
            )
        best = entry.best_scheme_rate()
        if best is not None and best == bound:
            return Verdict(
                kind="exact",
                value=bound,
                reason=f"a catalog scheme for {entry.name!r} achieves the converse bound",
            )
        if entry.open or (best is not None and best < bound):
            return Verdict(
                kind="bounded-above",
                value=bound,
                reason=f"isomorphic to catalog instance {entry.name!r} whose linear capacity is open",
                is_open=True,
            )
    return Verdict(
        kind="bounded-above",
        value=bound,
        reason="no matching achievability result; covering bound only",
    )


# -- randomized scheme search --------------------------------------------------------

SEARCH_INNER_DRAWS = 3  # members of each noise configuration's solution space tried


def random_scheme_search(
    inst: CdsInstance,
    p: int,
    L: int,
    N: int,
    L_Z: int,
    seed: int,
    budget: int,
) -> LinearScheme | None:
    """Search for a verified linear scheme with the given parameters.

    Each unit of budget samples one noise configuration: every node gets N
    distinct noise coordinates, locally repaired until every qualified edge
    shares at least L of them (noise alignment first). The unqualified
    alignment constraints are then linear in the rows of the secret
    precoders; the solver parameterizes their solution space exactly and
    draws up to SEARCH_INNER_DRAWS random members, keeping one iff every
    qualified edge has a full-rank secret difference. A configuration is
    rejected before any draw when some qualified edge's shared slots have
    fewer than L independent class differences (the rank of their class
    pairs' incidence matrix, classes minus components over any field):
    every member's difference on that edge lies in their span, so no draw
    could pass. Its draws' rng calls are still made, so the stream and
    every seeded result are those of drawing them. Any returned scheme
    has passed verify_linear; None after budget exhaustion proves nothing.
    A modulus too large for exact int64 products raises FieldError.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if L < 1 or N < 1 or L_Z < 1 or budget < 0:
        raise ValueError("L, N, L_Z must be positive and budget non-negative")
    check_field_size(p, L, L_Z, N)
    field = PrimeField(p)
    if N > L_Z:
        return None  # no full-row-rank noise precoder exists
    rng = np.random.default_rng(seed)
    nodes = inst.nodes()
    node_idx = {n: i for i, n in enumerate(nodes)}
    qedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]
    uedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.unqualified)]

    for _ in range(budget):
        atoms = _sample_atoms(rng, nodes, qedges, L, N, L_Z)
        if atoms is None:
            continue
        scheme = _solve_alignment(inst, field, L, N, L_Z, nodes, node_idx, atoms, qedges, uedges, rng)
        if scheme is None:
            continue
        if verify_linear(inst, scheme).overall:
            return scheme
    return None


def _sample_atoms(
    rng: np.random.Generator,
    nodes: list[str],
    qedges: list[tuple[str, str]],
    L: int,
    N: int,
    L_Z: int,
) -> dict[str, set[int]] | None:
    picks = np.argsort(rng.random((len(nodes), L_Z)), axis=1)[:, :N]
    atoms = {n: set(picks[i].tolist()) for i, n in enumerate(nodes)}
    for _ in range(4):
        deficits = [(u, v) for u, v in qedges if len(atoms[u] & atoms[v]) < L]
        if not deficits:
            return atoms
        for u, v in deficits:
            need = L - len(atoms[u] & atoms[v])
            if need <= 0:
                continue
            borrow = list(atoms[v] - atoms[u])
            drop = list(atoms[u] - atoms[v])
            rng.shuffle(borrow)
            rng.shuffle(drop)
            for t_new, t_old in zip(borrow[:need], drop[:need]):
                atoms[u].discard(t_old)
                atoms[u].add(t_new)
    if all(len(atoms[u] & atoms[v]) >= L for u, v in qedges):
        return atoms
    return None


def _slot_classes(total: int, pairs: list[tuple[int, int]]) -> tuple[int, np.ndarray]:
    """Classes of the slots 0..total-1 under the equalities ``pairs``.

    Returns the class count k and each slot's class index. Classes are
    numbered by their largest slot, the order in which ``linalg.nullspace``
    lists the class indicator vectors that span the equality system's
    solution space, so the class-``i`` indicator is its basis row ``i``.
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


def _draw_rows(
    rng: np.random.Generator,
    p: int,
    L: int,
    x0: np.ndarray | int,
    basis: np.ndarray,
    checks: list[np.ndarray],
    draws: int,
) -> np.ndarray | None:
    """Up to ``draws`` random members ``x0 + basis.T @ coeffs`` (mod p) of an
    affine solution space, with ``coeffs`` drawn as a (len(basis), L) block
    each time; the first member ``rows`` for which every check matrix D has
    rank(D @ rows) == L, or None."""
    for _ in range(draws):
        coeffs = rng.integers(0, p, size=(len(basis), L), dtype=np.int64)
        rows = np.mod(x0 + basis.T @ coeffs, p)
        if all(residue_rank(d @ rows, p) == L for d in checks):
            return rows
    return None


def _solve_alignment(
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
    # each unqualified constraint F_u[t] = F_v[t] joins two slots, so the
    # solution space is spanned by the indicator vectors of the slot classes
    k, cls = _slot_classes(total, [(slot[u, t], slot[v, t]) for u, v in uedges for t in atoms[u] & atoms[v]])
    # a draw's row differences on a qualified edge are coeffs[a] - coeffs[b]
    # over its shared slots' class pairs (a, b), so their rank is at most that
    # of the pairs' incidence matrix: k minus the classes the pairs leave of
    # 0..k-1. Below L no draw can pass; consume the draws' rng calls and stop.
    ids = cls.tolist()
    for u, v in qedges:
        if k - _slot_classes(k, [(ids[slot[u, t]], ids[slot[v, t]]) for t in atoms[u] & atoms[v]])[0] < L:
            for _ in range(SEARCH_INNER_DRAWS):
                rng.integers(0, field.p, size=(k, L), dtype=np.int64)
            return None
    basis = np.zeros((k, total), dtype=np.int64)
    basis[cls, np.arange(total)] = 1
    # a qualified edge decodes when its shared slots' row differences have rank L
    checks = []
    for u, v in qedges:
        shared = sorted(atoms[u] & atoms[v])
        d = np.zeros((len(shared), total), dtype=np.int64)
        for i, t in enumerate(shared):
            d[i, slot[u, t]], d[i, slot[v, t]] = 1, -1
        checks.append(d)
    rows = _draw_rows(rng, field.p, L, 0, basis, checks, SEARCH_INNER_DRAWS)
    if rows is None:
        return None
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


SOLVE_INNER_DRAWS = 64  # members of the solution space tried by solve_scheme_for_noise


def solve_scheme_for_noise(
    inst: CdsInstance,
    field: PrimeField,
    L: int,
    h_map: dict[str, FieldMatrix],
    rng: np.random.Generator,
    pinned_rows: list[tuple[str, int, list[int]]] | None = None,
    pinned_diffs: list[tuple[tuple[str, int], tuple[str, int], list[int]]] | None = None,
) -> LinearScheme | None:
    """Solve for secret precoders given fixed noise precoders.

    The unqualified alignment constraints P_u F_u = P_v F_v are linear in
    the rows of the F matrices with scalar coefficients taken from the
    overlap coefficient matrices, so the whole solution space is an affine
    subspace: one exact solve parameterizes it. Random members are drawn
    until every qualified edge has a full-rank secret difference, at most
    SOLVE_INNER_DRAWS of them. ``pinned_rows`` fixes chosen F rows to
    given vectors and ``pinned_diffs`` fixes differences of two rows, which
    lets callers reproduce published scheme fragments. Nodes with no edges
    get all-zero secret precoders. Noise precoders with different row
    counts raise ValueError.
    """
    nodes = inst.nodes()
    N = h_map[nodes[0]].rows
    if any(h_map[n].rows != N for n in nodes):
        raise ValueError("all noise precoders must have the same row count N")
    block = {n: slice(i * N, i * N + N) for i, n in enumerate(nodes)}
    total = len(nodes) * N

    # an edge's overlap coefficients [P_a | -P_b], placed at its two node
    # blocks, give equations when it is unqualified and a rank check when not
    eq_rows: list[np.ndarray] = []
    rhs_rows: list[np.ndarray] = []
    checks: list[np.ndarray] = []
    touched: set[str] = set()
    for (x, y), kind in inst.edges_with_kind():
        u, v = a_node(x), b_node(y)
        touched.update((u, v))
        inter = rowspace_intersection(h_map[u], h_map[v])
        pair = np.zeros((inter.p_a.rows, total), dtype=np.int64)
        pair[:, block[u]] = inter.p_a.array
        pair[:, block[v]] = -inter.p_b.array
        if kind == "unqualified":
            eq_rows.extend(pair)
            rhs_rows.extend(np.zeros((len(pair), L), dtype=np.int64))
        else:
            checks.append(pair)
    for node, r, vec in pinned_rows or []:
        row = np.zeros(total, dtype=np.int64)
        row[block[node].start + r] = 1
        eq_rows.append(row)
        rhs_rows.append(np.asarray(vec, dtype=np.int64))
    for (n1, r1), (n2, r2), vec in pinned_diffs or []:
        row = np.zeros(total, dtype=np.int64)
        row[block[n1].start + r1] = 1
        row[block[n2].start + r2] = -1
        eq_rows.append(row)
        rhs_rows.append(np.asarray(vec, dtype=np.int64))

    if eq_rows:
        a_sys = FieldMatrix(np.array(eq_rows, dtype=np.int64), field)
        particular = solve_right(a_sys, FieldMatrix(np.array(rhs_rows, dtype=np.int64), field))
        if particular is None:
            return None
        x0, basis = particular.array, nullspace(a_sys).array
    else:
        x0, basis = 0, np.eye(total, dtype=np.int64)
    rows = _draw_rows(rng, field.p, L, x0, basis, checks, SOLVE_INNER_DRAWS)
    if rows is None:
        return None
    precoders = {n: (FieldMatrix(rows[block[n]] if n in touched else np.zeros((N, L)), field), h_map[n]) for n in nodes}
    return LinearScheme(
        field=field,
        L=L,
        L_Z=h_map[nodes[0]].cols,
        N=N,
        precoders=precoders,
        name=f"solved-{inst.name}" if inst.name else "solved",
    )
