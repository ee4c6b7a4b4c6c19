"""Converse bound, capacity classification, and randomized scheme search.

The converse bound (rho-1)/(2*rho) holds for every linear scheme; when rho
is infinite it degenerates to 1/2. Classification combines that bound with
the path/cycle achievability condition and with catalog knowledge reached
through color-preserving bipartite isomorphism. The randomized search is
the package's one alignment solver, the constructive companion to the
feasibility framework: it samples noise structures with the required
qualified overlaps (noise alignment), solves the unqualified alignment
constraints exactly as classes of equal secret rows (signal alignment),
and keeps a draw only if every qualified edge ends up decodable; anything
returned has passed the real verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import FieldMatrix, PrimeField
from .graph import CdsInstance, CoverWitness, a_node, b_node, qualified_components, rho
from .linalg import residue_rank
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
    alignment constraints then say which secret rows are equal, so the
    solution space is one free row per class of equal rows. Up to
    SEARCH_INNER_DRAWS random members are drawn, one row per class, and one
    is kept iff every qualified edge has a full-rank secret difference. An
    edge's difference rows are those of its shared slots' class pairs with
    two distinct classes, and no two of these pairs share a class, so an
    edge with fewer than L of them can never pass. Such a configuration's
    draws are still made but not tested, which keeps the rng stream and
    every seeded result. Any returned scheme has passed verify_linear;
    None after budget exhaustion proves nothing. With a qualified edge and
    L > N no configuration can be repaired, so None comes before any draw.
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
    if inst.qualified and L > N:
        return None  # no two sets of N coordinates share L: every draw fails repair
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
