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

from .fields import PrimeField
from .graph import CdsInstance, CoverWitness, a_node, b_node, components, neighbour_masks, qualified_components, rho
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
    alignment constraints then say which secret rows are equal: the classes
    of equal rows on coordinate t are the components of the unqualified graph
    on the nodes that hold t, grown on node bitmasks. Up to
    SEARCH_INNER_DRAWS random members of the solution space are drawn, one
    row per class, and one is kept iff every qualified edge has a full-rank
    secret difference. An edge's difference rows are those of its shared
    coordinates on which its ends' classes differ; no two of these class
    pairs share a class, so an edge with fewer than L of them can never
    pass. Such a configuration's draws are still made but not tested, which
    keeps the rng stream and every seeded result. Any returned scheme has
    passed verify_linear; None after budget exhaustion proves nothing. With
    a qualified edge and L > N no configuration can be repaired, so None
    comes before any draw.
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
    adj = neighbour_masks(inst, inst.unqualified)

    for _ in range(budget):
        atoms = _sample_atoms(rng, nodes, qedges, L, N, L_Z)
        if atoms is None:
            continue
        scheme = _solve_alignment(inst, field, L, N, L_Z, nodes, node_idx, atoms, qedges, adj, rng)
        if scheme is not None and verify_linear(inst, scheme).overall:
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


def _coordinate_classes(cols: list[list[int]], adj: list[int], L_Z: int) -> list[list[int]]:
    """Each coordinate t's slot classes: the components, as node bitmasks, of
    the unqualified graph ``adj`` (a neighbour bitmask per node) on the nodes
    whose ``cols`` hold t, since each F_u[t] = F_v[t] joins two slots of t."""
    holders = [0] * L_Z
    for i, ts in enumerate(cols):
        for t in ts:
            holders[t] |= 1 << i
    return [components(adj, held) for held in holders]


def _number_classes(classes: list[list[int]], cols: list[list[int]], N: int) -> list[dict[int, int]]:
    """Each node's class number per coordinate, the classes numbered by their
    largest slot: j*N plus t's rank among top node j's coordinates. The search
    draws coefficient row c for class c, so this numbering is part of its rng
    stream: the pinned search results depend on it."""
    tops = [(t, m, m.bit_length() - 1) for t, ms in enumerate(classes) for m in ms]
    tops.sort(key=lambda c: c[2] * N + cols[c[2]].index(c[0]))
    number = {(t, m): c for c, (t, m, _) in enumerate(tops)}
    return [{t: number[t, m] for t in ts for m in classes[t] if m >> i & 1} for i, ts in enumerate(cols)]


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
    adj: list[int],
    rng: np.random.Generator,
) -> LinearScheme | None:
    cols = [sorted(atoms[n]) for n in nodes]
    classes = _coordinate_classes(cols, adj, L_Z)
    k = sum(map(len, classes))
    # a qualified edge (u, v) decodes when the rows coeffs[a] - coeffs[b] have
    # rank L, over its shared coordinates on which u's class a does not hold v
    # (v's class b). These pairs share no class, so fewer than L of them never
    # pass: the configuration is short, and its draws still keep the rng stream
    short = any(
        sum(not m >> node_idx[v] & 1 for t in atoms[u] & atoms[v] for m in classes[t] if m >> node_idx[u] & 1) < L
        for u, v in qedges
    )
    if not short:
        # the member for class rows ``coeffs`` has slot rows coeffs[cls]
        label = _number_classes(classes, cols, N)
        cls = np.array([label[i][t] for i, ts in enumerate(cols) for t in ts], dtype=np.intp)
        checks = []
        for u, v in qedges:
            lu, lv = label[node_idx[u]], label[node_idx[v]]
            checks.append(np.array([(lu[t], lv[t]) for t in atoms[u] & atoms[v] if lu[t] != lv[t]]).T)
    for _ in range(SEARCH_INNER_DRAWS):
        coeffs = rng.integers(0, field.p, size=(k, L), dtype=np.int64)
        if not short and all(residue_rank(coeffs[a] - coeffs[b], field.p) == L for a, b in checks):
            break
    else:
        return None
    h = np.zeros((len(nodes), N, L_Z), dtype=np.int64)
    h[np.arange(len(nodes))[:, None], np.arange(N), cols] = 1
    name = f"search-{inst.name}" if inst.name else "search"
    f = coeffs[cls].reshape(len(nodes), N, L)
    return LinearScheme(field=field, L=L, L_Z=L_Z, N=N, nodes=tuple(nodes), F=f, H=h, name=name)
