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
from .scheme import LinearScheme, check_field_size, rate, verify_linear


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


def _transpose(inst: CdsInstance) -> CdsInstance:
    return CdsInstance(
        name=inst.name + "-T",
        a_count=inst.b_count,
        b_count=inst.a_count,
        qualified=frozenset((y, x) for x, y in inst.qualified),
        unqualified=frozenset((y, x) for x, y in inst.unqualified),
    )


def color_isomorphic(first: CdsInstance, second: CdsInstance) -> bool:
    """Isomorphism over relabelings that preserve edge colors.

    Tries side-preserving relabelings and, when the node counts permit,
    side-swapping ones.
    """
    if _iso_side_preserving(first, second):
        return True
    if first.a_count == second.b_count and first.b_count == second.a_count:
        return _iso_side_preserving(first, _transpose(second))
    return False


def _signature(inst: CdsInstance):
    qdeg_a = {x: 0 for x in range(1, inst.a_count + 1)}
    udeg_a = {x: 0 for x in range(1, inst.a_count + 1)}
    qdeg_b = {y: 0 for y in range(1, inst.b_count + 1)}
    udeg_b = {y: 0 for y in range(1, inst.b_count + 1)}
    for x, y in inst.qualified:
        qdeg_a[x] += 1
        qdeg_b[y] += 1
    for x, y in inst.unqualified:
        udeg_a[x] += 1
        udeg_b[y] += 1
    sig_a = {x: (qdeg_a[x], udeg_a[x]) for x in qdeg_a}
    sig_b = {y: (qdeg_b[y], udeg_b[y]) for y in qdeg_b}
    return sig_a, sig_b


def _iso_side_preserving(g1: CdsInstance, g2: CdsInstance) -> bool:
    if g1.a_count != g2.a_count or g1.b_count != g2.b_count:
        return False
    if len(g1.qualified) != len(g2.qualified) or len(g1.unqualified) != len(g2.unqualified):
        return False
    sig1_a, sig1_b = _signature(g1)
    sig2_a, sig2_b = _signature(g2)
    if sorted(sig1_a.values()) != sorted(sig2_a.values()):
        return False
    if sorted(sig1_b.values()) != sorted(sig2_b.values()):
        return False

    a_nodes = sorted(sig1_a, key=lambda x: (sig1_a[x], x), reverse=True)
    b_nodes = sorted(sig1_b, key=lambda y: (sig1_b[y], y), reverse=True)
    order = [("A", x) for x in a_nodes] + [("B", y) for y in b_nodes]
    map_a: dict[int, int] = {}
    map_b: dict[int, int] = {}
    used_a: set[int] = set()
    used_b: set[int] = set()

    def consistent(side: str, v: int, img: int) -> bool:
        if side == "A":
            for y, iy in map_b.items():
                if ((v, y) in g1.qualified) != ((img, iy) in g2.qualified):
                    return False
                if ((v, y) in g1.unqualified) != ((img, iy) in g2.unqualified):
                    return False
        else:
            for x, ix in map_a.items():
                if ((x, v) in g1.qualified) != ((ix, img) in g2.qualified):
                    return False
                if ((x, v) in g1.unqualified) != ((ix, img) in g2.unqualified):
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        side, v = order[i]
        sig = sig1_a[v] if side == "A" else sig1_b[v]
        pool = (
            [x for x in sig2_a if sig2_a[x] == sig and x not in used_a]
            if side == "A"
            else [y for y in sig2_b if sig2_b[y] == sig and y not in used_b]
        )
        for img in pool:
            if not consistent(side, v, img):
                continue
            if side == "A":
                map_a[v] = img
                used_a.add(img)
            else:
                map_b[v] = img
                used_b.add(img)
            if backtrack(i + 1):
                return True
            if side == "A":
                del map_a[v]
                used_a.discard(img)
            else:
                del map_b[v]
                used_b.discard(img)
        return False

    return backtrack(0)


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
    qualified edge has a full-rank secret difference. Any returned scheme
    has passed verify_linear; None after budget exhaustion proves nothing.
    A modulus too large for exact int64 products raises FieldError.
    """
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
    p = field.p
    cols = {n: sorted(atoms[n]) for n in nodes}
    row_of = {n: {t: r for r, t in enumerate(cols[n])} for n in nodes}

    def slot(n: str, t: int) -> int:
        return node_idx[n] * N + row_of[n][t]

    # each unqualified constraint F_u[t] = F_v[t] joins two slots, so the
    # solution space is spanned by the indicator vectors of the slot classes
    k, cls = _slot_classes(
        len(nodes) * N, [(slot(u, t), slot(v, t)) for u, v in uedges for t in atoms[u] & atoms[v]]
    )
    if k == 0:
        return None
    qslots = []
    for u, v in qedges:
        shared = sorted(atoms[u] & atoms[v])
        qslots.append(([slot(u, t) for t in shared], [slot(v, t) for t in shared]))
    for _ in range(SEARCH_INNER_DRAWS):
        coeffs = rng.integers(0, p, size=(k, L), dtype=np.int64)
        rows = coeffs[cls]  # total x L
        if any(residue_rank(rows[su] - rows[sv], p) < L for su, sv in qslots):
            continue
        precoders = {}
        for n in nodes:
            f = rows[node_idx[n] * N : node_idx[n] * N + N]
            h = np.zeros((N, L_Z), dtype=np.int64)
            for r, t in enumerate(cols[n]):
                h[r, t] = 1
            precoders[n] = (FieldMatrix(f, field), FieldMatrix(h, field))
        return LinearScheme(
            field=field,
            L=L,
            L_Z=L_Z,
            N=N,
            precoders=precoders,
            name=f"search-{inst.name}" if inst.name else "search",
        )
    return None


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
    get all-zero secret precoders.
    """
    p = field.p
    nodes = inst.nodes()
    node_idx = {n: i for i, n in enumerate(nodes)}
    n_rows = {n: h_map[n].rows for n in nodes}
    offsets = {}
    total = 0
    for n in nodes:
        offsets[n] = total
        total += n_rows[n]

    inters = {}
    eq_rows: list[np.ndarray] = []
    rhs_rows: list[np.ndarray] = []
    for (x, y), kind in inst.edges_with_kind():
        u, v = a_node(x), b_node(y)
        inters[(u, v)] = inter = rowspace_intersection(h_map[u], h_map[v])
        if kind != "unqualified":
            continue
        pa, pb = inter.p_a.array, inter.p_b.array
        for i in range(pa.shape[0]):
            row = np.zeros(total, dtype=np.int64)
            row[offsets[u] : offsets[u] + n_rows[u]] = pa[i]
            row[offsets[v] : offsets[v] + n_rows[v]] = np.mod(-pb[i], p)
            eq_rows.append(row)
            rhs_rows.append(np.zeros(L, dtype=np.int64))
    for node, r, vec in pinned_rows or []:
        row = np.zeros(total, dtype=np.int64)
        row[offsets[node] + r] = 1
        eq_rows.append(row)
        rhs_rows.append(np.mod(np.asarray(vec, dtype=np.int64), p))
    for (n1, r1), (n2, r2), vec in pinned_diffs or []:
        row = np.zeros(total, dtype=np.int64)
        row[offsets[n1] + r1] = 1
        row[offsets[n2] + r2] = (p - 1) % p
        eq_rows.append(row)
        rhs_rows.append(np.mod(np.asarray(vec, dtype=np.int64), p))

    if eq_rows:
        a_sys = FieldMatrix(np.array(eq_rows, dtype=np.int64), field)
        b_sys = FieldMatrix(np.array(rhs_rows, dtype=np.int64), field)
        particular = solve_right(a_sys, b_sys)
        if particular is None:
            return None
        basis = nullspace(a_sys).array
        x0 = particular.array
    else:
        basis = np.eye(total, dtype=np.int64)
        x0 = np.zeros((total, L), dtype=np.int64)
    k = basis.shape[0]

    edgeless = {
        n for n in nodes if not any(n in (a_node(x), b_node(y)) for x, y in inst.qualified | inst.unqualified)
    }
    qpairs = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]
    n_cols_z = next(iter(h_map.values())).cols
    if len(set(n_rows.values())) != 1:
        raise ValueError("all noise precoders must have the same row count N")
    n_sig = next(iter(n_rows.values()))
    for _ in range(SOLVE_INNER_DRAWS):
        coeffs = rng.integers(0, p, size=(k, L), dtype=np.int64) if k else np.zeros((0, L), np.int64)
        rows = np.mod(x0 + basis.T @ coeffs, p)
        ok = True
        for u, v in qpairs:
            inter = inters[(u, v)]
            fu = rows[offsets[u] : offsets[u] + n_rows[u]]
            fv = rows[offsets[v] : offsets[v] + n_rows[v]]
            diff = np.mod(inter.p_a.array @ fu - inter.p_b.array @ fv, p)
            if residue_rank(diff, p) < L:
                ok = False
                break
        if not ok:
            continue
        precoders = {}
        for n in nodes:
            f = rows[offsets[n] : offsets[n] + n_rows[n]].copy()
            if n in edgeless:
                f[:] = 0
            precoders[n] = (FieldMatrix(f, field), h_map[n])
        return LinearScheme(
            field=field,
            L=L,
            L_Z=n_cols_z,
            N=n_sig,
            precoders=precoders,
            name=f"solved-{inst.name}" if inst.name else "solved",
        )
    return None
