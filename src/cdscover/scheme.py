"""Vector linear schemes and their two independent verifiers.

A scheme assigns every node v a secret precoder F_v (N x L) and a noise
precoder H_v (N x L_Z); the transmitted signal is F_v S + H_v Z. The linear
verifier checks, per edge, the alignment conditions on the combinations of
the two signals in which the noise cancels: they must carry the whole
secret on qualified edges and none of it on unqualified ones. The entropic
oracle re-checks the same edges by brute-force enumeration of secrets and
noise, sharing no code path with the linear conditions.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import FieldError, PrimeField
from .graph import CdsInstance, a_node, b_node, node_key
from .linalg import batch_rref, mod_matmul


class SchemeError(ValueError):
    """Malformed scheme data or scheme/instance shape mismatch."""


@dataclass(frozen=True, eq=False)
class LinearScheme:
    """The global parameters (p, L, L_Z, N) and every node's precoders as int64
    stacks of canonical residues: ``F[i]`` (N x L) and ``H[i]`` (N x L_Z) are
    those of ``nodes[i]``, and the nodes run in ``node_key`` order. Each stack
    is the scheme's own read-only copy, its entries reduced mod p as a
    ``FieldMatrix`` reduces its own."""

    field: PrimeField
    L: int
    L_Z: int
    N: int
    nodes: tuple[str, ...]
    F: np.ndarray  # n x N x L
    H: np.ndarray  # n x N x L_Z
    name: str = ""

    def __post_init__(self) -> None:
        for key in ("F", "H"):
            stack = np.array(getattr(self, key), dtype=np.int64)
            if stack.size and (stack.min() < 0 or stack.max() >= self.field.p):
                np.mod(stack, self.field.p, out=stack)
            stack.flags.writeable = False
            object.__setattr__(self, key, stack)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearScheme):
            return NotImplemented
        return (self.field, self.L, self.L_Z, self.N, self.nodes, self.name) == (
            other.field, other.L, other.L_Z, other.N, other.nodes, other.name
        ) and np.array_equal(self.F, other.F) and np.array_equal(self.H, other.H)

    def check_shapes(self) -> None:
        for key, stack, cols in (("F", self.F, self.L), ("H", self.H, self.L_Z)):
            if stack.shape != (len(self.nodes), self.N, cols):
                raise SchemeError(f"{key} has shape {stack.shape}, expected {(len(self.nodes), self.N, cols)}")

    def check_for_instance(self, inst: CdsInstance) -> None:
        """Shapes, and one precoder pair per node of ``inst`` in its node order."""
        self.check_shapes()
        nodes = inst.nodes()
        if self.nodes == tuple(nodes):
            return
        have = set(self.nodes)
        missing = [n for n in nodes if n not in have]
        if missing:
            raise SchemeError(f"scheme lacks precoders for {missing}")
        unknown = sorted(have - set(nodes))
        if unknown:
            raise SchemeError(f"scheme has precoders for {unknown}, which are not nodes of {inst.name!r}")
        raise SchemeError(f"scheme nodes {list(self.nodes)} are not in node order")


def check_field_size(p: int, L: int, L_Z: int, N: int) -> None:
    """Refuse a modulus whose sums of residue products can wrap int64.

    The longest sums run over 2N terms (an edge's noise overlap) or L + L_Z
    (a simulated signal F S + H Z). Call it before the primality test, whose
    trial division takes minutes on such a modulus.
    """
    k = max(2 * N, L + L_Z)
    if (p - 1) ** 2 * k >= 2**63:
        raise FieldError(f"p = {p} is too large: {k} products of residues can overflow int64")


def rate(scheme: LinearScheme) -> Fraction:
    """Secret symbols disclosed per symbol of total communication, L/(2N)."""
    if scheme.N <= 0:
        raise SchemeError("N must be positive")
    return Fraction(scheme.L, 2 * scheme.N)


# -- scheme files ---------------------------------------------------------------


def _matrix(obj, what: str, p: int, cols: int) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemeError(f"{what} must be a list of rows")
    if len({len(r) for r in obj}) > 1:
        raise SchemeError(f"{what} must be a rectangular list of rows")
    for r in obj:
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < p:
                raise SchemeError(f"{what} entry {v!r} is not an integer in [0, {p})")
    return np.array(obj, dtype=np.int64) if obj else np.zeros((0, cols), dtype=np.int64)


def _scanned_stacks(nodes: dict, p: int, N: int, L: int, L_Z: int) -> list[np.ndarray]:
    """The F and H stacks entry by entry, refusing the first fault in file
    order: a node's entry, then its F and H entries, then the shapes."""
    pairs = []
    for node, entry in nodes.items():
        if not isinstance(entry, dict) or "F" not in entry or "H" not in entry:
            raise SchemeError(f"node {node} must have 'F' and 'H' matrices")
        pairs.append((_matrix(entry["F"], f"F_{node}", p, L), _matrix(entry["H"], f"H_{node}", p, L_Z)))
    for node, (f, h) in zip(nodes, pairs):
        if f.shape != (N, L):
            raise SchemeError(f"F_{node} has shape {f.shape}, expected {(N, L)}")
        if h.shape != (N, L_Z):
            raise SchemeError(f"H_{node} has shape {h.shape}, expected {(N, L_Z)}")
    return [np.array([m[k] for m in pairs], dtype=np.int64).reshape(len(pairs), N, c) for k, c in ((0, L), (1, L_Z))]


def _bulk_stacks(text: str, nodes: dict, p: int, N: int, L: int, L_Z: int) -> list[np.ndarray] | None:
    """The F and H stacks, each from one ``np.array`` call and checked whole
    (shape, int64 dtype, entries in [0, p)); None leaves them to
    ``_scanned_stacks``. np.array gives floats, strings, None and ints past
    int64 another dtype, and ragged or nested rows another shape or a
    ValueError, but reads true as 1 in a row of ints: a text holding "true"
    or "false" anywhere is scanned."""
    if "true" in text or "false" in text:
        return None
    try:
        stacks = [np.array([entry[key] for entry in nodes.values()]) for key in ("F", "H")]
    except (TypeError, KeyError, ValueError, OverflowError):
        return None
    for stack, cols in zip(stacks, (L, L_Z)):
        bad = stack.size and (stack.dtype != np.int64 or stack.min() < 0 or stack.max() >= p)
        if bad or stack.shape != (len(nodes), N, cols):
            return None
    return [stack.astype(np.int64, copy=False) for stack in stacks]  # an empty stack reads as float64


def parse_scheme(text: str) -> LinearScheme:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemeError(f"malformed JSON: {e.msg} (line {e.lineno}, column {e.colno})") from e
    if not isinstance(obj, dict):
        raise SchemeError("scheme file must contain a JSON object")
    for key in ("p", "L", "Lz", "N"):
        if not isinstance(obj.get(key), int) or isinstance(obj.get(key), bool):
            raise SchemeError(f"field '{key}' must be an integer")
    L, L_Z, N = obj["L"], obj["Lz"], obj["N"]
    if N < 1:
        raise SchemeError(f"field 'N' must be positive, got {N}")
    for key in ("L", "Lz"):
        if obj[key] < 0:
            raise SchemeError(f"field '{key}' must be non-negative, got {obj[key]}")
    try:
        check_field_size(obj["p"], L, L_Z, N)
        fld = PrimeField(obj["p"])
    except FieldError as e:
        raise SchemeError(str(e)) from e
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise SchemeError("field 'name' must be a string")
    nodes = obj.get("nodes")
    if not isinstance(nodes, dict):
        raise SchemeError("field 'nodes' must be an object mapping node ids to precoders")
    f, h = _bulk_stacks(text, nodes, fld.p, N, L, L_Z) or _scanned_stacks(nodes, fld.p, N, L, L_Z)
    names = list(nodes)
    try:
        order = sorted(range(len(names)), key=lambda i: node_key(names[i]))
    except (ValueError, IndexError):  # an id that is no node's, which no instance accepts: keep the file's order
        order = range(len(names))
    if any(i != k for k, i in enumerate(order)):
        f, h, names = f[order], h[order], [names[i] for i in order]
    return LinearScheme(field=fld, L=L, L_Z=L_Z, N=N, nodes=tuple(names), F=f, H=h, name=name)


@functools.lru_cache(maxsize=16)
def _node_layout(N: int, L: int, L_Z: int) -> str:
    """A node's entry of a scheme file after its id, as ``json.dumps(indent=2)``
    lays it out, with a %s field for each entry of F and of H."""

    def matrix(cols: int) -> str:
        row = "[\n          " + ",\n          ".join(["%s"] * cols) + "\n        ]" if cols else "[]"
        return "[\n        " + ",\n        ".join([row] * N) + "\n      ]" if N else "[]"

    return ': {\n      "F": ' + matrix(L) + ',\n      "H": ' + matrix(L_Z) + "\n    }"


def serialize_scheme(scheme: LinearScheme) -> str:
    """The scheme file: the bytes of ``json.dumps(obj, indent=2) + "\\n"``,
    nodes in the scheme's order.

    The file has a fixed shape of ints and int rows, so each node's entry is
    one %-format of its own F and H entries, and one join puts the pieces
    together; the standard encoder's indented mode is pure Python and took
    longer than synthesizing the scheme.
    """
    head = '{\n  "name": %s,\n  "p": %s,\n  "L": %s,\n  "Lz": %s,\n  "N": %s,\n  "nodes": ' % (
        json.dumps(scheme.name), scheme.field.p, scheme.L, scheme.L_Z, scheme.N
    )
    if not scheme.nodes:
        return head + "{}\n}\n"
    node, parts = _node_layout(scheme.N, scheme.L, scheme.L_Z), [head + "{\n    "]
    for v, f, h in zip(scheme.nodes, scheme.F, scheme.H):
        parts += (json.dumps(v), node % tuple(f.ravel().tolist() + h.ravel().tolist()), ",\n    ")
    parts[-1] = "\n  }\n}\n"
    return "".join(parts)


# -- linear verifier ------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    subject: str  # "A1" for node checks, "A1-B2" for edge checks
    kind: str  # "noise-rank" | "qualified" | "unqualified" | "noise-alignment"
    passed: bool
    overlap_dim: int | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "kind": self.kind,
            "passed": self.passed,
            "overlap_dim": self.overlap_dim,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[CheckRecord, ...]

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_json(self) -> dict:
        return {"overall": self.overall, "records": [r.to_json() for r in self.records]}


def verify_linear(inst: CdsInstance, scheme: LinearScheme) -> VerificationReport:
    """Check the linear feasibility conditions on every edge.

    For each edge {v, u} stack the precoders of its ends as H = [H_v; H_u]
    and F = [F_v; F_u], and let W be a basis of the left null space of H:
    the combinations of the two signals in which the noise cancels. A
    qualified edge passes iff rank(W F) = L, an unqualified one iff W F = 0.
    Neither test depends on the choice of W, whatever the noise rank, and
    both are what the entropic oracle counts. The noise row spaces overlap
    in dimension rank(H_v) + rank(H_u) - rank(H), the noise-alignment datum
    (at least L on a qualified edge). Each H_v must also have full row rank.

    ``_edge_checks`` gives every edge's rank(H) and W F: by matching
    coordinates when every H_v has distinct unit rows (selection noise, of
    rank N), else by ``batch_rref``, which then finds each rank(H_v) too.
    Only the qualified edges' W F are reduced, on their L columns.
    """
    scheme.check_for_instance(inst)
    p, L, N = scheme.field.p, scheme.L, scheme.N
    nodes = inst.nodes()  # in node_key order
    edges = list(inst.edges_with_kind())
    ends = _ends(inst, [e for e, _ in edges])
    partner = _partners(scheme.H, ends)
    noise_rank = np.full(len(nodes), N)
    if partner is None:
        noise_rank = batch_rref(scheme.H.copy(), p, scheme.L_Z)
    records = [
        CheckRecord(subject=node, kind="noise-rank", passed=r == N, detail=f"rank(H)={r}, N={N}")
        for node, r in zip(nodes, noise_rank.tolist())
    ]
    qualified = np.array([kind == "qualified" for _, kind in edges], dtype=bool)
    h_rank, wf = _edge_checks(scheme.F, scheme.H, ends, p, partner)
    dims = noise_rank[ends].sum(axis=1) - h_rank
    ranks = wf.any(axis=(1, 2)).astype(np.intp)  # rank of W F, 0 iff it is zero
    ranks[qualified] = batch_rref(wf[qualified], p, L)
    for ((x, y), kind), d, r in zip(edges, dims.tolist(), ranks.tolist()):
        subject = f"{a_node(x)}-{b_node(y)}"
        if kind == "qualified":
            records.append(
                CheckRecord(
                    subject=subject,
                    kind="qualified",
                    passed=r == L,
                    overlap_dim=d,
                    detail=f"rank(PvFv - PuFu)={r}, L={L}",
                )
            )
            records.append(
                CheckRecord(
                    subject=subject,
                    kind="noise-alignment",
                    passed=d >= L,
                    overlap_dim=d,
                    detail=f"overlap dim {d} vs L={L}",
                )
            )
        else:
            records.append(
                CheckRecord(
                    subject=subject,
                    kind="unqualified",
                    passed=r == 0,
                    overlap_dim=d,
                    detail="secret projections agree on the noise overlap"
                    if r == 0
                    else "secret projections differ on the noise overlap",
                )
            )
    return VerificationReport(tuple(records))


def _ends(inst: CdsInstance, edges) -> np.ndarray:
    """Each edge's (A end, B end) as indices into ``inst.nodes()``, which is
    the node order of a scheme checked against ``inst``."""
    return np.array([(x - 1, inst.a_count + y - 1) for x, y in edges], dtype=np.intp).reshape(-1, 2)


def _partners(h_all: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """For selection noise, every node's H (n x N x L_Z) with distinct unit
    rows: per edge (v, u) and row r of H_v, the row of H_u that selects the
    same coordinate, or -1 (E x N), read from each node's coordinate -> row
    table. Else None."""
    if not (h_all.sum(axis=2) == 1).all():  # residues summing to 1: one 1, the rest 0
        return None
    n, N, L_Z = h_all.shape
    cols = h_all @ np.arange(L_Z)  # the coordinate each row selects
    rows = np.full((n, L_Z), -1, dtype=np.intp)
    rows[np.arange(n)[:, None], cols] = np.arange(N)
    return rows[ends[:, 1:], cols[ends[:, 0]]] if np.count_nonzero(rows >= 0) == n * N else None


def _edge_checks(
    f_all: np.ndarray, h_all: np.ndarray, ends: np.ndarray, p: int, partner: np.ndarray | None, *extra: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rank(H) of every edge and, as rows of an E x R x (L + k) stack with
    the rest zero, W F (and W X for each extra E x 2N x k block X), W a basis
    of the left null space of its noise stack H = [H_v; H_u]. With selection
    noise (``partner``, from ``_partners``) W is e_(v,r) - e_(u,r') over the
    s row pairs that select one coordinate: rank(H) = 2N - s, W F is
    F_v[r] - F_u[r'] and R = N. Otherwise [H | F | X...] is reduced on its
    L_Z noise columns; its rows past rank(H) hold W F, and R = 2N.
    """
    N, L = f_all.shape[1:]
    blocks = [f_all[ends].reshape(len(ends), 2 * N, L), *extra]
    if partner is not None:
        stack = np.concatenate(blocks, axis=2)
        diff = stack[:, :N] - stack[np.arange(len(ends))[:, None], N + partner]
        diff[partner < 0] = 0
        return 2 * N - np.count_nonzero(partner >= 0, axis=1), diff % p
    L_Z = h_all.shape[2]
    stack = np.concatenate([h_all[ends].reshape(len(ends), 2 * N, L_Z), *blocks], axis=2)
    h_rank = batch_rref(stack, p, L_Z)
    rest = stack[:, :, L_Z:]
    rest[np.arange(2 * N) < h_rank[:, None]] = 0
    return h_rank, rest


# -- entropic oracle ------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    edge: tuple[int, int]
    kind: str
    status: str  # "pass" | "fail" | "not-checked"
    states: int
    detail: str = ""
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_json(self) -> dict:
        return {
            "edge": list(self.edge),
            "kind": self.kind,
            "status": self.status,
            "states": self.states,
            "detail": self.detail,
            "counterexample": self.counterexample,
        }


DEFAULT_ORACLE_BUDGET = 10_000_000
DIGIT_TABLE_LIMIT = 2**16  # entries of a digit-sum table


def _all_tuples(p: int, n: int) -> np.ndarray:
    """All p^n tuples over F_p, one per row, lexicographic order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T


@functools.lru_cache(maxsize=16)
def _digit_sum_table(p: int) -> tuple[int, np.ndarray | None]:
    """(g, tab): g base-p digits per key group, the most whose p^g x p^g table fits
    the limit, and ``tab[a, b]`` the key of (digits(a) + digits(b)) mod p, below
    p^g <= 256; keys of fewer digits index it too. (1, None) when p^2 exceeds the limit."""
    if p * p > DIGIT_TABLE_LIMIT:
        return 1, None
    g = 1
    while p ** (2 * g + 2) <= DIGIT_TABLE_LIMIT:
        g += 1
    digits = _all_tuples(p, g)[:, ::-1]  # row a: a's digits, least significant first
    tab = (np.mod(digits[:, None] + digits, p) @ p ** np.arange(g, dtype=np.int64)).astype(np.uint8)
    tab.flags.writeable = False  # the cache hands it to every caller
    return g, tab


def _noise_parts(h: np.ndarray, p: int) -> np.ndarray:
    """The distinct values of ``h @ z mod p`` over every z, one per row.

    They span ``h``'s columns: a column already among them adds none, and
    any other takes them to p cosets, one per multiple of it.
    """
    parts = np.zeros((1, h.shape[0]), dtype=np.int64)
    for col in np.mod(h, p).T:
        if not (parts == col).all(axis=1).any():
            parts = np.mod(parts + np.arange(p, dtype=np.int64)[:, None, None] * col, p).reshape(-1, h.shape[0])
    return parts


def _signal_keys(fs: np.ndarray, hz: np.ndarray, p: int) -> np.ndarray:
    """The exact len(fs) x len(hz) grid of keys of the signals fs[i] + hz[j] mod p.

    A signal's key is sum(value[c] * p**c), so equal signals get equal keys
    and key order is base-p value order; uint32 when p**width <= 2^32, else
    int64. Horner's rule runs over groups of g columns (``_digit_sum_table``),
    most significant first, gathering the smaller side's table rows first;
    the first gather is the key array. np.unique renumbers the key in order
    whenever the next group would take it to 2^62 or past.
    """
    width = fs.shape[1]
    dtype = np.uint32 if p**width <= 2**32 else np.int64
    g, table = _digit_sum_table(p)
    keys, bound = None, 1  # keys < bound
    for at in reversed(range(0, width, g)):  # every group below the top one has g digits
        pw = p ** np.arange(min(g, width - at), dtype=np.int64)
        a, b = fs[:, at : at + len(pw)] @ pw, hz[:, at : at + len(pw)] @ pw  # the group's key in each part
        rows = dtype if keys is None else np.uint8
        if table is None:  # one digit: add, then take p off the sums that reach it
            part = a[:, None] + b
            np.subtract(part, p, out=part, where=part >= p)
        elif len(fs) <= len(b):  # gather the table rows of the smaller part first
            part = np.take(table[a].astype(rows, copy=False), b, axis=1)  # C order, unlike [:, b]
        else:
            part = table[:, b].astype(rows, copy=False)[a]
        if keys is None:
            keys = part.astype(dtype, copy=False)
        else:
            if bound * p ** len(pw) >= 2**62:
                uniq, inverse = np.unique(keys, return_inverse=True)
                keys, bound = inverse.reshape(keys.shape), len(uniq)
            keys *= p ** len(pw)
            np.add(keys, part, out=keys, casting="unsafe")  # part < p**len(pw): no wrap
        bound *= p ** len(pw)
    return np.zeros((len(fs), len(hz)), dtype=dtype) if keys is None else keys


def entropic_oracle_edge(
    inst: CdsInstance,
    scheme: LinearScheme,
    edge: tuple[int, int],
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> OracleResult:
    """Brute-force entropy check of one edge by exhaustive enumeration.

    Enumerates every secret and every assignment of the noise coordinates
    actually referenced by the two noise precoders (unreferenced coordinates
    are independent of both signals, so marginalizing over them is exact).
    Assignments with equal noise parts H z give equal signals, and each
    distinct part comes from the same number mult of them. A qualified edge
    passes iff every realized signal pair is consistent with exactly one
    secret; an unqualified edge passes iff every realized signal pair occurs
    equally often under all p^L secrets. Secret s gives the pairs F s + V,
    V the noise parts, each mult times; V is closed under addition, so two
    secrets give the same pairs or none in common, and each secret's least
    signal key names its pairs: a qualified edge fails iff two secrets share
    it, an unqualified one iff not every secret does. The key grid
    (``_signal_keys``) holds 4 bytes per (secret, noise part) state, 8 when
    p^(2N) > 2^32; the secrets and their F s are int64 tables of
    p^L x (L + 2N) entries. Never silently passes: when p^(L+m) exceeds the
    budget the result is an explicit "not-checked".
    """
    scheme.check_for_instance(inst)
    return _edge_oracle(inst, scheme, edge, budget)


def _edge_oracle(inst: CdsInstance, scheme: LinearScheme, edge: tuple[int, int], budget: int) -> OracleResult:
    """``entropic_oracle_edge`` on a scheme already checked against ``inst``."""
    if edge in inst.qualified:
        kind = "qualified"
    elif edge in inst.unqualified:
        kind = "unqualified"
    else:
        raise SchemeError(f"({edge[0]},{edge[1]}) is not an edge of {inst.name!r}")
    va, vb = a_node(edge[0]), b_node(edge[1])
    p, ends = scheme.field.p, _ends(inst, [edge])[0]
    f_stack = scheme.F[ends].reshape(2 * scheme.N, scheme.L)
    h_stack = scheme.H[ends].reshape(2 * scheme.N, scheme.L_Z)
    ref_cols = np.nonzero(h_stack.any(axis=0))[0]
    m = len(ref_cols)
    states = p ** (scheme.L + m)
    if states > budget:
        return OracleResult(
            edge=edge,
            kind=kind,
            status="not-checked",
            states=states,
            detail=f"p^(L+m) = {p}^{scheme.L + m} = {states} exceeds budget {budget}",
        )
    secrets = _all_tuples(p, scheme.L)
    hz = _noise_parts(h_stack[:, ref_cols], p)  # the distinct noise parts, each from mult of the p^m assignments
    mult = p**m // len(hz)
    fs = np.mod(secrets @ f_stack.T, p)  # p^L x 2N
    keys = _signal_keys(fs, hz, p)
    least = keys.min(axis=1)
    if kind == "qualified":
        srt = np.sort(least)
        repeated = srt[1:][srt[1:] == srt[:-1]]
        target = repeated[0] if repeated.size else None
        detail = "a signal pair is consistent with more than one secret"
    else:  # if one secret's signals differ from another's, the least signal is not given by every secret
        target = least.min() if (least != least[0]).any() else None
        detail = "signal pair counts differ across secrets"
    if target is None:
        return OracleResult(edge=edge, kind=kind, status="pass", states=states)
    gives = least == target  # the secrets that give the least failing signal pair
    s_idx = int(np.argmax(gives))
    vals = np.mod(fs[s_idx] + hz[np.argmin(keys[s_idx])], p).tolist()
    example = {"signals": {va: vals[: scheme.N], vb: vals[scheme.N :]}}
    if kind == "qualified":
        example["secrets"] = [secrets[i].tolist() for i in np.flatnonzero(gives)[:2]]
    else:
        lo = int(np.argmin(gives))
        example["secret_low"], example["count_low"] = secrets[lo].tolist(), 0
        example["secret_high"], example["count_high"] = secrets[s_idx].tolist(), mult
    return OracleResult(edge=edge, kind=kind, status="fail", states=states, detail=detail, counterexample=example)


def entropic_oracle_all(
    inst: CdsInstance, scheme: LinearScheme, budget: int = DEFAULT_ORACLE_BUDGET
) -> list[OracleResult]:
    """``entropic_oracle_edge`` on every edge: one scheme check, then one
    result per edge in ``inst.edges_with_kind()`` order."""
    scheme.check_for_instance(inst)
    return [_edge_oracle(inst, scheme, e, budget) for e, _ in inst.edges_with_kind()]


# -- simulation -----------------------------------------------------------------

SIMULATE_BLOCK = 2**10  # trials decoded at once; a block's arrays stay near cache size


@dataclass(frozen=True)
class EdgeSimulation:
    edge: tuple[int, int]
    kind: str  # always "qualified": only qualified edges are simulated
    trials: int
    decode_successes: int
    decodable: bool

    @property
    def success_frequency(self) -> float:
        return self.decode_successes / self.trials

    def to_json(self) -> dict:
        return {
            "edge": list(self.edge),
            "kind": self.kind,
            "trials": self.trials,
            "decode_successes": self.decode_successes,
            "decodable": self.decodable,
            "success_frequency": self.success_frequency,
        }


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    seed: int
    edges: tuple[EdgeSimulation, ...]

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "edges": [e.to_json() for e in self.edges],
        }


def simulate(inst: CdsInstance, scheme: LinearScheme, seed: int, trials: int) -> SimulationReport:
    """Monte Carlo smoke test: sample (S, Z) and decode on every qualified edge.

    Deterministic under the seed. An edge is decodable iff rank(W F) = L,
    the linear verifier's qualified check; one ``batch_rref`` of every
    edge's [W F | W] on its L columns then leaves [I_L | D] in its first L
    rows, with D F = I_L and D H = 0 for the stacked precoders of its ends,
    so D maps the pair's signals to the secret on every trial. An edge that
    is not decodable counts no success. S and Z are drawn, and the signals
    computed and decoded, in blocks of at most ``SIMULATE_BLOCK`` trials,
    so memory does not grow with the trial count. Both products, [F|H]
    [S;Z] for every node and D [y_v; y_u] for every decodable edge, go
    through ``linalg.mod_matmul`` on float64 residues, which float64 holds
    exactly; the kernel picks float64 or int64 arithmetic by its 2^53 rule.
    Secrecy on unqualified edges is checked by ``verify_linear`` and the
    entropic oracle, not here.
    """
    scheme.check_for_instance(inst)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    if trials == 0:
        return SimulationReport(trials=0, seed=seed, edges=())
    rng = np.random.default_rng(seed)
    p, L, N = scheme.field.p, scheme.L, scheme.N
    edges = sorted(inst.qualified)
    ends = _ends(inst, edges)
    eye = np.broadcast_to(np.eye(2 * N, dtype=np.int64), (len(edges), 2 * N, 2 * N))
    _, wf_w = _edge_checks(scheme.F, scheme.H, ends, p, _partners(scheme.H, ends), eye)
    decodable = batch_rref(wf_w, p, L) == L
    precoders = np.concatenate([scheme.F, scheme.H], axis=2, dtype=np.float64)
    ok_ends, decoder = ends[decodable], wf_w[decodable, :L, L:].astype(np.float64)
    successes = np.zeros(len(edges), dtype=np.int64)
    # with no decodable edge there is nothing to decode, and D may have fewer than L rows
    for at in range(0, trials if decodable.any() else 0, SIMULATE_BLOCK):
        block = min(SIMULATE_BLOCK, trials - at)
        draws = rng.integers(0, p, size=(L + scheme.L_Z, block), dtype=np.int64).astype(np.float64)  # S over Z
        signals = mod_matmul(precoders, draws, p)  # n x N x block
        decoded = mod_matmul(decoder, signals[ok_ends].reshape(len(ok_ends), 2 * N, block), p)
        successes[decodable] += (decoded == draws[:L]).all(axis=1).sum(axis=1)
        del draws, signals, decoded  # so the next block's arrays do not overlap these
    sims = [
        EdgeSimulation(edge, "qualified", trials, n, ok)
        for edge, n, ok in zip(edges, successes.tolist(), decodable.tolist())
    ]
    return SimulationReport(trials=trials, seed=seed, edges=tuple(sims))
