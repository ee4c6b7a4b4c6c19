"""Vector linear schemes and their two independent verifiers.

A scheme assigns every node v a secret precoder F_v (N x L) and a noise
precoder H_v (N x L_Z); the transmitted signal is F_v S + H_v Z. The linear
verifier checks, per edge, the alignment conditions on the overlap of the
two noise row spaces: full-rank secret difference on qualified edges,
entry-wise equality on unqualified ones. The entropic oracle re-checks the
same edges by brute-force enumeration of secrets and noise, sharing no code
path with the linear conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import FieldError, FieldMatrix, PrimeField
from .graph import CdsInstance, a_node, b_node, node_key
from .linalg import residue_rank, rowspace_intersection, rref_with_transform


class SchemeError(ValueError):
    """Malformed scheme data or scheme/instance shape mismatch."""


@dataclass(frozen=True)
class LinearScheme:
    """Per-node precoders plus the global parameters (p, L, L_Z, N)."""

    field: PrimeField
    L: int
    L_Z: int
    N: int
    precoders: dict[str, tuple[FieldMatrix, FieldMatrix]]  # node -> (F, H)
    name: str = ""

    def f_of(self, node: str) -> FieldMatrix:
        return self.precoders[node][0]

    def h_of(self, node: str) -> FieldMatrix:
        return self.precoders[node][1]

    def check_shapes(self) -> None:
        for node, (f, h) in self.precoders.items():
            if f.shape != (self.N, self.L):
                raise SchemeError(f"F_{node} has shape {f.shape}, expected {(self.N, self.L)}")
            if h.shape != (self.N, self.L_Z):
                raise SchemeError(f"H_{node} has shape {h.shape}, expected {(self.N, self.L_Z)}")
            if f.field != self.field or h.field != self.field:
                raise SchemeError(f"precoders of {node} are over the wrong field")

    def check_for_instance(self, inst: CdsInstance) -> None:
        self.check_shapes()
        nodes = inst.nodes()
        missing = [n for n in nodes if n not in self.precoders]
        if missing:
            raise SchemeError(f"scheme lacks precoders for {missing}")
        if len(self.precoders) > len(nodes):
            unknown = sorted(set(self.precoders) - set(nodes))
            raise SchemeError(f"scheme has precoders for {unknown}, which are not nodes of {inst.name!r}")


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


def _matrix_entries(obj, what: str, p: int) -> list[list[int]]:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemeError(f"{what} must be a list of rows")
    for r in obj:
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < p:
                raise SchemeError(f"{what} entry {v!r} is not an integer in [0, {p})")
    return obj


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
    try:
        check_field_size(obj["p"], L, L_Z, N)
        fld = PrimeField(obj["p"])
    except FieldError as e:
        raise SchemeError(str(e)) from e
    nodes = obj.get("nodes")
    if not isinstance(nodes, dict):
        raise SchemeError("field 'nodes' must be an object mapping node ids to precoders")
    precoders = {}
    for node, entry in nodes.items():
        if not isinstance(entry, dict) or "F" not in entry or "H" not in entry:
            raise SchemeError(f"node {node} must have 'F' and 'H' matrices")
        f = FieldMatrix.from_rows(_matrix_entries(entry["F"], f"F_{node}", fld.p), fld, cols=L)
        h = FieldMatrix.from_rows(_matrix_entries(entry["H"], f"H_{node}", fld.p), fld, cols=L_Z)
        precoders[node] = (f, h)
    scheme = LinearScheme(
        field=fld, L=L, L_Z=L_Z, N=N, precoders=precoders, name=obj.get("name", "")
    )
    scheme.check_shapes()
    return scheme


def _matrix_json(m: FieldMatrix) -> str:
    """A precoder as ``json.dumps(indent=2)`` lays it out at depth 3 of a scheme file."""
    rows, cols = m.shape
    row = "[\n          " + ",\n          ".join(["{}"] * cols) + "\n        ]" if cols else "[]"
    layout = "[\n        " + ",\n        ".join([row] * rows) + "\n      ]" if rows else "[]"
    return layout.format(*m.array.ravel().tolist())


def serialize_scheme(scheme: LinearScheme) -> str:
    """The scheme file: the bytes of ``json.dumps(obj, indent=2) + "\\n"``.

    The file has a fixed shape of ints and int rows, so it is written
    directly; the standard encoder's indented mode is pure Python and took
    longer than synthesizing the scheme.
    """
    nodes = [
        f'{json.dumps(node)}: {{\n      "F": {_matrix_json(f)},\n      "H": {_matrix_json(h)}\n    }}'
        for node, (f, h) in sorted(scheme.precoders.items(), key=lambda kv: node_key(kv[0]))
    ]
    body = "{\n    " + ",\n    ".join(nodes) + "\n  }" if nodes else "{}"
    # a name read from a file may be any JSON value, laid out one level in
    name = json.dumps(scheme.name, indent=2).replace("\n", "\n  ")
    return (
        f'{{\n  "name": {name},\n  "p": {scheme.field.p},\n  "L": {scheme.L},\n'
        f'  "Lz": {scheme.L_Z},\n  "N": {scheme.N},\n  "nodes": {body}\n}}\n'
    )


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

    For each edge {v, u} the overlap of the noise row spaces is identified
    by coefficient matrices P_v, P_u with P_v H_v = P_u H_u. A qualified
    edge passes iff rank(P_v F_v - P_u F_u) = L (the overlap must then have
    dimension >= L, recorded separately as the noise-alignment datum); an
    unqualified edge passes iff P_v F_v = P_u F_u entry-wise. Each noise
    precoder must also have full row rank. The checks do not depend on the
    choice of P: the rows of (P_v | P_u) span the full solution set of
    P_v H_v = P_u H_u modulo left-null contributions, so any other
    full-rank choice differs by an invertible row transform.
    """
    scheme.check_for_instance(inst)
    records: list[CheckRecord] = []
    for node in sorted(inst.nodes(), key=node_key):
        r = residue_rank(scheme.h_of(node).array, scheme.field.p)
        records.append(
            CheckRecord(
                subject=node,
                kind="noise-rank",
                passed=r == scheme.N,
                detail=f"rank(H)={r}, N={scheme.N}",
            )
        )
    for (x, y), kind in inst.edges_with_kind():
        va, vb = a_node(x), b_node(y)
        inter = rowspace_intersection(scheme.h_of(va), scheme.h_of(vb))
        d = inter.basis.rows
        diff = (inter.p_a @ scheme.f_of(va)) - (inter.p_b @ scheme.f_of(vb))
        subject = f"{va}-{vb}"
        if kind == "qualified":
            r = residue_rank(diff.array, scheme.field.p)
            records.append(
                CheckRecord(
                    subject=subject,
                    kind="qualified",
                    passed=r == scheme.L,
                    overlap_dim=d,
                    detail=f"rank(PvFv - PuFu)={r}, L={scheme.L}",
                )
            )
            records.append(
                CheckRecord(
                    subject=subject,
                    kind="noise-alignment",
                    passed=d >= scheme.L,
                    overlap_dim=d,
                    detail=f"overlap dim {d} vs L={scheme.L}",
                )
            )
        else:
            ok = diff.is_zero()
            records.append(
                CheckRecord(
                    subject=subject,
                    kind="unqualified",
                    passed=ok,
                    overlap_dim=d,
                    detail="secret projections agree on the noise overlap"
                    if ok
                    else "secret projections differ on the noise overlap",
                )
            )
    return VerificationReport(tuple(records))


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


def _all_tuples(p: int, n: int) -> np.ndarray:
    """All p^n tuples over F_p, one per row, lexicographic order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T


def _pair_table(width: int, p: int, signal_keys, n_secrets: int) -> tuple[np.ndarray, ...]:
    """Exact sparse table of the (signal, secret) pairs of a grid of samples.

    Row i of the grid holds samples of secret i < ``n_secrets``. A signal is
    ``width`` residues with base-p key sum(value[c] * p**c);
    ``signal_keys(cols, powers)`` returns every sample's key over the slice
    ``cols`` as a fresh int64 array in row-major order. Chunks of columns,
    from the most significant end, extend the key while it stays below
    2^62; np.unique renumbers it in key order whenever columns remain or it
    has no room left for the secret. Returns the grid of pair keys
    signal * n_secrets + secret, the distinct pair keys in increasing order
    with their counts, and the index of each signal's first pair followed
    by the number of pairs.
    """
    key, bound, stop = 0, 1, width  # key < bound
    while True:
        start = max(stop - 1, 0)
        while start > 0 and bound * p ** (stop - start + 1) < 2**62:
            start -= 1
        chunk = signal_keys(slice(start, stop), p ** np.arange(stop - start, dtype=np.int64))
        chunk += key * p ** (stop - start)
        key, bound, stop = chunk, bound * p ** (stop - start), start
        if stop == 0 and bound * n_secrets < 2**62:
            break
        uniq, key = np.unique(key, return_inverse=True)
        bound = len(uniq)
    grid = key.reshape(n_secrets, -1)
    grid *= n_secrets
    grid += np.arange(n_secrets)[:, None]
    pairs, counts = np.unique(grid, return_counts=True)
    signal = pairs // n_secrets
    return grid, pairs, counts, np.flatnonzero(np.concatenate(([True], signal[1:] != signal[:-1], [True])))


def entropic_oracle_edge(
    inst: CdsInstance,
    scheme: LinearScheme,
    edge: tuple[int, int],
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> OracleResult:
    """Brute-force entropy check of one edge by exhaustive enumeration.

    Enumerates every secret and every assignment of the noise coordinates
    actually referenced by the two noise precoders (unreferenced coordinates
    are independent of both signals, so marginalizing over them is exact)
    and tabulates how often each signal pair occurs with each secret. A
    qualified edge passes iff every realized signal pair is consistent with
    exactly one secret; an unqualified edge passes iff, for every realized
    signal pair, the count is identical across all p^L secrets. Never
    silently passes: when p^(L+m) exceeds the budget the result is an
    explicit "not-checked".
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
    p = scheme.field.p
    f_stack = np.vstack([scheme.f_of(va).array, scheme.f_of(vb).array])
    h_stack = np.vstack([scheme.h_of(va).array, scheme.h_of(vb).array])
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
    h_ref = h_stack[:, ref_cols]
    secrets = _all_tuples(p, scheme.L)
    hz = np.mod(_all_tuples(p, m) @ h_ref.T, p)  # p^m x 2N
    fs = np.mod(secrets @ f_stack.T, p)  # p^L x 2N
    n_secrets = len(secrets)

    def signal_keys(cols: slice, powers: np.ndarray) -> np.ndarray:
        keys = np.empty((n_secrets, len(hz)), dtype=np.int64)
        for s_idx in range(n_secrets):
            keys[s_idx] = np.mod(hz[:, cols] + fs[s_idx, cols], p) @ powers
        return keys.ravel()

    grid, pairs, counts, bounds = _pair_table(2 * scheme.N, p, signal_keys, n_secrets)
    secret_of = pairs % n_secrets
    starts, sizes = bounds[:-1], np.diff(bounds)  # sizes: distinct secrets per signal pair
    if kind == "qualified":
        bad = np.flatnonzero(sizes > 1)
        detail = "a signal pair is consistent with more than one secret"
    else:
        # a secret never seen with a signal pair has count 0 for it
        low = np.where(sizes < n_secrets, 0, np.minimum.reduceat(counts, starts))
        bad = np.flatnonzero(np.maximum.reduceat(counts, starts) != low)
        detail = "signal pair counts differ across secrets"
    if not bad.size:
        return OracleResult(edge=edge, kind=kind, status="pass", states=states)
    first, stop = bounds[bad[0]], bounds[bad[0] + 1]
    # the least failing signal pair, rebuilt from its first state (secret, noise)
    s_idx = secret_of[first]
    vals = np.mod(fs[s_idx] + hz[np.argmax(grid[s_idx] == pairs[first])], p).tolist()
    example = {"signals": {va: vals[: scheme.N], vb: vals[scheme.N :]}}
    if kind == "qualified":
        example["secrets"] = [secrets[i].tolist() for i in secret_of[first : first + 2]]
    else:
        vec = np.zeros(n_secrets, dtype=np.int64)
        vec[secret_of[first:stop]] = counts[first:stop]
        lo, hi = int(np.argmin(vec)), int(np.argmax(vec))
        example["secret_low"], example["count_low"] = secrets[lo].tolist(), int(vec[lo])
        example["secret_high"], example["count_high"] = secrets[hi].tolist(), int(vec[hi])
    return OracleResult(edge=edge, kind=kind, status="fail", states=states, detail=detail, counterexample=example)


def entropic_oracle_all(
    inst: CdsInstance, scheme: LinearScheme, budget: int = DEFAULT_ORACLE_BUDGET
) -> list[OracleResult]:
    scheme.check_for_instance(inst)
    return [_edge_oracle(inst, scheme, e, budget) for e, _ in inst.edges_with_kind()]


# -- simulation -----------------------------------------------------------------


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

    Deterministic under the seed. On a scheme passing the linear verifier,
    qualified decode frequency is exactly 1.0; the decoder inverts the
    full-rank secret difference on the noise overlap. Secrecy on
    unqualified edges is checked by ``verify_linear`` and the entropic
    oracle, not here.
    """
    scheme.check_for_instance(inst)
    if trials == 0:
        return SimulationReport(trials=0, seed=seed, edges=())
    rng = np.random.default_rng(seed)
    p = scheme.field.p
    s_draws = rng.integers(0, p, size=(trials, scheme.L), dtype=np.int64)
    z_draws = rng.integers(0, p, size=(trials, scheme.L_Z), dtype=np.int64)
    sims: list[EdgeSimulation] = []
    for x, y in sorted(inst.qualified):
        va, vb = a_node(x), b_node(y)
        inter = rowspace_intersection(scheme.h_of(va), scheme.h_of(vb))
        diff = (inter.p_a @ scheme.f_of(va)) - (inter.p_b @ scheme.f_of(vb))
        _, t, pivots = rref_with_transform(diff)
        if len(pivots) < scheme.L:
            sims.append(EdgeSimulation((x, y), "qualified", trials, 0, False))
            continue
        sig_a = np.mod(s_draws @ scheme.f_of(va).array.T + z_draws @ scheme.h_of(va).array.T, p)
        sig_b = np.mod(s_draws @ scheme.f_of(vb).array.T + z_draws @ scheme.h_of(vb).array.T, p)
        decoder = t.array[: scheme.L]  # T @ diff == [I_L; 0]
        obs = np.mod(sig_a @ inter.p_a.array.T - sig_b @ inter.p_b.array.T, p)
        decoded = np.mod(obs @ decoder.T, p)
        successes = int(np.all(decoded == s_draws, axis=1).sum())
        sims.append(EdgeSimulation((x, y), "qualified", trials, successes, True))
    return SimulationReport(trials=trials, seed=seed, edges=tuple(sims))
