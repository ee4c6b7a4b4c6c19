#!/usr/bin/env python3
"""Regenerate the pinned scheme fixtures under src/cdscover/data.

Usage: ``python scripts/build_fixtures.py [OUTPUT_DIR]``; the output
directory defaults to the package data directory. It must be an existing
directory: anything else is refused with exit status 2 before any fixture
is built. Every construction here is deterministic (fixed seeds, fixed
structures), so rerunning the script reproduces the committed files byte
for byte. Each fixture is re-verified before being written; the script
refuses to write anything that fails its checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cdscover as cc
from cdscover.fields import FieldMatrix, PrimeField
from cdscover.graph import CdsInstance, a_node, b_node, components, neighbour_masks
from cdscover.linalg import cauchy_matrix, rank_rref, residue_rank, rowspace_intersection
from cdscover.scheme import LinearScheme, serialize_scheme

DATA = Path(__file__).resolve().parent.parent / "src" / "cdscover" / "data"


def write_scheme(out: Path, name: str, scheme: LinearScheme, provenance: str) -> None:
    obj = json.loads(serialize_scheme(scheme))
    obj["name"] = name
    obj["provenance"] = provenance
    (out / f"scheme-{name}.json").write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    print(f"wrote scheme-{name}.json")


def build_fig5_synth() -> LinearScheme:
    inst = cc.catalog.builtin_instance("fig5")
    scheme = cc.synthesize(inst)
    assert cc.verify_linear(inst, scheme).overall
    assert cc.rate(scheme) == cc.linear_converse_bound(inst)[0]
    return scheme


# -- fig2: rate 2/5 over F_3, reproducing the published fragments ----------------


def _rows(field: PrimeField, rows: list[list[int]]) -> FieldMatrix:
    return FieldMatrix(np.array(rows, dtype=np.int64), field)


def solve_scheme_for_noise(
    inst: CdsInstance,
    field: PrimeField,
    L: int,
    h_map: dict[str, FieldMatrix],
    rng: np.random.Generator,
    pinned_rows: list[tuple[str, int, list[int]]],
    pinned_diffs: list[tuple[tuple[str, int], tuple[str, int], list[int]]],
) -> LinearScheme | None:
    """Solve for secret precoders given fixed noise precoders of N rows each.

    The unqualified alignment constraints P_u F_u = P_v F_v are linear in
    the rows of the F matrices with scalar coefficients taken from the
    overlap coefficient matrices; ``pinned_rows`` fixes chosen F rows to
    given vectors and ``pinned_diffs`` fixes differences of two rows (at
    least one pin is expected). The solutions of this system A X = b form
    an affine space, and one reduction of [A | b] gives both a particular
    solution and a basis of the null space of A. Up to 64 random members
    are drawn until every qualified edge has a full-rank secret difference;
    None if none has, or if the pins contradict the alignment. Nodes with
    no edges get all-zero secret precoders.
    """
    nodes = inst.nodes()
    N = h_map[nodes[0]].rows
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
    for node, r, vec in pinned_rows:
        row = np.zeros(total, dtype=np.int64)
        row[block[node].start + r] = 1
        eq_rows.append(row)
        rhs_rows.append(np.asarray(vec, dtype=np.int64))
    for (n1, r1), (n2, r2), vec in pinned_diffs:
        row = np.zeros(total, dtype=np.int64)
        row[block[n1].start + r1] = 1
        row[block[n2].start + r2] = -1
        eq_rows.append(row)
        rhs_rows.append(np.asarray(vec, dtype=np.int64))

    rank, red, pivots = rank_rref(FieldMatrix(np.hstack([eq_rows, rhs_rows]), field))
    if pivots[-1] >= total:
        return None  # a pivot in b: some row reads 0 = nonzero
    free = [c for c in range(total) if c not in pivots]
    x0 = np.zeros((total, L), dtype=np.int64)
    x0[pivots] = red.array[:rank, total:]
    basis = np.zeros((len(free), total), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red.array[:rank, free].T
    for _ in range(64):
        coeffs = rng.integers(0, field.p, size=(len(free), L), dtype=np.int64)
        rows = np.mod(x0 + basis.T @ coeffs, field.p)
        if all(residue_rank(d @ rows, field.p) == L for d in checks):
            break
    else:
        return None
    precoders = {n: (FieldMatrix(rows[block[n]] if n in touched else np.zeros((N, L)), field), h_map[n]) for n in nodes}
    return LinearScheme(field=field, L=L, L_Z=h_map[nodes[0]].cols, N=N, precoders=precoders)


def build_fig2_scheme() -> LinearScheme:
    """L=4, N=5, p=3, L_Z=9 scheme with the stated overlap structure.

    Noise spaces are pinned by hand so that A3 and B3 share exactly
    (z1+z2, z4, z5, z8), A3 and B2 share exactly (z1+z2, z5), A3 and B1
    share (z1+z2, z4), and A1 and B2 share (z3, z7); the secret rows on the
    shared fragments are pinned to the published values and the remaining
    rows are solved from the alignment system.
    """
    inst = cc.catalog.builtin_instance("fig2")
    field = PrimeField(3)
    z = lambda *cols: [1 if c in cols else 0 for c in range(9)]  # noqa: E731
    z12 = [1, 1, 0, 0, 0, 0, 0, 0, 0]
    z69 = [0, 0, 0, 0, 0, 1, 0, 0, 1]
    h_map = {
        # row order matters for the pins below
        "A1": _rows(field, [z(3), z(2), z(6), z(7), z69]),       # z4 z3 z7 z8 z6+z9
        "A2": _rows(field, [z(0), z(1), z(2), z(3), z(4)]),      # isolated node, plain noise
        "A3": _rows(field, [z12, z(3), z(4), z(7), z(5)]),       # z1+z2 z4 z5 z8 z6
        "A4": _rows(field, [z12, z(3), z(4), z(2), z(6)]),       # z1+z2 z4 z5 z3 z7
        "B1": _rows(field, [z12, z(3), z(2), z(6), z69]),        # z1+z2 z4 z3 z7 z6+z9
        "B2": _rows(field, [z12, z(4), z(2), z(6), z(8)]),       # z1+z2 z5 z3 z7 z9
        "B3": _rows(field, [z12, z(3), z(4), z(7), z(6)]),       # z1+z2 z4 z5 z8 z7
    }
    pins = [
        ("A3", 0, [1, 1, 0, 0]),  # s1+s2 rides z1+z2
        ("A3", 2, [0, 0, 1, 1]),  # s3+s4 rides z5
        ("B3", 0, [2, 0, 0, 0]),
        ("B3", 2, [0, 0, 0, 0]),
    ]
    diffs = [
        (("A3", 1), ("B3", 1), [0, 0, 0, 1]),  # decoding rows (-s1+s2; s4; s3+s4; s1)
        (("A3", 3), ("B3", 3), [1, 0, 0, 0]),
    ]
    rng = np.random.default_rng(20240211)
    scheme = solve_scheme_for_noise(inst, field, L=4, h_map=h_map, rng=rng, pinned_rows=pins, pinned_diffs=diffs)
    assert scheme is not None, "fig2 alignment solve failed"
    report = cc.verify_linear(inst, scheme)
    assert report.overall, report.failures()
    oracle = cc.entropic_oracle_all(inst, scheme)
    assert all(r.status == "pass" for r in oracle), [r.to_json() for r in oracle]
    _check_fig2_fragments(inst, scheme)
    return scheme


def _check_fig2_fragments(inst, scheme) -> None:
    field = scheme.field
    inter = rowspace_intersection(scheme.h_of("A3"), scheme.h_of("B3"))
    frag = _rows(
        field,
        [
            [1, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0],
        ],
    )
    assert inter.basis == rank_rref(frag).rref.take_rows(range(4)), "A3/B3 overlap is not span(z1+z2, z4, z5, z8)"
    inter2 = rowspace_intersection(scheme.h_of("A3"), scheme.h_of("B2"))
    frag2 = _rows(field, [[1, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, 0]])
    assert inter2.basis == rank_rref(frag2).rref.take_rows(range(2)), "A3/B2 overlap is not span(z1+z2, z5)"
    assert scheme.f_of("A3").to_lists()[0] == [1, 1, 0, 0]
    assert scheme.f_of("A3").to_lists()[2] == [0, 0, 1, 1]
    assert scheme.f_of("B2").to_lists()[0] == [1, 1, 0, 0]
    assert scheme.f_of("B2").to_lists()[1] == [0, 0, 1, 1]
    diff = (scheme.f_of("A3") - scheme.f_of("B3")).to_lists()
    assert diff[0] == [2, 1, 0, 0] and diff[1] == [0, 0, 0, 1]
    assert diff[2] == [0, 0, 1, 1] and diff[3] == [1, 0, 0, 0]


# -- fig8: rate 7/18 over F_13 ----------------------------------------------------

# Holder sets for the 13 noise symbols. Every node appears in exactly 9 of
# them and every qualified edge's endpoints co-occur in exactly 7, always in
# different unqualified classes of the induced subgraph (found by exact
# integer programming over all 255 holder sets; any such structure works).
FIG8_ATOMS = [
    ["A4", "B3", "B4"],
    ["A1", "A2", "B2", "B4"],
    ["A1", "A2", "A3", "B1", "B3"],
    ["A1", "A2", "B1", "B2", "B4"],
    ["A1", "A3", "A4", "B3", "B4"],
    ["A2", "A3", "A4", "B2", "B3"],
    ["A2", "A3", "B1", "B2", "B3"],
    ["A1", "A2", "A4", "B1", "B3", "B4"],
    ["A2", "A3", "A4", "B1", "B2", "B3"],
    ["A1", "A2", "A3", "A4", "B1", "B2", "B4"],
    ["A1", "A2", "A3", "A4", "B1", "B2", "B4"],
    ["A1", "A3", "A4", "B1", "B2", "B3", "B4"],
    ["A1", "A3", "A4", "B1", "B2", "B3", "B4"],
]


def build_fig8_scheme() -> LinearScheme:
    """Structured construction: each noise symbol carries one payload.

    The payloads are the seven plain secrets s1..s7 and the five generic
    combinations l1..l5 = C(5x7) @ S for a Cauchy matrix over F_13; symbols
    are assigned so that the 7 noise symbols shared across any qualified
    edge carry 7 distinct payloads. A node's slot for a symbol is
    k*payload + noise, with k the index of its unqualified class among that
    symbol's holders, exactly as in the path/cycle construction. Every
    square Cauchy submatrix is invertible, so any mix of distinct plain and
    generic payloads with differing class coefficients is decodable.
    """
    inst = cc.catalog.builtin_instance("fig8")
    field = PrimeField(13)
    L, N = 7, 9
    n_atoms = len(FIG8_ATOMS)
    holders = [set(s) for s in FIG8_ATOMS]
    qedges = [(a_node(x), b_node(y)) for x, y in sorted(inst.qualified)]

    shared = {
        e: [t for t in range(n_atoms) if e[0] in holders[t] and e[1] in holders[t]] for e in qedges
    }
    for e, ts in shared.items():
        assert len(ts) == 7, (e, ts)

    # conflict coloring: symbols shared by one edge must carry distinct payloads
    conflicts: dict[int, set[int]] = {t: set() for t in range(n_atoms)}
    for ts in shared.values():
        for i in ts:
            for j in ts:
                if i != j:
                    conflicts[i].add(j)
    symbols = [f"s{i}" for i in range(1, 8)] + [f"l{i}" for i in range(1, 6)]
    assignment: dict[int, str] = {}

    def color(order_pos: int, order: list[int]) -> bool:
        if order_pos == len(order):
            return True
        t = order[order_pos]
        for sym in symbols:
            if any(assignment.get(c) == sym for c in conflicts[t]):
                continue
            assignment[t] = sym
            if color(order_pos + 1, order):
                return True
            del assignment[t]
        return False

    order = sorted(range(n_atoms), key=lambda t: -len(conflicts[t]))
    assert color(0, order), "payload coloring failed"

    cauchy = cauchy_matrix(xs=list(range(5)), ys=list(range(5, 12)), field=field)
    payload_vec = {}
    for t, sym in assignment.items():
        idx = int(sym[1:])
        if sym.startswith("s"):
            vec = np.zeros(L, dtype=np.int64)
            vec[idx - 1] = 1
        else:
            vec = cauchy.array[idx - 1].copy()
        payload_vec[t] = vec

    uadj, index = neighbour_masks(inst, inst.unqualified), {n: i for i, n in enumerate(inst.nodes())}
    coeff = {}
    for t in range(n_atoms):
        classes = components(uadj, sum(1 << index[n] for n in holders[t]))
        coeff[t] = {n: k for k, c in enumerate(classes, start=1) for n in holders[t] if c >> index[n] & 1}
    for (u, v), ts in shared.items():
        for t in ts:
            assert coeff[t][u] != coeff[t][v], (u, v, t)

    precoders = {}
    for node in inst.nodes():
        mine = [t for t in range(n_atoms) if node in holders[t]]
        assert len(mine) == N, (node, mine)
        f = np.zeros((N, L), dtype=np.int64)
        h = np.zeros((N, n_atoms), dtype=np.int64)
        for r, t in enumerate(mine):
            h[r, t] = 1
            f[r] = np.mod(coeff[t][node] * payload_vec[t], field.p)
        precoders[node] = (FieldMatrix(f, field), FieldMatrix(h, field))
    scheme = LinearScheme(
        field=field, L=L, L_Z=n_atoms, N=N, precoders=precoders, name="fig8-rate-7-18"
    )
    report = cc.verify_linear(inst, scheme)
    assert report.overall, report.failures()
    from fractions import Fraction

    assert cc.rate(scheme) == Fraction(7, 18)
    sim = cc.simulate(inst, scheme, seed=5, trials=2000)
    assert all(e.success_frequency == 1.0 for e in sim.edges if e.kind == "qualified")
    return scheme


# -- broken fixtures ---------------------------------------------------------------


def _perturb(scheme: LinearScheme, node: str, row: int, delta: list[int], name: str) -> LinearScheme:
    f, h = scheme.precoders[node]
    arr = f.array.copy()
    arr[row] = np.mod(arr[row] + np.asarray(delta, dtype=np.int64), scheme.field.p)
    precoders = dict(scheme.precoders)
    precoders[node] = (FieldMatrix(arr, scheme.field), h)
    return LinearScheme(
        field=scheme.field,
        L=scheme.L,
        L_Z=scheme.L_Z,
        N=scheme.N,
        precoders=precoders,
        name=name,
    )


def build_broken(fig2_scheme: LinearScheme) -> tuple[LinearScheme, LinearScheme]:
    inst = cc.catalog.builtin_instance("fig2")
    # leaky: bump A3's z1+z2 slot so the secret projections on the A3/B2 and
    # A3/B1 overlaps no longer agree
    leaky = _perturb(fig2_scheme, "A3", 0, [1, 0, 0, 0], "broken-leaky")
    rep = cc.verify_linear(inst, leaky)
    bad = {r.subject for r in rep.failures()}
    assert "A3-B2" in bad and not rep.overall, bad
    assert cc.entropic_oracle_edge(inst, leaky, (3, 2)).failed

    # garbled: make A1's z4 slot equal B1's so the qualified edge (1,1)
    # loses a decoding dimension
    delta = np.mod(
        fig2_scheme.f_of("B1").array[1] - fig2_scheme.f_of("A1").array[0], fig2_scheme.field.p
    )
    garbled = _perturb(fig2_scheme, "A1", 0, delta.tolist(), "broken-garbled")
    rep = cc.verify_linear(inst, garbled)
    bad = {r.subject for r in rep.failures()}
    assert "A1-B1" in bad and not rep.overall, bad
    assert cc.entropic_oracle_edge(inst, garbled, (1, 1)).failed
    return leaky, garbled


def build_fig5_broken(fig5_synth: LinearScheme) -> LinearScheme:
    inst = cc.catalog.builtin_instance("fig5")
    # bump A1's z1_3 slot, which lies in the A1/B2 unqualified noise overlap
    broken = _perturb(fig5_synth, "A1", 3, [1, 0, 0, 0, 0], "broken-fig5-leaky")
    rep = cc.verify_linear(inst, broken)
    assert not rep.overall
    assert any(r.kind == "unqualified" for r in rep.failures()), rep.failures()
    return broken


def main(out: Path = DATA) -> None:
    fig5_synth = build_fig5_synth()
    write_scheme(
        out,
        "fig5-synth",
        fig5_synth,
        "Deterministic synthesizer output for the fig5 instance (rho=6: L=5, N=6 over F_11, "
        "rate 5/12). Pinned so downstream consumers can detect any construction drift.",
    )
    write_scheme(
        out,
        "broken-fig5-leaky",
        build_fig5_broken(fig5_synth),
        "Negative fixture for the fig5 instance: one entry of F_A1 bumped so an unqualified "
        "edge fails signal alignment. The entropic oracle cannot check fig5-sized edges "
        "within the default budget, so the linear verifier is the failing check here.",
    )
    fig2_scheme = build_fig2_scheme()
    write_scheme(
        out,
        "fig2-rate-2-5",
        fig2_scheme,
        "Rate-2/5 scheme (L=4, N=5, p=3, L_Z=9) solved from hand-pinned noise spaces that "
        "reproduce the published fragments: A3 and B3 share exactly (z1+z2, z4, z5, z8) and "
        "decode (-s1+s2, s4, s3+s4, s1); A3 and B2 share (z1+z2, z5) carrying (s1+s2, s3+s4). "
        "Free rows drawn with seed 20240211 until all qualified edges verified; passes the "
        "linear verifier and the exhaustive entropic oracle on every edge.",
    )
    leaky, garbled = build_broken(fig2_scheme)
    write_scheme(
        out,
        "broken-leaky",
        leaky,
        "Negative fixture: fig2-rate-2-5 with one entry of F_A3 bumped so the unqualified "
        "edges at A3 leak; fails the linear verifier and the entropic oracle on (3,2).",
    )
    write_scheme(
        out,
        "broken-garbled",
        garbled,
        "Negative fixture: fig2-rate-2-5 with A1's z4 slot forced equal to B1's, so the "
        "qualified edge (1,1) loses a decoding dimension; fails both verifiers on (1,1).",
    )
    fig8_scheme = build_fig8_scheme()
    write_scheme(
        out,
        "fig8-rate-7-18",
        fig8_scheme,
        "Rate-7/18 scheme (L=7, N=9, p=13, L_Z=13). Thirteen unit noise symbols whose holder "
        "sets give every qualified edge exactly 7 shared symbols with differing unqualified-"
        "class coefficients (holder sets found by exact integer programming); each symbol "
        "carries one payload from s1..s7 or the Cauchy combinations l1..l5 = C(5x7) S, "
        "colored so the 7 payloads across any qualified edge are distinct. Passes the linear "
        "verifier; every edge exceeds the entropic oracle's default budget (13^(7+m) states), "
        "which the oracle reports explicitly as not-checked.",
    )


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DATA
    if not out.is_dir():
        print(f"build_fixtures.py: {str(out)!r} is not an existing directory", file=sys.stderr)
        sys.exit(2)
    main(out)
