import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cdscover as cc
from cdscover.fields import FieldError, FieldMatrix, PrimeField, next_prime
from cdscover.graph import CdsInstance, a_node, b_node
from cdscover.linalg import nullspace, residue_rank
from cdscover.scheme import (
    DEFAULT_ORACLE_BUDGET,
    SIMULATE_BLOCK,
    CheckRecord,
    LinearScheme,
    SchemeError,
    _noise_parts,
    _ends,
    _partners,
    _signal_keys,
    entropic_oracle_all,
    entropic_oracle_edge,
    VerificationReport,
    check_field_size,
    parse_scheme,
    rate,
    serialize_scheme,
    simulate,
    verify_linear,
)

from conftest import (
    f_of,
    h_of,
    identity,
    precoder_scheme,
    precoders_of,
    random_full_rank_h,
    random_matrix,
    small_scheme_corpus,
    zeros,
)


def test_rate_values():
    f = PrimeField(3)

    def mk(L, N):
        return precoder_scheme(f, L, 1, N, {})

    assert rate(mk(4, 5)) == Fraction(2, 5)
    assert rate(mk(5, 6)) == Fraction(5, 12)
    assert rate(mk(7, 9)) == Fraction(7, 18)


def test_scheme_roundtrip():
    s = cc.catalog.builtin_scheme("fig2-rate-2-5")
    again = parse_scheme(serialize_scheme(s))
    assert again == s


@st.composite
def schemes(draw):
    p = draw(st.sampled_from((2, 3, 257)))
    L, L_Z, N = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    field = PrimeField(p)
    nodes = draw(st.lists(st.tuples(st.sampled_from("AB"), st.integers(1, 12)), max_size=4, unique=True))

    def matrix(cols):
        rows = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
        return FieldMatrix.from_rows(draw(st.lists(rows, min_size=N, max_size=N)), field, cols=cols)

    name = draw(st.text(st.sampled_from('a"\\\n\x00é字 😀'), max_size=8) | st.text(max_size=6))
    precoders = {f"{side}{i}": (matrix(L), matrix(L_Z)) for side, i in nodes}
    return precoder_scheme(field, L, L_Z, N, precoders, name)


@given(schemes())
@example(precoder_scheme(PrimeField(2), 2, 1, 0, {"B1": (zeros(0, 2, PrimeField(2)), zeros(0, 1, PrimeField(2)))}))
@settings(max_examples=150, deadline=None)
def test_serialize_scheme_is_json_dumps_indent_2(s):
    order = sorted(s.nodes, key=lambda node: (node[0], int(node[1:])))
    nodes = {node: {"F": f_of(s, node).tolist(), "H": h_of(s, node).tolist()} for node in order}
    obj = {"name": s.name, "p": s.field.p, "L": s.L, "Lz": s.L_Z, "N": s.N, "nodes": nodes}
    text = serialize_scheme(s)
    assert text == json.dumps(obj, indent=2) + "\n"
    if s.N < 1:  # written, but refused on reading
        with pytest.raises(SchemeError, match="field 'N' must be positive, got 0"):
            parse_scheme(text)
    else:
        assert parse_scheme(text) == s


def test_parse_scheme_errors():
    with pytest.raises(SchemeError, match="prime"):
        parse_scheme(json.dumps({"p": 4, "L": 1, "Lz": 1, "N": 1, "nodes": {}}))
    with pytest.raises(SchemeError, match="shape"):
        parse_scheme(
            json.dumps(
                {"p": 3, "L": 2, "Lz": 1, "N": 1, "nodes": {"A1": {"F": [[1]], "H": [[0]]}}}
            )
        )
    with pytest.raises(SchemeError, match=r"\[0, 3\)"):
        parse_scheme(
            json.dumps(
                {"p": 3, "L": 1, "Lz": 1, "N": 1, "nodes": {"A1": {"F": [[5]], "H": [[0]]}}}
            )
        )
    for node, matrix in (("A1", "F"), ("B2", "H")):
        entry = {"F": [[1], [0]], "H": [[0, 1], [1, 0]]}
        entry[matrix] = [[1], [1, 2]]
        with pytest.raises(SchemeError, match=rf"^{matrix}_{node} must be a rectangular list of rows$"):
            parse_scheme(json.dumps({"p": 3, "L": 1, "Lz": 2, "N": 2, "nodes": {node: entry}}))
    for name in (["n", {"k": [1]}], 7, None):
        with pytest.raises(SchemeError, match="field 'name' must be a string"):
            parse_scheme(json.dumps({"name": name, "p": 3, "L": 1, "Lz": 1, "N": 1, "nodes": {}}))
    for n in (0, -2):
        with pytest.raises(SchemeError, match=rf"^field 'N' must be positive, got {n}$"):
            parse_scheme(json.dumps({"p": 3, "L": 1, "Lz": 1, "N": n, "nodes": {}}))


# values np.array coerces (a bool or float into an int row, a string beside
# ints), cannot hold in int64, or reads as another shape or a ValueError
NUMPY_TRAPS = [True, False, "1", 1.5, 1.0, 2**70, 2**63, None, [1], [], {}, -1]


def _trap_file(f_rows, p=3, N=1):
    """A two-node scheme file over F_p whose A1 has secret precoder ``f_rows``."""
    nodes = {"A1": {"F": f_rows, "H": [[1]] * N}, "B1": {"F": [[0, 1]] * N, "H": [[1]] * N}}
    return {"p": p, "L": 2, "Lz": 1, "N": N, "nodes": nodes}


@st.composite
def malformed_scheme_files(draw):
    """Scheme files as objects over p in {2, 3, 7}, nodes in any order, some
    with ids that are no node's and hold format characters. Most have one
    change: an entry set to a value of ``NUMPY_TRAPS`` or to p or more, a
    row made ragged or replaced, a matrix or node entry replaced or given an
    extra row, or every node's F or H given one (a shape that is wrong but
    the same across the stack)."""
    p = draw(st.sampled_from((2, 3, 7)))
    N, L, L_Z = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    names = draw(st.lists(st.sampled_from(("A1", "A2", "B1", "B2", "A10", "A%s", "x{}")), unique=True, max_size=4))
    matrix = lambda cols: [[draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(N)]  # noqa: E731
    nodes = {v: {"F": matrix(L), "H": matrix(L_Z)} for v in names}
    value = draw(st.sampled_from(NUMPY_TRAPS + [p, p + 1]))
    change = draw(st.sampled_from(("none", "entry", "row", "ragged", "matrix", "extra row", "every node", "node")))
    key = draw(st.sampled_from("FH"))
    if names and change != "none":
        v = draw(st.sampled_from(names))
        m, r = nodes[v][key], draw(st.integers(0, N - 1))
        if change == "entry" and m[r]:
            m[r][draw(st.integers(0, len(m[r]) - 1))] = value
        elif change in ("row", "ragged"):
            m[r] = value if change == "row" else m[r] + [0] if draw(st.booleans()) or not m[r] else m[r][1:]
        elif change == "matrix":
            nodes[v][key] = value
        elif change == "extra row":
            m.append(list(m[0]))
        elif change == "every node":
            for entry in nodes.values():
                entry[key].append([0] * len(entry[key][0]))
        elif change == "node":
            nodes[v] = draw(st.sampled_from((value, {"F": m})))
    name = draw(st.sampled_from(("", "x", "true")))
    return {"name": name, "p": p, "L": L, "Lz": L_Z, "N": N, "nodes": nodes}


def _parse_outcome(text):
    """The parsed scheme, or the text of the SchemeError that refused it."""
    try:
        return parse_scheme(text)
    except SchemeError as e:
        return str(e)


@given(malformed_scheme_files())
@example(_trap_file([[True, 2]]))
@example(_trap_file([["1", 2]]))
@example(_trap_file([[1.5, 2]]))
@example(_trap_file([[1.0, 2]]))
@example(_trap_file([[2**70, 2]]))
@example(_trap_file([[None, 2]]))
@example(_trap_file([[[1], [2]]]))  # a nested list, read as a 1 x 2 x 1 matrix
@example(_trap_file([[1, 2], [1]], N=2))  # a ragged row
@example(_trap_file([[-1, 2]]))
@example(_trap_file([[3, 2]]))  # p
@settings(max_examples=300, deadline=None)
def test_bulk_parse_matches_per_entry_scan(obj):
    # the stacks checked whole must accept exactly the files the per-entry
    # scan accepts, with equal schemes, and leave every refusal's text to it
    text = json.dumps(obj)
    bulk = _parse_outcome(text)
    with mock.patch("cdscover.scheme._bulk_stacks", return_value=None):
        assert bulk == _parse_outcome(text)
    if isinstance(bulk, LinearScheme):  # ids that are no node's, with format characters, are written back as read
        assert parse_scheme(serialize_scheme(bulk)) == bulk


def test_bulk_parse_takes_well_formed_files():
    # the scan is only a fallback: every catalog scheme, written again, and a
    # synthesized one are read by the bulk check alone
    inst = cc.catalog.builtin_instance("fig5")
    schemes = [cc.catalog.builtin_scheme(name) for name in cc.catalog.SCHEME_NAMES] + [cc.synthesize(inst)]
    with mock.patch("cdscover.scheme._scanned_stacks", side_effect=AssertionError("scanned")):
        for scheme in schemes:
            assert parse_scheme(serialize_scheme(scheme)) == scheme


@pytest.mark.parametrize("key, value", [("L", -2), ("L", -1), ("Lz", -1), ("Lz", -5)])
def test_parse_scheme_refuses_negative_lengths(key, value):
    obj = {"p": 3, "L": 2, "Lz": 1, "N": 1, "nodes": {}, key: value}
    with pytest.raises(SchemeError, match=rf"^field '{key}' must be non-negative, got {value}$"):
        parse_scheme(json.dumps(obj))
    obj[key] = 0  # no secret or no noise is a valid scheme
    assert getattr(parse_scheme(json.dumps(obj)), "L_Z" if key == "Lz" else key) == 0


def test_field_size_guard_keeps_products_exact():
    # the largest prime with (p-1)^2 * 2N < 2^63 at N = 1, the next one up,
    # and a prime whose trial-division primality test would take minutes
    for p, ok in ((2**31 - 1, True), (2**31 + 11, False), (2**61 - 1, False)):
        text = json.dumps({"p": p, "L": 1, "Lz": 1, "N": 1, "nodes": {"A1": {"F": [[p - 1]], "H": [[p - 1]]}}})
        if not ok:
            with pytest.raises(SchemeError, match="overflow int64"):
                parse_scheme(text)
            continue
        scheme = parse_scheme(text)
        f = FieldMatrix(f_of(scheme, "A1"), scheme.field)
        assert (FieldMatrix([[p - 1] * 2], f.field) @ FieldMatrix([[p - 1]] * 2, f.field)).to_lists() == [[2]]
    with pytest.raises(ValueError, match="overflow int64"):
        cc.random_scheme_search(cc.catalog.builtin_instance("fig2"), 3037000493, 4, 1, 1, seed=0, budget=1)


def test_verify_requires_matching_shapes():
    inst = cc.catalog.builtin_instance("fig5")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    with pytest.raises(SchemeError, match="lacks precoders"):
        verify_linear(inst, scheme)
    # fig5's scheme also has precoders for A5-A10 and B4-B10, which fig2 lacks
    with pytest.raises(SchemeError, match="not nodes of"):
        verify_linear(cc.catalog.builtin_instance("fig2"), cc.catalog.builtin_scheme("fig5-synth"))
    # the stacks are indexed in the instance's node order, so a scheme built
    # with the right nodes in another order is refused, not misread
    s = cc.catalog.builtin_scheme("fig2-rate-2-5")
    shuffled = LinearScheme(s.field, s.L, s.L_Z, s.N, s.nodes[::-1], s.F[::-1], s.H[::-1], s.name)
    with pytest.raises(SchemeError, match=r"^scheme nodes \['B3', 'B2', .*, 'A1'\] are not in node order$"):
        verify_linear(cc.catalog.builtin_instance("fig2"), shuffled)


def test_scheme_keeps_canonical_residues_in_its_own_stacks():
    # a direct constructor call may pass any ints, as a FieldMatrix may: the
    # scheme reduces them mod p, so the file it writes parses back to it
    field, inst = PrimeField(5), CdsInstance("pair", 1, 1, frozenset({(1, 1)}), frozenset())
    f_in, h_in = np.array([[[5, -1]], [[7, 2]]]), np.array([[[1, 10]], [[0, 1]]])
    scheme = LinearScheme(field=field, L=2, L_Z=2, N=1, nodes=("A1", "B1"), F=f_in, H=h_in)
    assert scheme.F.tolist() == [[[0, 4]], [[2, 2]]] and scheme.H.tolist() == [[[1, 0]], [[0, 1]]]
    assert parse_scheme(serialize_scheme(scheme)) == scheme
    assert verify_linear(inst, scheme) == verify_linear(inst, parse_scheme(serialize_scheme(scheme)))
    # the stacks are the scheme's own, whether or not they needed reducing
    h_ok = np.array([[[1, 0]], [[0, 1]]])
    kept = LinearScheme(field=field, L=2, L_Z=2, N=1, nodes=("A1", "B1"), F=scheme.F, H=h_ok)
    f_in[0, 0, 0] = h_in[0, 0, 0] = h_ok[0, 0, 0] = 3
    assert scheme.F[0, 0, 0] == 0 and scheme.H[0, 0, 0] == 1 and kept.H[0, 0, 0] == 1
    assert not scheme.F.flags.writeable and not kept.H.flags.writeable


def test_verify_fixture_passes():
    inst = cc.catalog.builtin_instance("fig5")
    scheme = cc.catalog.builtin_scheme("fig5-synth")
    report = verify_linear(inst, scheme)
    assert report.overall
    quals = [r for r in report.records if r.kind == "noise-alignment"]
    assert quals and all(r.overlap_dim >= scheme.L for r in quals)


def test_verify_detects_perturbation():
    inst = cc.catalog.builtin_instance("fig5")
    scheme = cc.catalog.builtin_scheme("fig5-synth")
    # perturb entries until an unqualified record fails (signal alignment is
    # broken with overwhelming likelihood once the entry lies in an overlap)
    found = False
    for node in sorted(scheme.nodes):
        for row in range(scheme.N):
            mutated = precoders_of(scheme)
            f, h = mutated[node]
            arr = f.array.copy()
            arr[row, 0] = (arr[row, 0] + 1) % scheme.field.p
            mutated[node] = (FieldMatrix(arr, scheme.field), h)
            cand = precoder_scheme(scheme.field, scheme.L, scheme.L_Z, scheme.N, mutated)
            rep = verify_linear(inst, cand)
            if any(not r.passed and r.kind == "unqualified" for r in rep.records):
                found = True
                break
        if found:
            break
    assert found


def test_verify_zero_secret_scheme():
    inst = cc.catalog.builtin_instance("fig2")
    f = PrimeField(3)
    n = 5
    eye = identity(n, f)
    precoders = {node: (zeros(n, 4, f), eye) for node in inst.nodes()}
    scheme = precoder_scheme(f, 4, n, n, precoders)
    report = verify_linear(inst, scheme)
    by_kind = {}
    for r in report.records:
        by_kind.setdefault(r.kind, []).append(r.passed)
    assert all(by_kind["unqualified"])
    assert not any(by_kind["qualified"])  # rank 0 != L on every qualified edge


def test_verify_flags_rank_deficient_noise():
    inst = CdsInstance("one", 1, 1, frozenset(), frozenset({(1, 1)}))
    f = PrimeField(2)
    h = FieldMatrix([[1, 0], [1, 0]], f)  # rank 1 < N=2
    precoders = {"A1": (zeros(2, 1, f), h), "B1": (zeros(2, 1, f), h)}
    report = verify_linear(inst, precoder_scheme(f, 1, 2, 2, precoders))
    assert not report.overall
    assert {r.subject for r in report.failures()} == {"A1", "B1"}


def _reference_verify(inst, scheme):
    """The linear verifier edge by edge, with no batched elimination: W a
    basis of the left null space of the noise stack H (the null space of
    H^T), then the rank of W F, or its zero test; the overlap dimension is
    rank(H_v) + rank(H_u) - rank(H)."""
    p, L, N = scheme.field.p, scheme.L, scheme.N
    records = []
    for node in inst.nodes():
        r = residue_rank(h_of(scheme, node), p)
        records.append(CheckRecord(node, "noise-rank", r == N, detail=f"rank(H)={r}, N={N}"))
    for (x, y), kind in inst.edges_with_kind():
        va, vb = a_node(x), b_node(y)
        h_v, h_u = h_of(scheme, va), h_of(scheme, vb)
        h = np.vstack([h_v, h_u])
        w = nullspace(FieldMatrix(h.T, scheme.field)).array
        wf = np.mod(w @ np.vstack([f_of(scheme, va), f_of(scheme, vb)]), p)
        d = residue_rank(h_v, p) + residue_rank(h_u, p) - residue_rank(h, p)
        subject = f"{va}-{vb}"
        if kind == "qualified":
            r = residue_rank(wf, p)
            records.append(CheckRecord(subject, "qualified", r == L, d, f"rank(PvFv - PuFu)={r}, L={L}"))
            records.append(CheckRecord(subject, "noise-alignment", d >= L, d, f"overlap dim {d} vs L={L}"))
        else:
            ok = not wf.any()
            detail = f"secret projections {'agree' if ok else 'differ'} on the noise overlap"
            records.append(CheckRecord(subject, "unqualified", ok, d, detail))
    return VerificationReport(tuple(records))


@st.composite
def drawn_instances(draw):
    """Instances on at most 3x3 nodes, each node pair qualified,
    unqualified or no edge, so that nodes may be edgeless."""
    a_count, b_count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = [(x, y) for x in range(1, a_count + 1) for y in range(1, b_count + 1)]
    kinds = draw(st.lists(st.sampled_from(("qualified", "unqualified", None)), min_size=len(pairs), max_size=len(pairs)))
    return CdsInstance(
        "drawn",
        a_count,
        b_count,
        frozenset(e for e, k in zip(pairs, kinds) if k == "qualified"),
        frozenset(e for e, k in zip(pairs, kinds) if k == "unqualified"),
    )


@st.composite
def verifier_schemes(draw):
    """Small schemes over p in {2, 3, 5, 7} on drawn instances.

    Instances may have edgeless nodes or no edge at all. A noise precoder
    is random (rank-deficient whenever N > L_Z), a selection of N distinct
    coordinates, or made rank-deficient by repeating a multiple of a row.
    Secret precoders are random, zero, or masked by the noise (F = H @ mix),
    and nodes draw from a small pool of precoder pairs, so that edges pass
    as well as fail.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    L, N = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    L_Z = draw(st.integers(N - 1, 2 * N))
    inst = draw(drawn_instances())
    field = PrimeField(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = rng.integers(0, p, size=(L_Z, L))
    nodes = inst.nodes()
    pool = []
    for _ in range(draw(st.integers(2, len(nodes) + 1))):
        noise = draw(st.sampled_from(("random", "selection", "deficient")))
        h = rng.integers(0, p, size=(N, L_Z))
        if noise == "selection" and N <= L_Z:
            h = np.eye(L_Z, dtype=np.int64)[rng.permutation(L_Z)[:N]]
        elif noise == "deficient" and N > 1:
            h[-1] = h[0] * rng.integers(0, p)
        secret = draw(st.sampled_from(("random", "random", "zero", "masked")))
        f = {"random": rng.integers(0, p, size=(N, L)), "zero": np.zeros((N, L), dtype=np.int64), "masked": h @ mix}
        pool.append((FieldMatrix(f[secret], field), FieldMatrix(h, field)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(nodes), max_size=len(nodes)))
    return inst, precoder_scheme(field, L, L_Z, N, {node: pool[i] for node, i in zip(nodes, picks)})


@given(verifier_schemes())
@settings(max_examples=300, deadline=None)
def test_verify_linear_matches_per_edge_reference(drawn):
    inst, scheme = drawn
    assert verify_linear(inst, scheme) == _reference_verify(inst, scheme)


@st.composite
def selection_schemes(draw):
    """(instance, scheme, variant): every H_v is N distinct unit rows,
    unless ``variant`` names the one change that leaves selection noise.

    p is 2, 3, 5 or 2^31 - 1, where check_field_size admits only
    N = L = L_Z = 1. Nodes take their coordinates from a pool of at most
    three sets, each node in its own row order, so an edge's ends share
    all, some or none of them. A secret precoder is random, zero, or reads
    one of two coordinate tables (row r holds G[t] for its coordinate t):
    ends on one table agree on every shared coordinate, ends on different
    tables generally differ, so that edges pass as well as fail. The
    variant "duplicate" copies a node's first noise row onto its last
    (rank N - 1), and "negated" writes p - 1 in place of one 1.
    """
    p = draw(st.sampled_from((2, 3, 5, 2**31 - 1)))
    L, N = (1, 1) if p > 5 else (draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    L_Z = 1 if p > 5 else draw(st.integers(N, 2 * N + 1))
    inst = draw(drawn_instances())
    field = PrimeField(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.integers(0, p, size=(2, L_Z, L))
    coordinate_sets = [rng.permutation(L_Z)[:N] for _ in range(draw(st.integers(1, 3)))]
    precoders = {}
    for node in inst.nodes():
        cols = rng.permutation(coordinate_sets[draw(st.integers(0, len(coordinate_sets) - 1))])
        secret = draw(st.sampled_from(("random", "zero", "table", "table")))
        f = {"random": rng.integers(0, p, size=(N, L)), "zero": np.zeros((N, L)), "table": tables[rng.integers(2)][cols]}
        precoders[node] = (FieldMatrix(f[secret], field), FieldMatrix(np.eye(L_Z, dtype=np.int64)[cols], field))
    variants = [None] + ["duplicate"] * (N > 1) + ["negated"] * (p > 2)
    variant = draw(st.sampled_from(variants))
    if variant is not None:
        node = draw(st.sampled_from(inst.nodes()))
        f, h = precoders[node]
        h = h.array.copy()
        if variant == "duplicate":
            h[-1] = h[0]
        else:
            h[h == 1] = np.where(np.arange(N) == draw(st.integers(0, N - 1)), p - 1, 1)
        precoders[node] = (f, FieldMatrix(h, field))
    return inst, precoder_scheme(field, L, L_Z, N, precoders), variant


def _selection_cases(check):
    """Run ``check(inst, scheme, variant)`` on drawn selection schemes, in a
    fixed order, and return what they covered: each p, each variant, shared
    coordinates repeated across an edge's ends, empty overlaps, edgeless
    nodes, and which kinds of edge passed and failed."""
    seen = set()

    @given(selection_schemes())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def run(drawn):
        inst, scheme, variant = drawn
        check(inst, scheme, variant)
        seen.update({("p", scheme.field.p), ("variant", variant)})
        ends = {v for (x, y), _ in inst.edges_with_kind() for v in (a_node(x), b_node(y))}
        if len(ends) < len(inst.nodes()):
            seen.add("edgeless node")
        for r in verify_linear(inst, scheme).records:
            if r.kind in ("qualified", "unqualified"):
                seen.update({"empty overlap" if r.overlap_dim == 0 else "shared coordinates", (r.kind, r.passed)})

    run()
    return seen


SELECTION_COVERAGE = {
    ("p", 2),
    ("p", 3),
    ("p", 5),
    ("p", 2**31 - 1),
    ("variant", None),
    ("variant", "duplicate"),
    ("variant", "negated"),
    "edgeless node",
    "empty overlap",
    "shared coordinates",
    ("qualified", True),
    ("qualified", False),
    ("unqualified", True),
    ("unqualified", False),
}


def test_verify_linear_matches_per_edge_reference_on_selection_noise():
    # matched coordinates give every selection-noise edge's checks; any
    # other noise, a duplicated unit row or an entry p - 1, is eliminated
    def check(inst, scheme, variant):
        report = verify_linear(inst, scheme)
        assert report == _reference_verify(inst, scheme)
        ends = _ends(inst, [e for e, _ in inst.edges_with_kind()])
        assert (_partners(scheme.H, ends) is None) == (variant is not None)
        ranks = {r.subject: r.passed for r in report.records if r.kind == "noise-rank"}
        assert sum(not ok for ok in ranks.values()) == (variant == "duplicate")

    assert _selection_cases(check) == SELECTION_COVERAGE


def test_simulate_decodes_where_the_verifier_passes_on_selection_noise():
    def check(inst, scheme, variant):
        reference = {r.subject: r.passed for r in _reference_verify(inst, scheme).records if r.kind == "qualified"}
        linear = {r.subject: r.passed for r in verify_linear(inst, scheme).records if r.kind == "qualified"}
        sim = simulate(inst, scheme, seed=1, trials=20)
        decodable = {f"A{e.edge[0]}-B{e.edge[1]}": e.decodable for e in sim.edges}
        assert decodable == linear == reference
        assert all(e.decode_successes == (20 if e.decodable else 0) for e in sim.edges)

    assert _selection_cases(check) == SELECTION_COVERAGE


def _synthesized_and_searched():
    cases = [
        (cc.catalog.builtin_instance(cc.catalog.SCHEME_INSTANCE[name]), cc.catalog.builtin_scheme(name))
        for name in cc.catalog.SCHEME_NAMES
    ]
    cases += [(inst, scheme) for inst, scheme, _ in small_scheme_corpus(30)]
    for seed, shape in ((3, "path"), (4, "cycle"), (6, "cycle")):
        inst = cc.random_instance(seed, 7, 7, shape, 0.3)
        cases.append((inst, cc.synthesize(inst)))
    return cases


def test_verify_linear_matches_per_edge_reference_on_fixtures():
    # pinned, searched, perturbed and synthesized schemes: passing ones too
    cases = _synthesized_and_searched()
    reports = [verify_linear(inst, scheme) for inst, scheme in cases]
    assert sum(r.overall for r in reports) >= 10 and sum(not r.overall for r in reports) >= 10
    for (inst, scheme), report in zip(cases, reports):
        assert report == _reference_verify(inst, scheme), scheme.name


def test_verify_linear_at_the_largest_field():
    # p = 2^31 - 1 is the largest prime check_field_size admits at N = 1;
    # any per-residue table of inverses would need 16 GiB here
    p = 2**31 - 1
    field = PrimeField(p)
    inst = CdsInstance("tiny-mixed", 3, 2, frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (3, 1), (3, 2), (2, 1)}))
    rng = np.random.default_rng(5)
    for _ in range(5):
        precoders = {node: (random_matrix(1, 1, field, rng), random_matrix(1, 1, field, rng)) for node in inst.nodes()}
        scheme = precoder_scheme(field, 1, 1, 1, precoders)
        assert verify_linear(inst, scheme) == _reference_verify(inst, scheme)
    h = FieldMatrix([[p - 1]], field)
    aligned = precoder_scheme(field, 1, 1, 1, {node: (FieldMatrix([[p - 2]], field), h) for node in inst.nodes()})
    report = verify_linear(inst, aligned)
    assert report == _reference_verify(inst, aligned)
    assert [r.kind for r in report.failures()] == ["qualified", "qualified"]


# -- entropic oracle ---------------------------------------------------------


def _two_node_instance(kind):
    if kind == "qualified":
        return CdsInstance("q", 1, 1, frozenset({(1, 1)}), frozenset())
    return CdsInstance("u", 1, 1, frozenset(), frozenset({(1, 1)}))


def test_oracle_qualified_trivial_decoding():
    # both signals share an L-dim noise overlap; secret difference is full rank
    inst = _two_node_instance("qualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1], [0]], f), FieldMatrix([[1, 0], [0, 1]], f))
    b = (FieldMatrix([[0], [0]], f), FieldMatrix([[1, 0], [0, 1]], f))
    scheme = precoder_scheme(f, 1, 2, 2, {"A1": a, "B1": b})
    res = entropic_oracle_edge(inst, scheme, (1, 1))
    assert res.passed and res.states == 2 ** (1 + 2)


def test_oracle_unqualified_leak_hand_enumeration():
    # 1 secret symbol, 2 noise symbols over F_2: A1 sends s+z1, B1 sends z1;
    # of the 8 states, the pair (0,0) arises once with s=0 and never with
    # s=1, so the counts differ and the edge must fail
    inst = _two_node_instance("unqualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1]], f), FieldMatrix([[1, 0]], f))
    b = (FieldMatrix([[0]], f), FieldMatrix([[1, 0]], f))
    scheme = precoder_scheme(f, 1, 2, 1, {"A1": a, "B1": b})
    res = entropic_oracle_edge(inst, scheme, (1, 1))
    assert res.failed
    ce = res.counterexample
    assert ce is not None and ce["count_low"] == 0 and ce["count_high"] == 1


def test_oracle_unqualified_aligned_fragment():
    # fragment-shaped pass: both nodes share (z1+z2) and z5 carrying the
    # same secret projections s1+s2 and s3+s4
    inst = _two_node_instance("unqualified")
    f = PrimeField(3)
    fa = FieldMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]], f)
    ha = FieldMatrix([[1, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]], f)
    fb = FieldMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]], f)
    hb = FieldMatrix([[1, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]], f)
    scheme = precoder_scheme(f, 4, 5, 3, {"A1": (fa, ha), "B1": (fb, hb)})
    assert verify_linear(inst, scheme).overall
    res = entropic_oracle_edge(inst, scheme, (1, 1), budget=10**7)
    assert res.passed


def test_oracle_budget_exceeded_is_explicit():
    inst = _two_node_instance("qualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1], [0]], f), FieldMatrix([[1, 0], [0, 1]], f))
    scheme = precoder_scheme(f, 1, 2, 2, {"A1": a, "B1": a})
    res = entropic_oracle_edge(inst, scheme, (1, 1), budget=4)
    assert res.status == "not-checked"
    assert "budget" in res.detail


def test_oracle_rejects_non_edges():
    inst = _two_node_instance("qualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1], [0]], f), FieldMatrix([[1, 0], [0, 1]], f))
    scheme = precoder_scheme(f, 1, 2, 2, {"A1": a, "B1": a})
    with pytest.raises(SchemeError):
        entropic_oracle_edge(inst, scheme, (9, 9))


def test_oracle_marginalization_matches_full_enumeration():
    # adding never-referenced noise coordinates must not change the verdict
    inst = _two_node_instance("unqualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1]], f), FieldMatrix([[1, 0]], f))
    b = (FieldMatrix([[0]], f), FieldMatrix([[1, 0]], f))
    small = precoder_scheme(f, 1, 2, 1, {"A1": a, "B1": b})
    a2 = (FieldMatrix([[1]], f), FieldMatrix([[1, 0, 0, 0, 0]], f))
    b2 = (FieldMatrix([[0]], f), FieldMatrix([[1, 0, 0, 0, 0]], f))
    padded = precoder_scheme(f, 1, 5, 1, {"A1": a2, "B1": b2})
    r1 = entropic_oracle_edge(inst, small, (1, 1))
    r2 = entropic_oracle_edge(inst, padded, (1, 1))
    assert r1.status == r2.status == "fail"
    assert r1.states == r2.states  # unreferenced coordinates marginalized out


def test_fig2_fixture_passes_oracle_everywhere():
    inst = cc.catalog.builtin_instance("fig2")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    results = cc.entropic_oracle_all(inst, scheme)
    assert all(r.passed for r in results)


def test_oracle_wide_signals_keep_residues_above_255():
    # p^(2N) = 257^8 >= 2^62, so the oracle renumbers the key before its last digit;
    # the secrets 0 and 256 give the signals 0 and 256, which must stay apart
    inst = _two_node_instance("qualified")
    f = PrimeField(257)
    a = (FieldMatrix([[1], [0], [0], [0]], f), zeros(4, 1, f))
    b = (zeros(4, 1, f), zeros(4, 1, f))
    scheme = precoder_scheme(f, 1, 1, 4, {"A1": a, "B1": b})
    res = entropic_oracle_edge(inst, scheme, (1, 1))
    assert res.passed and res.states == 257
    # the same signals leak the secret on an unqualified edge; the
    # counterexample reports N residues per node
    leak = entropic_oracle_edge(_two_node_instance("unqualified"), scheme, (1, 1))
    assert leak.failed
    assert leak.counterexample["signals"] == {"A1": [0, 0, 0, 0], "B1": [0, 0, 0, 0]}


def _oracle_by_enumeration(scheme, kind):
    """The oracle's verdict on the edge A1-B1 by a plain dict over every
    state, with the failing signal pair that is least in base-p key order
    (the key of a pair is sum(value[c] * p**c), A1's values first)."""
    p, L, N = scheme.field.p, scheme.L, scheme.N
    f = f_of(scheme, "A1").tolist() + f_of(scheme, "B1").tolist()
    h = h_of(scheme, "A1").tolist() + h_of(scheme, "B1").tolist()
    ref = [c for c in range(scheme.L_Z) if any(row[c] for row in h)]
    secrets = list(itertools.product(range(p), repeat=L))
    hz = [[sum(row[c] * v for c, v in zip(ref, z)) for row in h] for z in itertools.product(range(p), repeat=len(ref))]
    table = {}  # signal pair -> {secret index: count}
    for i, s in enumerate(secrets):
        fs = [sum(a * b for a, b in zip(row, s)) for row in f]
        for noise in hz:
            per_secret = table.setdefault(tuple((a + b) % p for a, b in zip(fs, noise)), {})
            per_secret[i] = per_secret.get(i, 0) + 1
    states = p ** (L + len(ref))
    for sig in sorted(table, key=lambda t: t[::-1]):
        signals = {"A1": list(sig[:N]), "B1": list(sig[N:])}
        per_secret = table[sig]
        if kind == "qualified":
            if len(per_secret) > 1:
                return "fail", states, {"signals": signals, "secrets": [list(secrets[i]) for i in sorted(per_secret)[:2]]}
            continue
        vec = [per_secret.get(i, 0) for i in range(len(secrets))]
        if min(vec) != max(vec):
            lo, hi = vec.index(min(vec)), vec.index(max(vec))
            return "fail", states, {
                "signals": signals,
                "secret_low": list(secrets[lo]),
                "count_low": vec[lo],
                "secret_high": list(secrets[hi]),
                "count_high": vec[hi],
            }
    return "pass", states, None


def _traced_oracle(kind, scheme):
    """The oracle's result on the edge A1-B1 and the peak of its traced allocations in bytes."""
    tracemalloc.start()
    try:
        return entropic_oracle_edge(_two_node_instance(kind), scheme, (1, 1)), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _large_modulus_scheme(p, f_a, h_a, f_b, h_b):
    f = PrimeField(p)
    node = lambda sec, noise: (FieldMatrix([[v] for v in sec], f), FieldMatrix([[v] for v in noise], f))  # noqa: E731
    return precoder_scheme(f, 1, 1, len(f_a), {"A1": node(f_a, h_a), "B1": node(f_b, h_b)})


@pytest.mark.parametrize(
    "scheme",
    [
        # no noise: the secret is decodable, and it leaks
        _large_modulus_scheme(10007, [1, 3], [0, 0], [0, 5], [0, 0]),
        # both signals are s + z: nothing decodes, nothing leaks
        _large_modulus_scheme(257, [1], [1], [1], [1]),
        # A1 sends (s + z, 2s + 2z), B1 sends (z, s): the secret is decodable, and it leaks
        _large_modulus_scheme(257, [1, 2], [1, 2], [0, 1], [1, 0]),
    ],
    ids=["p10007-N2", "p257-N1", "p257-N2"],
)
@pytest.mark.parametrize("kind", ["qualified", "unqualified"])
def test_oracle_large_modulus_builds_no_square_table(scheme, kind):
    # p^2 is above the digit-sum table limit, so the digits are added
    # arithmetically; a p x p table at p = 10007 would hold 10^8 entries
    res, peak = _traced_oracle(kind, scheme)
    assert peak < 64 * 2**20
    assert (res.status, res.states, res.counterexample) == _oracle_by_enumeration(scheme, kind)


@st.composite
def oracle_edges(draw):
    """(kind, p, L, L_Z, N, masked, seed) for one edge of at most 1500
    states; N reaches the widths where p^(2N) >= 2^62 for every p."""
    p = draw(st.sampled_from([2, 3, 5, 17]))
    L = draw(st.integers(1, 3))
    L_Z = draw(st.integers(1, 3))
    if p ** (L + L_Z) > 1500:
        L = L_Z = 1
    kind = draw(st.sampled_from(["qualified", "unqualified"]))
    return kind, p, L, L_Z, draw(st.integers(1, 32)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@given(oracle_edges())
@example(("qualified", 2, 2, 2, 31, False, 0))  # p^(2N) = 2^62
@example(("unqualified", 2, 2, 2, 32, False, 0))
@example(("unqualified", 17, 1, 1, 8, True, 0))  # 17^16 >= 2^62, secret masked by noise
@example(("qualified", 3, 2, 3, 20, True, 1))
@example(("unqualified", 3, 1, 1, 0, False, 0))  # N = 0: empty signals, no key group
@example(("unqualified", 3, 1, 3, 1, False, 26))  # 27 noise assignments give 3 parts: count_high = mult = 9
@example(("unqualified", 3, 2, 3, 1, False, 224))  # the same, with a later secret of count 0
@example(("qualified", 2, 1, 3, 1, False, 7))  # 8 noise assignments, 2 parts
@settings(max_examples=100, deadline=None)
def test_oracle_matches_dict_enumeration(edge):
    kind, p, L, L_Z, N, masked, seed = edge
    rng = np.random.default_rng(seed)
    f = PrimeField(p)
    precoders = {}
    mix = rng.integers(0, p, size=(L_Z, L))
    for node in ("A1", "B1"):
        # sparse noise, so that some coordinates go unreferenced
        h = rng.integers(0, p, size=(N, L_Z)) * (rng.random((N, L_Z)) < 0.6)
        # a masked secret enters only through the noise, F = H @ mix
        sec = h @ mix if masked else rng.integers(0, p, size=(N, L)) * (rng.random((N, L)) < 0.3)
        precoders[node] = (FieldMatrix(sec, f), FieldMatrix(h, f))
    scheme = precoder_scheme(f, L, L_Z, N, precoders)
    res = entropic_oracle_edge(_two_node_instance(kind), scheme, (1, 1))
    assert (res.status, res.states, res.counterexample) == _oracle_by_enumeration(scheme, kind)


def _assert_signal_keys_are_exact(fs, hz, p):
    """``_signal_keys(fs, hz, p)`` against the base-p value sum(v[c] * p**c)
    of every signal v = fs[i] + hz[j] mod p: uint32 exactly when
    p**width <= 2^32, renumbered exactly when p**width >= 2^62, the values
    themselves where not renumbered, and else equal keys exactly for equal
    values and key order equal to value order."""
    width = fs.shape[1]
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        keys = _signal_keys(fs, hz, p)
    assert keys.dtype == (np.uint32 if p**width <= 2**32 else np.int64)
    assert unique.called == (p**width >= 2**62)
    values = [[sum((x + y) % p * p**c for c, (x, y) in enumerate(zip(f, h))) for h in hz.tolist()] for f in fs.tolist()]
    if not unique.called:
        assert keys.tolist() == values
    assert keys.shape == (len(fs), len(hz))
    pairs = sorted(zip(itertools.chain.from_iterable(values), keys.ravel().tolist()))
    assert all(k0 < k1 if v0 < v1 else k0 == k1 for (v0, k0), (v1, k1) in zip(pairs, pairs[1:]))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_signal_keys_never_wrap(width):
    # p^width is above 2^32 from width 2 on, and at or above 2^62 from width
    # 3 on, where one int64 key would wrap; p^2 is above the digit-sum table
    # limit, so every digit is added arithmetically
    p = 2**31 - 1
    rng = np.random.default_rng(width)
    pool = rng.integers(0, p, size=(6, width))
    pool[0] = p - 1
    pool[1] = pool[0]
    pool[1, 0] = p - 2  # differs from the largest signal in the least significant residue only
    # the noise part 1 takes p - 1 to p exactly, which must wrap to 0
    hz = np.vstack([np.zeros(width, dtype=np.int64), np.ones(width, dtype=np.int64), rng.integers(0, p, size=(2, width))])
    _assert_signal_keys_are_exact(pool[rng.integers(0, 6, size=12)], hz, p)


@given(
    st.sampled_from([2, 3, 5, 17, 257]),
    st.integers(0, 64),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
@example(2, 32, 8, 3, 0)  # largest key 2^32 - 1: uint32
@example(2, 33, 8, 3, 0)  # int64
@example(257, 3, 8, 3, 0)  # 257^3 < 2^32: uint32
@example(257, 4, 8, 3, 0)  # 257^4 > 2^32: int64
@example(3, 7, 2, 9, 0)  # more noise parts than secrets: the secrets' table rows are gathered first
@example(2, 61, 5, 4, 0)  # largest key 2^61 - 1, not renumbered
@example(2, 62, 5, 4, 0)  # p^width = 2^62: renumbered
@settings(max_examples=100, deadline=None)
def test_signal_keys_match_base_p_values(p, width, n_fs, n_hz, seed):
    # both sides drawn from a small pool, with hz = pool - pool[0], so that
    # signals repeat within and across rows; pool[0] is the largest signal,
    # reached where both sides draw it, so where the keys are not
    # renumbered the largest key is p^width - 1
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, p, size=(3, width))
    pool[0] = p - 1
    picks_f, picks_h = rng.integers(0, 3, size=n_fs), rng.integers(0, 3, size=n_hz)
    picks_f[-1] = picks_h[-1] = 0
    _assert_signal_keys_are_exact(pool[picks_f], (pool[picks_h] - pool[0]) % p, p)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 4), st.integers(0, 5), st.integers(0, 2**32 - 1))
@example(3, 0, 2, 0)  # no signal rows: the one empty part
@settings(max_examples=60, deadline=None)
def test_noise_parts_are_the_distinct_values(p, rows, cols, seed):
    # low-rank maps too, where the p^cols assignments repeat parts
    rng = np.random.default_rng(seed)
    h = rng.integers(0, p, size=(rows, 2)) @ rng.integers(0, p, size=(2, cols)) * (rng.random(cols) < 0.8)
    parts = _noise_parts(h, p).tolist()
    values = {tuple(int(v) % p for v in h @ z) for z in itertools.product(range(p), repeat=cols)}
    assert len(parts) == len(values) and set(map(tuple, parts)) == values


@st.composite
def oracle_schemes(draw):
    """(instance, scheme) on at most 3x3 nodes.

    Each node takes one of a_count + b_count precoder pairs, so some edges
    join nodes that share a pair. A noise precoder has full row rank, or
    has a random multiple of its first row copied onto its last, which
    makes it rank-deficient when N > 1 or the multiple is 0. Secret
    precoders are random, zero, or masked by the noise (F = H @ mix), so
    that both kinds of edge pass as well as fail.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    L, N = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    L_Z = draw(st.integers(N, 3))
    inst = draw(drawn_instances())
    field = PrimeField(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = rng.integers(0, p, size=(L_Z, L))
    nodes = inst.nodes()
    pool = []
    for secret in draw(st.lists(st.sampled_from(("random", "zero", "masked")), min_size=len(nodes), max_size=len(nodes))):
        h = random_full_rank_h(rng, field, N, L_Z).array.copy()
        if draw(st.booleans()):
            h[-1] = h[0] * rng.integers(0, p) % p
        if secret == "random":
            f = random_matrix(N, L, field, rng)
        elif secret == "zero":
            f = zeros(N, L, field)
        else:
            f = FieldMatrix(h @ mix, field)
        pool.append((f, FieldMatrix(h, field)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(nodes), max_size=len(nodes)))
    return inst, precoder_scheme(field, L, L_Z, N, {node: pool[i] for node, i in zip(nodes, picks)})


@given(oracle_schemes())
@settings(max_examples=60, deadline=None)
def test_linear_verifier_matches_oracle_per_edge(drawn):
    # edge by edge, whatever the noise rank: the linear verdicts, and the
    # decodability that simulate finds on qualified edges
    inst, scheme = drawn
    assert scheme.field.p ** (scheme.L + scheme.L_Z) <= DEFAULT_ORACLE_BUDGET
    linear = {
        r.subject: r.passed for r in verify_linear(inst, scheme).records if r.kind in ("qualified", "unqualified")
    }
    oracle = entropic_oracle_all(inst, scheme)
    assert all(r.status in ("pass", "fail") for r in oracle)
    assert {f"A{r.edge[0]}-B{r.edge[1]}": r.passed for r in oracle} == linear
    sim = simulate(inst, scheme, seed=0, trials=20)
    assert [(e.edge, e.decodable) for e in sim.edges] == [(r.edge, r.passed) for r in oracle if r.kind == "qualified"]
    assert all(e.decode_successes == (20 if e.decodable else 0) for e in sim.edges)


@pytest.mark.parametrize("kind", ["qualified", "unqualified"])
def test_rank_deficient_noise_edge_matches_oracle(kind):
    # A1 sends (z1, s) and B1 sends (z1, z2), so A1's noise has rank 1 < N;
    # the pair's noise-free combinations are its second signal and the sum
    # of the two first ones, and W F = [1; 0] reveals s
    f = PrimeField(2)
    a1 = (FieldMatrix([[0], [1]], f), FieldMatrix([[1, 0], [0, 0]], f))
    scheme = precoder_scheme(f, 1, 2, 2, {"A1": a1, "B1": (zeros(2, 1, f), identity(2, f))})
    inst = _two_node_instance(kind)
    report = verify_linear(inst, scheme)
    edge = {r.kind: r for r in report.records if r.subject == "A1-B1"}
    assert [r.subject for r in report.failures()] == ["A1"] + ["A1-B1"] * (kind == "unqualified")
    oracle = entropic_oracle_edge(inst, scheme, (1, 1))
    if kind == "qualified":
        assert oracle.passed
        assert (edge["qualified"].passed, edge["qualified"].detail) == (True, "rank(PvFv - PuFu)=1, L=1")
        assert (edge["noise-alignment"].passed, edge["noise-alignment"].overlap_dim) == (True, 1)
        (sim,) = simulate(inst, scheme, seed=0, trials=50).edges
        assert sim.decodable and sim.success_frequency == 1.0
    else:
        assert oracle.failed
        assert edge["unqualified"].detail == "secret projections differ on the noise overlap"


def test_oracle_all_checks_the_scheme_once(monkeypatch):
    inst = cc.catalog.builtin_instance("fig2")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    checked = []
    check = LinearScheme.check_for_instance
    monkeypatch.setattr(LinearScheme, "check_for_instance", lambda s, i: checked.append(i) or check(s, i))
    assert len(cc.entropic_oracle_all(inst, scheme, budget=0)) == 8 and len(checked) == 1
    entropic_oracle_edge(inst, scheme, (1, 1), budget=0)
    assert len(checked) == 2
    with pytest.raises(SchemeError, match="lacks precoders"):
        cc.entropic_oracle_all(cc.catalog.builtin_instance("fig8"), scheme)


def test_oracle_peak_memory_on_fig2():
    # 1,594,323 states per unqualified edge, but only 531,441 (secret,
    # distinct noise part) signals, keyed in uint32 with no sorted copy: the
    # peak is 3.1 MiB (the 2.0 MiB key grid, one 0.5 MiB uint8 group and the
    # 0.5 MiB of int64 noise parts), where sorting the key grid took 5.6 MiB
    # and keying every state with its secret 27.9
    inst = cc.catalog.builtin_instance("fig2")
    tracemalloc.start()
    try:
        results = entropic_oracle_all(inst, cc.catalog.builtin_scheme("fig2-rate-2-5"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results) and len(results) == 8
    assert peak < 4.5 * 2**20


def test_oracle_counts_sparsely():
    # 2^18 states; a table of every distinct signal pair times every
    # secret would need 128 GiB
    f = PrimeField(2)
    sec = np.vstack([np.eye(16, dtype=np.int64), np.zeros((1, 16), dtype=np.int64)])
    noise_a = np.zeros((17, 2), dtype=np.int64)
    noise_a[16] = [1, 1]
    noise_b = np.zeros((17, 2), dtype=np.int64)
    noise_b[16] = [1, 0]
    a = (FieldMatrix(sec, f), FieldMatrix(noise_a, f))
    b = (zeros(17, 16, f), FieldMatrix(noise_b, f))
    scheme = precoder_scheme(f, 16, 2, 17, {"A1": a, "B1": b})
    res = entropic_oracle_edge(_two_node_instance("qualified"), scheme, (1, 1))
    assert res.passed and res.states == 2**18
    # 2^16 secrets and 4 noise states: table rows gathered per secret
    # rather than per noise state would take 128 MiB
    leak, peak = _traced_oracle("unqualified", scheme)
    assert leak.failed and leak.states == 2**18 and peak < 64 * 2**20
    assert leak.counterexample["signals"] == {"A1": [0] * 17, "B1": [0] * 17}


# -- simulation ---------------------------------------------------------------


def test_simulate_zero_trials_empty_report():
    inst = cc.catalog.builtin_instance("fig2")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    report = simulate(inst, scheme, seed=1, trials=0)
    assert report.trials == 0 and report.edges == ()


def test_simulate_verified_scheme_decodes_always():
    inst = cc.catalog.builtin_instance("fig2")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    report = simulate(inst, scheme, seed=3, trials=500)
    assert [e.success_frequency for e in report.edges] == [1.0] * len(inst.qualified)


def test_simulate_deterministic_under_seed():
    inst = cc.catalog.builtin_instance("fig2")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    r1 = simulate(inst, scheme, seed=11, trials=200)
    r2 = simulate(inst, scheme, seed=11, trials=200)
    assert r1 == r2


def test_simulate_broken_scheme_fails_sometimes():
    inst = cc.catalog.builtin_instance("fig2")
    scheme = cc.catalog.builtin_scheme("broken-garbled")
    report = simulate(inst, scheme, seed=5, trials=10_000)
    freqs = [e.success_frequency for e in report.edges if e.edge == (1, 1)]
    assert freqs and freqs[0] < 1.0


@pytest.mark.parametrize("h", [[[1, 0]], [[1, 1]]], ids=["selection", "other"])
def test_simulate_secret_longer_than_both_signals(h):
    # L = 3 > 2N = 2: no edge decodes, and no decoder of L rows exists
    f = PrimeField(3)
    scheme = precoder_scheme(f, 3, 2, 1, {n: (FieldMatrix([[1, 2, 0]], f), FieldMatrix(h, f)) for n in ("A1", "B1")})
    (sim,) = simulate(_two_node_instance("qualified"), scheme, seed=0, trials=10).edges
    assert (sim.decodable, sim.decode_successes) == (False, 0)


@pytest.mark.parametrize("p", [2**31 - 1, 67108859], ids=["int64-products", "float64-products"])
def test_simulate_decodes_every_trial_at_large_moduli(p):
    # N = L = L_Z = 1, so both products of simulate sum k = 2 terms:
    # 2^31 - 1 is the largest prime check_field_size admits there, and its
    # products run in int64; 67108859 is the largest prime whose products
    # stay below 2^53 and run in float64
    k = 2
    if p == 2**31 - 1:
        check_field_size(p, 1, 1, 1)
        with pytest.raises(FieldError):
            check_field_size(next_prime(p + 1), 1, 1, 1)
        assert (p - 1) ** 2 * k >= 2**53
    else:
        assert (p - 1) ** 2 * k < 2**53 <= (next_prime(p + 1) - 1) ** 2 * k
    field = PrimeField(p)
    precoders = {
        "A1": (FieldMatrix([[p - 1]], field), FieldMatrix([[p - 2]], field)),
        "B1": (FieldMatrix([[p - 3]], field), FieldMatrix([[p - 1]], field)),
    }
    scheme = precoder_scheme(field, 1, 1, 1, precoders)
    trials = 2 * SIMULATE_BLOCK + 5
    (sim,) = simulate(_two_node_instance("qualified"), scheme, seed=4, trials=trials).edges
    assert (sim.decodable, sim.decode_successes) == (True, trials)


def test_simulate_memory_does_not_grow_with_trials():
    # S and Z are drawn, and the signals decoded, per block of
    # SIMULATE_BLOCK trials, and each block's arrays are released before the
    # next is built, so more trials hold no more at once than one block
    # (two blocks' arrays held at once add about 0.4 MiB on fig8, against a
    # peak of 2.8 MiB). numpy imports numpy.random on first use, which
    # allocates about 0.6 MiB, so an untraced call comes first.
    inst = cc.catalog.builtin_instance("fig8")
    scheme = cc.catalog.builtin_scheme("fig8-rate-7-18")
    simulate(inst, scheme, seed=0, trials=1)

    def peak(trials):
        tracemalloc.start()
        try:
            simulate(inst, scheme, seed=0, trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100_000) <= peak(SIMULATE_BLOCK) + 2**18


# decode successes per qualified edge, from an earlier implementation that
# counted with a dict over the trials
SIMULATE_SEED_0 = {
    ("fig2", "fig2-rate-2-5"): [10000] * 5,
    ("fig8", "fig8-rate-7-18"): [10000] * 8,
    ("fig2", "broken-garbled"): [0] + [10000] * 4,
}


@pytest.mark.parametrize("inst_name, scheme_name", list(SIMULATE_SEED_0))
def test_simulate_outputs_are_pinned(inst_name, scheme_name):
    inst = cc.catalog.builtin_instance(inst_name)
    report = simulate(inst, cc.catalog.builtin_scheme(scheme_name), seed=0, trials=10_000)
    assert [e.edge for e in report.edges] == sorted(inst.qualified)
    assert [e.decode_successes for e in report.edges] == SIMULATE_SEED_0[(inst_name, scheme_name)]
