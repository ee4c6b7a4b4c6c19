import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cdscover as cc
from cdscover.fields import FieldMatrix, PrimeField
from cdscover.graph import CdsInstance
from cdscover.scheme import (
    DEFAULT_ORACLE_BUDGET,
    LinearScheme,
    SchemeError,
    _pair_table,
    entropic_oracle_all,
    entropic_oracle_edge,
    parse_scheme,
    rate,
    serialize_scheme,
    simulate,
    verify_linear,
)

from conftest import identity, random_full_rank_h, random_matrix, zeros


def test_rate_values():
    f = PrimeField(3)

    def mk(L, N):
        return LinearScheme(f, L, 1, N, {})

    assert rate(mk(4, 5)) == Fraction(2, 5)
    assert rate(mk(5, 6)) == Fraction(5, 12)
    assert rate(mk(7, 9)) == Fraction(7, 18)


def test_scheme_roundtrip():
    s = cc.catalog.builtin_scheme("fig2-rate-2-5")
    again = parse_scheme(serialize_scheme(s))
    assert again.L == s.L and again.precoders == s.precoders


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
    return LinearScheme(field, L, L_Z, N, precoders, name)


@given(schemes())
@example(LinearScheme(PrimeField(2), 2, 1, 0, {"B1": (zeros(0, 2, PrimeField(2)), zeros(0, 1, PrimeField(2)))}))
@example(LinearScheme(PrimeField(3), 1, 1, 1, {"A1": (identity(1, PrimeField(3)),) * 2}, ["n", {"k": [1]}]))
@settings(max_examples=150, deadline=None)
def test_serialize_scheme_is_json_dumps_indent_2(s):
    order = sorted(s.precoders, key=lambda node: (node[0], int(node[1:])))
    nodes = {node: {"F": s.f_of(node).array.tolist(), "H": s.h_of(node).array.tolist()} for node in order}
    obj = {"name": s.name, "p": s.field.p, "L": s.L, "Lz": s.L_Z, "N": s.N, "nodes": nodes}
    text = serialize_scheme(s)
    assert text == json.dumps(obj, indent=2) + "\n"
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


def test_field_size_guard_keeps_products_exact():
    # the largest prime with (p-1)^2 * 2N < 2^63 at N = 1, the next one up,
    # and a prime whose trial-division primality test would take minutes
    for p, ok in ((2**31 - 1, True), (2**31 + 11, False), (2**61 - 1, False)):
        text = json.dumps({"p": p, "L": 1, "Lz": 1, "N": 1, "nodes": {"A1": {"F": [[p - 1]], "H": [[p - 1]]}}})
        if not ok:
            with pytest.raises(SchemeError, match="overflow int64"):
                parse_scheme(text)
            continue
        f = parse_scheme(text).f_of("A1")
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
    for node in sorted(scheme.precoders):
        for row in range(scheme.N):
            f, h = scheme.precoders[node]
            arr = f.array.copy()
            arr[row, 0] = (arr[row, 0] + 1) % scheme.field.p
            mutated = dict(scheme.precoders)
            mutated[node] = (FieldMatrix(arr, scheme.field), h)
            cand = LinearScheme(scheme.field, scheme.L, scheme.L_Z, scheme.N, mutated)
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
    scheme = LinearScheme(f, 4, n, n, precoders)
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
    report = verify_linear(inst, LinearScheme(f, 1, 2, 2, precoders))
    assert not report.overall
    assert {r.subject for r in report.failures()} == {"A1", "B1"}


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
    scheme = LinearScheme(f, 1, 2, 2, {"A1": a, "B1": b})
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
    scheme = LinearScheme(f, 1, 2, 1, {"A1": a, "B1": b})
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
    scheme = LinearScheme(f, 4, 5, 3, {"A1": (fa, ha), "B1": (fb, hb)})
    assert verify_linear(inst, scheme).overall
    res = entropic_oracle_edge(inst, scheme, (1, 1), budget=10**7)
    assert res.passed


def test_oracle_budget_exceeded_is_explicit():
    inst = _two_node_instance("qualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1], [0]], f), FieldMatrix([[1, 0], [0, 1]], f))
    scheme = LinearScheme(f, 1, 2, 2, {"A1": a, "B1": a})
    res = entropic_oracle_edge(inst, scheme, (1, 1), budget=4)
    assert res.status == "not-checked"
    assert "budget" in res.detail


def test_oracle_rejects_non_edges():
    inst = _two_node_instance("qualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1], [0]], f), FieldMatrix([[1, 0], [0, 1]], f))
    scheme = LinearScheme(f, 1, 2, 2, {"A1": a, "B1": a})
    with pytest.raises(SchemeError):
        entropic_oracle_edge(inst, scheme, (9, 9))


def test_oracle_marginalization_matches_full_enumeration():
    # adding never-referenced noise coordinates must not change the verdict
    inst = _two_node_instance("unqualified")
    f = PrimeField(2)
    a = (FieldMatrix([[1]], f), FieldMatrix([[1, 0]], f))
    b = (FieldMatrix([[0]], f), FieldMatrix([[1, 0]], f))
    small = LinearScheme(f, 1, 2, 1, {"A1": a, "B1": b})
    a2 = (FieldMatrix([[1]], f), FieldMatrix([[1, 0, 0, 0, 0]], f))
    b2 = (FieldMatrix([[0]], f), FieldMatrix([[1, 0, 0, 0, 0]], f))
    padded = LinearScheme(f, 1, 5, 1, {"A1": a2, "B1": b2})
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
    # p^(2N) = 257^8 >= 2^62, so the oracle keys the signals in two chunks;
    # the secrets 0 and 256 give the signals 0 and 256, which must stay apart
    inst = _two_node_instance("qualified")
    f = PrimeField(257)
    a = (FieldMatrix([[1], [0], [0], [0]], f), zeros(4, 1, f))
    b = (zeros(4, 1, f), zeros(4, 1, f))
    scheme = LinearScheme(f, 1, 1, 4, {"A1": a, "B1": b})
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
    f = scheme.f_of("A1").to_lists() + scheme.f_of("B1").to_lists()
    h = scheme.h_of("A1").to_lists() + scheme.h_of("B1").to_lists()
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
        if kind == "qualified" and len(per_secret) > 1:
            return "fail", states, {"signals": signals, "secrets": [list(secrets[i]) for i in sorted(per_secret)[:2]]}
        vec = [per_secret.get(i, 0) for i in range(len(secrets))]
        if kind == "unqualified" and min(vec) != max(vec):
            lo, hi = vec.index(min(vec)), vec.index(max(vec))
            return "fail", states, {
                "signals": signals,
                "secret_low": list(secrets[lo]),
                "count_low": vec[lo],
                "secret_high": list(secrets[hi]),
                "count_high": vec[hi],
            }
    return "pass", states, None


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
    scheme = LinearScheme(f, L, L_Z, N, precoders)
    res = entropic_oracle_edge(_two_node_instance(kind), scheme, (1, 1))
    assert (res.status, res.states, res.counterexample) == _oracle_by_enumeration(scheme, kind)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_pair_table_keys_never_wrap(width):
    # from width 2 on, p^width times the secret count overflows a single
    # int64 key: at width 2 only the room for the secret is missing
    p = 2**31 - 1
    n_secrets = 3
    rng = np.random.default_rng(width)
    pool = rng.integers(0, p, size=(6, width))
    rows = pool[rng.integers(0, 6, size=60)]  # 20 samples of each secret, in secret order
    grid, pairs, counts, bounds = _pair_table(width, p, lambda cols, pw: rows[:, cols] @ pw, n_secrets)
    signal_of = {int(k) // n_secrets: tuple(row) for k, row in zip(grid.ravel(), rows.tolist())}
    got = [(signal_of[int(k) // n_secrets], int(k) % n_secrets, int(c)) for k, c in zip(pairs, counts)]
    tally = {}
    for row, sec in zip(rows.tolist(), np.repeat(np.arange(n_secrets), 20).tolist()):
        tally[tuple(row), sec] = tally.get((tuple(row), sec), 0) + 1
    key = lambda item: (sum(v * p**c for c, v in enumerate(item[0][0])), item[0][1])  # noqa: E731
    assert got == [(row, sec, c) for (row, sec), c in sorted(tally.items(), key=key)]
    assert bounds.tolist() == [i for i in range(len(got) + 1) if i in (0, len(got)) or got[i][0] != got[i - 1][0]]


@st.composite
def oracle_schemes(draw):
    """(instance, scheme) on at most 3x3 nodes with full-rank noise precoders.

    Each node takes one of a_count + b_count precoder pairs, so some edges
    join nodes that share a pair. Secret precoders are random, zero, or
    masked by the noise (F = H @ mix), so that both kinds of edge pass as
    well as fail.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    L, N = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    L_Z = draw(st.integers(N, 3))
    a_count, b_count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = [(x, y) for x in range(1, a_count + 1) for y in range(1, b_count + 1)]
    kinds = draw(st.lists(st.sampled_from(("qualified", "unqualified", None)), min_size=len(pairs), max_size=len(pairs)))
    inst = CdsInstance(
        "drawn",
        a_count,
        b_count,
        frozenset(e for e, k in zip(pairs, kinds) if k == "qualified"),
        frozenset(e for e, k in zip(pairs, kinds) if k == "unqualified"),
    )
    field = PrimeField(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = rng.integers(0, p, size=(L_Z, L))
    nodes = inst.nodes()
    pool = []
    for secret in draw(st.lists(st.sampled_from(("random", "zero", "masked")), min_size=len(nodes), max_size=len(nodes))):
        h = random_full_rank_h(rng, field, N, L_Z)
        if secret == "random":
            f = random_matrix(N, L, field, rng)
        elif secret == "zero":
            f = zeros(N, L, field)
        else:
            f = FieldMatrix(h.array @ mix, field)
        pool.append((f, h))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(nodes), max_size=len(nodes)))
    return inst, LinearScheme(field, L, L_Z, N, {node: pool[i] for node, i in zip(nodes, picks)})


@given(oracle_schemes())
@settings(max_examples=60, deadline=None)
def test_linear_verifier_matches_oracle_per_edge(drawn):
    inst, scheme = drawn
    assert scheme.field.p ** (scheme.L + scheme.L_Z) <= DEFAULT_ORACLE_BUDGET
    linear = {
        r.subject: r.passed for r in verify_linear(inst, scheme).records if r.kind in ("qualified", "unqualified")
    }
    oracle = entropic_oracle_all(inst, scheme)
    assert all(r.status in ("pass", "fail") for r in oracle)
    assert {f"A{r.edge[0]}-B{r.edge[1]}": r.passed for r in oracle} == linear


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
    scheme = LinearScheme(f, 16, 2, 17, {"A1": a, "B1": b})
    res = entropic_oracle_edge(_two_node_instance("qualified"), scheme, (1, 1))
    assert res.passed and res.states == 2**18
    leak = entropic_oracle_edge(_two_node_instance("unqualified"), scheme, (1, 1))
    assert leak.failed and leak.states == 2**18
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
