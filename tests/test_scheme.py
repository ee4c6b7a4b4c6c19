import json
from fractions import Fraction

import numpy as np
import pytest

import cdscover as cc
from cdscover.fields import FieldMatrix, PrimeField
from cdscover.graph import CdsInstance
from cdscover.scheme import (
    LinearScheme,
    SchemeError,
    entropic_oracle_edge,
    parse_scheme,
    rate,
    serialize_scheme,
    simulate,
    verify_linear,
)


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


def test_verify_requires_matching_shapes():
    inst = cc.catalog.builtin_instance("fig5")
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    with pytest.raises(SchemeError, match="lacks precoders"):
        verify_linear(inst, scheme)


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
    eye = FieldMatrix.identity(n, f)
    precoders = {node: (FieldMatrix.zeros(n, 4, f), eye) for node in inst.nodes()}
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
    precoders = {"A1": (FieldMatrix.zeros(2, 1, f), h), "B1": (FieldMatrix.zeros(2, 1, f), h)}
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
    # p^(2N) = 257^8 >= 2^62 sends the oracle down its wide-signal path; the
    # secrets 0 and 256 give the signals 0 and 256, which must stay apart
    inst = _two_node_instance("qualified")
    f = PrimeField(257)
    a = (FieldMatrix([[1], [0], [0], [0]], f), FieldMatrix.zeros(4, 1, f))
    b = (FieldMatrix.zeros(4, 1, f), FieldMatrix.zeros(4, 1, f))
    scheme = LinearScheme(f, 1, 1, 4, {"A1": a, "B1": b})
    res = entropic_oracle_edge(inst, scheme, (1, 1))
    assert res.passed and res.states == 257
    # the same signals leak the secret on an unqualified edge; the
    # counterexample reports N residues per node
    leak = entropic_oracle_edge(_two_node_instance("unqualified"), scheme, (1, 1))
    assert leak.failed
    assert leak.counterexample["signals"] == {"A1": [0, 0, 0, 0], "B1": [0, 0, 0, 0]}


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
    for e in report.edges:
        if e.kind == "qualified":
            assert e.success_frequency == 1.0


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


def test_simulate_keeps_residues_above_255():
    # both nodes send the same uniform noise symbol, so with 20k trials the
    # unqualified edge sees all 257 signal pairs, 0 and 256 among them
    inst = _two_node_instance("unqualified")
    f = PrimeField(257)
    node = (FieldMatrix([[0]], f), FieldMatrix([[1]], f))
    scheme = LinearScheme(f, 1, 1, 1, {"A1": node, "B1": node})
    (edge,) = simulate(inst, scheme, seed=0, trials=20_000).edges
    assert edge.distinct_signal_pairs == 257
