import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest

import cdscover as cc
from cdscover.linalg import residue_rank
from cdscover.synthesis import (
    SynthesisError,
    _structural_certificate,
    choose_field,
    plan_component,
    render_plan,
    synthesize,
    synthesize_plan,
)

from conftest import random_corpus


def test_choose_field_rule():
    assert choose_field(6).p == 11  # 2*6-2 = 10 -> 11
    assert choose_field(8).p == 17  # 2*8-2 = 14 -> 17
    assert choose_field(5).p == 11  # 2*5-2 = 8 -> 11


def test_choose_field_rejects_infinite():
    with pytest.raises(SynthesisError, match="infinite"):
        choose_field(None)


def _fig5_components():
    inst = cc.catalog.builtin_instance("fig5")
    return inst, cc.qualified_components(inst)


def _holders_by_scan(plan):
    # every local symbol's holders, read off the windows in traversal order
    symbols = sorted({j for w in plan.windows.values() for j in w})
    return {j: [n for n, w in plan.windows.items() if j in w] for j in symbols}


def _coefficient_groups(plan, j):
    # the nodes that share each coefficient on symbol j: its unqualified classes
    coeffs = plan.coefficients[j]
    return {frozenset(n for n in coeffs if coeffs[n] == k) for k in coeffs.values()}


def test_noise_layout_path_windows():
    inst, comps = _fig5_components()
    path = next(c for c in comps if c.kind == "path")
    plan = plan_component(inst, path, 6)
    trav = path.traversal
    assert plan.windows[trav[0]] == (0, 1, 2, 3, 4, 5)
    assert plan.windows[trav[1]] == (1, 2, 3, 4, 5, 6)
    assert plan.windows[trav[7]] == (7, 8, 9, 10, 11, 12)
    assert len(plan.holders) == 13
    assert plan.holders == _holders_by_scan(plan)
    assert [plan.column(j) for j in plan.holders] == list(range(13))


def test_noise_layout_cycle_windows():
    inst, comps = _fig5_components()
    cycle = next(c for c in comps if c.kind == "cycle")
    plan = plan_component(inst, cycle, 6, col_offset=13)  # after the path's 13 symbols
    trav = cycle.traversal
    assert plan.windows[trav[0]] == (1, 2, 3, 4, 5, 6)
    assert plan.windows[trav[10]] == (11, 12, 1, 2, 3, 4)
    assert plan.windows[trav[11]] == (12, 1, 2, 3, 4, 5)
    assert len(plan.holders) == 12
    assert plan.holders == _holders_by_scan(plan)
    assert [plan.column(j) for j in plan.holders] == list(range(13, 25))


def test_consecutive_nodes_share_l_indices():
    inst, comps = _fig5_components()
    for comp in comps:
        plan = plan_component(inst, comp, 6)
        trav = comp.traversal
        pairs = list(zip(trav, trav[1:]))
        if comp.kind == "cycle":
            pairs.append((trav[-1], trav[0]))
        for u, v in pairs:
            assert len(set(plan.windows[u]) & set(plan.windows[v])) == 5


def _four_cycle():
    return cc.CdsInstance(
        "c4", 2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}), frozenset()
    )


def _six_cycle():
    return cc.CdsInstance(
        "c6",
        3,
        3,
        frozenset({(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)}),
        frozenset(),
    )


def _fig5_left_standalone():
    return cc.CdsInstance(
        "fig5-left",
        4,
        4,
        frozenset({(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)}),
        frozenset({(1, 2), (4, 2), (4, 1), (2, 3)}),
    )


def test_noise_layout_rejects_short_cycle():
    inst = _four_cycle()
    comp = cc.qualified_components(inst)[0]
    with pytest.raises(SynthesisError, match="shorter than rho"):
        plan_component(inst, comp, 6)


def test_plan_component_rejects_other_shape():
    inst = cc.catalog.builtin_instance("fig2")
    comp = next(c for c in cc.qualified_components(inst) if c.kind == "other")
    with pytest.raises(SynthesisError, match="has no layout"):
        plan_component(inst, comp, 5)


def test_coefficient_table_fig5_left_z6():
    inst, comps = _fig5_components()
    path = next(c for c in comps if c.kind == "path")
    plan = plan_component(inst, path, 6)
    assert set(plan.holders[6]) == {"B1", "A2", "B2", "A3", "B3", "A4"}
    # the published walkthrough groups {B1,A4,B2}, {A2,B3}, {A3}
    assert _coefficient_groups(plan, 6) == {
        frozenset({"A4", "B1", "B2"}),
        frozenset({"A2", "B3"}),
        frozenset({"A3"}),
    }
    assert plan.payloads[6] == ("s", 1)
    coeffs = plan.coefficients[6]
    assert coeffs["A4"] == coeffs["B1"] == coeffs["B2"]
    assert coeffs["A2"] == coeffs["B3"]
    assert len({coeffs["A4"], coeffs["A2"], coeffs["A3"]}) == 3
    # classes are numbered by their least node, A-nodes first
    assert (coeffs["A2"], coeffs["A3"], coeffs["A4"]) == (1, 2, 3)


def test_coefficient_table_modulo_representative():
    inst, comps = _fig5_components()
    path = next(c for c in comps if c.kind == "path")
    plan = plan_component(inst, path, 6)
    assert plan.payloads[8] == ("s", 3)  # 8 mod 5 = 3
    assert plan.payloads[5] == ("s", 5)  # representative in 1..5
    assert plan.payloads[0] is None  # z_0 carries no payload


def test_coefficient_table_isolated_holders_are_singletons():
    inst = cc.CdsInstance(
        "bare-path",
        2,
        2,
        frozenset({(1, 1), (2, 1), (2, 2)}),
        frozenset({(1, 2)}),
    )
    comp = cc.qualified_components(inst)[0]
    plan = plan_component(inst, comp, 5)
    for j, holders in plan.holders.items():
        if plan.payloads[j] is None:  # z_0 carries no payload and no classes
            assert plan.coefficients[j] == {}
            continue
        groups = _coefficient_groups(plan, j)
        joined = {n for g in groups for n in g}
        assert joined == set(holders)
        # A1/B2 are unqualified neighbours; everyone else is a singleton
        for g in groups:
            assert set(g) == {"A1", "B2"} or len(g) == 1


def test_cycle_payloads_use_cauchy_rows():
    inst, comps = _fig5_components()
    cycle = next(c for c in comps if c.kind == "cycle")
    plan = plan_component(inst, cycle, 6)
    for j in range(1, 6):
        assert plan.payloads[j] == ("l", j)
    for j in range(6, 13):
        kind, idx = plan.payloads[j]
        assert kind == "s" and idx == ((j - 1) % 5) + 1


def test_synthesize_fig5():
    inst = cc.catalog.builtin_instance("fig5")
    scheme = synthesize(inst)
    assert (scheme.L, scheme.N, scheme.field.p) == (5, 6, 11)
    assert cc.rate(scheme) == Fraction(5, 12)
    assert cc.verify_linear(inst, scheme).overall


def test_synthesize_matches_pinned_fixture():
    inst = cc.catalog.builtin_instance("fig5")
    scheme = synthesize(inst)
    pinned = cc.catalog.builtin_scheme("fig5-synth")
    assert scheme.nodes == pinned.nodes
    assert np.array_equal(scheme.F, pinned.F) and np.array_equal(scheme.H, pinned.H)
    assert (scheme.L, scheme.L_Z, scheme.N, scheme.field) == (
        pinned.L,
        pinned.L_Z,
        pinned.N,
        pinned.field,
    )


def test_synthesize_rejects_other_shape():
    with pytest.raises(SynthesisError, match="neither a path nor a cycle"):
        synthesize(cc.catalog.builtin_instance("fig2"))


def test_synthesize_rejects_infinite_rho():
    with pytest.raises(SynthesisError, match="infinite"):
        synthesize(cc.catalog.builtin_instance("matching2"))


def test_synthesize_rejects_short_cycle():
    # a 4-cycle component next to a path whose rho is 6
    inst = cc.disjoint_union(_fig5_left_standalone(), _four_cycle(), seed=0)
    assert cc.rho(inst).value == 6
    with pytest.raises(SynthesisError, match="shorter than rho"):
        synthesize(inst)


def test_synthesize_cycle_with_exactly_rho_nodes():
    # the sliding windows of a rho-node cycle coincide, so its edges share
    # rho symbols; the generic combinations keep every edge decodable
    inst = cc.disjoint_union(_fig5_left_standalone(), _six_cycle(), seed=0)
    r = cc.rho(inst)
    assert r.value == 6
    scheme = synthesize(inst)
    assert cc.verify_linear(inst, scheme).overall
    assert cc.rate(scheme) == Fraction(5, 12)


def test_cycle_window_payload_matrices_invertible():
    # any L consecutive payloads on the cycle stack to an invertible matrix
    inst = cc.catalog.builtin_instance("fig5")
    plan = synthesize_plan(inst)
    comp = next(c for c in plan.components if c.component.kind == "cycle")
    n = len(comp.component.nodes)
    L = plan.L
    for start in range(n):
        window = [((start + k) % n) + 1 for k in range(L)]
        rows = []
        for j in window:
            kind, idx = comp.payloads[j]
            if kind == "s":
                vec = np.zeros(L, dtype=np.int64)
                vec[idx - 1] = 1
            else:
                vec = plan.cauchy.array[idx - 1]
            rows.append(vec)
        assert residue_rank(np.array(rows), plan.field.p) == L


def test_structural_certificate_names_the_broken_fact():
    plan = synthesize_plan(cc.catalog.builtin_instance("fig5"))
    comp = plan.components[0]
    u, v = sorted(comp.component.traversal[:2], key=cc.graph.node_key)

    def broken(**changes):
        return dataclasses.replace(plan, components=(dataclasses.replace(comp, **changes), *plan.components[1:]))

    _structural_certificate(plan)
    with pytest.raises(SynthesisError, match="noise symbol 6 appears at more than rho nodes"):
        _structural_certificate(broken(holders={**comp.holders, 6: [*comp.holders[6], u]}))
    with pytest.raises(SynthesisError, match=f"qualified edge {u}-{v} shares 4 noise symbols, expected 5"):
        _structural_certificate(broken(windows={**comp.windows, v: comp.windows[v][1:]}))
    same = {**comp.coefficients, 1: {**comp.coefficients[1], v: comp.coefficients[1][u]}}
    with pytest.raises(SynthesisError, match=f"qualified edge {u}-{v} has equal coefficients on shared symbol 1"):
        _structural_certificate(broken(coefficients=same))


def test_render_plan_mentions_every_node():
    inst = cc.catalog.builtin_instance("fig5")
    plan = synthesize_plan(inst)
    text = render_plan(plan)
    for node in inst.nodes():
        assert f"{node}:" in text
    assert "l1+" in text or "*l1+" in text  # cycle wrap uses generic combinations


def test_render_plan_outputs_are_pinned():
    # one sha256 over render_plan on fig5 and 39 seeded instances, pinned
    # from the construction that kept noise layouts and coefficient tables
    # apart
    instances = [cc.catalog.builtin_instance("fig5")] + [inst for inst, _ in random_corpus(39, start_seed=4200)]
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{render_plan(synthesize_plan(inst))}\0".encode())
    assert h.hexdigest() == "60f197346b64939fccb9612aee331e988f206a7c69aa13df949076e6041db9fb"


def test_synthesize_random_corpus_sample():
    for inst, r in random_corpus(12, start_seed=5000):
        scheme = synthesize(inst)
        assert cc.verify_linear(inst, scheme).overall
        assert cc.rate(scheme) == Fraction(r.value - 1, 2 * r.value)


def test_cycle_windows_invertible_across_corpus():
    checked = 0
    for inst, r in random_corpus(15, start_seed=7100):
        plan = synthesize_plan(inst)
        for comp in plan.components:
            if comp.component.kind != "cycle":
                continue
            n = len(comp.component.nodes)
            for start in range(n):
                window = [((start + k) % n) + 1 for k in range(plan.L)]
                rows = []
                for j in window:
                    kind, idx = comp.payloads[j]
                    if kind == "s":
                        vec = np.zeros(plan.L, dtype=np.int64)
                        vec[idx - 1] = 1
                    else:
                        vec = plan.cauchy.array[idx - 1]
                    rows.append(vec)
                assert residue_rank(np.array(rows), plan.field.p) == plan.L
                checked += 1
    assert checked > 0
