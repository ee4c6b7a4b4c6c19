"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is exact (integer or rational equality); the only numeric
knobs are the stated runtime caps and the oracle/search budgets.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import cdscover as cc
from conftest import random_corpus, small_scheme_corpus


@contextmanager
def criterion(number: int, summary: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {summary}  ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {number}] PASS  {summary}  ({time.time() - start:.1f}s)")


def test_criterion_1_rho_values(catalog_instances):
    with criterion(1, "rho(fig2)=5, rho(fig5)=6, rho(fig8)=5 with valid witnesses, < 10 s"):
        start = time.time()
        expected = {"fig2": 5, "fig5": 6, "fig8": 5}
        for name, want in expected.items():
            inst = catalog_instances[name]
            r = cc.rho(inst)
            assert r.value == want, (name, r.value)
            assert r.witness.violations(inst) == []
        fig5 = catalog_instances["fig5"]
        r5 = cc.rho(fig5)
        left = next(c for c in cc.qualified_components(fig5) if c.kind == "path")
        assert set(r5.witness.edge) <= set(left.nodes)
        assert r5.witness.size == 6
        right = next(c for c in cc.qualified_components(fig5) if c.kind == "cycle")
        right_vals = [
            cc.min_connected_edge_cover(fig5, e, p).size
            for e, p in cc.internal_qualified_edge_candidates(fig5)
            if e[0] in right.nodes and cc.min_connected_edge_cover(fig5, e, p) is not None
        ]
        assert 7 in right_vals
        assert time.time() - start < 10.0


def test_criterion_2_bounds(catalog_instances):
    with criterion(2, "bounds 2/5, 5/12, 2/5, 2/5 and 1/2 for infinite rho, exact rationals"):
        assert cc.linear_converse_bound(catalog_instances["fig2"])[0] == Fraction(2, 5)
        assert cc.linear_converse_bound(catalog_instances["fig5"])[0] == Fraction(5, 12)
        assert cc.linear_converse_bound(catalog_instances["fig8"])[0] == Fraction(2, 5)
        assert cc.linear_converse_bound(catalog_instances["fig9"])[0] == Fraction(2, 5)
        bound, witness = cc.linear_converse_bound(catalog_instances["matching2"])
        assert bound == Fraction(1, 2) and witness is None


@pytest.fixture(scope="module")
def synthesis_corpus():
    return random_corpus(200, start_seed=0)


def test_criterion_3_theorem2_pipeline(catalog_instances, synthesis_corpus):
    with criterion(3, "synthesize verifies at rate (rho-1)/(2 rho) on fig5 and 200 random instances, < 5 min"):
        start = time.time()
        fig5 = catalog_instances["fig5"]
        scheme = cc.synthesize(fig5)
        assert cc.verify_linear(fig5, scheme).overall
        assert cc.rate(scheme) == Fraction(5, 12)
        assert len(synthesis_corpus) == 200
        for inst, r in synthesis_corpus:
            assert r.value >= 5  # rho is never below 5 when finite
            s = cc.synthesize(inst)
            assert cc.verify_linear(inst, s).overall, inst.name
            assert cc.rate(s) == Fraction(r.value - 1, 2 * r.value)
            for res in cc.entropic_oracle_all(inst, s):
                # within budget means: whatever the oracle can afford to
                # check must pass; oversized edges report not-checked
                assert res.status in ("pass", "not-checked"), (inst.name, res.to_json())
        assert time.time() - start < 300.0


def test_criterion_4_verifier_equivalence():
    with criterion(4, "verify_linear <=> all-edges entropic oracle on >= 50 small schemes"):
        corpus = small_scheme_corpus(min_size=50)
        assert len(corpus) >= 50
        outcomes = {True: 0, False: 0}
        bounds_cache: dict[str, Fraction] = {}
        for inst, scheme, label in corpus:
            linear_ok = cc.verify_linear(inst, scheme).overall
            oracle = cc.entropic_oracle_all(inst, scheme)
            assert all(r.status in ("pass", "fail") for r in oracle), (
                label,
                "corpus member exceeded the oracle budget",
            )
            oracle_ok = all(r.passed for r in oracle)
            assert linear_ok == oracle_ok, (label, linear_ok, oracle_ok)
            outcomes[linear_ok] += 1
            if linear_ok:
                # corpus-wide rate bound: verified schemes never beat the converse
                if inst.name not in bounds_cache:
                    bounds_cache[inst.name] = cc.linear_converse_bound(inst)[0]
                assert cc.rate(scheme) <= bounds_cache[inst.name], label
        # the corpus genuinely exercises both directions
        assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_criterion_5_fixture_schemes(catalog_instances):
    with criterion(5, "fig2-rate-2-5 and fig8-rate-7-18 verified, rates 2/5 and 7/18 exactly"):
        fig2 = catalog_instances["fig2"]
        s2 = cc.catalog.builtin_scheme("fig2-rate-2-5")
        assert (s2.L, s2.N, s2.field.p) == (4, 5, 3)
        assert cc.rate(s2) == Fraction(2, 5)
        assert cc.verify_linear(fig2, s2).overall
        oracle2 = cc.entropic_oracle_all(fig2, s2)
        assert all(r.passed for r in oracle2)

        fig8 = catalog_instances["fig8"]
        s8 = cc.catalog.builtin_scheme("fig8-rate-7-18")
        assert (s8.L, s8.N, s8.field.p) == (7, 9, 13)
        assert cc.rate(s8) == Fraction(7, 18)
        assert cc.verify_linear(fig8, s8).overall
        # every fig8 edge needs at least 13^(7+9) oracle states, far beyond
        # any feasible budget; the oracle must say so explicitly rather than
        # fail, and the seeded simulation must decode perfectly
        oracle8 = cc.entropic_oracle_all(fig8, s8)
        assert all(r.status == "not-checked" for r in oracle8)
        assert all(r.states > 10**15 for r in oracle8)
        sim = cc.simulate(fig8, s8, seed=11, trials=4000)
        assert all(e.success_frequency == 1.0 for e in sim.edges if e.kind == "qualified")


def test_criterion_6_theorem1_consistency(catalog_instances, synthesis_corpus):
    with criterion(6, "search above the bound returns none (budget 1e5); found schemes always verify"):
        targets = []
        for name in ("fig2", "fig5", "fig8", "fig9"):
            # rate 1/2 strictly exceeds every finite-rho bound
            targets.append((catalog_instances[name], dict(p=3, L=1, N=1, L_Z=2)))
        # on the infinite-rho instance the bound is 1/2, so target rate 1
        targets.append((catalog_instances["matching2"], dict(p=3, L=2, N=1, L_Z=2)))
        inst_rand, r_rand = synthesis_corpus[0]
        targets.append((inst_rand, dict(p=3, L=1, N=1, L_Z=2)))
        for inst, params in targets:
            bound, _ = cc.linear_converse_bound(inst)
            assert Fraction(params["L"], 2 * params["N"]) > bound
            res = cc.random_scheme_search(inst, seed=2, budget=100_000, **params)
            assert res is None, inst.name
        # sanity: at an achievable rate the search still returns verified schemes
        found = cc.random_scheme_search(
            catalog_instances["fig2"], p=3, L=4, N=5, L_Z=9, seed=0, budget=2000
        )
        assert found is not None
        assert cc.verify_linear(catalog_instances["fig2"], found).overall


def test_criterion_7_cauchy_property():
    import itertools

    with criterion(7, "all square submatrices (<= 4x4) of Cauchy shapes up to 5x7 invertible, p in {11,13,17}, < 30 s"):
        start = time.time()
        checked_full_shape = False
        for p in (11, 13, 17):
            field = cc.PrimeField(p)
            for m in range(1, 6):
                for n in range(1, 8):
                    if m + n > p:
                        # a Cauchy matrix needs m+n distinct field elements;
                        # F_11 cannot host the 5x7 shape
                        continue
                    checked_full_shape = checked_full_shape or (m, n) == (5, 7)
                    c = cc.cauchy_matrix(list(range(m)), list(range(m, m + n)), field)
                    for k in range(1, min(m, n, 4) + 1):
                        for rows in itertools.combinations(range(m), k):
                            for cols in itertools.combinations(range(n), k):
                                sub = c.array[np.ix_(rows, cols)]
                                assert cc.residue_rank(sub, field.p) == k, (p, m, n, rows, cols)
        assert checked_full_shape
        assert time.time() - start < 30.0


def test_criterion_8_structural_claims(synthesis_corpus):
    with criterion(8, "layout claims: symbol multiplicity <= rho, shared symbols, differing coefficients, 100% of corpus"):
        for inst, r in synthesis_corpus:
            plan = cc.synthesize_plan(inst)
            rho_value = plan.rho_value
            qedges = inst.qualified_node_edges()
            for comp in plan.components:
                for j, holders in comp.holders.items():
                    assert holders == [n for n, w in comp.windows.items() if j in w]
                    assert len(holders) <= rho_value
                nodes = set(comp.component.nodes)
                expected_shared = rho_value - 1
                if comp.component.kind == "cycle" and len(nodes) == rho_value:
                    # the windows of a rho-node cycle coincide entirely
                    expected_shared = rho_value
                for u, v in qedges:
                    if u not in nodes:
                        continue
                    shared = [j for j in comp.windows[u] if j in comp.windows[v]]
                    assert len(shared) == expected_shared, (inst.name, u, v)
                    for j in shared:
                        assert comp.coefficients[j][u] != comp.coefficients[j][v]
