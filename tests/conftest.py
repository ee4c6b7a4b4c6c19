"""Shared corpus builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import cdscover as cc
from cdscover.fields import FieldMatrix, PrimeField


@pytest.fixture(scope="session")
def catalog_instances():
    return {name: cc.catalog.builtin_instance(name) for name in cc.catalog.INSTANCE_NAMES}


def random_corpus(count: int, start_seed: int = 0, max_side: int = 7):
    """Deterministic stream of synthesizable random path/cycle instances.

    Skips draws whose rho is infinite or whose cycle is shorter than rho;
    mixes in two-component instances the same way the published two-
    component example combines a path with a cycle.
    """
    out = []
    seed = start_seed
    rng = np.random.default_rng(start_seed + 977)
    while len(out) < count:
        seed += 1
        kind = seed % 5
        density = (0.15, 0.3, 0.45)[seed % 3]
        try:
            if kind in (0, 1):
                a = 3 + (seed % (max_side - 2))
                b = min(max_side, a + (seed % 2))
                inst = cc.random_instance(seed, a, b, "path", density)
            elif kind in (2, 3):
                a = 3 + (seed % (max_side - 3))
                inst = cc.random_instance(seed, a, a, "cycle", density)
            else:
                left = cc.random_instance(seed, 3 + seed % 2, 3 + seed % 2, "path", density)
                right = cc.random_instance(seed + 10_000, 3, 3, "cycle", 0.3)
                inst = cc.disjoint_union(left, right, cross_density=0.1, seed=seed)
        except cc.InstanceError:
            continue
        r = cc.rho(inst)
        if r.is_infinite:
            continue
        comps = cc.qualified_components(inst)
        if any(c.kind == "cycle" and len(c.nodes) < r.value for c in comps):
            continue
        if any(c.kind == "other" for c in comps):
            continue
        out.append((inst, r))
    return out


def tiny_oracle_instances():
    """Small instances whose schemes stay within the oracle budget."""
    mk = cc.CdsInstance
    return [
        mk("tiny-q", 2, 2, frozenset({(1, 1)}), frozenset({(1, 2), (2, 1), (2, 2)})),
        mk("tiny-matching", 2, 2, frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (2, 1)})),
        mk("tiny-mixed", 3, 2, frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (3, 1), (3, 2), (2, 1)})),
        mk("tiny-unq-only", 2, 2, frozenset(), frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})),
    ]


def zeros(rows: int, cols: int, field: PrimeField) -> FieldMatrix:
    return FieldMatrix(np.zeros((rows, cols), dtype=np.int64), field)


def identity(n: int, field: PrimeField) -> FieldMatrix:
    return FieldMatrix(np.eye(n, dtype=np.int64), field)


def random_matrix(rows: int, cols: int, field: PrimeField, rng: np.random.Generator) -> FieldMatrix:
    return FieldMatrix(rng.integers(0, field.p, size=(rows, cols), dtype=np.int64), field)


def random_full_rank_h(rng, field: PrimeField, n: int, l_z: int) -> FieldMatrix:
    while True:
        h = random_matrix(n, l_z, field, rng)
        if cc.residue_rank(h.array, field.p) == n:
            return h


def small_scheme_corpus(min_size: int = 50):
    """Positive, negative and perturbed oracle-checkable schemes.

    Every noise precoder has full row rank, which the linear/entropic
    equivalence requires (a rank-deficient H_v whose dependent secret rows
    also cancel is entropically fine but fails the noise-rank record).
    """
    corpus: list[tuple[cc.CdsInstance, object, str]] = []
    for name in ("fig2-rate-2-5", "broken-leaky", "broken-garbled"):
        inst = cc.catalog.builtin_instance(cc.catalog.SCHEME_INSTANCE[name])
        corpus.append((inst, cc.catalog.builtin_scheme(name), name))
    rng = np.random.default_rng(424242)
    insts = tiny_oracle_instances()
    seed = 0
    while len(corpus) < min_size:
        seed += 1
        inst = insts[seed % len(insts)]
        p = (2, 3)[seed % 2]
        field = PrimeField(p)
        l_z = 2 + seed % 2
        n = 2
        kind = seed % 5
        if kind in (0, 3):
            found = cc.random_scheme_search(inst, p=p, L=1, N=n, L_Z=l_z, seed=seed, budget=250)
            if found is None:
                continue
            corpus.append((inst, found, f"search-{seed}"))
        elif kind == 1:
            precoders = {
                node: (random_matrix(n, 1, field, rng), random_full_rank_h(rng, field, n, l_z))
                for node in inst.nodes()
            }
            corpus.append(
                (inst, cc.LinearScheme(field, 1, l_z, n, precoders, f"random-{seed}"), f"random-{seed}")
            )
        elif kind == 2:
            found = cc.random_scheme_search(inst, p=p, L=1, N=n, L_Z=l_z, seed=seed, budget=250)
            if found is None:
                continue
            node = inst.nodes()[seed % len(inst.nodes())]
            f, h = found.precoders[node]
            arr = f.array.copy()
            arr[seed % n, 0] = (arr[seed % n, 0] + 1) % p
            precoders = dict(found.precoders)
            precoders[node] = (FieldMatrix(arr, field), h)
            corpus.append(
                (inst, cc.LinearScheme(field, 1, l_z, n, precoders, f"perturbed-{seed}"), f"perturbed-{seed}")
            )
        else:
            # all-zero secret precoders: secure everywhere, decodable nowhere,
            # so they pass both verifiers iff the instance has no qualified edge
            if l_z < n:
                continue
            eye = FieldMatrix(np.eye(n, l_z, dtype=np.int64), field)
            precoders = {node: (zeros(n, 1, field), eye) for node in inst.nodes()}
            corpus.append(
                (inst, cc.LinearScheme(field, 1, l_z, n, precoders, f"zero-{seed}"), f"zero-{seed}")
            )
    return corpus
