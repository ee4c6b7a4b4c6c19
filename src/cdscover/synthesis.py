"""Rate-optimal scheme construction for path/cycle instances.

For an instance whose qualified components are all paths or cycles with
finite covering parameter rho, the construction uses L = rho-1 secret
symbols and N = rho signal symbols per node over the smallest prime field
of size >= 2*rho-2. Noise symbols slide along each component one position
per node, each noise symbol is mixed with one payload (a plain secret
symbol, or on the wrap-around part of a cycle a generic Cauchy combination),
and the payload coefficient at a node is the index of the node's
unqualified class inside the subgraph induced by that symbol's holders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldMatrix, PrimeField, next_prime
from .graph import CdsInstance, QualifiedComponent, components, neighbour_masks, node_key, qualified_components, rho
from .linalg import cauchy_matrix
from .scheme import LinearScheme


class SynthesisError(ValueError):
    """The construction's preconditions do not hold for this instance."""


def choose_field(rho_value: int | None) -> PrimeField:
    """Smallest prime no smaller than 2*rho - 2."""
    if rho_value is None:
        raise SynthesisError(
            "rho is infinite: the capacity-1/2 regime is out of scope for this construction"
        )
    if rho_value < 5:
        raise SynthesisError(f"rho must be at least 5, got {rho_value}")
    return PrimeField(next_prime(2 * rho_value - 2))


@dataclass(frozen=True)
class ComponentPlan:
    """One qualified component's noise symbols, coefficients and payloads.

    Path components use local indices 0..n+rho-2 (index 0 carries no
    payload); node i holds (i-1, ..., i+rho-2). Cycle components use indices
    1..n cyclically; node i holds (i, i+1, ..., i+rho-1) with wrap-around.
    Consecutive nodes share exactly rho-1 indices, except on a cycle with
    exactly rho nodes, whose windows all coincide.

    ``holders[j]`` lists the nodes holding local symbol j, in traversal
    order. ``coefficients[j][node]`` is the 1-based index of the node's
    unqualified class inside the subgraph induced by those holders (classes
    ordered by their minimal node id, A-nodes first); nodes of the same
    class get the same coefficient so unqualified neighbours transmit
    identical slots. ``payloads[j]`` is ("s", i) for plain secret s_i,
    ("l", i) for the i-th Cauchy combination, or None for the unused z_0.
    """

    component: QualifiedComponent
    windows: dict[str, tuple[int, ...]]  # node -> ordered local indices
    holders: dict[int, list[str]]
    coefficients: dict[int, dict[str, int]]
    payloads: dict[int, tuple[str, int] | None]
    col_offset: int = 0

    def column(self, j: int) -> int:
        """The noise column of local symbol j in the whole scheme."""
        return self.col_offset + j - (self.component.kind == "cycle")


def plan_component(
    inst: CdsInstance, component: QualifiedComponent, rho_value: int, col_offset: int = 0
) -> ComponentPlan:
    """The component's windows, holders, coefficients and payloads, its
    noise columns starting at ``col_offset``; refuses a component that is
    neither a path nor a cycle, or a cycle shorter than rho."""
    if component.kind not in ("path", "cycle"):
        raise SynthesisError(f"component of kind {component.kind!r} has no layout")
    trav = component.traversal
    n = len(trav)
    if component.kind == "path":
        windows = {node: tuple(range(i - 1, i + rho_value - 1)) for i, node in enumerate(trav, start=1)}
    elif n < rho_value:
        raise SynthesisError(
            f"cycle with {n} nodes is shorter than rho={rho_value}; the construction is undefined"
        )
    else:
        windows = {node: tuple((i + k) % n + 1 for k in range(rho_value)) for i, node in enumerate(trav)}
    holders: dict[int, list[str]] = {}
    for node, window in windows.items():
        for j in window:
            holders.setdefault(j, []).append(node)
    uadj, index = neighbour_masks(inst, inst.unqualified), {n: i for i, n in enumerate(inst.nodes())}
    coefficients: dict[int, dict[str, int]] = {}
    payloads: dict[int, tuple[str, int] | None] = {}
    for j, nodes in holders.items():
        if component.kind == "path" and j == 0:
            coefficients[0], payloads[0] = {}, None
            continue
        classes = components(uadj, sum(1 << index[node] for node in nodes))
        coefficients[j] = {node: k for k, c in enumerate(classes, start=1) for node in nodes if c >> index[node] & 1}
        if component.kind == "cycle" and j <= rho_value - 1:
            payloads[j] = ("l", j)
        else:
            payloads[j] = ("s", ((j - 1) % (rho_value - 1)) + 1)  # j mod (rho-1), in 1..rho-1
    return ComponentPlan(component, windows, holders, coefficients, payloads, col_offset)


@dataclass(frozen=True)
class SynthesisPlan:
    instance: CdsInstance
    rho_value: int
    field: PrimeField
    L: int
    N: int
    L_Z: int
    cauchy: FieldMatrix
    components: tuple[ComponentPlan, ...]

    def to_scheme(self) -> LinearScheme:
        nodes = self.instance.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        f = np.zeros((len(nodes), self.N, self.L), dtype=np.int64)
        h = np.zeros((len(nodes), self.N, self.L_Z), dtype=np.int64)
        for comp in self.components:
            for node in comp.component.nodes:
                i = index[node]
                for r, j in enumerate(comp.windows[node]):
                    h[i, r, comp.column(j)] = 1
                    payload = comp.payloads[j]
                    if payload is None:
                        continue
                    k = comp.coefficients[j][node]
                    kind, idx = payload
                    if kind == "s":
                        f[i, r, idx - 1] = k
                    else:
                        f[i, r] = np.mod(k * self.cauchy.array[idx - 1], self.field.p)
        name = f"synth-{self.instance.name}" if self.instance.name else "synth"
        return LinearScheme(field=self.field, L=self.L, L_Z=self.L_Z, N=self.N, nodes=tuple(nodes), F=f, H=h, name=name)


def synthesize_plan(inst: CdsInstance) -> SynthesisPlan:
    """One ``ComponentPlan`` per qualified component of the instance.

    Raises SynthesisError when the construction does not apply: some
    component has shape "other", rho is infinite, or a cycle is shorter
    than rho.
    """
    comps = qualified_components(inst)
    bad = [c for c in comps if c.kind == "other"]
    if bad:
        raise SynthesisError(
            f"qualified component containing {bad[0].nodes[0]} is neither a path nor a cycle"
        )
    r = rho(inst)
    if r.is_infinite:
        raise SynthesisError(
            "rho is infinite: no internal qualified edge within any qualified component "
            "(the capacity-1/2 regime); nothing to synthesize"
        )
    rho_value = r.value
    field = choose_field(rho_value)
    short = [c for c in comps if c.kind == "cycle" and len(c.nodes) < rho_value]
    if short:
        raise SynthesisError(
            f"cycle component with {len(short[0].nodes)} nodes is shorter than rho={rho_value}"
        )
    L, N = rho_value - 1, rho_value
    cauchy = cauchy_matrix(
        xs=list(range(0, rho_value - 1)),
        ys=list(range(rho_value - 1, 2 * rho_value - 2)),
        field=field,
    )
    plans = []
    offset = 0
    for comp in comps:
        plans.append(plan_component(inst, comp, rho_value, offset))
        offset += len(plans[-1].holders)
    plan = SynthesisPlan(
        instance=inst,
        rho_value=rho_value,
        field=field,
        L=L,
        N=N,
        L_Z=offset,
        cauchy=cauchy,
        components=tuple(plans),
    )
    _structural_certificate(plan)
    return plan


def synthesize(inst: CdsInstance) -> LinearScheme:
    """Emit the rate-(rho-1)/(2*rho) scheme for a path/cycle instance."""
    return synthesize_plan(inst).to_scheme()


def _structural_certificate(plan: SynthesisPlan) -> None:
    """Structural decodability facts, asserted before any verifier runs.

    Every noise symbol appears at <= rho nodes; the two ends of a qualified
    edge (consecutive in a component's traversal, or its wrap on a cycle)
    share exactly rho-1 symbols; and for each shared symbol the two
    coefficients differ. The last fact holds because equal coefficients
    would put both ends in one unqualified class of the induced subgraph,
    yielding an unqualified path P between them whose holders form a
    qualified-connected span containing a connected cover of P with at most
    rho-1 edges, contradicting the minimality of rho.
    """
    rho_value = plan.rho_value
    for comp in plan.components:
        for j, nodes in comp.holders.items():
            if len(nodes) > rho_value:
                raise SynthesisError(f"noise symbol {j} appears at more than rho nodes")
        trav = comp.component.traversal
        cycle = comp.component.kind == "cycle"
        # windows of a cycle with exactly rho nodes coincide entirely, so its
        # edges share rho symbols instead of rho-1; decoding still works since
        # the rho-1 generic combinations alone are invertible
        expected_shared = rho_value if cycle and len(trav) == rho_value else rho_value - 1
        for pair in zip(trav, trav[1:] + trav[:1] if cycle else trav[1:]):
            u, v = sorted(pair, key=node_key)
            shared = [j for j in comp.windows[u] if j in comp.windows[v]]
            if len(shared) != expected_shared:
                raise SynthesisError(
                    f"qualified edge {u}-{v} shares {len(shared)} noise symbols, "
                    f"expected {expected_shared}"
                )
            for j in shared:
                if comp.coefficients[j][u] == comp.coefficients[j][v]:
                    raise SynthesisError(
                        f"qualified edge {u}-{v} has equal coefficients on shared symbol {j}"
                    )


def render_plan(plan: SynthesisPlan) -> str:
    """Human-readable rendering of each node's signal as symbolic sums."""
    lines = []
    for q, comp in enumerate(plan.components, start=1):
        lines.append(f"component {q} ({comp.component.kind}): " + "-".join(comp.component.traversal))
        for node in comp.component.traversal:
            slots = []
            for j in comp.windows[node]:
                z = f"z{q}_{j}"
                payload = comp.payloads[j]
                if payload is None:
                    slots.append(z)
                    continue
                k = comp.coefficients[j][node]
                kind, idx = payload
                sym = f"s{idx}" if kind == "s" else f"l{idx}"
                slots.append(f"{sym}+{z}" if k == 1 else f"{k}*{sym}+{z}")
            lines.append(f"  {node}: (" + "; ".join(slots) + ")")
    return "\n".join(lines) + "\n"
