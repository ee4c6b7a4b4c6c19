"""Seeded inputs, operations and reference answers for the benchmark workloads.

A run plans its workload once, in a process of its own, so that neither
the time nor the memory of the benchmark's own code counts toward the
run's metrics:

    python3 perfbench/workloads.py WORKLOAD SEED WORKDIR

prints the plan as one JSON object:

- ``files``: every input file, with its path under WORKDIR and its text.
  An instance that the program generates also has a ``recipe``: the
  ``random_instance``, ``disjoint_union`` or catalog calls, on the seeds
  already chosen, that make it again. Set-up replays the recipes with the
  program and writes every file (``write_inputs``).
- ``ops``: the operations of one pass. An operation is one
  ``cdscover.cli.main`` call with ``--json``. Its ``check`` names a
  function in ``CHECKS``, and ``want`` holds the reference answers that
  function compares the output with. Checks may read files the operation
  wrote.

Planning draws the inputs from ``random.Random("<workload>-<seed>")`` and
redraws until each has the wanted size and rho; the reference answers come
from ``reference``, which shares no code with the package.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import reference as ref

# Random path/cycle families of the analyze workload, each instance with a
# finite rho: (nodes per side, unqualified density, shape, instances).
# Every generated instance gets one command, rho, bound and classify in
# turn, so a pass samples many instances; the catalog and the sparse
# cycles get all three. The latency quantiles each fall inside a large
# family whose cost varies little between instances: the median inside
# the 60 instances of side 6 at 0.5, the 90th percentile inside the 30
# cycles of side 7 at 0.5.
ANALYZE_FAMILIES = (
    (8, 0.2, "path", 6), (8, 0.2, "cycle", 6), (10, 0.2, "path", 4), (10, 0.2, "cycle", 4),
    (6, 0.3, "path", 6), (6, 0.3, "cycle", 6), (8, 0.3, "path", 6), (8, 0.3, "cycle", 6),
    (9, 0.3, "path", 10), (9, 0.3, "cycle", 10),
    (6, 0.5, "path", 30), (6, 0.5, "cycle", 30), (7, 0.5, "path", 4), (7, 0.5, "cycle", 30),
)
ANALYZE_OTHERS = 12  # path of 6 nodes per side plus 2-3 qualified chords
# unions of path/cycle components at a low cross density, alternately
# (components, nodes per side) = (3, 7) and (4, 6)
ANALYZE_UNIONS = 12
ANALYZE_CROSS_DENSITY = 0.02
ANALYZE_COMMANDS = ("rho", "bound", "classify")
# qualified cycles with more than 20 edges: rho refuses them today by
# raising CoverSearchLimit, which cli.main does not catch. Fixed inputs,
# independent of the workload seed: (random_instance seed, side, density).
ANALYZE_LIMIT_CYCLES = ((2, 12, 0.1), (1, 12, 0.15), (2, 14, 0.1))

# published values for the catalog instances
CATALOG_RHO = {"fig2": 5, "fig5": 6, "fig8": 5, "fig9": 5, "matching2": None}
CATALOG_VERDICT = {
    "fig2": ("exact", "2/5", False),
    "fig5": ("exact", "5/12", False),
    "fig8": ("exact", "7/18", False),
    "fig9": ("bounded-above", "2/5", True),
    "matching2": ("bounded-above", "1/2", False),
}

# synthesizable families (nodes per side, density, shape); every seed
# synthesizes the same mix of rho values, since N, p and L_Z follow rho
SYNTH_FAMILIES = ((7, 0.3, "path"), (7, 0.3, "cycle"), (8, 0.3, "path"), (8, 0.3, "cycle"))
SYNTH_RHOS = (5, 6, 7, 8)
SYNTH_SINGLES = 32  # two per family and rho
SYNTH_UNIONS = 18  # 2-4 components, no cross edges
SYNTH_UNION_RHOS = (5, 6)

AUDIT_PINNED = (("fig2", "fig2-rate-2-5", True), ("fig2", "broken-leaky", False), ("fig2", "broken-garbled", False))
AUDIT_SIMULATE = (("fig2", "fig2-rate-2-5"), ("fig8", "fig8-rate-7-18"))
AUDIT_CORPUS = 100
SIMULATE_TRIALS = 10_000

SEARCH_CATALOG = ("fig2", "fig5", "fig8", "fig9", "matching2")
SEARCH_RANDOM = 90
SEARCH_BUDGET = 10
SEARCH_DENSITY = 0.5
SEARCH_RHOS = (5, 6)  # every seed searches the same mix of N = rho + 1
SEARCH_ACHIEVABLE = 4  # fig2 at p=3 L=4 N=5 Lz=9, one seed each
SEARCH_ACHIEVABLE_BUDGET = 150


@dataclass
class Op:
    label: str
    argv: list[str]
    check: str  # a key of CHECKS
    want: dict  # reference answers for the check
    # exception class name that a known fault raises on this input
    expected_failure: str | None = None


class Draw:
    """Draws one workload's inputs with the program's generators and
    records each input file with the recipe that makes it again."""

    def __init__(self, cc, workdir: Path, rng: random.Random):
        self.cc = cc
        self.workdir = workdir
        self.rng = rng
        self.files: list[dict] = []

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def add_file(self, name: str, text: str, recipe: list | None = None) -> str:
        path = self.path(name)
        self.files.append({"path": path, "text": text, "recipe": recipe})
        return path

    def add_instance(self, inst, recipe: list | None, label: str) -> str:
        return self.add_file(f"{label}.json", self.cc.serialize_instance(inst), recipe)

    def data(self, inst) -> dict:
        return json.loads(self.cc.serialize_instance(inst))

    def exact_count(self, side: int, density: float, shape: str, label: str):
        """random_instance drawn until it has exactly round(density * free
        pairs) unqualified edges, so every seed draws the same edge count.

        The count is at least ``side``: random_instance gives every node an
        unqualified edge, and one edge serves one node per side.
        """
        qualified = 2 * side if shape == "cycle" else 2 * side - 1
        target = max(round(density * (side * side - qualified)), side)
        for _ in range(10_000):
            seed = self.rng.randrange(2**31)
            inst = self.cc.random_instance(seed, side, side, shape, density, name=label)
            if len(inst.unqualified) == target:
                return inst, ["random", seed, side, shape, density, label]
        raise RuntimeError(f"no {side}x{side} {shape} with {target} unqualified edges")

    def union(self, parts: list, cross_density: float, label: str):
        """disjoint_union of (instance, recipe) parts; each join is redrawn
        until it adds exactly round(cross_density * cross pairs) cross edges."""
        inst, recipes, seeds = parts[0][0], [parts[0][1]], []
        for part, recipe in parts[1:]:
            pairs = inst.a_count * part.b_count + part.a_count * inst.b_count
            target = len(inst.unqualified) + len(part.unqualified) + round(cross_density * pairs)
            for _ in range(10_000):
                seed = self.rng.randrange(2**31)
                joined = self.cc.disjoint_union(inst, part, cross_density=cross_density, seed=seed, name=label)
                if len(joined.unqualified) == target:
                    break
            else:
                raise RuntimeError(f"no union with {target} unqualified edges")
            inst = joined
            recipes.append(recipe)
            seeds.append(seed)
        return inst, ["union", recipes, cross_density, seeds, label]


def make_instance(cc, recipe: list):
    """Replay a recipe with the program's generators."""
    kind = recipe[0]
    if kind == "catalog":
        return cc.catalog.builtin_instance(recipe[1])
    if kind == "random":
        _, seed, side, shape, density, name = recipe
        return cc.random_instance(seed, side, side, shape, density, name=name)
    _, parts, cross_density, seeds, name = recipe
    inst = make_instance(cc, parts[0])
    for part, seed in zip(parts[1:], seeds):
        inst = cc.disjoint_union(inst, make_instance(cc, part), cross_density=cross_density, seed=seed, name=name)
    return inst


def write_inputs(cc, files: list[dict]) -> list[str]:
    """Set-up: make every recipe again with the program, write every file,
    and return the texts written."""
    written = []
    for f in files:
        text = f["text"] if f["recipe"] is None else cc.serialize_instance(make_instance(cc, f["recipe"]))
        Path(f["path"]).write_text(text, encoding="utf-8")
        written.append(text)
    return written


def _load(out: str) -> dict | None:
    try:
        obj = json.loads(out)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _only_path_cycle(inst: dict) -> bool:
    return all(shape != "other" for shape, _, _ in ref.components(inst))


# -- analyze ------------------------------------------------------------------


def _analyze_ops(label, path, inst, rho_value, commands=ANALYZE_COMMANDS, verdict=None, expected_failure=None):
    bound = ref.fraction_text(ref.converse_bound(rho_value))
    if verdict is None:
        # generated instances are larger than every catalog instance, so no
        # isomorphism can settle the ones that are not all paths and cycles
        exact = rho_value is not None and _only_path_cycle(inst)
        verdict = ("exact" if exact else "bounded-above", bound, False)
    ops = []
    for c in commands:
        if c == "classify":
            want = {"command": c, "verdict": list(verdict)}
        else:
            want = {"command": c, "rho": rho_value, "bound": bound, "inst": inst}
        ops.append(Op(f"{label}:{c}", ["--json", c, path], "analyze", want, expected_failure))
    return ops


def check_analyze(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if rc != 0 or obj is None:
        return f"exit {rc}"
    command = want["command"]
    if command == "classify":
        got = [obj.get("kind"), obj.get("value"), obj.get("open")]
        return None if got == want["verdict"] else f"verdict {got} != {want['verdict']}"
    if obj.get(command) != want[command]:
        return f"{command} {obj.get(command)} != reference {want[command]}"
    r, witness = want["rho"], obj.get("witness")
    if r is None:
        return None if witness is None else "witness given for infinite rho"
    if witness is None:
        return "no witness for finite rho"
    return "; ".join(ref.witness_problems(want["inst"], witness, r)) or None


def _with_chords(inst: dict, rng: random.Random) -> dict:
    """A random path instance with 2-3 non-path pairs turned qualified."""
    qualified = {tuple(p) for p in inst["qualified"]}
    unqualified = {tuple(p) for p in inst["unqualified"]}
    free = sorted(
        (x, y)
        for x in range(1, inst["a_count"] + 1)
        for y in range(1, inst["b_count"] + 1)
        if (x, y) not in qualified
    )
    for chord in rng.sample(free, rng.choice((2, 3))):
        unqualified.discard(chord)
        qualified.add(chord)
    out = dict(inst)
    out["qualified"] = [list(p) for p in sorted(qualified)]
    out["unqualified"] = [list(p) for p in sorted(unqualified)]
    return out


def plan_analyze(d: Draw) -> list[Op]:
    cc = d.cc
    ops: list[Op] = []
    for name in cc.catalog.INSTANCE_NAMES:
        inst = cc.catalog.builtin_instance(name)
        path = d.add_instance(inst, ["catalog", name], f"catalog-{name}")
        ops += _analyze_ops(name, path, d.data(inst), CATALOG_RHO[name], verdict=CATALOG_VERDICT[name])
    for side, density, shape, count in ANALYZE_FAMILIES:
        for i in range(count):
            label = f"{shape}-{side}-{density}-{i}"
            for _ in range(1000):
                inst, recipe = d.exact_count(side, density, shape, label)
                data = d.data(inst)
                rho_value = ref.reference_rho(data)
                if rho_value is not None:
                    break
            else:
                raise RuntimeError(f"no {shape} with finite rho drawn")
            path = d.add_instance(inst, recipe, label)
            ops += _analyze_ops(label, path, data, rho_value, (ANALYZE_COMMANDS[i % 3],))
    for i in range(ANALYZE_OTHERS):
        label = f"other-{i}"
        base, _ = d.exact_count(6, 0.3, "path", label)
        data = _with_chords(d.data(base), d.rng)
        path = d.add_file(f"{label}.json", json.dumps(data))
        ops += _analyze_ops(label, path, data, ref.reference_rho(data), (ANALYZE_COMMANDS[i % 3],))
    for i in range(ANALYZE_UNIONS):
        label = f"union-{i}"
        count, side = ((3, 7), (4, 6))[i % 2]
        parts = [d.exact_count(side, 0.3, ("path", "cycle")[(i + j) % 2], f"{label}-{j}") for j in range(count)]
        inst, recipe = d.union(parts, ANALYZE_CROSS_DENSITY, label)
        data = d.data(inst)
        path = d.add_instance(inst, recipe, label)
        ops += _analyze_ops(label, path, data, ref.reference_rho(data), (ANALYZE_COMMANDS[i % 3],))
    for seed, side, density in ANALYZE_LIMIT_CYCLES:
        label = f"limit-cycle-{side}-{seed}"
        recipe = ["random", seed, side, "cycle", density, label]
        inst = make_instance(cc, recipe)
        data = d.data(inst)
        path = d.add_instance(inst, recipe, label)
        ops += _analyze_ops(label, path, data, ref.reference_rho(data), expected_failure="CoverSearchLimit")
    return ops


# -- synth and verify --------------------------------------------------------


def _synthesizable(inst: dict) -> int | None:
    """Reference rho when the construction applies (rho >= 5, finite,
    every cycle at least rho long), else None."""
    r = ref.reference_rho(inst)
    if r is None or r < 5:
        return None
    comps = ref.components(inst)
    if any(shape == "other" for shape, _, _ in comps):
        return None
    if any(shape == "cycle" and len(nodes) < r for shape, nodes, _ in comps):
        return None
    return r


def check_synth(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if rc != 0 or obj is None:
        return f"exit {rc}"
    report = want["report"]
    got = {k: obj.get(k) for k in report}
    if got != report:
        return f"synth {got} != {report}"
    scheme = json.loads(Path(want["scheme_path"]).read_text(encoding="utf-8"))
    if (scheme["p"], scheme["L"], scheme["N"]) != (report["p"], report["L"], report["N"]):
        return "scheme file parameters differ from the report"
    problems = ref.alignment_problems(want["inst"], scheme)
    if problems is None:
        return "synthesized noise precoders are not selection matrices"
    return "; ".join(problems) or None


def check_verify(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if rc != 0 or obj is None or obj.get("overall") is not True:
        return f"verify exit {rc}"
    return None


def _synth_ops(label: str, path: str, scheme_path: str, inst: dict, rho_value: int) -> list[Op]:
    report = {
        "rho": rho_value,
        "p": ref.smallest_prime_at_least(2 * rho_value - 2),
        "L": rho_value - 1,
        "N": rho_value,
        "rate": ref.fraction_text(ref.converse_bound(rho_value)),
    }
    want = {"report": report, "inst": inst, "scheme_path": scheme_path}
    return [
        Op(f"{label}:synth", ["--json", "synth", path, "-o", scheme_path], "synth", want),
        Op(f"{label}:verify", ["--json", "verify", path, scheme_path], "verify", {}),
    ]


def _draw_with_rho(d: Draw, draw, rho_value: int):
    for _ in range(1000):
        inst, recipe = draw()
        data = d.data(inst)
        if _synthesizable(data) == rho_value:
            return inst, recipe, data
    raise RuntimeError(f"no synthesizable instance with rho {rho_value} drawn")


def plan_synth_verify(d: Draw) -> list[Op]:
    ops: list[Op] = []
    for i in range(SYNTH_SINGLES + SYNTH_UNIONS):
        if i < SYNTH_SINGLES:
            label = f"single-{i}"
            family = SYNTH_FAMILIES[i % len(SYNTH_FAMILIES)]
            rho_value = SYNTH_RHOS[(i // len(SYNTH_FAMILIES)) % len(SYNTH_RHOS)]
            inst, recipe, data = _draw_with_rho(d, lambda: d.exact_count(*family, label), rho_value)
        else:
            label = f"union-{i}"
            families = [SYNTH_FAMILIES[(i + j) % len(SYNTH_FAMILIES)] for j in range(2 + i % 3)]
            rho_value = SYNTH_UNION_RHOS[i % len(SYNTH_UNION_RHOS)]
            inst, recipe, data = _draw_with_rho(
                d, lambda: d.union([d.exact_count(*f, label) for f in families], 0.0, label), rho_value
            )
        path = d.add_instance(inst, recipe, label)
        ops += _synth_ops(label, path, d.path(f"{label}.scheme.json"), data, rho_value)
    return ops


# -- audit --------------------------------------------------------------------

TINY_INSTANCES = (
    ("tiny-q", 2, 2, [(1, 1)], [(1, 2), (2, 1), (2, 2)]),
    ("tiny-matching", 2, 2, [(1, 1), (2, 2)], [(1, 2), (2, 1)]),
    ("tiny-mixed", 3, 2, [(1, 1), (2, 2)], [(1, 2), (2, 1), (3, 1), (3, 2)]),
    ("tiny-path", 3, 3, [(1, 1), (2, 1), (2, 2)], [(1, 2), (3, 3), (3, 1), (1, 3)]),
)


def _audit_op(label: str, inst_arg: str, scheme_arg: str, inst: dict, scheme: dict, verdict: bool | None) -> Op:
    """verify --entropic; ``verdict`` is the known one, None when only the
    agreement of the two verifiers can be checked. Each edge's oracle
    enumerates p^(L+m) states, m the noise coordinates its precoders touch."""
    p, L = scheme["p"], scheme["L"]
    states = {
        f"{x}-{y}": p ** (L + ref.referenced_noise_count(scheme, ref.node_a(x), ref.node_b(y)))
        for x in range(1, inst["a_count"] + 1)
        for y in range(1, inst["b_count"] + 1)
    }
    argv = ["--json", "verify", inst_arg, scheme_arg, "--entropic"]
    return Op(label, argv, "audit", {"verdict": verdict, "states": states})


def check_audit(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if obj is None or "entropic" not in obj:
        return f"exit {rc}"
    linear = obj["linear"]["overall"]
    results = obj["entropic"]
    if any(r["status"] == "not-checked" for r in results):
        return "an edge was not checked"
    oracle = all(r["status"] == "pass" for r in results)
    if oracle != linear:
        return f"oracle verdict {oracle} != linear verdict {linear}"
    if want["verdict"] is not None and oracle != want["verdict"]:
        return f"verdict {oracle} != expected {want['verdict']}"
    if rc != (0 if oracle else 1) or obj["overall"] != oracle:
        return f"exit {rc} disagrees with verdict {oracle}"
    for r in results:
        x, y = r["edge"]
        expected = want["states"][f"{x}-{y}"]
        if r["states"] != expected:
            return f"edge {x}-{y}: {r['states']} states != p^(L+m) = {expected}"
    return None


def check_simulate(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if rc != 0 or obj is None or obj.get("trials") != want["trials"]:
        return f"exit {rc}"
    for e in obj["edges"]:
        if e["kind"] == "qualified" and e["success_frequency"] != 1.0:
            return f"edge {e['edge']} decodes with frequency {e['success_frequency']}"
    return None


def _full_rank_noise(rng: random.Random, p: int, n: int, l_z: int) -> list[list[int]]:
    while True:
        h = [[rng.randrange(p) for _ in range(l_z)] for _ in range(n)]
        if ref.rank_mod_p(h, p) == n:
            return h


def plan_audit(d: Draw) -> list[Op]:
    cc, rng = d.cc, d.rng
    ops: list[Op] = []
    for inst_name, scheme_name, verdict in AUDIT_PINNED:
        inst = json.loads(cc.catalog.instance_text(inst_name))
        scheme = json.loads(cc.catalog.scheme_text(scheme_name))
        ops.append(_audit_op(scheme_name, inst_name, scheme_name, inst, scheme, verdict))
    for inst_name, scheme_name in AUDIT_SIMULATE:
        argv = ["--json", "simulate", inst_name, scheme_name, "--trials", str(SIMULATE_TRIALS)]
        argv += ["--seed", str(rng.randrange(2**31))]
        ops.append(Op(f"simulate-{scheme_name}", argv, "simulate", {"trials": SIMULATE_TRIALS}))
    tiny = []
    for name, a, b, q, u in TINY_INSTANCES:
        inst = cc.CdsInstance(name, a, b, frozenset(q), frozenset(u))
        tiny.append((inst, d.add_instance(inst, None, name), d.data(inst)))
    for i in range(AUDIT_CORPUS):
        inst, inst_path, inst_data = tiny[i % len(tiny)]
        p = (2, 3)[i % 2]
        kind = ("searched", "random", "perturbed")[i % 3]
        if kind == "random":
            L, n, l_z = 1 + i % 2, 2 + (i // 3) % 2, 3 + (i // 6) % 3
            scheme = {
                "name": f"random-{i}", "p": p, "L": L, "Lz": l_z, "N": n,
                "nodes": {
                    node: {
                        "F": [[rng.randrange(p) for _ in range(L)] for _ in range(n)],
                        "H": _full_rank_noise(rng, p, n, l_z),
                    }
                    for node in [ref.node_a(x) for x in range(1, inst.a_count + 1)]
                    + [ref.node_b(y) for y in range(1, inst.b_count + 1)]
                },
            }
        else:
            l_z = 3 + (i // 3) % 2
            for _ in range(1000):
                found = cc.random_scheme_search(inst, p=p, L=1, N=2, L_Z=l_z, seed=rng.randrange(2**31), budget=250)
                if found is not None:
                    break
            else:
                raise RuntimeError(f"no searched scheme for {inst.name}")
            scheme = json.loads(cc.serialize_scheme(found))
            if kind == "perturbed":
                node = sorted(scheme["nodes"])[i % len(scheme["nodes"])]
                row = scheme["nodes"][node]["F"][i % 2]
                row[0] = (row[0] + 1) % p
        scheme_path = d.add_file(f"corpus-{i}.scheme.json", json.dumps(scheme))
        problems = ref.alignment_problems(inst_data, scheme)
        verdict = None if problems is None else not problems
        ops.append(_audit_op(f"corpus-{i}-{kind}", inst_path, scheme_path, inst_data, scheme, verdict))
    return ops


# -- search -------------------------------------------------------------------


def _search_op(label: str, inst_arg: str, rho_value, seed: int) -> Op:
    """search at a rate L/(2N) just above the converse bound."""
    L, N = (3, 2) if rho_value is None else (rho_value, rho_value + 1)  # infinite rho: above 1/2
    bound = ref.converse_bound(rho_value)
    if Fraction(L, 2 * N) <= bound:
        raise ValueError(f"rate {L}/{2 * N} is not above the bound {bound}")
    # with L_Z = N + 1 any two nodes share N - 1 >= L noise coordinates, so
    # every draw reaches the alignment solve
    argv = ["--json", "search", inst_arg, "--p", "3", "--L", str(L), "--N", str(N), "--Lz", str(N + 1)]
    argv += ["--seed", str(seed), "--budget", str(SEARCH_BUDGET)]
    return Op(label, argv, "search_above", {"rate": f"{L}/{2 * N}", "bound": ref.fraction_text(bound)})


def check_search_above(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if rc != 1 or obj is None or obj.get("found") is not False:
        return f"found a scheme of rate {want['rate']} above the bound {want['bound']} (exit {rc})"
    return None


def _achievable_op(d: Draw, i: int, seed: int) -> Op:
    """Search fig2 at its capacity 2/5. A found scheme is written to
    ``out_path``; after the measurement it also goes through the entropic
    oracle."""
    out_path = d.path(f"fig2-found-{i}.scheme.json")
    want = {
        "bound": ref.fraction_text(ref.converse_bound(CATALOG_RHO["fig2"])),
        "inst": json.loads(d.cc.catalog.instance_text("fig2")),
        "out_path": out_path,
    }
    argv = ["--json", "search", "fig2", "--p", "3", "--L", "4", "--N", "5", "--Lz", "9"]
    argv += ["--seed", str(seed), "--budget", str(SEARCH_ACHIEVABLE_BUDGET), "-o", out_path]
    return Op(f"fig2-achievable-{i}", argv, "achievable", want)


def check_achievable(rc: int, out: str, want: dict) -> str | None:
    obj = _load(out)
    if obj is None:
        return f"exit {rc}"
    if rc == 1 and obj.get("found") is False:
        return None
    if rc != 0 or obj.get("found") is not True:
        return f"exit {rc}"
    scheme = json.loads(Path(want["out_path"]).read_text(encoding="utf-8"))
    if Fraction(scheme["L"], 2 * scheme["N"]) > Fraction(want["bound"]):
        return f"found rate above the bound {want['bound']}"
    problems = ref.alignment_problems(want["inst"], scheme)
    if problems is None:
        return "found noise precoders are not selection matrices"
    return "; ".join(problems) or None


def plan_search(d: Draw) -> list[Op]:
    ops: list[Op] = []
    for name in SEARCH_CATALOG:
        ops.append(_search_op(f"{name}-above", name, CATALOG_RHO[name], d.rng.randrange(2**31)))
    for i in range(SEARCH_RANDOM):
        side = 5 + i % 2
        shape = ("path", "cycle")[(i // 2) % 2]
        rho_value = SEARCH_RHOS[(i // 4) % len(SEARCH_RHOS)]
        label = f"{shape}-{side}-{i}"
        for _ in range(1000):
            inst, recipe = d.exact_count(side, SEARCH_DENSITY, shape, label)
            if ref.reference_rho(d.data(inst)) == rho_value:
                break
        else:
            raise RuntimeError(f"no {shape} with rho {rho_value} drawn")
        path = d.add_instance(inst, recipe, label)
        ops.append(_search_op(f"{label}-above", path, rho_value, d.rng.randrange(2**31)))
    for i in range(SEARCH_ACHIEVABLE):
        ops.append(_achievable_op(d, i, d.rng.randrange(2**31)))
    return ops


CHECKS = {
    "analyze": check_analyze,
    "synth": check_synth,
    "verify": check_verify,
    "audit": check_audit,
    "simulate": check_simulate,
    "search_above": check_search_above,
    "achievable": check_achievable,
}
PLANS = {
    "analyze": plan_analyze,
    "synth-search": lambda d: plan_synth_verify(d) + plan_search(d),
    "audit": plan_audit,
}


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import cdscover

    d = Draw(cdscover, Path(workdir), random.Random(f"{workload}-{seed}"))
    ops = PLANS[workload](d)
    json.dump({"files": d.files, "ops": [asdict(op) for op in ops]}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
