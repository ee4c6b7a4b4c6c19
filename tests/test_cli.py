import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cdscover as cc
from cdscover.cli import build_parser, main
from conftest import set_adjacency, tiny_oracle_instances


def _write_fixture(tmp_path, kind, name):
    path = tmp_path / f"{name}.json"
    if kind == "instance":
        path.write_text(cc.catalog.instance_text(name), encoding="utf-8")
    else:
        path.write_text(cc.catalog.scheme_text(name), encoding="utf-8")
    return str(path)


def test_bound_prints_reduced_fraction(tmp_path, capsys):
    fig2 = _write_fixture(tmp_path, "instance", "fig2")
    assert main(["bound", fig2]) == 0
    assert capsys.readouterr().out.strip() == "2/5"


def test_rho_prints_witness(capsys):
    assert main(["rho", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "rho = 5" in out and "A1-B1" in out


def test_rho_json_schema(capsys):
    assert main(["--json", "rho", "fig5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == 6
    assert payload["witness"]["size"] == 6


def test_classify_flags_open(capsys):
    assert main(["classify", "fig9"]) == 0
    assert "(open)" in capsys.readouterr().out


def test_synth_verify_pipeline(tmp_path, capsys):
    fig5 = _write_fixture(tmp_path, "instance", "fig5")
    out = str(tmp_path / "scheme.json")
    assert main(["synth", fig5, "-o", out]) == 0
    capsys.readouterr()
    assert main(["verify", fig5, out]) == 0
    capsys.readouterr()
    # emitted scheme round-trips through the documented format
    scheme = cc.parse_scheme((tmp_path / "scheme.json").read_text(encoding="utf-8"))
    assert cc.rate(scheme).numerator == 5


def test_synth_render(capsys):
    assert main(["synth", "fig5", "--render"]) == 0
    out = capsys.readouterr().out
    assert "component 1 (path)" in out and "A1: (" in out


def test_synth_refuses_non_path_cycle(capsys):
    assert main(["synth", "fig2"]) == 1
    assert "neither a path nor a cycle" in capsys.readouterr().err


def test_verify_broken_fixture_names_edge(tmp_path, capsys):
    fig5 = _write_fixture(tmp_path, "instance", "fig5")
    broken = _write_fixture(tmp_path, "scheme", "broken-fig5-leaky")
    assert main(["verify", fig5, broken]) == 1
    out = capsys.readouterr().out
    assert "A1-B2" in out and "FAIL" in out


def test_verify_entropic_flag(capsys):
    assert main(["verify", "fig2", "fig2-rate-2-5", "--entropic"]) == 0
    out = capsys.readouterr().out
    assert "entropic oracle: no failures" in out
    assert main(["verify", "fig2", "broken-leaky", "--entropic"]) == 1


def test_verify_entropic_unchecked_edges_fail(capsys):
    # a budget of one state checks no edge, and that is not a pass
    assert main(["verify", "fig2", "fig2-rate-2-5", "--entropic", "--budget", "1"]) == 1
    out = capsys.readouterr().out
    assert "entropic oracle: 0 pass, 0 fail, 8 not-checked" in out
    assert "no failures" not in out
    assert main(["--json", "verify", "fig2", "fig2-rate-2-5", "--entropic", "--budget", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["overall"] is False
    assert main(["verify", "fig2", "fig2-rate-2-5", "--entropic", "--budget", "-1"]) == 2
    assert "--budget" in capsys.readouterr().err


def _passes(edges, kind, states):
    return [{"edge": e, "kind": kind, "status": "pass", "states": states, "detail": "", "counterexample": None} for e in edges]


LEAK_DETAIL = "signal pair counts differ across secrets"
PINNED_FAILURES = {
    "broken-leaky": _passes([[1, 1]], "qualified", 531441)
    + _passes([[3, 3]], "qualified", 177147)
    + _passes([[4, 1]], "qualified", 531441)
    + _passes([[4, 2], [4, 3]], "qualified", 177147)
    + _passes([[1, 2]], "unqualified", 1594323)
    + [
        {
            "edge": [3, y],
            "kind": "unqualified",
            "status": "fail",
            "states": 1594323,
            "detail": LEAK_DETAIL,
            "counterexample": {
                "signals": {"A3": [0] * 5, f"B{y}": [0] * 5},
                "secret_low": [1, 0, 0, 0],
                "count_low": 0,
                "secret_high": [0, 0, 0, 0],
                "count_high": 3,
            },
        }
        for y in (1, 2)
    ],
    "broken-garbled": [
        {
            "edge": [1, 1],
            "kind": "qualified",
            "status": "fail",
            "states": 531441,
            "detail": "a signal pair is consistent with more than one secret",
            "counterexample": {"signals": {"A1": [0] * 5, "B1": [0] * 5}, "secrets": [[0, 0, 0, 0], [1, 0, 0, 1]]},
        }
    ]
    + _passes([[3, 3]], "qualified", 177147)
    + _passes([[4, 1]], "qualified", 531441)
    + _passes([[4, 2], [4, 3]], "qualified", 177147)
    + _passes([[1, 2], [3, 1], [3, 2]], "unqualified", 1594323),
}


@pytest.mark.parametrize("scheme", sorted(PINNED_FAILURES))
def test_entropic_failures_are_pinned(scheme, capsys):
    # every edge's status, state count, detail and counterexample: any way of
    # building the signal keys must reproduce them exactly
    assert main(["--json", "verify", "fig2", scheme, "--entropic"]) == 1
    assert json.loads(capsys.readouterr().out)["entropic"] == PINNED_FAILURES[scheme]


def test_verify_json_roundtrip(capsys):
    assert main(["--json", "verify", "fig2", "fig2-rate-2-5", "--entropic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] is True
    assert payload["rate"] == "2/5"
    assert all(r["status"] == "pass" for r in payload["entropic"])


def test_search_cli_success(tmp_path, capsys):
    out = str(tmp_path / "found.json")
    code = main(
        ["search", "fig2", "--p", "3", "--L", "4", "--N", "5", "--Lz", "9", "--seed", "0", "--budget", "2000", "-o", out]
    )
    assert code == 0
    scheme = cc.parse_scheme((tmp_path / "found.json").read_text(encoding="utf-8"))
    assert cc.verify_linear(cc.catalog.builtin_instance("fig2"), scheme).overall


def test_search_cli_failure_exit(capsys):
    code = main(["search", "fig2", "--p", "3", "--L", "1", "--N", "1", "--Lz", "2", "--budget", "50"])
    assert code == 1


def test_simulate_cli(capsys):
    assert main(["simulate", "fig2", "fig2-rate-2-5", "--trials", "200", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per qualified edge; unqualified edges are not simulated
    assert lines[0] == "trials = 200" and len(lines) == 6
    assert all(line.endswith("qualified decode frequency 1.000000") for line in lines[1:])


def test_simulate_negative_trials_exit_2(capsys):
    assert main(["simulate", "fig2", "fig2-rate-2-5", "--trials", "-3"]) == 2
    assert "trial count must be non-negative, got -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "fig2", "--p", "3", "--L", "1", "--N", "2", "--Lz", "3"],
        # N > L_Z: refused before the search gives up without a draw
        ["search", "fig2", "--p", "3", "--L", "1", "--N", "5", "--Lz", "3"],
        # no trials: refused before the empty report
        ["simulate", "fig2", "fig2-rate-2-5", "--trials", "0"],
        ["simulate", "fig2", "fig2-rate-2-5", "--trials", "3"],
    ],
    ids=["search", "search-N-above-Lz", "simulate-0-trials", "simulate"],
)
def test_negative_seed_exits_2(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be non-negative, got -1\n")


def test_simulate_100k_trials_is_pinned_and_bounded(capsys):
    # seven blocks of trials; drawing all of S and Z and decoding them at
    # once peaked at 222.8 MiB of traced allocations
    tracemalloc.start()
    try:
        assert main(["--json", "simulate", "fig8", "fig8-rate-7-18", "--trials", "100000", "--seed", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    edges = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 3), (4, 4)]
    assert json.loads(capsys.readouterr().out) == {
        "trials": 100000,
        "seed": 0,
        "edges": [
            {
                "edge": [x, y],
                "kind": "qualified",
                "trials": 100000,
                "decode_successes": 100000,
                "decodable": True,
                "success_frequency": 1.0,
            }
            for x, y in edges
        ],
    }


def _tiny_files(tmp_path, scheme):
    """A 2x1 instance with both edges qualified, and ``scheme`` on it."""
    inst = tmp_path / "tiny.json"
    tiny = cc.CdsInstance("tiny", 2, 1, frozenset({(1, 1), (2, 1)}), frozenset())
    inst.write_text(cc.serialize_instance(tiny), encoding="utf-8")
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme), encoding="utf-8")
    return str(inst), str(path)


def test_zero_n_exits_2(tmp_path, capsys):
    nodes = {node: {"F": [], "H": []} for node in ("A1", "A2", "B1")}
    inst, scheme = _tiny_files(tmp_path, {"p": 3, "L": 1, "Lz": 1, "N": 0, "nodes": nodes})
    for cmd in ("verify", "simulate"):
        assert main([cmd, inst, scheme]) == 2
        assert capsys.readouterr().err == "error: field 'N' must be positive, got 0\n"


@pytest.mark.parametrize("key", ["L", "Lz"])
def test_negative_length_exits_2(tmp_path, capsys, key):
    nodes = {node: {"F": [[1]], "H": [[1]]} for node in ("A1", "A2", "B1")}
    inst, scheme = _tiny_files(tmp_path, {"p": 3, "L": 1, "Lz": 1, "N": 1, "nodes": nodes, key: -1})
    for cmd in ("verify", "simulate"):
        assert main([cmd, inst, scheme]) == 2
        assert capsys.readouterr().err == f"error: field '{key}' must be non-negative, got -1\n"


# L = 0: there is no secret to miss, so every edge decodes
NO_SECRET = {"p": 2, "L": 0, "Lz": 1, "N": 1, "nodes": {v: {"F": [[]], "H": [[1]]} for v in ("A1", "A2", "B1")}}
# L_Z = 0: A1 sends s, A2 and B1 send 0, so only the pair A1-B1 reveals s
NO_NOISE = {
    "p": 3,
    "L": 1,
    "Lz": 0,
    "N": 1,
    "nodes": {v: {"F": [[f]], "H": [[]]} for v, f in (("A1", 1), ("A2", 0), ("B1", 0))},
}


@pytest.mark.parametrize("scheme, successes", [(NO_SECRET, [7, 7]), (NO_NOISE, [7, 0])], ids=["no-secret", "no-noise"])
def test_simulate_without_secret_or_noise_is_pinned(tmp_path, capsys, scheme, successes):
    inst, path = _tiny_files(tmp_path, scheme)
    assert main(["--json", "simulate", inst, path, "--trials", "7", "--seed", "1"]) == 0
    edges = [
        {
            "edge": [x, 1],
            "kind": "qualified",
            "trials": 7,
            "decode_successes": n,
            "decodable": n == 7,
            "success_frequency": n / 7,
        }
        for x, n in zip((1, 2), successes)
    ]
    assert json.loads(capsys.readouterr().out) == {"trials": 7, "seed": 1, "edges": edges}


def test_catalog_list_and_export(tmp_path, capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "broken-leaky" in out
    target = str(tmp_path / "fig8.json")
    assert main(["catalog", "export", "fig8", "-o", target]) == 0
    exported = cc.parse_instance((tmp_path / "fig8.json").read_text(encoding="utf-8"))
    assert exported == cc.catalog.builtin_instance("fig8")


def test_usage_errors_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["catalog", "export", "doesnotexist"]) == 2
    assert main(["bound", "missing-file.json"]) == 2
    for removed in ("--threads", "--force-exact", "--max-path-len"):
        assert main(["rho", "fig2", removed]) == 2



@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "{dir}"],
        ["verify", "fig2", "{dir}"],
        ["synth", "fig5", "-o", "{dir}/missing/x.json"],
        ["catalog", "export", "fig2", "-o", "{dir}/missing/x.json"],
    ],
)
def test_unreadable_or_unwritable_paths_exit_2(tmp_path, capsys, argv):
    # a directory given as an input file, or an output under a missing
    # directory, is refused like any other bad argument, not a traceback
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")

def test_reused_parser_matches_lone_calls(tmp_path, capsys):
    # each call in the sequence would see the one before it if options
    # leaked between calls: --json, --budget or --seed sticking, or a
    # usage error leaving state behind
    inst = cc.catalog.builtin_instance("matching2")
    found = cc.random_scheme_search(inst, p=3, L=1, N=2, L_Z=2, seed=0, budget=50)
    scheme = tmp_path / "m2.json"
    scheme.write_text(cc.serialize_scheme(found), encoding="utf-8")
    search = ["search", "matching2", "--p", "3", "--L", "1", "--N", "2", "--Lz", "2", "--budget", "50"]
    calls = [
        ["rho"],
        ["--json", "rho", "fig2"],
        ["rho", "fig2"],
        ["verify", "matching2", str(scheme), "--entropic", "--budget", "3"],
        ["verify", "matching2", str(scheme), "--entropic"],
        search + ["--seed", "1"],
        search,
    ]

    def lone(argv):
        build_parser.cache_clear()
        return main(argv), capsys.readouterr()

    expected = [lone(argv) for argv in calls]
    assert [code for code, _ in expected] == [2, 0, 0, 1, 0, 0, 0]
    assert expected[1][1].out != expected[2][1].out
    assert expected[3][1].out != expected[4][1].out
    assert expected[5][1].out != expected[6][1].out
    build_parser.cache_clear()
    parser = build_parser()
    for argv, (code, captured) in zip(calls, expected):
        assert main(argv) == code, argv
        assert capsys.readouterr() == captured, argv
    assert build_parser() is parser


def test_verify_rejects_unknown_scheme_nodes(tmp_path, capsys):
    obj = json.loads(cc.catalog.scheme_text("fig2-rate-2-5"))
    obj["nodes"]["A9"] = obj["nodes"]["Q"] = obj["nodes"]["A1"]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "fig2", str(path)]) == 2
    err = capsys.readouterr().err
    assert "A9" in err and "Q" in err and "not nodes of 'fig2'" in err


def test_verify_rejects_non_string_scheme_name(tmp_path, capsys):
    obj = json.loads(cc.catalog.scheme_text("fig2-rate-2-5"))
    obj["name"] = ["n", {"k": [1]}]
    path = tmp_path / "named.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "fig2", str(path)]) == 2
    assert "field 'name' must be a string" in capsys.readouterr().err


def test_moduli_past_int64_products_exit_2(tmp_path, capsys):
    # at this prime, [[p-1]*4] @ [[p-1]]*4 wraps int64 and reads 581896576 mod p, not 4
    p = 3037000493
    scheme = {"p": p, "L": 4, "Lz": 1, "N": 1, "nodes": {"A1": {"F": [[p - 1] * 4], "H": [[1]]}}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scheme), encoding="utf-8")
    assert main(["verify", "fig2", str(path)]) == 2
    assert "overflow int64" in capsys.readouterr().err
    assert main(["search", "fig2", "--p", str(p), "--L", "4", "--N", "1", "--Lz", "1"]) == 2
    assert "overflow int64" in capsys.readouterr().err


def test_search_draws_too_large_to_allocate_exit_2(capsys):
    # the first draw asks for a (7, 10**16) float64 block, 497 PiB: more than
    # any 64-bit address space maps, so numpy's MemoryError comes at once on
    # every host, whatever its overcommit policy
    assert main(["search", "fig2", "--p", "3", "--L", "1", "--N", "1", "--Lz", str(10**16)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_ragged_precoder_rows_exit_2(tmp_path, capsys):
    obj = json.loads(cc.catalog.scheme_text("fig2-rate-2-5"))
    obj["nodes"]["B3"]["H"][1].append(0)
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "fig2", str(path)]) == 2
    assert capsys.readouterr().err == "error: H_B3 must be a rectangular list of rows\n"


def test_malformed_instance_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["bound", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def _cycle_arc_rho(inst):
    """rho of a single qualified cycle by scanning its arcs: the connected
    edge sets of a cycle are its arcs and the whole cycle."""
    (comp,) = cc.qualified_components(inst)
    t, n = comp.traversal, len(comp.traversal)
    uadj = set_adjacency(inst, inst.unqualified)
    for k in range(1, n + 1):
        for i in range(n):
            nodes = {t[(i + j) % n] for j in range(min(k + 1, n))}
            for j in range(k):
                u, v = t[(i + j) % n], t[(i + j + 1) % n]
                seen, stack = {u}, [u]
                while stack:
                    for nb in uadj[stack.pop()] & nodes - seen:
                        seen.add(nb)
                        stack.append(nb)
                if v in seen:
                    return k
    return None


def test_rho_on_a_thousand_node_random_cycle():
    # one qualified component of 1000 nodes, so every node's component label
    # in rho is a 1000-bit mask
    inst = cc.random_instance(1, 500, 500, "cycle", 0.05)
    r = cc.rho(inst)
    assert r.value == _cycle_arc_rho(inst)
    assert r.witness.violations(inst) == []


def test_large_cycle_rho_bound_classify(tmp_path, capsys):
    # 24 qualified edges: more than any exhaustive cover search handles
    inst = cc.random_instance(2, 12, 12, "cycle", 0.1)
    path = tmp_path / "cycle.json"
    path.write_text(cc.serialize_instance(inst), encoding="utf-8")
    expected = _cycle_arc_rho(inst)
    assert expected is not None
    assert main(["--json", "rho", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == expected
    w = payload["witness"]
    witness = cc.CoverWitness(tuple(w["edge"]), tuple(w["path"]), frozenset(tuple(e) for e in w["cover"]))
    assert witness.size == expected and witness.violations(inst) == []
    bound = Fraction(expected - 1, 2 * expected)
    assert main(["bound", str(path)]) == 0
    assert capsys.readouterr().out.strip() == f"{bound.numerator}/{bound.denominator}"
    assert main(["--json", "classify", str(path)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["kind"] == "exact"
    assert verdict["value"] == f"{bound.numerator}/{bound.denominator}"


def _synthesized_unions():
    """Seeded unions of 3-4 random path/cycle instances that synthesize."""
    out = []
    seed = 0
    while len(out) < 4:
        seed += 1
        parts = []
        for k in range(3 + seed % 2):
            s = 100 * seed + k
            shape = ("path", "cycle")[s % 2]
            side = 3 + s % 3
            parts.append(cc.random_instance(s, side, side, shape, (0.2, 0.4)[seed % 2]))
        inst = parts[0]
        for k, part in enumerate(parts[1:]):
            inst = cc.disjoint_union(inst, part, cross_density=0.05 * (seed % 3), seed=seed + k)
        try:
            scheme = cc.synthesize(inst)
        except cc.synthesis.SynthesisError:
            continue
        out.append((inst, scheme))
    return out


def _perturbed(scheme, seed):
    """The scheme with one secret entry bumped, and with one noise precoder
    made rank-deficient (its first row copied onto its last)."""
    nodes = sorted(scheme.precoders)
    node = nodes[seed % len(nodes)]
    f, h = scheme.precoders[node]
    bumped = f.array.copy()
    bumped[seed % scheme.N, seed % scheme.L] += 1
    low = h.array.copy()
    low[-1] = low[0]
    variants = []
    for pair in ((cc.FieldMatrix(bumped, f.field), h), (f, cc.FieldMatrix(low, h.field))):
        precoders = dict(scheme.precoders)
        precoders[node] = pair
        variants.append(cc.LinearScheme(scheme.field, scheme.L, scheme.L_Z, scheme.N, precoders, scheme.name))
    return variants


def test_verify_output_is_pinned(tmp_path, capsys):
    # one sha256 over the exit code and --json stdout of verify on every
    # catalog instance/scheme pair (mismatched pairs exit 2) and on the
    # synthesized schemes of seeded 3-4 component unions, each also with a
    # bumped secret entry and with a rank-deficient noise precoder; pinned
    # from the verifier that checks every edge as rank(W F), W a basis of
    # the left null space of the edge's noise stack, whatever its rank
    calls = [[inst, name] for inst in cc.catalog.INSTANCE_NAMES for name in cc.catalog.SCHEME_NAMES]
    for i, (inst, scheme) in enumerate(_synthesized_unions()):
        inst_path = tmp_path / f"union{i}.json"
        inst_path.write_text(cc.serialize_instance(inst), encoding="utf-8")
        for j, variant in enumerate([scheme] + _perturbed(scheme, i)):
            scheme_path = tmp_path / f"union{i}-{j}.json"
            scheme_path.write_text(cc.serialize_scheme(variant), encoding="utf-8")
            calls.append([str(inst_path), str(scheme_path)])
    h = hashlib.sha256()
    codes = []
    for inst, scheme in calls:
        codes.append(main(["--json", "verify", inst, scheme]))
        h.update(f"{codes[-1]}\0{capsys.readouterr().out}\0".encode())
    assert codes.count(0) >= 4 and codes.count(1) >= 8 and codes.count(2) >= 1
    assert h.hexdigest() == "4c8aabe51e25c6fd64d78e678495a465f74b1be42dbd49661a56f5e08c5254bb"


def test_synth_render_output_is_pinned(tmp_path, capsys):
    # one sha256 over the stdout of synth --render, as text and as --json,
    # on fig5 and on the seeded unions above; pinned from the construction
    # that kept noise layouts and coefficient tables apart
    calls = ["fig5"]
    for i, (inst, _) in enumerate(_synthesized_unions()):
        inst_path = tmp_path / f"union{i}.json"
        inst_path.write_text(cc.serialize_instance(inst), encoding="utf-8")
        calls.append(str(inst_path))
    h = hashlib.sha256()
    for inst in calls:
        for argv in (["synth", inst, "--render"], ["--json", "synth", inst, "--render"]):
            assert main(argv) == 0
            h.update(f"{capsys.readouterr().out}\0".encode())
    assert h.hexdigest() == "56a0ac2366553cf7f7846a4dbcc859536a88b9e9cb3c74275881127bc5d4936a"


def _oracle_corpus():
    """Seeded schemes on the tiny oracle instances for p in {2, 3, 5, 257},
    every edge within the default oracle budget. N runs up to widths where
    p^(2N) >= 2^62; noise is sparse, and each node's secret is random, zero
    or masked by its noise (F = H @ mix), so both kinds of edge pass and fail."""
    rng = np.random.default_rng(1019)
    out = []
    for p, widths in ((2, (1, 2, 31)), (3, (1, 3, 20)), (5, (2, 14)), (257, (1, 4))):
        field = cc.PrimeField(p)
        for N in widths:
            for i, inst in enumerate(tiny_oracle_instances()):
                L, L_Z = (1, 1) if p == 257 else (1 + (N + i) % 2, 2 + i % 2)
                mix = rng.integers(0, p, size=(L_Z, L))
                precoders = {}
                for k, node in enumerate(inst.nodes()):
                    h = rng.integers(0, p, size=(N, L_Z)) * (rng.random((N, L_Z)) < 0.6)
                    f = [rng.integers(0, p, size=(N, L)), np.zeros((N, L), dtype=np.int64), h @ mix % p][(i + k) % 3]
                    precoders[node] = (cc.FieldMatrix(f, field), cc.FieldMatrix(h, field))
                out.append((inst, cc.LinearScheme(field, L, L_Z, N, precoders, f"p{p}-N{N}-{inst.name}")))
    return out


def test_entropic_output_is_pinned(tmp_path, capsys):
    # one sha256 over the exit code and --json stdout of verify --entropic on
    # fig2 with its three schemes and on the seeded corpus above; pinned
    # from the oracle that counted signal pairs by sorting the key grid
    calls = [["fig2", name] for name in ("fig2-rate-2-5", "broken-leaky", "broken-garbled")]
    for i, (inst, scheme) in enumerate(_oracle_corpus()):
        inst_path, scheme_path = tmp_path / f"inst{i}.json", tmp_path / f"scheme{i}.json"
        inst_path.write_text(cc.serialize_instance(inst), encoding="utf-8")
        scheme_path.write_text(cc.serialize_scheme(scheme), encoding="utf-8")
        calls.append([str(inst_path), str(scheme_path)])
    h = hashlib.sha256()
    failed = {"qualified": 0, "unqualified": 0}
    for inst, scheme in calls:
        code = main(["--json", "verify", inst, scheme, "--entropic"])
        out = capsys.readouterr().out
        h.update(f"{code}\0{out}\0".encode())
        for r in json.loads(out)["entropic"]:
            assert r["status"] in ("pass", "fail")
            failed[r["kind"]] += r["status"] == "fail"
    assert min(failed.values()) >= 5
    assert h.hexdigest() == "c82b8149935a69771b4a2c11608172d5fe0a33206110f13ea330cb2c99f7abc7"
