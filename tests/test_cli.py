import json
from fractions import Fraction

import pytest

import cdscover as cc
from cdscover.cli import build_parser, main


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
    uadj = inst.unqualified_adjacency()
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
