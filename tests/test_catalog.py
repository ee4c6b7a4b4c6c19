import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cdscover as cc
from cdscover.fields import FieldMatrix, PrimeField
from cdscover.linalg import rank_rref, rowspace_intersection
from conftest import f_of, h_of


def test_unknown_names_rejected():
    with pytest.raises(cc.catalog.UnknownFixture):
        cc.catalog.builtin_instance("fig99")
    with pytest.raises(cc.catalog.UnknownFixture):
        cc.catalog.builtin_scheme("nope")


def test_every_instance_parses(catalog_instances):
    for name, inst in catalog_instances.items():
        assert inst.name == name
        assert inst.a_count >= 1 and inst.b_count >= 1


def test_fig2_prose_facts(catalog_instances):
    fig2 = catalog_instances["fig2"]
    assert fig2.qualified == frozenset({(1, 1), (3, 3), (4, 1), (4, 2), (4, 3)})
    assert fig2.unqualified == frozenset({(1, 2), (3, 2), (3, 1)})
    r = cc.rho(fig2)
    assert r.value == 5 and r.witness.violations(fig2) == []


def test_fig9_differs_from_fig2_slightly(catalog_instances):
    fig2, fig9 = catalog_instances["fig2"], catalog_instances["fig9"]
    assert fig9.qualified == fig2.qualified
    assert fig9.unqualified - fig2.unqualified == frozenset({(1, 3)})
    assert cc.rho(fig9).value == 5


def test_positive_schemes_verify():
    for name in ("fig5-synth", "fig2-rate-2-5", "fig8-rate-7-18"):
        inst = cc.catalog.builtin_instance(cc.catalog.SCHEME_INSTANCE[name])
        scheme = cc.catalog.builtin_scheme(name)
        assert cc.verify_linear(inst, scheme).overall, name


def test_broken_schemes_fail_both_verifiers():
    inst = cc.catalog.builtin_instance("fig2")
    for name, edge in (("broken-leaky", (3, 2)), ("broken-garbled", (1, 1))):
        scheme = cc.catalog.builtin_scheme(name)
        report = cc.verify_linear(inst, scheme)
        assert not report.overall, name
        subjects = {r.subject for r in report.failures()}
        assert f"A{edge[0]}-B{edge[1]}" in subjects
        assert cc.entropic_oracle_edge(inst, scheme, edge).failed


def test_broken_leaky_fails_on_unqualified_edge():
    inst = cc.catalog.builtin_instance("fig2")
    report = cc.verify_linear(inst, cc.catalog.builtin_scheme("broken-leaky"))
    assert any(r.kind == "unqualified" for r in report.failures())


def test_broken_fig5_scheme_fails_linear():
    inst = cc.catalog.builtin_instance("fig5")
    report = cc.verify_linear(inst, cc.catalog.builtin_scheme("broken-fig5-leaky"))
    assert not report.overall
    assert any(r.kind == "unqualified" for r in report.failures())


def test_scheme_parameters_as_published():
    s2 = cc.catalog.builtin_scheme("fig2-rate-2-5")
    assert (s2.L, s2.N, s2.field.p, s2.L_Z) == (4, 5, 3, 9)
    assert cc.rate(s2) == Fraction(2, 5)
    s8 = cc.catalog.builtin_scheme("fig8-rate-7-18")
    assert (s8.L, s8.N, s8.field.p) == (7, 9, 13)
    assert cc.rate(s8) == Fraction(7, 18)


def _fm(rows, p):
    return FieldMatrix(rows, PrimeField(p))


def test_fig2_scheme_reproduces_published_fragments():
    """The pinned fig2 scheme carries the stated overlap structure.

    A3 and B3 both contain (z1+z2; z4; z5; z8) and their secret rows there
    decode (-s1+s2; s4; s3+s4; s1); on the unqualified A3/B2 edge the
    overlap is (z1+z2; z5) and both project to (s1+s2; s3+s4).
    """
    scheme = cc.catalog.builtin_scheme("fig2-rate-2-5")
    h = {node: FieldMatrix(h_of(scheme, node), scheme.field) for node in ("A3", "B3", "B2")}
    inter = rowspace_intersection(h["A3"], h["B3"])
    frag = _fm(
        [
            [1, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0],
        ],
        3,
    )
    assert inter.basis == rank_rref(frag).rref
    inter2 = rowspace_intersection(h["A3"], h["B2"])
    frag2 = _fm([[1, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, 0]], 3)
    assert inter2.basis == rank_rref(frag2).rref
    assert f_of(scheme, "A3").tolist()[0] == [1, 1, 0, 0]
    assert f_of(scheme, "A3").tolist()[2] == [0, 0, 1, 1]
    assert f_of(scheme, "B2").tolist()[0] == [1, 1, 0, 0]
    assert f_of(scheme, "B2").tolist()[1] == [0, 0, 1, 1]
    diff = (FieldMatrix(f_of(scheme, "A3"), scheme.field) - FieldMatrix(f_of(scheme, "B3"), scheme.field)).to_lists()
    assert diff[0] == [2, 1, 0, 0]  # -s1+s2 over F_3
    assert diff[1] == [0, 0, 0, 1]
    assert diff[2] == [0, 0, 1, 1]
    assert diff[3] == [1, 0, 0, 0]


def test_fig8_scheme_noise_structure():
    """Unit noise symbols; every qualified edge shares exactly seven."""
    inst = cc.catalog.builtin_instance("fig8")
    scheme = cc.catalog.builtin_scheme("fig8-rate-7-18")
    assert scheme.L_Z == 13
    atoms = {}
    for node in inst.nodes():
        h = h_of(scheme, node)
        assert sorted(h.sum(axis=1)) == [1] * 9  # one unit per row
        atoms[node] = {int(c) for c in h.argmax(axis=1)}
    for x, y in inst.qualified:
        assert len(atoms[f"A{x}"] & atoms[f"B{y}"]) == 7


def test_export_texts_roundtrip():
    for name in cc.catalog.INSTANCE_NAMES:
        text = cc.catalog.instance_text(name)
        assert cc.parse_instance(text) == cc.catalog.builtin_instance(name)
    for name in cc.catalog.SCHEME_NAMES:
        text = cc.catalog.scheme_text(name)
        assert cc.parse_scheme(text) == cc.catalog.builtin_scheme(name)


def test_build_fixtures_reproduces_data(tmp_path):
    # fig5-synth is built from rho
    root = Path(__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, str(root / "scripts" / "build_fixtures.py"), str(tmp_path)],
        check=True,
        capture_output=True,
    )
    data = root / "src" / "cdscover" / "data"
    built = sorted(p.name for p in tmp_path.iterdir())
    assert built == sorted(p.name for p in data.glob("scheme-*.json"))
    for name in built:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name


def test_build_fixtures_refuses_a_missing_directory(tmp_path):
    missing = tmp_path / "missing"
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "build_fixtures.py"), str(missing)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""  # refused before any fixture was built
    assert proc.stderr.count("\n") == 1 and str(missing) in proc.stderr
    assert not missing.exists()
