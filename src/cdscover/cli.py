"""Command-line front end.

Instance and scheme arguments accept either a path to a JSON file or the
name of a catalog fixture. Exit status: 0 on pass/success, 1 on fail/none,
2 on usage or validation errors. Rationals are always printed reduced as
"num/den", never as floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog
from .bounds import classify_linear_capacity, linear_converse_bound, random_scheme_search
from .fields import FieldError
from .graph import CdsInstance, InstanceError, parse_instance, rho, serialize_instance
from .scheme import (
    DEFAULT_ORACLE_BUDGET,
    LinearScheme,
    SchemeError,
    entropic_oracle_all,
    parse_scheme,
    rate,
    serialize_scheme,
    simulate,
    verify_linear,
)
from .synthesis import SynthesisError, render_plan, synthesize_plan

USAGE_ERROR, FAIL, OK = 2, 1, 0


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _load_instance(arg: str) -> CdsInstance:
    path = Path(arg)
    if path.exists():
        return parse_instance(path.read_text(encoding="utf-8"))
    if arg in catalog.INSTANCE_NAMES:
        return catalog.builtin_instance(arg)
    raise InstanceError(f"no such file or catalog instance: {arg}")


def _load_scheme(arg: str) -> LinearScheme:
    path = Path(arg)
    if path.exists():
        return parse_scheme(path.read_text(encoding="utf-8"))
    if arg in catalog.SCHEME_NAMES:
        return catalog.builtin_scheme(arg)
    raise SchemeError(f"no such file or catalog scheme: {arg}")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _witness_json(w) -> dict | None:
    if w is None:
        return None
    return {
        "edge": list(w.edge),
        "path": list(w.path),
        "cover": [list(e) for e in sorted(w.cover)],
        "size": w.size,
    }


def cmd_rho(args) -> int:
    inst = _load_instance(args.instance)
    r = rho(inst)
    if r.is_infinite:
        _emit(args, {"rho": None, "witness": None}, "rho = infinite")
        return OK
    w = r.witness
    text = (
        f"rho = {r.value}\n"
        f"  edge:  {w.edge[0]}-{w.edge[1]}\n"
        f"  path:  {'-'.join(w.path)}\n"
        f"  cover: {', '.join(f'{a}-{b}' for a, b in sorted(w.cover))}"
    )
    _emit(args, {"rho": r.value, "witness": _witness_json(w)}, text)
    return OK


def cmd_bound(args) -> int:
    inst = _load_instance(args.instance)
    bound, witness = linear_converse_bound(inst)
    _emit(
        args,
        {"bound": _frac(bound), "witness": _witness_json(witness)},
        _frac(bound),
    )
    return OK


def cmd_classify(args) -> int:
    inst = _load_instance(args.instance)
    v = classify_linear_capacity(inst)
    text = f"{v.kind} {_frac(v.value)}"
    if v.is_open:
        text += " (open)"
    text += f"\n  {v.reason}"
    _emit(args, v.to_json(), text)
    return OK


def cmd_synth(args) -> int:
    inst = _load_instance(args.instance)
    plan = synthesize_plan(inst)
    scheme = plan.to_scheme()
    report = verify_linear(inst, scheme)
    if not report.overall:  # construction bug; never expected
        print("internal error: synthesized scheme failed verification", file=sys.stderr)
        return FAIL
    out = serialize_scheme(scheme)
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    payload = {
        "rho": plan.rho_value,
        "p": plan.field.p,
        "L": plan.L,
        "N": plan.N,
        "Lz": plan.L_Z,
        "rate": _frac(rate(scheme)),
        "output": args.output,
    }
    text = (
        f"synthesized rate {_frac(rate(scheme))} scheme over F_{plan.field.p} "
        f"(rho={plan.rho_value}, L={plan.L}, N={plan.N}, Lz={plan.L_Z})"
    )
    if args.output:
        text += f"\nwrote {args.output}"
    if args.render:
        text += "\n" + render_plan(plan).rstrip("\n")
        payload["rendering"] = render_plan(plan)
    if not args.output and not args.json and not args.render:
        text += "\n" + out.rstrip("\n")
    _emit(args, payload, text)
    return OK


def cmd_verify(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be non-negative, got {args.budget}")
    inst = _load_instance(args.instance)
    scheme = _load_scheme(args.scheme)
    report = verify_linear(inst, scheme)
    payload = {"linear": report.to_json(), "rate": _frac(rate(scheme))}
    lines = [f"rate {_frac(rate(scheme))}"]
    for rec in report.records:
        mark = "pass" if rec.passed else "FAIL"
        dim = "" if rec.overlap_dim is None else f" overlap={rec.overlap_dim}"
        lines.append(f"  [{mark}] {rec.subject} {rec.kind}{dim}: {rec.detail}")
    ok = report.overall
    lines.append(f"linear verifier: {'pass' if ok else 'FAIL'}")
    if args.entropic:
        results = entropic_oracle_all(inst, scheme, budget=args.budget)
        payload["entropic"] = [r.to_json() for r in results]
        for r in results:
            lines.append(f"  [{r.status}] A{r.edge[0]}-B{r.edge[1]} {r.kind} oracle ({r.states} states) {r.detail}")
        counts = {s: sum(r.status == s for r in results) for s in ("pass", "fail", "not-checked")}
        lines.append("entropic oracle: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
        # an edge the oracle did not check is not a passing edge
        if counts["fail"]:
            verdict = "FAIL"
        elif counts["not-checked"]:
            verdict = f"{counts['not-checked']} edges not checked"
        else:
            verdict = "no failures"
        lines.append(f"entropic oracle: {verdict}")
        ok = ok and counts["pass"] == len(results)
    payload["overall"] = ok
    _emit(args, payload, "\n".join(lines))
    return OK if ok else FAIL


def cmd_search(args) -> int:
    inst = _load_instance(args.instance)
    scheme = random_scheme_search(
        inst,
        p=args.p,
        L=args.L,
        N=args.N,
        L_Z=args.Lz,
        seed=args.seed,
        budget=args.budget,
    )
    if scheme is None:
        _emit(args, {"found": False}, "no scheme found within budget")
        return FAIL
    out = serialize_scheme(scheme)
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    payload = {"found": True, "rate": _frac(rate(scheme)), "output": args.output}
    text = f"found verified rate {_frac(rate(scheme))} scheme"
    if args.output:
        text += f"\nwrote {args.output}"
    else:
        text += "\n" + out.rstrip("\n")
    _emit(args, payload, text)
    return OK


def cmd_simulate(args) -> int:
    inst = _load_instance(args.instance)
    scheme = _load_scheme(args.scheme)
    report = simulate(inst, scheme, seed=args.seed, trials=args.trials)
    lines = [f"trials = {report.trials}"]
    for e in report.edges:
        lines.append(f"  A{e.edge[0]}-B{e.edge[1]} qualified decode frequency {e.success_frequency:.6f}")
    _emit(args, report.to_json(), "\n".join(lines))
    return OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {"instances": list(catalog.INSTANCE_NAMES), "schemes": list(catalog.SCHEME_NAMES)}
        text = "instances:\n" + "\n".join(f"  {n}" for n in catalog.INSTANCE_NAMES)
        text += "\nschemes:\n" + "\n".join(f"  {n}" for n in catalog.SCHEME_NAMES)
        _emit(args, payload, text)
        return OK
    name = args.name
    if name is None:
        print("catalog export needs a fixture name", file=sys.stderr)
        return USAGE_ERROR
    if name in catalog.INSTANCE_NAMES:
        out = serialize_instance(catalog.builtin_instance(name))
    elif name in catalog.SCHEME_NAMES:
        out = serialize_scheme(catalog.builtin_scheme(name))
    else:
        print(f"unknown fixture {name!r}", file=sys.stderr)
        return USAGE_ERROR
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
        _emit(args, {"output": args.output}, f"wrote {args.output}")
    else:
        print(out.rstrip("\n"))
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    ``parse_args`` leaves the parser unchanged and returns a fresh namespace
    with the defaults applied, so one parser serves any number of ``main``
    calls; building it took most of a short command's time.
    """
    parser = argparse.ArgumentParser(
        prog="cdscover",
        description="Covering bounds, synthesis and verification for CDS instances.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="covering parameter rho with witness")
    p.add_argument("instance")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("bound", help="linear converse bound (rho-1)/(2 rho)")
    p.add_argument("instance")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("classify", help="linear capacity classification")
    p.add_argument("instance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("synth", help="synthesize a rate-(rho-1)/(2 rho) scheme")
    p.add_argument("instance")
    p.add_argument("-o", "--output", help="write the scheme JSON here")
    p.add_argument("--render", action="store_true", help="print the symbolic signal assignment")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="verify a scheme against an instance")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--entropic", action="store_true", help="also run the exhaustive entropic oracle")
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET, help="oracle state budget per edge")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="randomized search for a verified scheme")
    p.add_argument("instance")
    p.add_argument("--p", type=int, required=True, help="prime field size")
    p.add_argument("--L", type=int, required=True, help="secret length")
    p.add_argument("--N", type=int, required=True, help="signal length")
    p.add_argument("--Lz", type=int, required=True, help="noise length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1000, help="noise configurations to sample")
    p.add_argument("-o", "--output", help="write the scheme JSON here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", help="Monte Carlo smoke test of a scheme")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("catalog", help="list or export built-in fixtures")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--output", help="write the fixture here instead of stdout")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except SynthesisError as e:
        # unsatisfiable construction preconditions, not bad input
        print(f"cannot synthesize: {e}", file=sys.stderr)
        return FAIL
    except (InstanceError, SchemeError, FieldError, catalog.UnknownFixture, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
