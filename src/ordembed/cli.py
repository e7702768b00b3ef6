"""Command-line front end: realize, verify, induce, gallery, falsify.

JSON is the interchange format throughout; coordinates can additionally be
exported as CSV. Errors are reported as single-line JSON on stderr; main
alone maps a raised error to its exit code. Exit codes per command:

  realize  0 ok, 2 bad input or output, 3 EpsilonExhausted, 4 self-check failed
  verify   0 match, 1 mismatch, 2 bad input
  induce   0 ok, 2 bad input
  gallery  0 ok, 2 bad name, size or output
  falsify  0 feasible, 1 refuted or undecided, 2 bad input or output

Bad input is any other OrdembedError, BadSize for a nonpositive or
non-finite --eta or --epsilon, a --shrink outside (0, 1), a --max-steps
below 1, a negative or non-finite --tol-abs or --tol-rel, a negative
falsify --seed and a --margin or --floor past SHIFT_MAX (1.16e77) or not
finite included; bad output is an OSError on OUT or --csv.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import constructions, counterexamples, orders, schoenberg, verifier
from .constructions import EpsilonSearch
from .counterexamples import FalsifierConfig
from .errors import EpsilonExhausted, OrdembedError
from .orders import OrderSpec


def _diagnose(exc: Exception) -> None:
    print(schoenberg.report_json(
        {"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


def _verify_json(report: verifier.VerifyReport) -> str:
    return schoenberg.report_json({
        "verdict": report.verdict, "margin": report.margin,
        "distinctness": report.distinctness, "witness": report.witness})


def _search_from_flags(spec: OrderSpec, args) -> EpsilonSearch | None:
    given = {name: value for name, value in (
        ("initial", args.epsilon), ("shrink_factor", args.shrink),
        ("max_steps", args.max_steps)) if value is not None}
    if not given:
        return None
    return dataclasses.replace(constructions.default_search(spec), **given)


def cmd_realize(args) -> int:
    spec = orders.load(args.spec)
    # the self-check would refuse them only after OUT is written
    verifier.check_tolerances(args.tol_abs, args.tol_rel)
    report = constructions.realize(spec, eta=args.eta,
                                   search=_search_from_flags(spec, args))
    schoenberg.save_config(report.config, args.out)
    if args.csv:
        schoenberg.write_text(args.csv, ",".join(
            f"x{k + 1}" for k in range(report.config.dim)), "\n",
            schoenberg.format_rows(report.config.rows(), "", "\n", ""))
    check = verifier.verify(report.config, spec, tol_abs=args.tol_abs,
                            tol_rel=args.tol_rel)
    # on a match both are OrderSpec.separation's gap; distances are read once
    margin = check.margin if check.matched else report.margin
    print(schoenberg.report_json({
        "dim": report.config.dim, "epsilon": report.epsilon,
        "margin": margin, "min_eigenvalues": report.min_eigenvalues}))
    if not check.matched:
        _diagnose(OrdembedError(
            f"self-verification failed: {_verify_json(check)}"))
        return 4
    return 0


def cmd_verify(args) -> int:
    spec = orders.load(args.spec)
    config = schoenberg.load_config(args.points)
    report = verifier.verify(config, spec, tol_abs=args.tol_abs,
                             tol_rel=args.tol_rel)
    print(_verify_json(report))
    return 0 if report.matched else 1


def cmd_induce(args) -> int:
    config = schoenberg.load_config(args.points)
    print(orders.to_json(verifier.induced_preorder(
        config, tol_abs=args.tol_abs, tol_rel=args.tol_rel)))
    return 0


def cmd_gallery(args) -> int:
    orders.save(counterexamples.gallery(args.name, args.n), args.out)
    return 0


def cmd_falsify(args) -> int:
    spec = orders.load(args.spec)
    cfg = FalsifierConfig(dim=args.dim, restarts=args.restarts,
                          iters=args.iters, margin=args.margin,
                          floor=args.floor, seed=args.seed)
    report = counterexamples.falsify(spec, cfg)
    line = schoenberg.report_json({
        "feasible": report.feasible, "verdict": report.verdict,
        "best_loss": report.best_loss, "restarts": report.restarts,
        "per_restart_losses": report.per_restart_losses,
        "per_restart_stops": [s._asdict()
                              for s in report.per_restart_stops]})
    schoenberg.write_text(args.out, line, "\n")
    print(line)
    return 0 if report.feasible else 1


def _add_tolerances(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-abs", type=float, default=verifier.TOL_ABS)
    p.add_argument("--tol-rel", type=float, default=verifier.TOL_REL)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: it
    holds no per-call state, since each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="ordembed",
        description="Realize, verify, and probe distance orders.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="spec file -> point configuration")
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.add_argument("--eta", type=float, default=constructions.ETA)
    p.add_argument("--epsilon", type=float, default=None,
                   help="initial perturbation (default 1/(2K))")
    p.add_argument("--shrink", type=float, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    _add_tolerances(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="check points against a spec")
    p.add_argument("spec")
    p.add_argument("points")
    _add_tolerances(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("induce", help="print the order a configuration induces")
    p.add_argument("points")
    _add_tolerances(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("gallery", help="emit a lower-bound order family")
    p.add_argument("name")
    p.add_argument("n", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("falsify", help="stress-test realizability in R^dim")
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=counterexamples.MARGIN)
    p.add_argument("--floor", type=float, default=counterexamples.FLOOR)
    p.set_defaults(func=cmd_falsify)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrdembedError, OSError) as exc:
        _diagnose(exc)
        return 3 if isinstance(exc, EpsilonExhausted) else 2


if __name__ == "__main__":
    sys.exit(main())
