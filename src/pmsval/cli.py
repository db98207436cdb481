"""Command-line front end.

Reads a JSON problem file, dispatches to the engines and writes a JSON
report (sorted keys, so identical inputs give byte-identical outputs).
Exit codes: 0 success, 1 negative outcome (oracle disagreement, failed
probe), 2 schema error (an input file that cannot be read, or an output
file that cannot be written, included), 3 invariant violation, 4
indeterminate, 5 internal error (any other exception: a fault in pmsval,
reported as JSON with the traceback on stderr).  When the report itself
cannot be written to --out, the schema error report goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources
from typing import Optional

from . import engine, jsonio, oracle, ranktree, sequences
from .errors import (IndeterminateError, InvariantError, PmsvalError,
                     SchemaError)
from .groups import Value
from .jsonio import Problem
from .sequences import PmsKind

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_INDETERMINATE = 4
EXIT_INTERNAL = 5


def _load_problem(name: str) -> Problem:
    """The problem in the file name, read as UTF-8, or else the bundled
    problem of that name."""
    try:
        with open(name, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:  # a ValueError, so it comes first
        raise SchemaError(f"cannot read problem file {name}: {exc}")
    except (FileNotFoundError, NotADirectoryError, ValueError):
        # No file has this name (a NUL byte names none at all).
        bundled = resources.files("pmsval").joinpath("problems", name)
        if not bundled.is_file():
            raise SchemaError(
                f"no such problem file or bundled problem: {name}") from None
        text = bundled.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read problem file {name}: "
                          f"{exc.strerror or exc}")
    return jsonio.loads_problem(text)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}")


def _require(problem: Problem, attr: str):
    value = getattr(problem, attr)
    if value is None or value == ():
        raise SchemaError(f"this command needs a '{attr}' section in the input")
    return value


# ---------------------------------------------------------------------------
# Report builders


def _supinf_dict(E: sequences.PmsDescriptor) -> dict:
    """sup of the distance values of a pcs, inf of those of a pds, read in
    the completion from the cut: the chain constants, then the bound (or the
    infinity on the chain's side), padded with the opposite infinity."""
    cut, n = E.cut, E.group.rank()
    infinity = {1: "inf", -1: "-inf"}
    value = [jsonio.encode_exact(c) for c in cut.constants]
    value.append(infinity[E.sign] if cut.r is None
                 else jsonio.encode_exact(cut.r))
    value += [infinity[-E.sign]] * (n - len(value))
    return {"value": value, "in_group": cut.in_group(n)}


def _rank_dict(result: ranktree.RankResult, E) -> dict:
    out = {
        "input_rank": result.input_rank,
        "output_rank": result.output_rank,
        "rank_delta": result.delta,
        "extended_group": jsonio.encode_group(result.extended_group),
        "extended_group_label": result.extended_group.label(),
        "group_note": result.group_note,
        "alpha": (jsonio.encode_value(result.alpha)
                  if result.alpha is not None else None),
        "trace": ([{"level": lvl, "branch": br.value}
                   for lvl, br in result.trace.steps]
                  if result.trace is not None else None),
        "leaf": (("rank+1" if result.trace.rank_delta else "rank-same")
                 if result.trace is not None else None),
    }
    if result.alpha is not None:
        out["sup" if E.sign > 0 else "inf"] = _supinf_dict(E)
    return out


def _extension_dict(rep: engine.ExtensionReport) -> dict:
    return {
        "extension_kind": rep.extension_kind,
        "pure": rep.pure,
        "ic_label": rep.ic_label,
        "pair": ({"point": rep.pair.point,
                  "alpha": jsonio.encode_value(rep.pair.alpha),
                  "minimal": True}
                 if rep.pair is not None else None),
        "key_polynomials": rep.key_poly_sketch,
    }


def cmd_classify(problem: Problem) -> tuple[dict, int]:
    report: dict = {"command": "classify"}
    kind = None
    if problem.configuration is not None:
        kind, prefix = problem.configuration.classification
        report["kind"] = kind.value
        report["delta_prefix"] = [jsonio.encode_value(v) for v in prefix]
    E = problem.sequence
    if E is not None:
        report["declared_kind"] = E.kind.value
        if kind is not None:
            sequences.check_configuration(E, problem.configuration)
            for nu, (got, declared) in enumerate(zip(prefix, E.prefix or ())):
                if got != declared:
                    raise InvariantError(
                        f"configuration distance {nu} is {got}, declared "
                        f"prefix says {declared}")
        report.setdefault("kind", E.kind.value)
        if E.prefix:
            report.setdefault("delta_prefix",
                              [jsonio.encode_value(v) for v in E.prefix])
        report["is_cauchy"] = report["diverges_to_infinity"] = None
        if E.kind is not PmsKind.PCTS:
            key = "is_cauchy" if E.sign > 0 else "diverges_to_infinity"
            report[key] = sequences.cofinal(E)
        report["extension"] = _extension_dict(engine.extension_report(E))
    if kind is None and E is None:
        raise SchemaError("classify needs a configuration or a sequence")
    return report, EXIT_OK


def cmd_ve(problem: Problem) -> tuple[dict, int]:
    E = _require(problem, "sequence")
    functions = _require(problem, "functions")
    rank_result = ranktree.rank_of_vE(E)
    out = []
    for phi in functions:
        iv = engine.v_e(phi, E, rank_result)
        out.append({
            "dominating_degree": iv.form.degree,
            "beta": jsonio.encode_value(iv.form.beta),
            "value": jsonio.encode_value(iv.value),
            "in_vk": not iv.over_extended,
            "in_rational_hull_of_vk": not iv.over_extended,
            "over_extended_group": iv.over_extended,
        })
    report = {"command": "ve", "functions": out}
    if rank_result.alpha is not None:
        report["extended_group"] = jsonio.encode_group(rank_result.extended_group)
    return report, EXIT_OK


def cmd_rank(problem: Problem, dot: Optional[str] = None) -> tuple[dict, int]:
    E = _require(problem, "sequence")
    result = ranktree.rank_of_vE(E)
    report = {"command": "rank", **_rank_dict(result, E)}
    if dot:
        _write_file(dot, ranktree.tree_dot(E.kind, E.group.rank(),
                                           result.trace))
        report["dot"] = dot
    return report, EXIT_OK


def cmd_sup(problem: Problem) -> tuple[dict, int]:
    E = _require(problem, "sequence")
    report: dict = {"command": "sup"}
    if E.kind is PmsKind.PCTS:
        d = {"value": jsonio.encode_value(E.pcts_delta), "in_group": True}
        report["sup"] = report["inf"] = d
    else:
        key = "sup" if E.sign > 0 else "inf"
        report[key] = _supinf_dict(E)
    return report, EXIT_OK


def _fit_dict(fit: Optional[engine.DominatingForm]) -> dict:
    if fit is None:
        return {"kind": "inconsistent", "degree": None, "beta": None}
    return {"kind": "constant" if fit.degree == 0 else "affine",
            "degree": fit.degree, "beta": jsonio.encode_value(fit.beta)}


def cmd_oracle_check(problem: Problem,
                     tail_window: Optional[int] = None) -> tuple[dict, int]:
    if tail_window is not None and tail_window < 2:
        raise SchemaError(
            f"--tail-window must be at least 2, got {tail_window}")
    section = _require(problem, "oracle")
    if not section.functions:
        raise SchemaError("oracle section lists no functions to check")
    reports = oracle.cross_check(section.field, section.terms,
                                 section.functions, problem.sequence,
                                 tail_window)
    results = [{
        "agree": rep.agree,
        "kind": rep.kind.value,
        "delta_prefix": [jsonio.encode_value(v) for v in rep.delta_prefix],
        "fit": _fit_dict(rep.fit),
        "tagged": {"degree": rep.tagged_form.degree,
                   "beta": jsonio.encode_value(rep.tagged_form.beta)},
        "mismatches": list(rep.mismatches),
    } for rep in reports]
    all_agree = all(rep.agree for rep in reports)
    report = {"command": "oracle-check", "all_agree": all_agree,
              "functions": results}
    return report, EXIT_OK if all_agree else EXIT_NEGATIVE


def cmd_probe(problem: Problem,
              probes_file: Optional[str] = None) -> tuple[dict, int]:
    E = _require(problem, "sequence")
    result = ranktree.rank_of_vE(E)
    if result.alpha is None:
        raise IndeterminateError(
            "no alpha to probe: the sequence leaves the value group unchanged")
    probes: Optional[tuple[Value, ...]] = problem.probes
    if probes_file:
        extra = _load_problem(probes_file)
        probes = extra.probes if extra.probes is not None else probes
    outcome = (ranktree.check_alpha(E, result, list(probes)) if probes
               else result.alpha_check)
    past = ">" if E.sign > 0 else "<"
    report = {
        "command": "probe",
        "contract": f"beta {past} alpha iff beta {past} every delta",
        "alpha": jsonio.encode_value(result.alpha),
        "holds": outcome.holds,
        "probes_checked": outcome.checked,
        "counterexample": (jsonio.encode_value(outcome.counterexample)
                           if outcome.counterexample is not None else None),
        "auto_probes": not probes,
    }
    return report, EXIT_OK if outcome.holds else EXIT_NEGATIVE


def cmd_leaves(levels: int, kind: str, dot: Optional[str] = None
               ) -> tuple[dict, int]:
    shapes = ranktree.enumerate_leaves(levels)
    report = {
        "command": "leaves",
        "levels": levels,
        "leaves": [{"terminal_level": s.terminal_level,
                    "branch": s.branch.value,
                    "rank_delta": s.rank_delta} for s in shapes],
    }
    if dot:
        _write_file(dot, ranktree.tree_dot(PmsKind(kind), levels, None))
        report["dot"] = dot
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the process;
    its ``commands`` maps each command name to that command's parser.

    Each ``parse_args`` call starts from a fresh namespace filled from the
    defaults, so one call leaves nothing behind for the next.
    """
    parser = argparse.ArgumentParser(
        prog="pmsval",
        description="Classify pseudo monotone sequences, evaluate the induced "
                    "valuation on the rational function field, and compute "
                    "the rank of its value group.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, needs_in: bool = True) -> argparse.ArgumentParser:
        """The subparser of a command whose handler run maps the parsed
        arguments to a report and an exit code."""
        p = sub.add_parser(name)
        if needs_in:
            p.add_argument("--in", dest="infile", required=True,
                           help="problem file (path or bundled name)")
        p.add_argument("--out", dest="outfile", help="write the report here")
        p.set_defaults(run=run)
        return p

    # Each handler looks its command up when it runs, so a replaced cmd_*
    # (a wrapper or a test's stand-in) is the one called.
    add("classify", lambda a: cmd_classify(_load_problem(a.infile)))
    add("ve", lambda a: cmd_ve(_load_problem(a.infile)))
    rank = add("rank", lambda a: cmd_rank(_load_problem(a.infile), a.dot))
    rank.add_argument("--dot", help="write the highlighted decision tree here")
    add("sup", lambda a: cmd_sup(_load_problem(a.infile)))
    oc = add("oracle-check", lambda a: cmd_oracle_check(
        _load_problem(a.infile), a.tail_window))
    oc.add_argument("--tail-window", type=int, dest="tail_window",
                    help="number of trailing points the fit must hold on: "
                         "at least 2, capped at the number of fitted points "
                         "(default: half of them)")
    probe = add("probe", lambda a: cmd_probe(_load_problem(a.infile),
                                             a.probes))
    probe.add_argument("--probes", help="JSON file with a probes list")
    leaves = add("leaves", lambda a: cmd_leaves(a.levels, a.kind, a.dot),
                 needs_in=False)
    leaves.add_argument("--levels", type=int, default=3,
                        help="tree depth to enumerate (1..6)")
    leaves.add_argument("--kind", choices=["pcs", "pds"], default="pcs",
                        help="which tree to render with --dot")
    leaves.add_argument("--dot", help="write the full decision tree here")
    parser.commands = sub.choices
    return parser


def _error(kind: str, detail: str) -> str:
    return jsonio.dump_report({"error": kind, "detail": detail})


def _run(args: argparse.Namespace) -> tuple[str, int]:
    """The report text of one parsed command line and its exit code, from
    the handler argparse chose; every failure becomes an error report."""
    try:
        report, code = args.run(args)
        return jsonio.dump_report(report), code
    except SchemaError as exc:
        return _error("schema", str(exc)), EXIT_SCHEMA
    except IndeterminateError as exc:
        return _error("indeterminate", str(exc)), EXIT_INDETERMINATE
    except PmsvalError as exc:
        return _error("invariant", str(exc)), EXIT_INVARIANT
    except Exception as exc:
        # The interpreter's own printer, written in C, loads no module.
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        return (_error("internal", f"{type(exc).__name__}: {exc}"),
                EXIT_INTERNAL)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # The full parser hands what follows a command to the command's parser,
    # so that parser alone reads it; a line naming no command first, or one
    # it cannot read whole, goes to the full parser for its text and exit.
    command = parser.commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, ())
    if args is None or rest:
        args = parser.parse_args(argv)
    text, code = _run(args)
    if not args.outfile:
        sys.stdout.write(text)
        return code
    try:
        _write_file(args.outfile, text)
    except SchemaError as exc:
        sys.stdout.write(_error("schema", str(exc)))
        return EXIT_SCHEMA
    return code


if __name__ == "__main__":
    sys.exit(main())
