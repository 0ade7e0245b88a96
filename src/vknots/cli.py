"""Command line front end.

Subcommands: fpoly, bracket, check, verify, sweep, witness, fuzz.  Each
prints what a library function returns: ``fpoly`` and ``bracket`` print
:func:`f_polynomial` and :func:`bracket`, ``check`` prints the record of
:func:`verify_diagram` and exits on its congruence verdict, and ``verify``
prints the skein reports with the index spectrum and index verdict of
that record.
Exit codes: 0 success, 1 a verified property failed, 2 bad input/usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .bracket import (
    DEFAULT_MAX_CROSSINGS,
    IdentityViolation,
    bracket,
    f_polynomial,
    finite_type_recursion_check,
    skein_identity_check,
)
from .diagram import Diagram, DiagramError, parse_gauss, parse_pd, serialize, writhe
from .verify import (
    EnumSpec,
    find_nonalternating_form_witness,
    fuzz_invariance,
    sweep,
    verify_diagram,
)


def _looks_like_pd(text: str) -> bool:
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        return line[0] in "XV" and "[" in line
    return False


def _read_diagrams(args) -> list[Diagram]:
    """One or more diagrams from -c or a file; blank lines separate
    diagrams in files (crossing-free components use the () marker).
    Input that is not UTF-8 text, or holds only blank lines, raises
    DiagramError."""
    if args.code is not None:
        text = args.code
    elif args.input is None:
        raise DiagramError("no input: pass a file or -c CODE")
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DiagramError(f"{args.input} is not UTF-8 text: {exc}") from exc
    if _looks_like_pd(text):
        return [parse_pd(text)]
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip():
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    diagrams = [parse_gauss("\n".join(block)) for block in blocks if block]
    if not diagrams:
        raise DiagramError("no diagram in input")
    return diagrams


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _poly_cmd(args, normalized: bool) -> int:
    poly_of = f_polynomial if normalized else bracket
    rows = [
        {"code": serialize(d), "poly": poly_of(d, args.max_crossings)}
        for d in _read_diagrams(args)
    ]
    if args.json:
        key = "f" if normalized else "bracket"
        print(json.dumps([{"code": r["code"], key: r["poly"].to_pairs()} for r in rows]))
    else:
        for r in rows:
            print(r["poly"])
    return 0


def _check_cmd(args) -> int:
    out = []
    for d in _read_diagrams(args):
        record = verify_diagram(d, args.max_crossings)
        out.append(
            {
                "code": serialize(d),
                "components": d.component_count,
                "writhe": writhe(d),
                "colorable": record.colorable,
                "alternating": record.alternating,
                "f": record.f.to_pairs(),
                "f_text": str(record.f),
                "congruence": record.congruence,
                "congruence_verdict": record.congruence_ok,
                "coloring": record.coloring.to_json() if record.coloring else None,
            }
        )
    if args.json:
        print(json.dumps(out))
    else:
        for r in out:
            print(
                f"{r['code'].replace(chr(10), ' / ')}: components={r['components']} "
                f"writhe={r['writhe']} colorable={r['colorable']} "
                f"alternating={r['alternating']} f={r['f_text']} "
                f"congruence={r['congruence']} verdict={'ok' if r['congruence_verdict'] else 'FAIL'}"
            )
    return 0 if all(r["congruence_verdict"] for r in out) else 1


def _verify_cmd(args) -> int:
    failures = 0
    out = []
    for d in _read_diagrams(args):
        record = verify_diagram(d, args.max_crossings)
        spectrum = list(record.index_spectrum)
        entry = {"code": serialize(d), "skein": [], "recursion": [], "index_spectrum": spectrum}
        try:
            for cid in range(1, d.crossing_count + 1):
                rep = skein_identity_check(d, cid, max_crossings=args.max_crossings)
                entry["skein"].append(rep.to_json())
                rec = finite_type_recursion_check(d, cid, order=3, max_crossings=args.max_crossings)
                entry["recursion"].append(rec.to_json())
        except IdentityViolation as exc:
            entry["error"] = str(exc)
            failures += 1
        entry["colorable"] = record.colorable
        entry["index_singleton_ok"] = record.index_ok
        if not record.index_ok:
            failures += 1
        out.append(entry)
    if args.json:
        print(json.dumps(out))
    else:
        for e in out:
            status = "FAIL" if ("error" in e or not e["index_singleton_ok"]) else "ok"
            print(
                f"{e['code'].replace(chr(10), ' / ')}: crossings checked={len(e['skein'])} "
                f"spectrum={e['index_spectrum']} {status}"
            )
    return 1 if failures else 0


def _sweep_cmd(args) -> int:
    spec = EnumSpec(
        max_crossings=args.max_crossings,
        max_components=args.components,
        dedupe="cyclic-relabel" if args.dedupe else "none",
    )
    summary = sweep(spec)
    if args.json:
        print(json.dumps(summary.to_json()))
    else:
        print(
            f"checked {summary.total} diagrams "
            f"({summary.colorable} colorable, {summary.alternating} alternating; "
            f"{summary.state_sums} state sums) "
            f"in {summary.elapsed:.1f}s: {'ok' if summary.ok else 'FAILURES'}"
        )
        for rec in summary.failures:
            print("  FAIL:", serialize(rec.diagram).replace("\n", " / "))
    return 0 if summary.ok else 1


def _witness_cmd(args) -> int:
    spec = EnumSpec(
        max_crossings=args.max_crossings,
        max_components=args.components,
        dedupe="cyclic-relabel",
    )
    d = find_nonalternating_form_witness(spec)
    if args.json:
        payload: Optional[dict] = None
        if d is not None:
            payload = {"code": serialize(d), "f": f_polynomial(d).to_pairs()}
        print(json.dumps({"witness": payload}))
    elif d is None:
        print("no witness in range")
    else:
        print(serialize(d))
        print(f"f = {f_polynomial(d)}")
    return 0


def _fuzz_cmd(args) -> int:
    report = fuzz_invariance(seed=args.seed, trials=args.trials, max_moves=args.max_moves)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(
            f"{report.trials} trials, {report.moves_applied} moves: "
            f"{'ok' if report.ok else 'FAILURES'} ({report.elapsed:.1f}s)"
        )
    return 0 if report.ok else 1


# the subcommands that read diagrams from a file or -c: name, help, handler
_DIAGRAM_COMMANDS = (
    ("fpoly", "print the f-polynomial of each diagram", lambda a: _poly_cmd(a, normalized=True)),
    ("bracket", "print the Kauffman bracket of each diagram", lambda a: _poly_cmd(a, normalized=False)),
    ("check", "colorability, alternating-ness and congruence verdict", _check_cmd),
    ("verify", "skein and state-index property checks per diagram", _verify_cmd),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vknots",
        description="Bracket and f-polynomials of virtual link diagrams, "
        "checkerboard colorability, and exhaustive property verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in _DIAGRAM_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", help="diagram file (Gauss or PD text)")
        p.add_argument("-c", "--code", help="inline diagram code instead of a file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        # a string default (the environment value) goes through the type
        # check, so a malformed or negative VKNOTS_MAX_CROSSINGS is a usage
        # error like a malformed or negative flag
        p.add_argument(
            "--max-crossings",
            type=_nonnegative_int,
            default=os.environ.get("VKNOTS_MAX_CROSSINGS", DEFAULT_MAX_CROSSINGS),
            help=f"state-sum size limit (default {DEFAULT_MAX_CROSSINGS}, or VKNOTS_MAX_CROSSINGS)",
        )
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="exhaustive verification over small diagrams")
    p.add_argument("--max-crossings", type=int, default=4)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--dedupe", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_sweep_cmd)

    p = sub.add_parser("witness", help="search for an alternating diagram with non-alternating f")
    p.add_argument("--max-crossings", type=int, default=6)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_witness_cmd)

    p = sub.add_parser("fuzz", help="randomized move-invariance fuzzing")
    p.add_argument("--trials", type=_nonnegative_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-moves", type=_nonnegative_int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_fuzz_cmd)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
