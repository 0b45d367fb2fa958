"""Command-line front end: evaluate engines, constructions, bounds, sweeps.

Subcommands
    inst / winst   exact instability of one colouring (file or inline flags)
    bounds         closed-form bound table for (n, t) or a range of n
    witness        run one of the constructive witnesses
    verify         claim suites: majo, block, zigzag, conjecture, oracle
    search         exhaustive minimisation sweep, resumable via checkpoint

Exit codes: 0 success, 2 invalid parameters or spec, 3 a verified claim
failed, 4 capacity exceeded.  Reports are JSON (full structure) or CSV
(flat rows n,t,k,mode,value,witness); all timing lives in one sub-object
so byte comparisons can mask it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .bounds import formula_bounds, zigzag_inst_formula, zigzag_winst_formula
from .colourings import (
    KIND_FIELDS,
    KINDS,
    TIE_RULES,
    Colouring,
    ColouringSpec,
    _read_json,
    free_point_codes,
    majority_grid,
    make,
    partition_grid,
    spec_from_json_dict,
    spec_to_json_dict,
)
from .constructions import (
    ConstructionResult,
    construction_jumps,
    kdefined_witness,
    majority_witness,
    partition_witness,
    strip_extend,
    strip_reduction,
    zigzag_witness,
)
from .errors import CapacityError, ValidationError
from .hypercube import expand, geodesic_to_text, is_geodesic
from .instability import (
    dimension_cap,
    inst_bruteforce,
    inst_exact,
    inst_values_batch,
    jumps_of_path,
    winst_exact,
    winst_values_batch,
)
from .search import MAX_FREE_POINTS, min_inst_exhaustive, min_winst_exhaustive, random_colouring

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CLAIM_FAILED = 3
EXIT_CAPACITY = 4
_ZIGZAG_SAMPLES = 20  # random exact-radius colourings per (n, t) of the zigzag suite


def load_spec(path: str) -> ColouringSpec:
    """Read and validate a colouring spec file (JSON syntax)."""
    return spec_from_json_dict(_read_json(path, "spec file"))


def _parse_partition(text: str) -> list[list[int]]:
    try:
        return [[int(tok) for tok in block.split(",") if tok.strip()]
                for block in text.split(";") if block.strip()]
    except ValueError as exc:
        raise ValidationError(f"malformed partition {text!r}: {exc}") from exc


def _colouring_from_args(args) -> Colouring:
    """The colouring of a spec file, or of the inline flags its kind reads,
    decoded as the spec object a file would hold."""
    if getattr(args, "colouring", None):
        return make(load_spec(args.colouring))
    if args.kind is None:
        raise ValidationError("provide --colouring FILE or an inline --kind")
    needs, may_take = KIND_FIELDS[args.kind]
    data = {name: getattr(args, name) for name in ("kind", "n", *needs, *may_take)}
    if data.get("partition") is not None:
        data["partition"] = _parse_partition(data["partition"])
    return make(spec_from_json_dict(data))


def _witness_entry(f: Colouring, geodesic) -> dict:
    pts = expand(geodesic)
    return {
        "witness": geodesic_to_text(geodesic),
        "witness_valid": is_geodesic(pts),
        "witness_jumps": jumps_of_path(f, pts),
    }


def _search_output(res) -> dict:
    return {
        "n": res.n,
        "t": res.t,
        "mode": res.mode,
        "minimum": res.minimum,
        "argmin": spec_to_json_dict(res.argmin),
        "colourings_scanned": res.colourings_scanned,
        "orbits_scanned": res.orbits_scanned,
    }


def _verdict(claim: str, ok: bool, **extra) -> dict:
    """One checked claim of a report, "pass" or "FAIL", with its extra fields."""
    return {"claim": claim, "status": "pass" if ok else "FAIL", **extra}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_inst(args) -> tuple[dict, int]:
    f = _colouring_from_args(args)
    rep = inst_exact(f) if args.command == "inst" else winst_exact(f)
    out = {"mode": rep.mode, "value": rep.value, "t_used": rep.t_used,
           **_witness_entry(f, rep.witness)}
    ok = out["witness_valid"] and out["witness_jumps"] == rep.value
    report = {
        "inputs": {"colouring": spec_to_json_dict(f.spec)},
        "outputs": out,
        "verdicts": [],
    }
    return report, EXIT_OK if ok else EXIT_CLAIM_FAILED


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        ns = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise ValidationError(f"--n must be an integer or a range 'lo:hi', got {text!r}") from exc
    if not ns or ns.start < 1:
        raise ValidationError(f"--n needs 1 <= lo <= hi, got {text!r}")
    return ns


def _cmd_bounds(args) -> tuple[dict, int]:
    tables = []
    for n in _parse_n_range(args.n):
        ts = [args.t] if args.t is not None else list(range(0, (n - 1) // 2 + 1))
        for t in ts:
            tables.append(dataclasses.asdict(formula_bounds(n, t)))
    report = {
        "inputs": {"n": args.n, "t": args.t},
        "outputs": {"bounds": tables},
        "verdicts": [],
    }
    return report, EXIT_OK


def _cmd_witness(args) -> tuple[dict, int]:
    kind = args.construction
    if kind in ("majority", "partition") and args.kind is None:
        args.kind = kind
    f = _colouring_from_args(args)
    if kind == "majority":
        result = majority_witness(f)
    elif kind == "partition":
        result = partition_witness(f)
    elif kind == "zigzag":
        result = zigzag_witness(f, args.mode or "a")
    elif kind == "strip":
        mode = args.mode or "one_strip"
        reduced = strip_reduction(f, mode)
        inner_rep = winst_exact(reduced)
        inner = ConstructionResult(inner_rep.witness, inner_rep.value, "reduced winst witness")
        result = strip_extend(f, inner, mode)
    else:  # kdefined, the last construction the parser admits
        if args.k is None:
            raise ValidationError("kdefined witness needs --k")
        result = kdefined_witness(f, args.k)

    entry = _witness_entry(f, result.geodesic)
    actual = entry["witness_jumps"]
    ok = entry["witness_valid"] and actual >= result.guaranteed_jumps
    report = {
        "inputs": {"construction": kind, "colouring": spec_to_json_dict(f.spec)},
        "outputs": {
            "guaranteed_jumps": result.guaranteed_jumps,
            "actual_jumps": actual,
            "notes": result.notes,
            **entry,
        },
        "verdicts": [_verdict("construction achieves its guaranteed jump count", ok)],
    }
    return report, EXIT_OK if ok else EXIT_CLAIM_FAILED


def _optimality_verdicts(kind: str, grid, name: str) -> list[dict]:
    """One inst = 2t+1 verdict per (n, t, k) of the grid, for the colouring of
    that kind (partitions balanced); ``name`` is its claim text in t and k."""
    verdicts = []
    for n, t, k in grid:
        value = inst_exact(make(ColouringSpec(kind=kind, n=n, t=t, k=k))).value
        verdicts.append(_verdict(f"inst({name.format(t=t, k=k)}) on H_{n} = {2 * t + 1}",
                                 value == 2 * t + 1, value=value))
    return verdicts


def _suite_majo(max_n: int) -> list[dict]:
    return _optimality_verdicts("majority", majority_grid(max_n), "maj_{t}({k})")


def _suite_block(max_n: int) -> list[dict]:
    return _optimality_verdicts("partition", partition_grid(max_n), "b_{t}^{k}")


def _suite_zigzag(max_n: int, seed: int) -> list[dict]:
    verdicts = []
    for n in range(3, max_n + 1):
        for t in range(1, (n - 1) // 2 + 1):
            fs = [random_colouring(n, t, seed=seed + 1000 * n + 10 * t + i, exact_tf=True)
                  for i in range(_ZIGZAG_SAMPLES)]
            tables = np.stack([f.table() for f in fs])
            ok = bool((winst_values_batch(tables, n, t) >= zigzag_winst_formula(n, t)).all()
                      and (inst_values_batch(tables, n) >= zigzag_inst_formula(n, t)).all())
            for f in fs:
                for mode in ("a", "b"):
                    res = zigzag_witness(f, mode)
                    if construction_jumps(f, res) < res.guaranteed_jumps:
                        ok = False
            verdicts.append(_verdict(
                f"zig-zag bounds and witnesses at (n={n}, t={t}), {_ZIGZAG_SAMPLES} samples", ok))
    return verdicts


def _suite_conjecture(max_n: int) -> list[dict]:
    verdicts = []
    for n in range(2, max_n + 1):
        for t in range(0, (n - 1) // 2 + 1):
            if len(free_point_codes(n, t)) > MAX_FREE_POINTS:
                continue
            res = min_inst_exhaustive(n, t)
            verdicts.append(
                _verdict(f"inst({n},{t}) = {2 * t + 1}", res.minimum == 2 * t + 1,
                         value=res.minimum, colourings_scanned=res.colourings_scanned,
                         orbits_scanned=res.orbits_scanned)
            )
    return verdicts


def _suite_oracle(max_n: int, seed: int) -> list[dict]:
    verdicts = []
    for n in range(3, min(max_n, 5) + 1):
        ok = True
        for i in range(50):
            t = (seed + i) % ((n - 1) // 2 + 1)
            f = random_colouring(n, t, seed=seed + 97 * n + i)
            if inst_exact(f).value != inst_bruteforce(f):
                ok = False
        verdicts.append(
            _verdict(f"inst_exact = inst_bruteforce on 50 random colourings, n={n}", ok)
        )
    return verdicts


_SUITES = {
    "majo": _suite_majo,
    "block": _suite_block,
    "zigzag": _suite_zigzag,
    "conjecture": _suite_conjecture,
    "oracle": _suite_oracle,
}
_SEEDED_SUITES = ("oracle", "zigzag")  # the suites that draw random colourings


def _cmd_verify(args) -> tuple[dict, int]:
    inputs = {"suite": args.suite, "max_n": args.max_n}
    if args.suite in _SEEDED_SUITES:
        inputs["seed"] = 0 if args.seed is None else args.seed
        verdicts = _SUITES[args.suite](args.max_n, inputs["seed"])
    elif args.seed is not None:
        raise ValidationError(
            f"suite {args.suite} draws no random colourings; --seed applies to "
            f"{' and '.join(_SEEDED_SUITES)} only"
        )
    else:
        verdicts = _SUITES[args.suite](args.max_n)
    if not verdicts:
        raise ValidationError(f"suite {args.suite} checks nothing with --max-n {args.max_n}")
    failed = [v for v in verdicts if v["status"] != "pass"]
    report = {
        "inputs": inputs,
        "outputs": {"checked": len(verdicts), "failed": len(failed)},
        "verdicts": verdicts,
    }
    return report, EXIT_OK if not failed else EXIT_CLAIM_FAILED


def _cmd_search(args) -> tuple[dict, int]:
    runner = min_inst_exhaustive if args.mode == "inst" else min_winst_exhaustive
    res = runner(args.n, args.t, checkpoint_path=args.resume)
    report = {
        "inputs": {"n": args.n, "t": args.t, "mode": args.mode},
        "outputs": _search_output(res),
        "verdicts": [],
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------


def _csv_rows(report: dict) -> list[dict]:
    outputs = report.get("outputs", {})
    command = report.get("command")
    rows = []

    def row(n=None, t=None, k=None, mode=None, value=None, witness=""):
        rows.append(
            {"n": n, "t": t, "k": k, "mode": mode, "value": value, "witness": witness}
        )

    spec = report.get("inputs", {}).get("colouring", {})
    if command in ("inst", "winst"):
        row(
            n=spec.get("n"),
            t=spec.get("t"),
            k=spec.get("k"),
            mode=outputs.get("mode"),
            value=outputs.get("value"),
            witness=outputs.get("witness") or "",
        )
    elif command == "bounds":
        for bt in outputs.get("bounds", []):
            row(n=bt["n"], t=bt["t"], mode="bounds", value=bt["best_inst_lb"])
    elif command == "witness":
        row(
            n=spec.get("n"),
            t=spec.get("t"),
            k=spec.get("k"),
            mode=report["inputs"].get("construction"),
            value=outputs.get("guaranteed_jumps"),
            witness=outputs.get("witness") or "",
        )
    elif command == "search":
        row(
            n=outputs.get("n"),
            t=outputs.get("t"),
            mode=f"search-{outputs.get('mode')}",
            value=outputs.get("minimum"),
        )
    elif command == "verify":
        for v in report.get("verdicts", []):
            row(mode=v["claim"], value=1 if v["status"] == "pass" else 0)
    return rows


def write_report(report: dict, fmt: str, path: Optional[str]) -> None:
    """Serialise a report as JSON or CSV to a file or stdout."""
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "t", "k", "mode", "value", "witness"])
        writer.writeheader()
        for r in _csv_rows(report):
            writer.writerow(r)
        text = buf.getvalue()
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write report to {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_colouring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--colouring", help="colouring spec file (JSON)")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--tie", choices=TIE_RULES)
    p.add_argument("--j", type=int, choices=[0, 1])
    p.add_argument("--s", type=int)
    p.add_argument("--partition", help="blocks as '4,5,6;7,8,9' (1-indexed)")
    p.add_argument("--table", help="colour table as lowercase hex")


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags live on the root parser and on every subparser (with
    # suppressed defaults) so they may be given on either side of the command
    def default(value):
        return argparse.SUPPRESS if suppress else value

    p.add_argument("--format", choices=["json", "csv"], default=default("json"))
    p.add_argument("--out", default=default(None),
                   help="write the report to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with one stderr line and exit 2."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"invalid parameters: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use and shared by every
    caller, so no caller may change it.  It holds no per-call state:
    ``parse_args`` returns a new namespace, and refusals and help go to the
    ``sys.stderr``/``sys.stdout`` of the call."""
    parser = _Parser(
        prog="geostab",
        description="Geodesic stability of hypercube colourings: engines, witnesses, bounds, sweeps.",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("inst", "winst"):
        p = sub.add_parser(name, help=f"exact {name} of a colouring", parents=[common])
        _add_colouring_flags(p)

    p = sub.add_parser("bounds", help="closed-form bound table", parents=[common])
    p.add_argument("--n", required=True, help="dimension, or a range 'lo:hi'")
    p.add_argument("--t", type=int)

    p = sub.add_parser("witness", help="run a constructive witness", parents=[common])
    p.add_argument(
        "--construction",
        required=True,
        choices=["zigzag", "majority", "partition", "strip", "kdefined"],
    )
    p.add_argument("--mode", help="zigzag: a|b; strip: one_strip|multi_strip")
    _add_colouring_flags(p)

    p = sub.add_parser("verify", help="run a claim suite", parents=[common])
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument("--seed", type=int, help="random draws of the oracle and zigzag suites "
                   "(default 0)")

    p = sub.add_parser("search", help="exhaustive minimisation sweep", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--mode", choices=["inst", "winst"], default="inst")
    p.add_argument("--resume", help="checkpoint file to create or resume from")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "inst": _cmd_inst,
        "winst": _cmd_inst,
        "bounds": _cmd_bounds,
        "witness": _cmd_witness,
        "verify": _cmd_verify,
        "search": _cmd_search,
    }[args.command]
    started = time.perf_counter()
    try:
        body, code = handler(args)
        report = {
            "command": args.command,
            "engine": {"name": "geostab", "version": __version__, "dimension_cap": dimension_cap()},
            **body,
            "timing": {"elapsed_s": round(time.perf_counter() - started, 6)},
        }
        write_report(report, args.format, args.out)
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValidationError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
