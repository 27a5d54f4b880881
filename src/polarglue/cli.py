"""Command-line interface: check / scan / local / obstruct.

Exit codes: 0 existence (or obstruction established), 1 non-existence,
2 inconclusive, 64 usage error, 65 validation error, 66 output I/O error
(also a stdout closed by its reader: the output is partial), 70 internal
error (a bug; the traceback goes to stderr).
JSON records follow schemas/output.v1.json; scans are byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__, enumeration, gluing, localalg, weil

EXIT_EXISTS = 0
EXIT_NO_PP = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_VALIDATION = 65
EXIT_IO = 66
EXIT_SOFTWARE = 70

SCHEMA_VERSION = "1"

_VALIDATION_ERRORS = (weil.ValidationError,)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _provenance(deterministic: bool) -> dict:
    return {
        "tool": "polarglue",
        "version": __version__,
        "generated_at": None
        if deterministic
        else datetime.now(timezone.utc).isoformat(),
    }


def _record(command: str, query: dict, deterministic: bool = False, **extra) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "query": query,
        "h_b": None,
        "flags": None,
        "verdict": None,
        "local_report": None,
        "obstruction": None,
        "provenance": _provenance(deterministic),
    }
    rec.update(extra)
    return rec


def _verdict_payload(v: gluing.GluingVerdict) -> dict:
    return {
        "kind": v.kind.value,
        "witness_ell": v.witness_ell,
        "branch": v.branch.value if v.branch else None,
        "reason": v.reason.value if v.reason else None,
        "failures": [
            {"ell": f.ell, "reasons": list(f.reasons)} for f in v.failures
        ],
        "jacobian_text": v.jacobian_text,
    }


def _verdict_exit(v: gluing.GluingVerdict) -> int:
    return {
        gluing.VerdictKind.IRREDUCIBLE_PP_EXISTS: EXIT_EXISTS,
        gluing.VerdictKind.NO_IRREDUCIBLE_PP: EXIT_NO_PP,
        gluing.VerdictKind.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[v.kind]


def _emit(rec: dict):
    print(json.dumps(rec, indent=2, sort_keys=True))


def _surface(args) -> weil.WeilSurface:
    return weil.make_surface(weil.field_param(args.q), args.a1, args.a2)


def _row_flags(row: gluing.ScanRow) -> dict:
    return {
        "surface_p_rank": row.surface_p_rank.value,
        "elliptic_p_rank": row.elliptic_p_rank.value,
        "geometrically_simple": "true" if row.geometrically_simple else "false",
        "exceptional_primes": "|".join(str(e) for e in row.exceptional_primes),
    }


def _row_record(command: str, row: gluing.ScanRow, deterministic: bool) -> dict:
    """The v1 record of one decided pair, for `check` and for `scan-row`."""
    A = row.surface
    return _record(
        command,
        {"q": A.q, "a1": A.a1, "a2": A.a2, "b": row.elliptic.b},
        deterministic=deterministic,
        h_b=row.h_b,
        flags=_row_flags(row),
        verdict=_verdict_payload(row.verdict),
    )


def cmd_check(args) -> int:
    A = _surface(args)
    row = gluing.decide_pair(A, weil.make_elliptic(A.field, args.b))
    if not args.pretty:
        _emit(_row_record("check", row, deterministic=False))
        return _verdict_exit(row.verdict)
    v = _verdict_payload(row.verdict)
    lines = [f"h(b) = {row.h_b}", f"verdict: {v['kind']}"]
    if v["witness_ell"] is not None:
        lines.append(f"witness ell = {v['witness_ell']} ({v['branch']})")
        lines.append(v["jacobian_text"])
    if v["reason"] is not None:
        lines.append(f"reason: {v['reason']}")
    for f in v["failures"]:
        lines.append(f"ell = {f['ell']} fails: " + "; ".join(f["reasons"]))
    print("\n".join(lines))
    return _verdict_exit(row.verdict)


def _dump_at(obj, depth: int) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) as it reads when obj is
    a value nested depth levels deep in a larger indented dump."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _row_template(row: gluing.ScanRow) -> str:
    """The scan-row record of row as an array element (depth 1), with q
    filled in, since a scan has one q, and the per-row values a1, a2, b,
    h_b, flags and verdict as the str.format fields {0} to {5}.

    The text is _row_record's own dump with those values replaced by
    marker strings, so the record layout has no second copy here.  The
    markers hold NUL, which json escapes as \\u0000 and no constant of the
    record contains."""
    rec = _row_record("scan-row", row, deterministic=True)
    query = rec["query"]
    fields = (*(key for key in query if key != "q"), "h_b", "flags", "verdict")
    for key in fields:
        (query if key in query else rec)[key] = f"\0{key}\0"
    text = _dump_at(rec, 1).replace("{", "{{").replace("}", "}}")
    for i, key in enumerate(fields):
        text = text.replace(json.dumps(f"\0{key}\0"), f"{{{i}}}")
    return text


def _csv_row(a1, a2, b, h_b, flags, verdict) -> str:
    """A csv line, from the fields of _row_template."""
    return f"{a1},{a2},{b},{h_b},{verdict},{flags}\n"


def _write_scan(blocks, out, fmt: str) -> None:
    """Write the rows of blocks (lists of rows, as scan_pairs yields them;
    all rows over one field) as csv, or as the bytes of
    json.dumps(records, indent=2, sort_keys=True) + "\n" for their
    scan-row records, one block at a time.

    A format is data chosen once, before the loop: the text for no rows,
    the head, separator and tail around the rows, the row fill, and the
    text of a _row_flags or _verdict_payload dict.  The flags text is
    built once per key below (a few per scan), and a verdict's text once
    per verdict object, conclusive or inconclusive: scan_pairs shares
    verdicts across rows.  Each verdict is kept alive beside its text, so
    its id cannot be reused.

    No csv field can hold ",", '"' or a newline (integers, enum values,
    and flags built from those), so the bytes equal csv.writer's.  With an
    indent, CPython's json encodes in pure Python, which cost more than
    deciding the rows; hence the json row template (_row_template)."""
    blocks = (block for block in blocks if block)
    first = next(blocks, None)
    if fmt == "csv":
        head = empty = "a1,a2,b,h_b,verdict,witness_ell,branch,flags\n"
        sep = tail = ""
        fill = _csv_row
        flags_text = lambda d: ";".join(f"{k}={x}" for k, x in d.items())
        verdict_text = lambda p: ",".join("" if x is None else str(x) for x in (
            p["kind"], p["witness_ell"], p["branch"]))
    else:
        empty, head, sep, tail = "[]\n", "[\n  ", ",\n  ", "\n]\n"
        fill = None if first is None else _row_template(first[0]).format
        flags_text = verdict_text = lambda d: _dump_at(d, 2)
    if first is None:
        out.write(empty)
        return
    flags_of: dict[tuple, str] = {}
    verdict_of: dict[int, tuple[gluing.GluingVerdict, str]] = {}

    def line(row) -> str:
        A, E, h_b, v, surface_rank, elliptic_rank, exceptional, simple = row
        # enum members live as long as the program; hashing one runs Python code
        key = (id(surface_rank), id(elliptic_rank), simple, exceptional)
        if (flags := flags_of.get(key)) is None:
            flags = flags_of[key] = flags_text(_row_flags(row))
        if (kept := verdict_of.get(id(v))) is None:
            kept = verdict_of[id(v)] = (v, verdict_text(_verdict_payload(v)))
        return fill(A.a1, A.a2, E.b, h_b, flags, kept[1])

    out.write(head + sep.join(map(line, first)))
    for block in blocks:
        out.write(sep + sep.join(map(line, block)))
    out.write(tail)


def cmd_scan(args) -> int:
    field = weil.field_param(args.q)
    rows = enumeration.scan_pairs(field)
    if not args.out:
        _write_scan(rows, sys.stdout, args.format)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_scan(rows, fh, args.format)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


def _factors(pattern: localalg.FactorPattern) -> list[dict]:
    return [{"coefficients": g, "multiplicity": m} for g, m in pattern.factors]


def cmd_local(args) -> int:
    report = localalg.classify_prime_ideals(_surface(args), args.ell)
    witness = report.exceptional_witness
    # IdealRecord's fields are the v1 keys of an ideal; json writes tuples as lists
    _emit(_record(
        "local",
        {"q": args.q, "a1": args.a1, "a2": args.a2, "ell": args.ell},
        local_report={
            "ell": report.ell,
            "f_factors": _factors(report.factor_pattern),
            "h_factors": _factors(report.h_pattern),
            "ideals": [asdict(r) for r in report.ideals],
            "exceptional": witness is not None,
            "exceptional_witness": witness,
        },
    ))
    return 0


_OBSTRUCTED_TEXT = (
    "no abelian variety in the isogeny class carries an "
    "irreducible principal polarization"
)


def cmd_obstruct(args) -> int:
    if args.ss_surface and args.n is not None:
        args.usage_error("argument --n: not allowed with argument --ss-surface")
    if args.s is not None and args.hl2_strict:
        args.usage_error("argument --hl2-strict: not allowed with argument --s")
    A = _surface(args)
    if args.ss_surface:
        strict = args.hl2_strict or args.config_hl2_strict
        status = gluing.hl2_obstruction(A, strict=strict)
        mode, h_val = "hl2", None
    else:
        n = args.n if args.n is not None else 1
        status = gluing.hl_obstruction(A, args.s, n)
        mode, h_val = "hl", A.h(2 * args.s)
    obstructed = status is gluing.Obstruction.OBSTRUCTED
    _emit(_record(
        "obstruct",
        {
            "q": args.q,
            "a1": args.a1,
            "a2": args.a2,
            "s": args.s,
            "n": args.n,
            "mode": mode,
        },
        obstruction={
            "mode": mode,
            "status": status.value,
            "statement": _OBSTRUCTED_TEXT if obstructed else None,
            "h_at_2s": h_val,
        },
    ))
    return EXIT_EXISTS if obstructed else EXIT_INCONCLUSIVE


def _load_config() -> dict:
    """key=value pairs of the POLARGLUE_CONFIG file; {} when it is unset or
    missing.  A file that cannot be read is a usage error (exit 64)."""
    path = os.environ.get("POLARGLUE_CONFIG")
    if not path or not os.path.exists(path):
        return {}
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else str(exc)
        print(f"polarglue: error: config file {path}: {reason}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    return out


def _config_choice(parser, config: dict, key: str, allowed: tuple[str, ...],
                   fold: bool = False) -> str:
    """config[key], lower-cased if fold, else allowed[0] when the key is
    unset; any value outside allowed is a usage error."""
    value = config.get(key, allowed[0])
    folded = value.lower() if fold else value
    if folded not in allowed:
        parser.error(f"config key {key}: {value!r} is not one of {', '.join(allowed)}")
    return folded


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    config = config or {}
    parser = _Parser(prog="polarglue", description=__doc__)
    booleans = ("false", "true")
    pretty = _config_choice(parser, config, "pretty", booleans, fold=True) == "true"
    hl2_strict = _config_choice(parser, config, "hl2_strict", booleans, fold=True) == "true"
    scan_format = _config_choice(parser, config, "format", ("json", "csv"))
    sub = parser.add_subparsers(dest="command", required=True)
    surface = argparse.ArgumentParser(add_help=False)
    for flag in ("--q", "--a1", "--a2"):
        surface.add_argument(flag, type=int, required=True)

    check = sub.add_parser(
        "check", parents=[surface], help="decide one surface x elliptic pair"
    )
    check.add_argument("--b", type=int, required=True)
    check.add_argument("--pretty", action="store_true", default=pretty)
    check.set_defaults(func=cmd_check)

    scan = sub.add_parser("scan", help="decide every admissible pair over F_q")
    scan.add_argument("--q", type=int, required=True)
    scan.add_argument("--out", default=config.get("out"))
    scan.add_argument("--format", choices=("json", "csv"), default=scan_format)
    scan.set_defaults(func=cmd_scan)

    local = sub.add_parser(
        "local", parents=[surface], help="per-prime ideal classification report"
    )
    local.add_argument("--ell", type=int, required=True)
    local.set_defaults(func=cmd_local)

    obstruct = sub.add_parser(
        "obstruct", parents=[surface], help="ordinary x supersingular non-existence tests"
    )
    mode = obstruct.add_mutually_exclusive_group(required=True)
    mode.add_argument("--s", type=int)
    mode.add_argument("--ss-surface", action="store_true")
    obstruct.add_argument("--n", type=int)
    # the config default stays apart from the flag, so only the flag clashes with --s
    obstruct.add_argument("--hl2-strict", action="store_true")
    obstruct.set_defaults(func=cmd_obstruct, usage_error=obstruct.error,
                          config_hl2_strict=hl2_strict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(_load_config())
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: partial output is an output I/O error;
        # stdout goes to devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except _VALIDATION_ERRORS as exc:
        print(f"polarglue: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        import traceback  # only a crash pays for importing it

        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
