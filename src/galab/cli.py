"""Command-line surface of galab; `_DESCRIPTION` is the text `galab --help` shows.

`_COMMANDS` is the single declaration of the command line: each subcommand's
handler, help and options.  Two readers share it.  `_scan` matches a
well-formed argv token by token and returns what argparse would, so most calls
never import argparse.  `build_parser` builds the argparse tree, which renders
every --help and gives every usage error; `main` falls back to it for any argv
the scan does not match exactly.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

from .classifier import (
    SplitTable,
    classify_batch,
    classify_field,
    FunctionFieldInput,
    function_field_isomorphic,
    function_field_type,
    types_isomorphic,
)
from .descriptors import (
    ProfiniteDescriptor,
    descriptor_from_text,
    descriptor_to_document,
    dual_discrete,
    dual_profinite,
    truncate,
)
from .errors import FormatError, GalabError, exit_code_for
from .extensions import DEFAULT_ENUMERATION_BOUND, verify_uniqueness
from .finabelian import FiniteAbelianGroup, group_literal, parse_group_literal
from .quadfields import class_group, format_form

_DESCRIPTION = """Command-line surface: classification, class groups, duality and experiments.

Exit codes: 0 success, 1 usage error, 2 domain error (bad discriminant,
excluded field, malformed file, ...), 3 unresolvable split data, 4 search
bound exceeded.  With --json every subcommand prints one canonical JSON
document (sorted keys, fixed separators), so identical invocations produce
byte-identical output.
"""


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    """argparse has printed a help text (-h/--help)."""


def _parse_group(text: str) -> FiniteAbelianGroup:
    try:
        return parse_group_literal(text)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def load_split_table(path: str) -> SplitTable:
    """Parse a split-table file: one "discriminant: group literal" per line.

    Blank lines and lines starting with "#" are skipped.  Braces and
    trailing commas are tolerated so a single-entry "{-35: 2}" document
    parses too.  Each distinct literal is parsed once.  Errors report the
    offending line number; a repeated discriminant names both.

    The file is read on every call, so a changed file is always seen, and
    each distinct (path, content) is parsed once per process.  Each call
    returns its own `user` dict.
    """
    return SplitTable(user=dict(_parse_split_table(path, _read_text(path))))


@lru_cache(maxsize=8)
def _parse_split_table(path: str, text: str) -> dict[int, FiniteAbelianGroup]:
    """The `user` entries of split-table `text`; `path` only words the errors.

    lru_cache stores no exception, so a malformed table raises on every call.
    """
    user: dict[int, FiniteAbelianGroup] = {}
    lines: dict[int, int] = {}  # discriminant -> line that gave it
    groups: dict[str, FiniteAbelianGroup] = {}  # stripped literal text -> parsed group
    for lineno, line in enumerate(text.splitlines(), start=1):
        entry = line.strip()
        if not entry or entry[0] == "#":
            continue
        entry = entry.lstrip("{").rstrip("}").strip().rstrip(",").strip()
        if not entry:
            continue
        disc_text, colon, group_text = entry.partition(":")
        if not colon:
            raise FormatError(f"{path} line {lineno}: expected 'discriminant: group'")
        disc_text, group_text = disc_text.strip(), group_text.strip()
        try:
            disc = int(disc_text)
        except ValueError:
            raise FormatError(f"{path} line {lineno}: bad discriminant {disc_text!r}") from None
        if disc in lines:
            raise FormatError(
                f"{path} line {lineno}: discriminant {disc} already given on line {lines[disc]}"
            )
        lines[disc] = lineno
        if group_text not in groups:
            try:
                groups[group_text] = parse_group_literal(group_text)
            except ValueError as exc:
                raise FormatError(f"{path} line {lineno}: {exc}") from None
        user[disc] = groups[group_text]
    return user


def _read_discriminants(path: str) -> list[int]:
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise FormatError(f"{path} line {lineno}: bad discriminant {line!r}") from None
    return out


def _split_table_from_args(args) -> SplitTable:
    return load_split_table(args.split_table) if args.split_table else SplitTable()


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, human lines, exit code)


def _cmd_classgroup(args) -> tuple[dict, list[str], int]:
    cg = class_group(args.disc)
    structure = group_literal(cg.structure)
    forms = [format_form(f) for f in cg.forms]
    payload = {
        "command": "classgroup",
        "discriminant": cg.discriminant,
        "class_number": cg.order,
        "structure": structure,
        "forms": forms,
    }
    human = [
        f"discriminant   {cg.discriminant}",
        f"class number   {cg.order}",
        f"structure      {structure}",
        "forms          " + " ".join(forms),
    ]
    return payload, human, 0


def _cmd_classify(args) -> tuple[dict, list[str], int]:
    table = _split_table_from_args(args)
    if args.split is not None:
        table = SplitTable(user={**table.user, args.disc: _parse_group(args.split)})
    fc = classify_field(args.disc, table)
    payload = {"command": "classify", **fc.to_document()}
    t = fc.abelian_type.to_document()
    human = [
        f"discriminant     {fc.discriminant}",
        f"class number     {fc.class_number}",
        f"split group      {t['split']}  (source: {fc.split.source.value})",
        f"type             free_rank={t['free_rank']} torsion_closure={t['torsion_closure']} split={t['split']}",
    ]
    return payload, human, 0


def _cmd_compare(args) -> tuple[dict, list[str], int]:
    if len(args.disc) < 2:
        raise UsageError("compare needs at least two --disc values")
    table = _split_table_from_args(args)
    classified = [classify_field(d, table) for d in args.disc]
    first = classified[0].abelian_type
    verdict = all(types_isomorphic(first, fc.abelian_type) for fc in classified[1:])
    payload = {
        "command": "compare",
        "discriminants": list(args.disc),
        "types": {str(fc.discriminant): fc.abelian_type.to_document() for fc in classified},
        "isomorphic": verdict,
    }
    human = [
        "fields      " + " ".join(str(d) for d in args.disc),
        "splits      " + " ".join(group_literal(fc.abelian_type.split_group) for fc in classified),
        f"isomorphic  {'yes' if verdict else 'no'}",
    ]
    return payload, human, 0


def _cmd_batch(args) -> tuple[dict, list[str], int]:
    discs = _read_discriminants(args.input)
    table = _split_table_from_args(args)
    part = classify_batch(discs, table)
    payload = {"command": "batch", **part.to_document()}
    human = [f"{len(part.cells)} isomorphism class(es) over {len(discs)} field(s)"]
    for i, cell in enumerate(part.cells, start=1):
        human.append(
            f"  class {i}: split={group_literal(cell.split_group)}  "
            + " ".join(str(d) for d in cell.discriminants)
        )
    for err in part.errors:
        human.append(f"  error: {err.discriminant}: {err.message}")
    code = part.errors[0].exit_code if part.errors else 0
    return payload, human, code


def _cmd_verify_uniqueness(args) -> tuple[dict, list[str], int]:
    if args.bound < 1:
        raise UsageError("--bound must be >= 1")
    sub = _parse_group(args.sub)
    exponent_lists = []
    for text in args.exponents:
        try:
            # a blank value is the empty list; any other empty entry is refused by int()
            exps = tuple(int(x) for x in text.split(",")) if text.strip() else ()
        except ValueError:
            raise UsageError(f"bad exponent list {text!r}")
        exponent_lists.append(exps)
    try:
        report = verify_uniqueness(args.prime, sub, exponent_lists, bound=args.bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"command": "verify-uniqueness", **report.to_document()}
    human = [f"prime {args.prime}, sub {group_literal(sub)}"]
    for case in report.cases:
        counts = " ".join(f"m={m}:{c}" for m, c in case.level_counts)
        human.append(
            f"  exponents {list(case.exponents)}: saturation {case.saturation_level}, "
            f"counts [{counts}], canonical {group_literal(case.canonical)}, "
            f"{'PASS' if case.passed else 'FAIL'}"
        )
    human.append(f"all passed: {'yes' if report.all_passed else 'no'}")
    return payload, human, 0


def _cmd_dual(args) -> tuple[dict, list[str], int]:
    d = descriptor_from_text(_read_text(args.input))
    if isinstance(d, ProfiniteDescriptor):
        out = dual_profinite(d)
    else:
        out = dual_discrete(d)
    doc = descriptor_to_document(out)
    payload = {"command": "dual", "input_kind": d.kind, "dual": doc}
    human = [f"{d.kind} -> {out.kind}", json.dumps(doc, sort_keys=True)]
    return payload, human, 0


def _cmd_truncate(args) -> tuple[dict, list[str], int]:
    d = descriptor_from_text(_read_text(args.input))
    try:
        grp = truncate(d, args.prime, args.max_exp, args.cap, args.free_level)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {
        "command": "truncate",
        "prime": args.prime,
        "max_exp": args.max_exp,
        "mult_cap": args.cap,
        "free_level": args.free_level,
        "group": group_literal(grp),
    }
    return payload, [f"group  {group_literal(grp)}"], 0


def _cmd_fftype(args) -> tuple[dict, list[str], int]:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    inp = FunctionFieldInput(args.prime, args.n, _parse_group(args.class0))
    t = function_field_type(inp)
    payload = {"command": "fftype", **t.to_document()}
    human = [
        f"characteristic  {t.characteristic}",
        f"d_K             {t.prime_to_p_exponent}",
        f"non-p class     {group_literal(t.nonp_class)}",
    ]
    return payload, human, 0


def _parse_field_triple(text: str) -> FunctionFieldInput:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad --field {text!r}: expected p:n:class0, e.g. 2:12:4,3")
    try:
        p, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"bad --field {text!r}: p and n must be integers") from None
    if n < 1:
        raise UsageError("constant field exponent must be >= 1")
    return FunctionFieldInput(p, n, _parse_group(parts[2]))


def _cmd_ffcompare(args) -> tuple[dict, list[str], int]:
    if len(args.field) < 2:
        raise UsageError("ffcompare needs at least two --field values")
    types = [function_field_type(_parse_field_triple(t)) for t in args.field]
    verdict = all(function_field_isomorphic(types[0], t) for t in types[1:])
    payload = {
        "command": "ffcompare",
        "fields": [t.to_document() for t in types],
        "isomorphic": verdict,
    }
    human = [f"isomorphic  {'yes' if verdict else 'no'}"]
    return payload, human, 0


# ---------------------------------------------------------------------------
# The command line.  Each option is (flag, argparse keyword arguments); its
# dest is argparse's, the flag without "--" and with "-" read as "_".  Every
# subcommand takes --json first.

_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_SPLIT_TABLE = ("--split-table", {"help": "path to a split-table file"})
_DESCRIPTOR_INPUT = ("--input", {"required": True, "help": "descriptor JSON file"})

_COMMANDS: dict[str, tuple[Callable, str, tuple]] = {
    "classgroup": (_cmd_classgroup, "class number and structure of a discriminant", (
        ("--disc", {"type": int, "required": True}),
    )),
    "classify": (_cmd_classify, "Galois abelian type of one field", (
        ("--disc", {"type": int, "required": True}),
        ("--split", {"help": "inline split group literal for this discriminant"}),
        _SPLIT_TABLE,
    )),
    "compare": (_cmd_compare, "compare the types of two or more fields", (
        ("--disc", {"type": int, "action": "append", "required": True}),
        _SPLIT_TABLE,
    )),
    "batch": (_cmd_batch, "partition a file of discriminants by type", (
        ("--input", {"required": True, "help": "file with one discriminant per line"}),
        _SPLIT_TABLE,
    )),
    "verify-uniqueness": (_cmd_verify_uniqueness, "extension uniqueness sweep", (
        ("--prime", {"type": int, "required": True}),
        ("--sub", {"default": "1", "help": "sub group literal (default trivial)"}),
        ("--exponents", {
            "action": "append", "required": True,
            "help": "comma-separated quotient exponents; repeatable",
        }),
        ("--bound", {"type": int, "default": DEFAULT_ENUMERATION_BOUND}),
    )),
    "dual": (_cmd_dual, "Pontryagin dual of a descriptor document", (
        _DESCRIPTOR_INPUT,
    )),
    "truncate": (_cmd_truncate, "finite model of a descriptor at one prime", (
        _DESCRIPTOR_INPUT,
        ("--prime", {"type": int, "required": True}),
        ("--max-exp", {"type": int, "required": True}),
        ("--cap", {"type": int, "required": True}),
        ("--free-level", {"type": int, "required": True}),
    )),
    "fftype": (_cmd_fftype, "invariant triple of a global function field", (
        ("--prime", {"type": int, "required": True, "help": "characteristic p"}),
        ("--n", {"type": int, "required": True, "help": "constant field exponent, q = p^n"}),
        ("--class0", {"default": "1", "help": "degree-zero class group literal"}),
    )),
    "ffcompare": (_cmd_ffcompare, "compare function fields given as p:n:class0", (
        ("--field", {"action": "append", "required": True}),
    )),
}

# argparse reads a token that starts with "-" as a value only when it matches this
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _scan(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns for a well-formed argv, else None.

    Accepts a subcommand, then its options spelt exactly as declared, each
    value-taking one followed by a value that converts and that argparse does
    not read as an option.  Anything else (help, "--", "--flag=value", an
    unknown or abbreviated flag, a missing or bad value, a missing required
    option) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    specs = dict((_JSON, *options))
    found = {
        flag: spec.get("default", False if spec.get("action") == "store_true" else None)
        for flag, spec in specs.items()
    }
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None:
            return None
        seen.add(flag)
        action = spec.get("action")
        if action == "store_true":
            found[flag] = True
            continue
        text = next(tokens, None)
        if text is None or (text.startswith("-") and not _NEGATIVE_NUMBER.match(text)):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        found[flag] = [*(found[flag] or ()), value] if action == "append" else value
    if any(spec.get("required") and flag not in seen for flag, spec in specs.items()):
        return None
    dests = {flag[2:].replace("-", "_"): value for flag, value in found.items()}
    return SimpleNamespace(subcommand=argv[0], handler=handler, **dests)


def build_parser():
    """The argparse tree of `_COMMANDS`: it renders every --help and every usage error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise UsageError(message)

        def exit(self, status: int = 0, message: str | None = None) -> None:  # type: ignore[override]
            # reached only from -h/--help: error() above takes every refusal
            raise _HelpShown

    parser = Parser(prog="galab", description=_DESCRIPTION, allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (handler, help_, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for flag, spec in (_JSON, *options):
            p.add_argument(flag, **spec)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built by the first main() call that needs it and reused by later ones."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _scan(argv)
        if args is None:
            args = _parser().parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise UsageError("a subcommand is required")
        payload, human, code = args.handler(args)
    except _HelpShown:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    try:
        if args.json:
            sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            for line in human:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; send what is still buffered to devnull so
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
