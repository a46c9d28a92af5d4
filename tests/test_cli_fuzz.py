"""Contract fuzz test of the command line: every input exits 0-4 with no traceback.

Each case is an argv for one of the nine subcommands, or a list of stray
tokens, with the files it names (descriptor documents, split tables, batch
files), run in-process through `cli.main`.  Inputs stay small so that no case
starts heavy work: |D| < 10^4, group literals of order <= 64, at most three
quotient exponents, each <= 3, a uniqueness bound of at most 256 and
truncation parameters <= 4.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galab import cli
from galab.classifier import SplitTable
from galab.cli import main
from galab.errors import FormatError
from galab.finabelian import parse_group_literal

SUBCOMMANDS = (
    "classgroup", "classify", "compare", "batch", "verify-uniqueness",
    "dual", "truncate", "fftype", "ffcompare",
)

# valid values mostly, a malformed one now and then
discs = st.one_of(
    st.integers(-9999, -1).map(str), st.integers(-9999, -1).map(str),
    st.integers(0, 9999).map(str), st.sampled_from(["x", "", "1e3", "-35.0"]),
)
small = st.sampled_from(["0", "1", "2", "3", "4", "1", "2", "3", "-1", "x"])
primes = st.sampled_from(["2", "2", "3", "3", "5", "7", "1", "0", "4", "x"])
literals = st.one_of(
    st.lists(st.integers(1, 64), max_size=3)
    .filter(lambda orders: prod(orders) <= 64)
    .map(lambda orders: ",".join(map(str, orders))),
    st.sampled_from(["", "1", "0", "-2", "a", "2,,3", " 4 "]),
)
exponent_lists = st.one_of(
    st.sets(st.integers(1, 3), min_size=1).map(lambda exps: ",".join(map(str, sorted(exps)))),
    st.sets(st.integers(1, 3), min_size=1).map(lambda exps: ",".join(map(str, sorted(exps)))),
    st.lists(st.integers(-1, 3), max_size=3).map(lambda exps: ",".join(map(str, exps))),
    st.sampled_from(["x", "1,,2", ","]),
)

cards = st.one_of(st.integers(-1, 4), st.sampled_from(["aleph0", "x", True, 1.5]))
local_entries = st.fixed_dictionaries(
    {"prime": st.one_of(st.sampled_from([2, 3, 4, 5, 7]), st.sampled_from([2.5, "2", None]))},
    optional={
        "local_free_rank": cards,
        "full_tower": st.one_of(st.booleans(), st.just("no")),
        "cyclic": st.lists(
            st.fixed_dictionaries({"exp": st.one_of(st.integers(-1, 4), st.just(True)), "mult": cards}),
            max_size=3,
        ),
    },
)
descriptor_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["profinite", "discrete", "other"])},
    optional={
        "free_rank": cards,
        "all_primes_T": st.one_of(st.booleans(), st.just(1)),
        "locals": st.one_of(st.lists(local_entries, max_size=3), st.just([1])),
    },
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
documents = st.one_of(descriptor_docs.map(json.dumps), json_values.map(json.dumps), st.text(max_size=30))
split_tables = st.lists(
    st.one_of(
        st.tuples(discs, literals).map(lambda t: f"{t[0]}: {t[1]}"),
        st.sampled_from(["# note", "", "{", "}", "x", "-35 2", ": 2", "-35:", "{-35: 2},"]),
    ),
    max_size=4,
).map("\n".join)
batch_files = st.lists(
    st.one_of(discs, st.sampled_from(["# note", "", "1.5"])), max_size=5
).map("\n".join)
stray_tokens = st.lists(
    st.one_of(
        st.sampled_from(SUBCOMMANDS + ("--json", "--disc", "--prime", "--sub", "--help", "-x", "--")),
        small,
    ),
    max_size=5,
)


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """(argv, files): argv names each file by its key in `files`."""
    files: dict[str, str] = {}

    def path(name: str, contents) -> str:
        files[name] = draw(contents)
        return name

    def table() -> list[str]:
        return ["--split-table", path("table.txt", split_tables)] if draw(st.booleans()) else []

    cmd = draw(st.sampled_from(SUBCOMMANDS + ("stray",)))
    if cmd == "classgroup":
        argv = [cmd, "--disc", draw(discs)]
    elif cmd == "classify":
        argv = [cmd, "--disc", draw(discs)] + table()
        if draw(st.booleans()):
            argv += ["--split", draw(literals)]
    elif cmd == "compare":
        argv = [cmd] + [t for d in draw(st.lists(discs, min_size=2, max_size=3)) for t in ("--disc", d)]
        argv += table()
    elif cmd == "batch":
        argv = [cmd, "--input", path("batch.txt", batch_files)] + table()
    elif cmd == "verify-uniqueness":
        bound = draw(st.sampled_from(["0", "1", "64", "256", "256"]))
        argv = [cmd, "--prime", draw(primes), "--bound", bound]
        if draw(st.booleans()):
            argv += ["--sub", draw(literals)]
        argv += [t for e in draw(st.lists(exponent_lists, min_size=1, max_size=2)) for t in ("--exponents", e)]
    elif cmd == "dual":
        argv = [cmd, "--input", path("doc.json", documents)]
    elif cmd == "truncate":
        argv = [cmd, "--input", path("doc.json", documents), "--prime", draw(primes)]
        argv += ["--max-exp", draw(small), "--cap", draw(small), "--free-level", draw(small)]
    elif cmd == "fftype":
        argv = [cmd, "--prime", draw(primes), "--n", draw(small), "--class0", draw(literals)]
    elif cmd == "ffcompare":
        fields = draw(st.lists(st.tuples(primes, small, literals).map(":".join), min_size=2, max_size=3))
        argv = [cmd] + [t for f in fields for t in ("--field", f)]
    else:
        argv = draw(stray_tokens)
    if argv and draw(st.integers(0, 3)) == 0:
        # drop one token: a missing option, a missing value or a stray one
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, files


@settings(max_examples=300, deadline=None)
@given(invocations())
@example((["dual", "--input", "doc.json"], {"doc.json": "1" * 5001}))
@example((["dual", "--input", "doc.json"], {"doc.json": "[" * 100_000}))
def test_every_input_exits_within_the_contract(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            # lone surrogates become undecodable bytes, which the CLI must refuse cleanly
            Path(tmp, name).write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


# -- the table scan against argparse ------------------------------------------------

# values argparse treats in its own ways: negative numbers (a value) against other
# tokens starting with "-" (an option), "1_0" and " 7", which int() takes, "--", "-h"
awkward_values = st.sampled_from(
    ["-35", "-1.5", "-1_0", "- 2", "", " 7", "--x=v", "--", "-h", "-", "2", "1,2", "2:12:4", "x"]
)


@st.composite
def table_argvs(draw) -> list[str]:
    """An argv from one subcommand's declared flags, often well-formed, now and then not."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    specs = dict((cli._JSON, *cli._COMMANDS[name][2]))
    required = [flag for flag, spec in specs.items() if spec.get("required")]
    # every required flag (most of the time), then any flags again: repeats included
    flags = draw(st.permutations(required)) if draw(st.integers(0, 4)) else []
    flags += draw(st.lists(st.sampled_from(list(specs)), max_size=4))
    argv = [name]
    for flag in flags:
        argv.append(flag)
        if specs[flag].get("action") != "store_true":
            argv.append(draw(st.one_of(st.integers(-99, 99).map(str), awkward_values)))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(awkward_values))
    return argv


@settings(max_examples=500, deadline=None)
@given(table_argvs())
@example(["compare", "--disc", "-1_0", "--disc", " 7", "--disc", "-35"])
@example(["verify-uniqueness", "--prime", "2", "--exponents", "", "--sub", "-1.5", "--sub", "2"])
@example(["classgroup", "--json", "--disc", "-35", "--json", "--disc", "-4"])
def test_scan_agrees_with_argparse(argv):
    scanned = cli._scan(argv)
    if scanned is not None:
        assert vars(scanned) == vars(cli._parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "--disc", "-1.5"],
        ["classgroup", "--disc=-35"],
        ["classgroup", "--", "--disc", "-35"],
        ["classgroup", "--disc", "-35", "-h"],
        ["classgroup", "--dis", "-35"],
        ["classgroup", "--disc"],
        ["classgroup", "--disc", "x"],
        ["classgroup"],
        ["classgroup", "--disc", "-35", ""],
        ["fftype", "--prime", "2", "--n", "1", "--class0", "- 2"],
        ["fftype", "--prime", "2", "--n", "1", "--class0", "-x"],
        ["--json", "classgroup", "--disc", "-35"],
        ["no-such-command"],
        [],
    ],
)
def test_scan_leaves_the_rest_to_argparse(argv):
    assert cli._scan(argv) is None


def test_append_lists_are_never_shared():
    for argv in (
        ["compare", "--disc", "-35", "--disc", "-51"],
        ["ffcompare", "--field", "2:12:4,3", "--field", "2:3:3"],
    ):
        dest = argv[1][2:]
        lists = [vars(cli._scan(argv))[dest] for _ in range(2)]
        lists += [vars(cli._parser().parse_args(argv))[dest] for _ in range(2)]
        assert all(values == lists[0] and len(values) == 2 for values in lists)
        assert len({id(values) for values in lists}) == 4


# -- the split-table reader against its former two-pass body ------------------------


def two_pass_load_split_table(path: str):
    """Oracle: the reader as it was, a list of stripped lines first, then one strip chain each."""
    text = cli._read_text(path)
    stripped_lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            stripped_lines.append((lineno, stripped))
    user, lines, groups = {}, {}, {}
    for lineno, line in stripped_lines:
        entry = line.strip().lstrip("{").rstrip("}").strip().rstrip(",").strip()
        if not entry:
            continue
        if ":" not in entry:
            raise FormatError(f"{path} line {lineno}: expected 'discriminant: group'")
        disc_text, _, group_text = entry.partition(":")
        try:
            disc = int(disc_text.strip())
        except ValueError:
            raise FormatError(
                f"{path} line {lineno}: bad discriminant {disc_text.strip()!r}"
            ) from None
        if disc in lines:
            raise FormatError(
                f"{path} line {lineno}: discriminant {disc} already given on line {lines[disc]}"
            )
        lines[disc] = lineno
        group_text = group_text.strip()
        if group_text not in groups:
            try:
                groups[group_text] = parse_group_literal(group_text)
            except ValueError as exc:
                raise FormatError(f"{path} line {lineno}: {exc}") from None
        user[disc] = groups[group_text]
    return SplitTable(user=user)


# str.strip() drops all of these; int() drops all but "\x1f"
pads = st.text(st.sampled_from(" \t\xa0　\x1f"), max_size=2)
well_formed_discs = st.integers(-40, -1).map(str)  # a small pool, so discriminants repeat
table_discs = st.one_of(
    well_formed_discs, well_formed_discs, well_formed_discs,
    st.sampled_from(["+7", "-1_5", "\u0663", "-3_", "_3", "x", "", "1.5", "--3", "- 3"]),
)
table_literals = st.one_of(
    st.sampled_from(["1", "2", "3", "2,2", "4", "2, 3", " 6 "]),
    st.sampled_from(["2,,3", "0", "a", "", "{2}"]),
)


@st.composite
def table_lines(draw) -> str:
    kind = draw(st.integers(0, 9))
    if kind < 2:  # blank, comment, a bare brace or comma
        return draw(pads) + draw(st.sampled_from(["", "# note", "#-3: 2", "{", "}", "{}", ",", "},"]))
    disc = draw(pads) + draw(table_discs) + draw(pads)
    group = draw(pads) + draw(table_literals) + draw(pads)
    entry = disc + group if kind == 2 else f"{disc}:{group}"  # kind 2: no colon
    opening = draw(st.sampled_from(["", "", "{", "{{", "{ "]))
    closing = draw(st.sampled_from(["", "", ",", "}", "},", ",}", " ,", ", "]))
    return draw(pads) + opening + entry + closing + draw(pads)


@settings(max_examples=300, deadline=None)
@given(st.lists(table_lines(), max_size=6).map("\n".join))
@example("\x1f-3\x1f: 2\n-5 :\t2,\n{-7: 2}")
@example("-3: 2\n# -3: 2\n-3 : 3")
@example("# a table\n{ -3: 2,\n\t-4 :2, 3 ,\n\n-5\xa0: 2,2 }\n")
@example("{# note}\n-3: 2")  # "#" is tested before the braces are stripped
def test_split_table_reader_matches_the_two_pass_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "table.txt")
        Path(path).write_text(text)
        outcomes = []
        # the second reader call is a memo hit, or raises the same error again
        for load in (cli.load_split_table, cli.load_split_table, two_pass_load_split_table):
            try:
                outcomes.append(load(path))
            except FormatError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]
