"""Tests for the command-line surface: subcommands, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import galab
from galab import cli
from galab.classifier import SPLIT_TABLE_DISCRIMINANTS, SplitData, SplitSource
from galab.cli import build_parser, load_split_table, main
from galab.descriptors import (
    ALEPH0,
    LocalFactors,
    ProfiniteDescriptor,
    descriptor_to_text,
    prime_tower_descriptor,
)
from galab.errors import FormatError
from galab.extensions import DEFAULT_ENUMERATION_BOUND
from galab.finabelian import FiniteAbelianGroup

G = FiniteAbelianGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if out else None), err


# -- classgroup ------------------------------------------------------------------


def test_classgroup_json(capsys):
    code, doc, _ = run_json(capsys, "classgroup", "--disc", "-23")
    assert code == 0
    assert doc["class_number"] == 3
    assert doc["structure"] == "3"
    assert doc["forms"] == ["(1,1,6)", "(2,-1,3)", "(2,1,3)"]


def test_classgroup_human(capsys):
    code, out, _ = run(capsys, "classgroup", "--disc", "-35")
    assert code == 0
    assert "class number   2" in out


def test_classgroup_rejects_non_fundamental(capsys):
    code, _, err = run(capsys, "classgroup", "--disc", "-12")
    assert code == 2
    assert "fundamental" in err


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_closed_pipe_gives_no_traceback(tmp_path, extra):
    # about 800 kB of output: far more than a pipe holds, so writes outlive the reader
    src = Path(galab.__file__).resolve().parents[1]
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "galab", "classgroup", "--disc", "-9999999995", *extra],
            stdout=subprocess.PIPE, stderr=err, env={**os.environ, "PYTHONPATH": str(src)},
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read().decode()
    assert len(head) == 10
    assert "Traceback" not in stderr and "Error" not in stderr
    assert code in (0, 1, 2, 3, 4)


LARGE_DISC = "-1590897978359414787"


@pytest.mark.parametrize(
    "argv",
    [
        ("classgroup", "--disc", LARGE_DISC),
        ("classify", "--disc", LARGE_DISC),
        ("compare", "--disc", "-35", "--disc", LARGE_DISC),
    ],
)
def test_large_discriminant_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -- classify and compare -----------------------------------------------------------


def test_classify_builtin(capsys):
    code, doc, _ = run_json(capsys, "classify", "--disc", "-35")
    assert code == 0
    assert doc["type"] == {"free_rank": 2, "torsion_closure": "T", "split": "2"}
    assert doc["split_source"] == "builtin_table"


def test_classify_exclusions(capsys):
    assert run(capsys, "classify", "--disc", "-4")[0] == 2
    assert run(capsys, "classify", "--disc", "-8")[0] == 2


def test_classify_split_data_unavailable(capsys):
    code, _, err = run(capsys, "classify", "--disc", "-23")
    assert code == 3
    assert "split data" in err


def test_classify_inline_split(capsys):
    code, doc, _ = run_json(capsys, "classify", "--disc", "-23", "--split", "3")
    assert code == 0
    assert doc["type"]["split"] == "3"
    assert doc["split_source"] == "user_supplied"


def test_classify_inline_split_containment(capsys):
    code, _, err = run(capsys, "classify", "--disc", "-23", "--split", "2")
    assert code == 2
    assert "embed" in err


def test_compare(capsys):
    code, doc, _ = run_json(capsys, "compare", "--disc", "-35", "--disc", "-51")
    assert code == 0 and doc["isomorphic"] is True
    code, doc, _ = run_json(capsys, "compare", "--disc", "-35", "--disc", "-7")
    assert code == 0 and doc["isomorphic"] is False
    assert run(capsys, "compare", "--disc", "-35")[0] == 1


# -- split tables ---------------------------------------------------------------------


def test_load_split_table(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("# comment\n{-35: 2}\n-23: 3\n\n-59: 3,\n")
    table = load_split_table(str(path))
    assert table.user == {-35: G(2), -23: G(3), -59: G(3)}
    # user entries are layered over the builtin table
    assert table.lookup(-35) == SplitData(SplitSource.USER_SUPPLIED, G(2))
    assert table.lookup(-23) == SplitData(SplitSource.USER_SUPPLIED, G(3))
    assert table.lookup(-51) == SplitData(SplitSource.BUILTIN_TABLE, G(2))


def test_load_split_table_empty_file_is_builtin_only(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    table = load_split_table(str(path))
    assert table.user == {}
    assert len(SPLIT_TABLE_DISCRIMINANTS) == 10
    for d in SPLIT_TABLE_DISCRIMINANTS:
        assert table.lookup(d) == SplitData(SplitSource.BUILTIN_TABLE, G(2))
    assert table.lookup(-23) is None


def test_load_split_table_line_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("-35: 2\nnot a line\n")
    with pytest.raises(FormatError, match="line 2"):
        load_split_table(str(path))
    path.write_text("-35: zebra\n")
    with pytest.raises(FormatError, match="line 1"):
        load_split_table(str(path))


def test_load_split_table_parses_each_literal_once(monkeypatch, tmp_path):
    calls = 0
    parse = cli.parse_group_literal

    def counted(text):
        nonlocal calls
        calls += 1
        return parse(text)

    monkeypatch.setattr(cli, "parse_group_literal", counted)
    literals = ("2", "3", "2,4")
    path = tmp_path / "table.txt"
    path.write_text("".join(f"{-3 - i}: {literals[i % 3]}\n" for i in range(300)))
    table = load_split_table(str(path))
    assert calls == 3
    assert len(table.user) == 300 and table.user[-5] == G(2, 4)
    # the unchanged file is read again but not parsed again
    assert load_split_table(str(path)) == table
    assert calls == 3


def test_load_split_table_sees_a_rewritten_file(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("-35: 2\n")
    assert load_split_table(str(path)).user == {-35: G(2)}
    path.write_text("-35: 4\n-23: 3\n")
    assert load_split_table(str(path)).user == {-35: G(4), -23: G(3)}


def test_load_split_table_raises_the_same_error_each_time(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("-35: 2\n-51: zebra\n")
    messages = []
    for _ in range(2):
        with pytest.raises(FormatError, match="line 2") as caught:
            load_split_table(str(path))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_load_split_table_result_is_the_callers(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("-35: 2\n")
    table = load_split_table(str(path))
    table.user[-35] = G(4)
    table.user[-23] = G(3)
    assert load_split_table(str(path)).user == {-35: G(2)}


def test_split_table_memo_is_bounded(tmp_path):
    bound = cli._parse_split_table.cache_parameters()["maxsize"]
    assert bound is not None
    for i in range(bound + 5):
        path = tmp_path / f"table{i}.txt"
        path.write_text(f"-35: {i + 1}\n")
        assert load_split_table(str(path)).user == {-35: G(i + 1)}
    assert cli._parse_split_table.cache_info().currsize == bound


def test_split_table_repeated_discriminant(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("-35: 4\n-51: 2\n-35: 2\n")
    with pytest.raises(FormatError, match="line 3: discriminant -35 already given on line 1"):
        load_split_table(str(path))
    code, out, err = run(capsys, "classify", "--disc", "-35", "--split-table", str(path))
    assert code == 2 and out == ""
    assert "line 3" in err and "line 1" in err


def test_classify_with_table_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("-23: 3\n")
    code, doc, _ = run_json(
        capsys, "classify", "--disc", "-23", "--split-table", str(path)
    )
    assert code == 0
    assert doc["type"]["split"] == "3"


def test_classify_table_missing_file(capsys):
    code, _, err = run(capsys, "classify", "--disc", "-35", "--split-table", "/nonexistent")
    assert code == 2


# -- batch ------------------------------------------------------------------------------


TEN = (-35, -51, -91, -115, -123, -187, -235, -267, -403, -427)


def test_batch_ten(capsys, tmp_path):
    path = tmp_path / "ten.txt"
    path.write_text("\n".join(str(d) for d in TEN) + "\n")
    code, doc, _ = run_json(capsys, "batch", "--input", str(path))
    assert code == 0
    assert len(doc["cells"]) == 1
    assert doc["cells"][0]["discriminants"] == list(TEN)
    assert doc["errors"] == []


def test_batch_with_errors_reports_and_fails(capsys, tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("-35\n-4\n-7\n")
    code, doc, _ = run_json(capsys, "batch", "--input", str(path))
    assert code == 2
    assert [c["discriminants"] for c in doc["cells"]] == [[-7], [-35]]
    assert doc["errors"][0]["discriminant"] == -4


def test_batch_reports_large_discriminant(capsys, tmp_path):
    path = tmp_path / "large.txt"
    path.write_text(f"-35\n{LARGE_DISC}\n")
    code, doc, _ = run_json(capsys, "batch", "--input", str(path))
    assert code == 4
    assert [c["discriminants"] for c in doc["cells"]] == [[-35]]
    assert [(e["discriminant"], e["error"]) for e in doc["errors"]] == [
        (int(LARGE_DISC), "BoundExceeded")
    ]


def test_batch_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("-35\nzebra\n")
    code, _, err = run(capsys, "batch", "--input", str(path))
    assert code == 2
    assert "line 2" in err


# -- uniqueness, dual, truncate ------------------------------------------------------------


def test_verify_uniqueness_cli(capsys):
    code, doc, _ = run_json(
        capsys, "verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1,2"
    )
    assert code == 0
    assert doc["all_passed"] is True
    case = doc["cases"][0]
    assert case["canonical"] == "2,8"
    assert case["level_counts"] == {"0": 3, "1": 2, "2": 1}


def test_verify_uniqueness_bound(capsys):
    code, _, err = run(
        capsys,
        "verify-uniqueness", "--prime", "2", "--sub", "2",
        "--exponents", "1,2,3,4", "--bound", "64",
    )
    assert code == 4
    assert "bound" in err


@pytest.mark.parametrize(
    "sub, exponents, digest",
    [
        ("2,2,2", "1,2,3,4,5,6,7", "038f941b5d2f855c41a80694fe25398b09b856ca5420b1a2ecf3acc404f46bf8"),
        ("2,2", "1,2,3,4,5,6,7,8", "185b8354e2644083a736e161ce485c1df280b7bad3caf0197f7b3b9c4d323339"),
        ("2,4,8", "1,2,3,4,5,6,7", "a368795466db1b677e07968f04e2b587dbd78a79e6a0f2e4caae46eea30ca437"),
    ],
)
def test_verify_uniqueness_reach_documents_are_pinned(capsys, sub, exponents, digest):
    # |B| = 2^31, 2^38 and 2^34, past the pinned grids; the digests of the stdout
    # of the scan that listed every partition of the order
    code, out, _ = run(
        capsys, "verify-uniqueness", "--json", "--prime", "2", "--sub", sub,
        "--exponents", exponents, "--bound", str(2 ** 40),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("prime, exponents", [("2", "15000"), ("3", "12000000")])
def test_verify_uniqueness_bound_before_the_order_is_built(capsys, prime, exponents):
    # l^N is too long to print and slow to build; the bound is decided on N alone
    code, out, err = run(capsys, "verify-uniqueness", "--prime", prime, "--exponents", exponents)
    assert (code, out) == (4, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"order {prime}^{exponents} exceeds" in err


def test_verify_uniqueness_bound_must_be_positive(capsys):
    for bound in ("0", "-5"):
        code, out, err = run(
            capsys,
            "verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1", "--bound", bound,
        )
        assert (code, out) == (1, "")
        assert err == "usage error: --bound must be >= 1\n"
    # the default bound is the library's
    args = build_parser().parse_args(["verify-uniqueness", "--prime", "2", "--exponents", "1"])
    assert args.bound == DEFAULT_ENUMERATION_BOUND


def test_main_reuses_one_parser(capsys, monkeypatch):
    # a well-formed argv never builds the parser; the first refusal builds it,
    # later ones reuse it, and a failed parse leaves nothing behind
    argv = ("compare", "--disc", "-35", "--disc", "-51", "--json")
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    fresh = run(capsys, *argv)
    assert fresh[0] == 0 and json.loads(fresh[1])["discriminants"] == [-35, -51]
    assert run(capsys, *argv) == fresh
    assert built == []
    for _ in range(2):
        code, out, err = run(capsys, "compare", "--disc", "-35", "--disc", "x")
        assert (code, out) == (1, "") and err.startswith("usage error:")
    assert run(capsys, *argv) == fresh
    assert len(built) == 1


def test_well_formed_calls_import_no_argparse(tmp_path):
    # one well-formed call of each subcommand in a fresh process: argparse is
    # never imported, nor locale, which argparse's gettext loads on first use
    batch = tmp_path / "ten.txt"
    batch.write_text("\n".join(str(d) for d in TEN) + "\n")
    tower = tmp_path / "tower.json"
    tower.write_text(descriptor_to_text(prime_tower_descriptor(2)))
    calls = [
        ["classgroup", "--disc", "-23"],
        ["classify", "--disc", "-35", "--json"],
        ["compare", "--disc", "-35", "--disc", "-51"],
        ["batch", "--input", str(batch)],
        ["verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1,2"],
        ["dual", "--input", str(tower)],
        ["truncate", "--input", str(tower), "--prime", "2", "--max-exp", "2", "--cap", "1",
         "--free-level", "0"],
        ["fftype", "--prime", "2", "--n", "12", "--class0", "4,3"],
        ["ffcompare", "--field", "2:12:4,3", "--field", "2:3:3"],
    ]
    probe = (
        "import contextlib, io, sys; from galab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, sorted(m for m in ('argparse', 'locale') if m in sys.modules))"
    )
    src = Path(galab.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == f"{[0] * 9} []"
    assert [argv[0] for argv in calls] == list(cli._COMMANDS)


def test_dual_and_truncate_cli(capsys, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(descriptor_to_text(prime_tower_descriptor(2)))
    code, doc, _ = run_json(capsys, "dual", "--input", str(path))
    assert code == 0
    assert doc["input_kind"] == "profinite"
    assert doc["dual"]["kind"] == "discrete"
    assert doc["dual"]["locals"][0]["full_tower"] is True

    code, doc, _ = run_json(
        capsys,
        "truncate", "--input", str(path),
        "--prime", "2", "--max-exp", "2", "--cap", "1", "--free-level", "0",
    )
    assert code == 0
    assert doc["group"] == "2,4"


def test_truncate_refuses_oversized_model(capsys, tmp_path):
    path = tmp_path / "aleph.json"
    path.write_text(descriptor_to_text(
        ProfiniteDescriptor(0, (LocalFactors.make(2, 0, {1: ALEPH0}),))
    ))
    code, out, err = run(
        capsys,
        "truncate", "--input", str(path),
        "--prime", "2", "--max-exp", "1", "--cap", "1000000000", "--free-level", "0",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "descriptor, prime, max_exp, free_level",
    [
        (ProfiniteDescriptor(1), 2, 1, 20000),
        (prime_tower_descriptor(2), 2, 20000, 0),
        (ProfiniteDescriptor(1), 3, 1, 10**9),
    ],
)
def test_truncate_refuses_oversized_orders(capsys, tmp_path, descriptor, prime, max_exp, free_level):
    path = tmp_path / "model.json"
    path.write_text(descriptor_to_text(descriptor))
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "truncate", "--input", str(path), "--prime", str(prime), "--max-exp", str(max_exp),
        "--cap", "1", "--free-level", str(free_level),
    )
    assert time.perf_counter() - start < 5
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "digits" in err


def test_dual_malformed_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "dual", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "text", ["1" * 5001, "[" * 100_000], ids=["integer-of-5001-digits", "nesting-100000-deep"]
)
def test_dual_undecodable_document(capsys, tmp_path, text):
    # past Python's digit limit json raises ValueError; deep nesting, RecursionError
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "dual", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dual", "--input", "FILE"),
        ("truncate", "--input", "FILE", "--prime", "2", "--max-exp", "1", "--cap", "1",
         "--free-level", "0"),
        ("batch", "--input", "FILE"),
        ("classify", "--disc", "-35", "--split-table", "FILE"),
    ],
)
def test_undecodable_input_file(capsys, tmp_path, argv):
    path = tmp_path / "binary.dat"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [("free_rank", True), ("prime", 2.9), ("full_tower", "no")],
)
def test_dual_rejects_mistyped_fields(capsys, tmp_path, field, value):
    doc = {
        "kind": "profinite", "free_rank": 1, "all_primes_T": False,
        "locals": [{"prime": 2, "local_free_rank": 0, "full_tower": False, "cyclic": []}],
    }
    if field == "free_rank":
        doc[field] = value
    else:
        doc["locals"][0][field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dual", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(value) in err


# -- function fields ----------------------------------------------------------------------


def test_fftype_cli(capsys):
    code, doc, _ = run_json(
        capsys, "fftype", "--prime", "2", "--n", "12", "--class0", "4,3"
    )
    assert code == 0
    assert doc["dk"] == 3
    assert doc["nonp_class"] == "3"


def test_fftype_invalid_characteristic(capsys):
    code, _, err = run(capsys, "fftype", "--prime", "6", "--n", "2", "--class0", "1")
    assert code == 2


def test_fftype_prime_beyond_proven_range(capsys):
    # the least strong pseudoprime to the 13 Miller-Rabin bases: not provable here
    code, out, err = run(
        capsys, "fftype", "--prime", "3317044064679887385961981", "--n", "1", "--class0", "1"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_classify_split_prime_power_literal(capsys):
    # Z/2^100 factors by trial division alone, so it parses and fails to embed
    code, out, err = run(
        capsys, "classify", "--disc", "-23", "--split", str(2**100)
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: split group 1267650600228229401496703205376 does not embed "
        "into the class group 3 of -23\n"
    )


def test_ffcompare_cli(capsys):
    code, doc, _ = run_json(
        capsys, "ffcompare", "--field", "2:12:4,3", "--field", "2:3:3"
    )
    assert code == 0
    assert doc["isomorphic"] is True
    code, doc, _ = run_json(
        capsys, "ffcompare", "--field", "2:12:4,3", "--field", "2:12:9"
    )
    assert doc["isomorphic"] is False


# -- usage errors and determinism ------------------------------------------------------------


def test_usage_errors(capsys):
    assert run(capsys)[0] == 1
    assert run(capsys, "classgroup")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "classgroup", "--disc", "abc")[0] == 1
    assert run(capsys, "ffcompare", "--field", "2:12:4,3")[0] == 1
    assert run(capsys, "ffcompare", "--field", "2:12:4,3", "--field", "junk")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("fftype", "--prime", "2", "--n", "12", "--js"),
        ("compare", "--disc", "-35", "--disc", "-51", "--split", "3"),
    ],
)
def test_abbreviated_options_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")


# sha256 of the --help text at COLUMNS=80, which argparse renders
HELP_DIGESTS = {
    (): "ecec0dfd5e772f91d303b6b5cdc3f56c754b95e1b5efe0b0d7f2e2fed793e9d0",
    ("classgroup",): "fed800aad281d5d348cf8d01f48475e86f4029200d67994e5a81a2be245ddaac",
    ("classify",): "98d200744f33a5ed0f8cad506caa5a032a221afc6de5aaf934b12e0b7527662e",
    ("compare",): "de20e65d1311e069f1643e40f824f892fc7129d1ca77b7b4c84d71e82be27fad",
    ("batch",): "4418a59ffa161e475a797b4686bd6503ede27aaeb6433942f37d30e024598a6c",
    ("verify-uniqueness",): "ca207d5afff2597f2b08c26b844c0b26fbaaeb40967db239ad0c1f986e89c334",
    ("dual",): "31c13bc3f296a7b456e8870d38199e00259362475c499f694a9a92d85490393d",
    ("truncate",): "6a2a3bdf558205bbb89050e0eaf3c10a3099d10f10e46eefbd356f0c6d8bd47e",
    ("fftype",): "7820a41c00acfeae6f0545378bfb779527d82717505440a2c95fe985576ebb77",
    ("ffcompare",): "4a06d437eb75b8ce6e10cff5a4f883665f4d5d5803855954b60f12b97b89984c",
}


@pytest.mark.parametrize("sub", sorted(HELP_DIGESTS))
def test_help_prints_to_stdout_and_returns_0(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *sub, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(('galab',) + sub)} [-h]")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[sub]
    assert run(capsys, *sub, "-h") == (code, out, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("no-such-command",),
            "argument SUBCOMMAND: invalid choice: 'no-such-command' (choose from 'classgroup', "
            "'classify', 'compare', 'batch', 'verify-uniqueness', 'dual', 'truncate', 'fftype', "
            "'ffcompare')",
        ),
        (("classgroup",), "the following arguments are required: --disc"),
        (("classgroup", "--disc", "abc"), "argument --disc: invalid int value: 'abc'"),
        (("fftype", "--prime", "2", "--n", "12", "--js"), "unrecognized arguments: --js"),
        (("classgroup", "--disc"), "argument --disc: expected one argument"),
        (
            ("compare", "--disc", "-35", "--disc", "-51", "--split", "3"),
            "unrecognized arguments: --split 3",
        ),
        (("fftype", "--prime", "2", "--n", "0", "--class0", "1"), "--n must be >= 1"),
        (
            ("verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1,x"),
            "bad exponent list '1,x'",
        ),
    ],
)
def test_usage_error_text(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")


def test_json_outputs_are_deterministic(capsys, tmp_path):
    path = tmp_path / "ten.txt"
    path.write_text("\n".join(str(d) for d in TEN) + "\n")
    invocations = [
        ("classgroup", "--disc", "-47"),
        ("classify", "--disc", "-35"),
        ("batch", "--input", str(path)),
        ("compare", "--disc", "-35", "--disc", "-427"),
        ("verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1,2"),
    ]
    for argv in invocations:
        _, first, _ = run(capsys, *argv, "--json")
        _, second, _ = run(capsys, *argv, "--json")
        assert first == second and first.endswith("\n")
