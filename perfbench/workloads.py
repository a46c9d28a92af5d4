"""The benchmark's four workloads, each a fixed, seeded set of checked ops.

An op is one galab CLI invocation (``argv``) or one library call
(``call``), with the exit code it must return and a check of its standard
output.  A run executes its workload's op set in cycles of rounds, each
round in a new seeded order, and times every execution; the in-process
workloads run each round in a fresh child process.  Repeating the same
ops lets the benchmark take each op's fastest execution: on a shared host
other tenants slow a core for seconds at a time, and the fastest of several
executions is closest to the op's cost without that interference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

HERE = Path(__file__).resolve().parent
EXPECTED_GRID = HERE / "expected" / "extension_grid.json"
DIGESTS = HERE / "expected" / "digests.json"
#: The seed whose op outputs have stored sha256 digests.
DIGEST_SEED = 1

Check = Callable[[str], "str | None"]


@dataclass
class Op:
    """One benchmark operation and how to judge its result."""

    label: str
    argv: list[str] | None = None
    call: tuple | None = None  # ("verify_diagram", prime, sub, exponents, n)
    expect_exit: int = 0
    check: Check | None = None
    items: int = 1
    kind: str = "op"

    def judge(self, code: int, stdout: str, stderr: str) -> str | None:
        """None when the result is correct, otherwise what is wrong with it."""
        if "Traceback" in stderr:
            return "traceback on stderr"
        if code not in (0, 1, 2, 3, 4):
            return f"exit code {code} is outside the 0-4 contract"
        if code != self.expect_exit:
            return f"exit code {code}, expected {self.expect_exit}"
        if code not in (0, 3) and (stdout or not stderr.startswith(("error:", "usage error:"))):
            return "a failing call must print only an error line on stderr"
        if self.check is None:
            return None
        try:
            return self.check(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {exc!r}"


def _doc(stdout: str) -> dict:
    return json.loads(stdout)


def _expect(**fields) -> Check:
    """Check that the JSON document has exactly these values at these keys."""
    def check(stdout: str) -> str | None:
        doc = _doc(stdout)
        for key, want in fields.items():
            if doc.get(key) != want:
                return f"{key} = {doc.get(key)!r}, expected {want!r}"
        return None
    return check


def _empty(stdout: str) -> str | None:
    return "output printed on an error exit" if stdout else None


# ---------------------------------------------------------------------------
# Checks shared by several workloads


def classgroup_check(d: int, forms: list[tuple[int, int, int]] | None = None) -> Check:
    """structure order = h = number of forms; forms reduced, primitive, of discriminant d."""
    def check(stdout: str) -> str | None:
        doc = _doc(stdout)
        if doc["command"] != "classgroup" or doc["discriminant"] != d:
            return "wrong command or discriminant"
        h = doc["class_number"]
        listed = []
        for text in doc["forms"]:
            a, b, c = (int(x) for x in text.strip("()").split(","))
            if not inputs.is_reduced(a, b, c) or b * b - 4 * a * c != d:
                return f"form {text} is not a reduced form of discriminant {d}"
            listed.append((a, b, c))
        if len(set(listed)) != h or inputs.order_of(doc["structure"]) != h:
            return f"h={h}, {len(set(listed))} forms, structure {doc['structure']}"
        if doc["structure"] != inputs.literal(inputs.literal_orders(doc["structure"])):
            return f"structure {doc['structure']} is not canonical"
        if listed[0] != (1, d % 2, (d % 2 - d) // 4):
            return "the principal form is not listed first"
        if forms is not None and listed != forms:
            return "forms differ from the independent enumeration"
        return None
    return check


def batch_check(discs: list[int], class_numbers: dict[int, int], table: dict[int, str]) -> tuple[Check, int]:
    """Cells and errors of `batch --json` against class numbers and split sources."""
    cells, errors, code = inputs.expected_batch(discs, class_numbers, table)

    def check(stdout: str) -> str | None:
        doc = _doc(stdout)
        if doc["command"] != "batch":
            return "wrong command"
        if doc["cells"] != cells:
            return "cells disagree with the class numbers and split sources"
        got = [(e["discriminant"], e["error"]) for e in doc["errors"]]
        if got != [(d, "SplitDataUnavailable") for d in errors]:
            return f"errors {got} disagree with the unresolved discriminants {errors}"
        return None
    return check, code


def grid_key(prime: int, sub: str, exps) -> str:
    return f"{prime}|{sub}|{','.join(map(str, exps))}"


def load_expected_grid() -> dict:
    return json.loads(EXPECTED_GRID.read_text())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


# ---------------------------------------------------------------------------
# Warm-up: one call into every layer, run before any timed op


def smoke_ops(tmp: Path) -> list[Op]:
    """Fixed calls touching every subcommand and verify_diagram once each."""
    batch = tmp / "smoke_batch.txt"
    batch.write_text("-3\n-7\n-23\n-35\n-39\n")
    table = tmp / "smoke_split.txt"
    table.write_text("-39: 2\n")
    desc = tmp / "smoke_descriptor.json"
    inputs.write_json(desc, {
        "kind": "profinite", "free_rank": 2, "all_primes_T": False,
        "locals": [{"prime": 2, "local_free_rank": 1, "full_tower": False,
                    "cyclic": [{"exp": 1, "mult": 2}, {"exp": 3, "mult": "aleph0"}]}],
    })
    return [
        Op("smoke classgroup", ["classgroup", "--disc", "-23", "--json"],
           check=classgroup_check(-23, inputs.reduced_forms(-23))),
        Op("smoke classify builtin", ["classify", "--disc", "-35", "--json"],
           check=_expect(split_source="builtin_table", class_number=2)),
        Op("smoke classify user", ["classify", "--disc", "-23", "--split", "3", "--json"],
           check=_expect(split_source="user_supplied", class_number=3)),
        Op("smoke classify unavailable", ["classify", "--disc", "-23", "--json"],
           expect_exit=3, check=_empty),
        Op("smoke classify forced", ["classify", "--disc", "-7", "--json"],
           check=_expect(split_source="forced_trivial", class_number=1)),
        Op("smoke compare", ["compare", "--disc", "-35", "--disc", "-51", "--json"],
           check=_expect(isomorphic=True)),
        Op("smoke batch", ["batch", "--input", str(batch), "--split-table", str(table), "--json"],
           expect_exit=3,
           check=batch_check([-3, -7, -23, -35, -39], {-3: 1, -7: 1, -23: 3, -35: 2, -39: 4},
                             {-39: "2"})[0]),
        Op("smoke verify-uniqueness",
           ["verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1,2", "--json"],
           check=_expect(all_passed=True)),
        Op("smoke dual", ["dual", "--input", str(desc), "--json"], check=_expect(input_kind="profinite")),
        Op("smoke truncate", ["truncate", "--input", str(desc), "--prime", "2", "--max-exp", "3",
                              "--cap", "1", "--free-level", "2", "--json"],
           check=_expect(group="2,4,4,4,8")),
        Op("smoke fftype", ["fftype", "--prime", "2", "--n", "12", "--class0", "4,3", "--json"],
           check=_expect(dk=3, nonp_class="3")),
        Op("smoke ffcompare", ["ffcompare", "--field", "2:12:4,3", "--field", "2:3:3", "--json"],
           check=_expect(isomorphic=True)),
        Op("smoke verify_diagram", call=("verify_diagram", 2, "2", (1, 2), 1),
           check=_expect(passed=True), kind="diagram"),
    ]


# ---------------------------------------------------------------------------
# cli-mix: short fresh-process calls of all nine subcommands

SMALL_CLI_BAND = (3, 500)
TINY_UNIQUENESS = [(2, "1", (1, 2)), (2, "1", (1, 2, 3)), (2, "2", (1, 2)), (2, "2", (1, 2, 3)),
                   (2, "4", (1, 2)), (2, "2,2", (1, 2)), (3, "3", (1, 2))]


class Workload:
    """A fixed op set; `groups` lists op indices that always run back to back."""

    #: Cycles a measurement runs at least, however long they take.
    min_cycles = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.groups: list[list[int]] = []

    def _add(self, *ops: Op) -> None:
        self.groups.append(list(range(len(self.ops), len(self.ops) + len(ops))))
        self.ops.extend(ops)

    def round_order(self) -> list[int]:
        """Every op once, groups in a new seeded order."""
        groups = self.groups[:]
        self.rng.shuffle(groups)
        return [i for g in groups for i in g]

    def cycle(self) -> list[list[int]]:
        """The rounds of one measurement cycle, which runs every op at least once."""
        return [self.round_order()]


class CliMix(Workload):
    """One call of each of the nine subcommands with seeded arguments."""

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed)
        self.tmp = tmp
        self.n = 0
        self.pool = [d for d in inputs.fundamental_discriminants(*SMALL_CLI_BAND) if d not in inputs.EXCLUDED]
        self.h = {d: len(inputs.reduced_forms(d)) for d in self.pool}
        self.grid = load_expected_grid()
        for make in (self.classgroup, self.classify, self.compare, self.batch, self.uniqueness,
                     self.dual, self.truncate, self.fftype, self.ffcompare):
            self._add(make())

    def _file(self, suffix: str) -> Path:
        self.n += 1
        return self.tmp / f"cli{self.n}{suffix}"

    def _table(self, discs) -> tuple[dict[int, str], list[str]]:
        table = inputs.split_table(self.rng, {d: self.h[d] for d in discs})
        path = self._file(".split")
        inputs.write_split_table(path, table)
        return table, ["--split-table", str(path)]

    def classgroup(self) -> Op:
        d = self.rng.choice(self.pool)
        return Op("classgroup", ["classgroup", "--disc", str(d), "--json"],
                  check=classgroup_check(d, inputs.reduced_forms(d)))

    def classify(self) -> Op:
        rng = self.rng
        variant = rng.choice(["builtin", "forced", "inline", "table", "unavailable", "excluded"])
        if variant == "excluded":
            return Op("classify excluded", ["classify", "--disc", str(rng.choice(inputs.EXCLUDED)), "--json"],
                      expect_exit=2, check=_empty)
        if variant == "builtin":
            d = rng.choice(inputs.BUILTIN_SPLIT)
        elif variant == "forced":
            d = rng.choice([d for d in self.pool if self.h[d] == 1])
        else:
            d = rng.choice([d for d in self.pool if self.h[d] > 1 and d not in inputs.BUILTIN_SPLIT])
        argv = ["classify", "--disc", str(d), "--json"]
        table: dict[int, str] = {}
        if variant == "inline":
            table = {d: str(rng.choice(sorted(inputs.factorize(self.h[d]))))}
            argv += ["--split", table[d]]
        elif variant == "table":
            table, extra = self._table([d])
            argv += extra
        resolved = inputs.split_source(d, self.h[d], table)
        if resolved is None:
            return Op(f"classify {variant}", argv, expect_exit=3, check=_empty)
        source, split = resolved
        return Op(f"classify {variant}", argv, check=_expect(
            command="classify", discriminant=d, class_number=self.h[d], split_source=source,
            type={"free_rank": 2, "split": split, "torsion_closure": "T"}))

    def compare(self) -> Op:
        rng = self.rng
        discs = rng.sample(self.pool, rng.choice([2, 3]))
        table = {
            d: rng.choice(["1"] + [str(p) for p in sorted(inputs.factorize(self.h[d]))])
            for d in discs if self.h[d] > 1 and d not in inputs.BUILTIN_SPLIT
        }
        path = self._file(".split")
        inputs.write_split_table(path, table)
        argv = ["compare"] + [x for d in discs for x in ("--disc", str(d))]
        argv += ["--split-table", str(path), "--json"]
        splits = [inputs.split_source(d, self.h[d], table)[1] for d in discs]
        types = {str(d): {"free_rank": 2, "split": s, "torsion_closure": "T"} for d, s in zip(discs, splits)}
        return Op("compare", argv, check=_expect(
            command="compare", discriminants=discs, types=types,
            isomorphic=all(s == splits[0] for s in splits)))

    def batch(self) -> Op:
        discs = self.rng.sample(self.pool, 12)
        table, extra = self._table(discs)
        path = self._file(".txt")
        path.write_text("".join(f"{d}\n" for d in discs))
        check, code = batch_check(discs, self.h, table)
        return Op("batch", ["batch", "--input", str(path)] + extra + ["--json"],
                  expect_exit=code, check=check)

    def uniqueness(self) -> Op:
        prime, sub, exps = self.rng.choice(TINY_UNIQUENESS)
        lists = [exps] + [e for p, s, e in TINY_UNIQUENESS if (p, s) == (prime, sub) and e != exps][:1]
        argv = ["verify-uniqueness", "--prime", str(prime), "--sub", sub]
        for e in lists:
            argv += ["--exponents", ",".join(map(str, e))]
        cases = [json.loads(self.grid[grid_key(prime, sub, e)]["stdout"])["cases"][0] for e in lists]
        return Op("verify-uniqueness", argv + ["--json"], check=_expect(
            command="verify-uniqueness", prime=prime, sub=sub, cases=cases,
            all_passed=all(c["passed"] for c in cases)))

    def dual(self) -> Op:
        doc = inputs.descriptor(self.rng)
        path = self._file(".json")
        inputs.write_json(path, doc)
        other = "discrete" if doc["kind"] == "profinite" else "profinite"
        return Op("dual", ["dual", "--input", str(path), "--json"], check=_expect(
            command="dual", input_kind=doc["kind"], dual=dict(doc, kind=other)))

    def truncate(self) -> Op:
        rng = self.rng
        doc = inputs.descriptor(rng)
        path = self._file(".json")
        inputs.write_json(path, doc)
        prime, max_exp, cap, level = rng.choice([2, 3, 5, 7]), rng.randrange(0, 5), rng.randrange(0, 3), rng.randrange(0, 4)
        argv = ["truncate", "--input", str(path), "--prime", str(prime), "--max-exp", str(max_exp),
                "--cap", str(cap), "--free-level", str(level), "--json"]
        return Op("truncate", argv, check=_expect(
            command="truncate", group=inputs.truncation(doc, prime, max_exp, cap, level)))

    def _field(self) -> tuple[int, int, list[int]]:
        rng = self.rng
        return rng.choice([2, 3, 5, 7]), rng.randrange(1, 40), [rng.randrange(1, 30) for _ in range(rng.randrange(0, 3))]

    @staticmethod
    def _invariant(p: int, n: int, orders: list[int]) -> tuple[int, int, str]:
        while n % p == 0:
            n //= p
        return p, n, inputs.literal(inputs.without_prime(orders, p))

    def fftype(self) -> Op:
        p, n, orders = self._field()
        _, dk, nonp = self._invariant(p, n, orders)
        argv = ["fftype", "--prime", str(p), "--n", str(n), "--class0", ",".join(map(str, orders)) or "1", "--json"]
        return Op("fftype", argv, check=_expect(characteristic=p, dk=dk, nonp_class=nonp))

    def ffcompare(self) -> Op:
        p, n, orders = self._field()
        if self.rng.random() < 0.5:
            other = (p, n * p, orders + [p])  # same invariant, different p-parts
        else:
            other = self._field()
        fields = [(p, n, orders), other]
        argv = ["ffcompare"]
        for q, m, o in fields:
            argv += ["--field", f"{q}:{m}:{','.join(map(str, o)) or '1'}"]
        same = self._invariant(*fields[0]) == self._invariant(*fields[1])
        return Op("ffcompare", argv + ["--json"], check=_expect(command="ffcompare", isomorphic=same))


# ---------------------------------------------------------------------------
# classgroup-small: in-process `batch` over every small discriminant


class ClassgroupSmall(Workload):
    """Every fundamental D with 3 <= |D| < 3000, shuffled into batch calls of CHUNK."""

    CHUNK = 8

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed)
        pool = [d for d in inputs.fundamental_discriminants(*inputs.SMALL_BAND) if d not in inputs.EXCLUDED]
        h = {d: len(inputs.reduced_forms(d)) for d in pool}
        table = inputs.split_table(self.rng, h)
        table_path = tmp / "small.split"
        inputs.write_split_table(table_path, table)
        self.rng.shuffle(pool)
        for n, i in enumerate(range(0, len(pool), self.CHUNK)):
            discs = pool[i:i + self.CHUNK]
            path = tmp / f"small{n}.txt"
            path.write_text("".join(f"{d}\n" for d in discs))
            check, code = batch_check(discs, h, table)
            argv = ["batch", "--input", str(path), "--split-table", str(table_path), "--json"]
            self._add(Op("batch", argv, expect_exit=code, check=check, items=len(discs)))


# ---------------------------------------------------------------------------
# classgroup-large: in-process `classgroup` at 10^7 <= |D| < 10^8


#: Seed of the fixed classgroup-large panel.  The cost of one D varies several
#: times over with its class number, so a handful of D drawn per run seed
#: would move the median by more than any useful bound; the run seed only
#: shuffles the order.
PANEL_SEED = 20170321


def large_panel() -> list[int]:
    """One distinct fundamental D per log-uniform stratum of 10^7 <= |D| < 10^8."""
    return inputs.large_band_round(random.Random(PANEL_SEED), set())


class ClassgroupLarge(Workload):
    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed)
        for d in large_panel():
            self._add(Op("classgroup", ["classgroup", "--disc", str(d), "--json"], check=classgroup_check(d)))


# ---------------------------------------------------------------------------
# extension-grid: uniqueness sweeps and diagram checks

#: The nine acceptance cases plus three heavier ones (orders up to 2^10).
GRID = [
    (2, "1", (1, 2)), (2, "1", (1, 2, 3)), (2, "2", (1, 2)), (2, "2", (1, 2, 3)),
    (2, "4", (1, 2)), (2, "4", (1, 2, 3)), (2, "2,2", (1, 2)), (2, "2,2", (1, 2, 3)),
    (3, "3", (1, 2)),
    (2, "2,2", (1, 2, 3, 4)), (2, "2,2,2", (1, 2, 3)), (2, "4", (1, 2, 3, 4)),
]
HEAVY = GRID[9:]
GRID_BOUND = 4096


def uniqueness_argv(prime: int, sub: str, exps) -> list[str]:
    return ["verify-uniqueness", "--prime", str(prime), "--sub", sub,
            "--exponents", ",".join(map(str, exps)), "--bound", str(GRID_BOUND), "--json"]


class ExtensionGrid(Workload):
    """Every grid case: its uniqueness call, then its diagram checks; seeds only shuffle.

    A cycle has one round per heavy case: each round runs every light case
    and one heavy case, so the light cases get several executions in the
    time the heavy ones get their first.  A cycle takes about 20 s on a 2-vCPU
    Intel Xeon VM, so a run has at least two, not three: three made one run
    take over a minute.
    """

    min_cycles = 2

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed)
        self.expected = load_expected_grid()
        for case in GRID:
            self._add(*self.case_ops(*case))

    def cycle(self) -> list[list[int]]:
        light = [g for g, case in zip(self.groups, GRID) if case not in HEAVY]
        heavy = [g for g, case in zip(self.groups, GRID) if case in HEAVY]
        self.rng.shuffle(heavy)
        rounds = []
        for h in heavy:
            groups = light + [h]
            self.rng.shuffle(groups)
            rounds.append([i for g in groups for i in g])
        return rounds

    def case_ops(self, prime: int, sub: str, exps) -> list[Op]:
        want = self.expected[grid_key(prime, sub, exps)]
        label = f"{prime} {sub} {list(exps)}"
        stdout = want["stdout"]
        ops = [Op(f"uniqueness {label}", uniqueness_argv(prime, sub, exps), kind="uniqueness",
                  check=lambda out, s=stdout: None if out == s else "report differs from the expected document")]
        for n in (1, 2):
            diagram = want["diagram"][str(n)]
            ops.append(Op(f"diagram n={n} {label}", call=("verify_diagram", prime, sub, exps, n),
                          kind="diagram", items=0, check=_expect(**diagram)))
        return ops


WORKLOADS = {
    "cli-mix": CliMix,
    "classgroup-small": ClassgroupSmall,
    "classgroup-large": ClassgroupLarge,
    "extension-grid": ExtensionGrid,
}
