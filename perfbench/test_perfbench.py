"""Determinism and oracle tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _argvs(ops, tmp: Path) -> list[list[str]]:
    return [[a.replace(str(tmp), "TMP") for a in op.argv] for op in ops]


def test_fundamental_oracle_matches_known_class_numbers():
    known = {-3: 1, -4: 1, -7: 1, -23: 3, -47: 5, -71: 7, -163: 1, -84: 4, -35: 2, -39: 4}
    for d, h in known.items():
        assert inputs.is_fundamental(d)
        assert len(inputs.reduced_forms(d)) == h
    assert not inputs.is_fundamental(-12) and not inputs.is_fundamental(-16)
    assert len(inputs.fundamental_discriminants(*inputs.SMALL_BAND)) == 911


def test_sampler_is_seeded_distinct_and_in_band():
    def draw(seed):
        rng, taken = random.Random(seed), set()
        return [inputs.sample_fundamental(rng, 1000, 5000, taken) for _ in range(50)]

    a = draw(7)
    assert a == draw(7) and a != draw(8)
    assert len(set(a)) == 50
    assert all(1000 <= -d < 5000 and inputs.is_fundamental(d) for d in a)


def test_large_panel_has_one_fundamental_d_per_stratum():
    panel = workloads.large_panel()
    assert panel == workloads.large_panel()
    assert len(set(panel)) == len(panel) == inputs.LARGE_STRATA
    lo, hi = inputs.LARGE_BAND
    assert all(lo <= -d < hi and inputs.is_fundamental(d) for d in panel)
    ratio = (hi / lo) ** (1 / inputs.LARGE_STRATA)
    sizes = sorted(-d for d in panel)
    assert all(lo * ratio ** i - 1 <= s < lo * ratio ** (i + 1) + 1 for i, s in enumerate(sizes))


def test_split_table_entries_embed_and_are_seeded():
    h = {d: len(inputs.reduced_forms(d)) for d in inputs.fundamental_discriminants(3, 600)}
    t1 = inputs.split_table(random.Random(3), h)
    assert t1 == inputs.split_table(random.Random(3), h)
    assert t1 != inputs.split_table(random.Random(4), h)
    for d, g in t1.items():
        assert d not in inputs.BUILTIN_SPLIT
        assert h[d] % inputs.order_of(g) == 0
    sources = {inputs.split_source(d, h[d], t1) for d in h}
    kinds = {s[0] if s else None for s in sources}
    assert kinds == {"forced_trivial", "user_supplied", "builtin_table", None}


def test_workload_op_sequences_are_seeded(tmp_path):
    for name in ("cli-mix", "classgroup-small", "classgroup-large", "extension-grid"):
        seqs = []
        for seed in (5, 5, 6):
            d = tmp_path / f"{name}-{len(seqs)}"
            d.mkdir()
            wl = workloads.WORKLOADS[name](seed, d)
            ops = [wl.ops[i] for i in wl.round_order() + wl.round_order()]
            seqs.append(_argvs([op for op in ops if op.argv], d))
        assert seqs[0] == seqs[1], name
        assert seqs[0] != seqs[2], name


def test_cli_mix_pass_covers_all_nine_subcommands(tmp_path):
    ops = workloads.CliMix(11, tmp_path).ops
    assert sorted(op.argv[0] for op in ops) == sorted(
        ["classgroup", "classify", "compare", "batch", "verify-uniqueness", "dual",
         "truncate", "fftype", "ffcompare"])


def test_truncation_oracle():
    doc = {"kind": "profinite", "free_rank": 2, "all_primes_T": False,
           "locals": [{"prime": 2, "local_free_rank": 1, "full_tower": False,
                       "cyclic": [{"exp": 1, "mult": 2}, {"exp": 3, "mult": "aleph0"}]}]}
    assert inputs.truncation(doc, 2, 3, 1, 2) == "2,4,4,4,8"
    assert inputs.truncation(doc, 3, 3, 2, 1) == "3,3"
    assert inputs.truncation(doc, 2, 0, 0, 0) == "1"


def test_expected_grid_keeps_the_known_diagram_failures():
    grid = workloads.load_expected_grid()
    assert len(grid) == len(workloads.GRID)
    failing = sorted(k for k, v in grid.items() if not v["diagram"]["2"]["passed"])
    assert failing == ["2|2,2,2|1,2,3", "2|2,2|1,2"]
    assert all(v["diagram"]["1"]["passed"] for v in grid.values())
    assert all(json.loads(v["stdout"])["all_passed"] for v in grid.values())


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 37)]
    value, pct = run.tail(values)
    assert pct == 72 and sum(v > value for v in values) >= 10
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)


def test_tracer_wraps_names_imported_by_value_and_restores_them():
    import runner
    from tracer import Tracer

    runner.load_galab()
    ext = sys.modules["galab.extensions"]
    fin = sys.modules["galab.finabelian"]
    before = (ext.quotient, fin.quotient, ext.partitions_desc)
    tracer = Tracer()
    tracer.install()
    try:
        assert ext.quotient is fin.quotient is not before[1]
        G = fin.FiniteAbelianGroup
        ext.verify_uniqueness(2, G(2), [(1, 2)])
    finally:
        tracer.uninstall()
    assert (ext.quotient, fin.quotient, ext.partitions_desc) == before
    m = tracer.layer_metrics()
    assert m["extensions.enumerate_extensions.calls"] == 1
    assert m["finabelian.quotient.calls"] > 0 and m["extensions.partitions_considered"] > 0
    totals = tracer.totals()
    calls, incl, own = totals["extensions.verify_uniqueness"]
    assert calls == 1 and 0 < own < incl


def test_round_child_runs_ops_in_a_fresh_process_and_keeps_digests(tmp_path):
    import runner

    wl = workloads.ClassgroupSmall(workloads.DIGEST_SEED, tmp_path)
    rec = runner.Recorder("classgroup-small", workloads.DIGEST_SEED, tmp_path, in_process=False)
    rec.run_round(wl.ops, [2, 0])
    assert [r["index"] for r in rec.records] == [2, 0]
    assert all(r["problem"] is None and r["scaled"] > 0 for r in rec.records)
    assert all("stdout" not in r for r in rec.records)
    stored = workloads.load_digests()["classgroup-small"]
    assert [r["digest"] for r in rec.records] == [stored[2], stored[0]]
    assert rec.speed.factors and rec.peak_rss_mb() > 0
