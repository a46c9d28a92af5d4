#!/usr/bin/env python3
"""galab benchmark: four seeded workloads, end-to-end metrics and a traced per-layer run.

Run one workload (from the root of a checkout; galab is imported from src/):

    python3 perfbench/run.py --workload classgroup-small --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run executes the workload's op set in cycles for
about ``--seconds`` seconds (at least the workload's min_cycles) with tracing off.
cli-mix runs each op in a fresh ``python -m galab`` process; the in-process
workloads run each round of ops in a fresh child process (child.py round),
so no execution of an op shares a process with an earlier one.  op_p50_s
and items_per_s are taken over each op's fastest execution, op_tail_s over
all executions.  Times are wall times scaled to the reference machine speed
by a probe timed between ops (runner.SpeedProbe), because other tenants of a
shared host slow the core for minutes at a time; the raw wall times are
printed as well.  With
``--trace 1`` it runs every op once with spans recorded around each call
into galab's modules and once untraced, and reports the per-layer metrics
and the tracing overhead.  Either way the last line of standard output is
one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --steadiness [--seed FIRST] [--workload NAME ...]

repeats workloads in fresh processes with STEADINESS_RUNS consecutive seeds
and prints every end-to-end metric's median and quartile spread against its
bound.

    python3 perfbench/run.py --record

rewrites perfbench/expected/ from the current program: the extension-grid
documents and the stdout digests of the default seed.  Only do this when an
output change is intended.

Ops run one at a time (closed loop, one client), with at most one child
process alive.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import runner  # noqa: E402
import workloads  # noqa: E402
from runner import ROOT  # noqa: E402

SETUP_SAMPLES = 5
STEADINESS_RUNS = 10
IMPORT_SAMPLES = 3
SPAN_DIR = ROOT / ".perfbench-out"


# ---------------------------------------------------------------------------
# Executing and recording ops


def setup_samples(tmp: Path) -> tuple[list[dict], list[str]]:
    """Timings of fresh processes that import galab and run the warm-up."""
    samples, problems = [], []
    speed = runner.SpeedProbe()
    cmd = [sys.executable, str(HERE / "child.py"), "smoke", str(tmp)]
    for _ in range(SETUP_SAMPLES):
        code, _, err, wall, _ = runner.run_process(cmd, tmp)
        samples.append({"wall": wall})
        speed.add(samples[-1])
        if code != 0:
            problems.append(f"set-up: {err.strip() or f'exit code {code}'}")
    speed.settle()
    return samples, problems


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with >= 10 samples beyond it.

    Nearest-rank percentiles, never below p50: with fewer than 20 samples
    the nearest-rank median is reported as the tail.
    """
    n = len(values)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(values)[rank - 1], pct


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) over runs, with statistics.quantiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def measure(name: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, list[str], int, int]:
    problems: list[str] = []
    setup, setup_problems = setup_samples(tmp)
    problems += setup_problems
    in_process = name != "cli-mix"
    wl = workloads.WORKLOADS[name](seed, tmp)
    rec = runner.Recorder(name, seed, tmp, in_process=False)
    cycles = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for order in wl.cycle():
            if in_process:
                rec.run_round(wl.ops, order)
            else:
                for i in order:
                    rec.run(wl.ops[i], i)
        cycles += 1
        now = time.perf_counter()
        if cycles >= wl.min_cycles and now - start + (now - t0) > seconds:
            break
    rec.speed.settle()

    records = rec.records
    failed = sum(1 for r in records if r["problem"])
    problems += [f"{r['label']}: {r['problem']}" for r in records if r["problem"]]
    per_op: list[list[float]] = [[] for _ in wl.ops]
    for r in records:
        per_op[r["index"]].append(r["scaled"])
    latency = [min(v) for v in per_op]
    tail_value, tail_pct = tail([r["scaled"] for r in records])
    busy = sum(latency)
    items = sum(op.items for op in wl.ops)
    metrics = {
        "setup_s": (statistics.median(s["scaled"] for s in setup), "s"),
        "op_p50_s": (statistics.median(latency), "s"),
        "op_tail_s": (tail_value, "s"),
        "items_per_s": (items / busy, "1/s"),
        "peak_rss_mb": (rec.peak_rss_mb(), "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }
    runs = [len(v) for v in per_op]
    raw = [min(r["wall"] for r in records if r["index"] == i) for i in range(len(wl.ops))]
    factors = rec.speed.factors
    print(f"workload {name}  seed {seed}  {len(wl.ops)} ops, {cycles} cycles, {len(records)} executions "
          f"of {min(runs)} to {max(runs)} per op  (closed loop, one client; "
          f"{'each round in a fresh process' if in_process else 'each op in a fresh process'})")
    print(f"  speed factor (reference probe / probe): median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f} to {max(factors):.3f} over {len(factors)} probes")
    setup_raw = " ".join(f"{s['wall']:.4f}" for s in setup)
    print(f"  raw wall, fastest per op: op p50 {statistics.median(raw):.5f} s, ops total {sum(raw):.4f} s; "
          f"setup samples {setup_raw} s")
    print(f"  op_tail_s is p{tail_pct} of {len(records)} scaled executions")
    print(f"  failed_ratio {failed / len(records):.6f}  ({failed} of {len(records)} executions)")
    if name == "classgroup-small":
        print(f"  fields_per_s {items / busy:.2f} 1/s  ({items} fundamental D, 3 <= |D| < 3000, "
              f"{workloads.ClassgroupSmall.CHUNK} per batch call)")
    if name == "extension-grid":
        for kind in ("uniqueness", "diagram"):
            total = sum(t for t, op in zip(latency, wl.ops) if op.kind == kind)
            print(f"  {kind}_wall_s {total:.4f} s  (grid total of fastest executions, scaled)")
    return metrics, problems, len(records), failed


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def import_times(tmp: Path) -> tuple[float, float]:
    """Median cumulative import time of galab, and of sympy under it (python -X importtime)."""
    galab_s, sympy_s = [], []
    cmd = [sys.executable, "-X", "importtime", "-c", "import galab"]
    for _ in range(IMPORT_SAMPLES):
        code, _, err, _, _ = runner.run_process(cmd, tmp)
        if code != 0:
            raise RuntimeError(f"import galab failed: {err}")
        found = {}
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("galab", "sympy"):
                found[parts[2]] = int(parts[1]) / 1e6
        galab_s.append(found["galab"])
        sympy_s.append(found.get("sympy", 0.0))
    return statistics.median(galab_s), statistics.median(sympy_s)


def trace(name: str, seed: int, tmp: Path) -> tuple[dict, list[str], int, int]:
    """Each op of one round runs traced, then untraced; spans also cover the warm-up."""
    from tracer import Tracer

    wl = workloads.WORKLOADS[name](seed, tmp)
    order = wl.round_order()
    in_process = name != "cli-mix"
    rec = runner.Recorder(name, seed, tmp, in_process)
    tracer = Tracer()
    problems: list[str] = []
    traced_failed = 0
    traced = 0.0
    state = tmp / "trace.json"

    def run_traced(argv: list[str]) -> tuple[int, str, str, float]:
        """A traced child process (cli-mix): galab's CLI, or the warm-up when argv is empty."""
        state.unlink(missing_ok=True)
        code, out, err, wall, _ = runner.run_process(
            [sys.executable, str(HERE / "child.py"), "trace", str(state), str(tmp), *argv], tmp)
        if state.exists():
            tracer.merge(json.loads(state.read_text()))
        else:
            problems.append(f"traced child wrote no spans: {err.strip()}")
        return code, out, err, wall

    if in_process:
        runner.load_galab()
        tracer.install()
        try:
            with tracer.root("smoke"):
                problems += runner.run_smoke(tmp)
        finally:
            tracer.uninstall()
    elif run_traced([])[0] != 0:
        problems.append("traced warm-up failed")
    for i in order:
        op = wl.ops[i]
        if in_process:
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.root("op"):
                    code, out, err = runner.run_inprocess(op)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            code, out, err, wall = run_traced(op.argv)
        traced += wall
        problem = op.judge(code, out, err)
        if problem:
            traced_failed += 1
            problems.append(f"{op.label} (traced): {problem}")
        rec.run(op, i)
    untraced = sum(r["wall"] for r in rec.records)
    failed = traced_failed + sum(1 for r in rec.records if r["problem"])
    problems += [f"{r['label']}: {r['problem']}" for r in rec.records if r["problem"]]
    galab_s, sympy_s = import_times(tmp)

    metrics = {"import.galab_s": galab_s, "import.sympy_s": sympy_s}
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = traced - untraced
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(span_file)
    print(f"workload {name}  seed {seed}  {len(order)} ops, each traced then untraced  "
          f"{len(tracer.start)} spans written to {span_file.relative_to(ROOT)}")
    print(f"  traced {traced:.4f} s  untraced {untraced:.4f} s  overhead {traced - untraced:.4f} s "
          f"({100 * (traced - untraced) / untraced:.1f}%)")
    units = _units("per_layer")
    return {k: (v, units[k]) for k, v in metrics.items()}, problems, 2 * len(order), failed


# ---------------------------------------------------------------------------
# Entry points


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    try:
        runner.check_checkout()
    except runner.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runner.pin_to_one_cpu()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if traced:
            metrics, problems, attempted, failed = trace(name, seed, tmp)
        else:
            metrics, problems, attempted, failed = measure(name, seed, seconds, tmp)
    except runner.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name_, (value, unit) in metrics.items():
        print(f"  {name_} {value!r} {unit}")
    for p in problems[:20]:
        print(f"  PROBLEM {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def steadiness(names: list[str], first_seed: int) -> int:
    bench = _benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + STEADINESS_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                print(proc.stdout + proc.stderr)
                print(f"{name} seed {seed}: run failed or incorrect")
                return 1
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s  "
                  + "  ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        summary[name] = {}
        for k, vals in values.items():
            med, q1, q3, spread = quartile_spread(vals)
            bound = bounds[k]["bound"]
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "UNSTEADY")
            print(f"  {name:17s} {k:12s} median {med:.5g} {bounds[k]['unit']:5s} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.4f} bound {bound} -> {verdict}")
            summary[name][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    print(json.dumps(summary))
    return 0


def record() -> int:
    """Rewrite expected/extension_grid.json and expected/digests.json from this program."""
    runner.load_galab()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        grid = {}
        for prime, sub, exps in workloads.GRID:
            op = workloads.Op("record", workloads.uniqueness_argv(prime, sub, exps))
            code, out, err = runner.run_inprocess(op)
            if code != 0:
                raise RuntimeError(err)
            diagram = {}
            for n in (1, 2):
                _, dout, _ = runner.run_inprocess(workloads.Op("record", call=("verify_diagram", prime, sub, exps, n)))
                diagram[str(n)] = json.loads(dout)
            grid[workloads.grid_key(prime, sub, exps)] = {"stdout": out, "diagram": diagram}
        workloads.EXPECTED_GRID.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")

        digests = {"seed": workloads.DIGEST_SEED, "smoke": []}
        for op in workloads.smoke_ops(tmp):
            code, out, err = runner.run_inprocess(op)
            if op.judge(code, out, err):
                raise RuntimeError(f"{op.label}: {op.judge(code, out, err)}")
            digests["smoke"].append(runner.digest(out))
        for name in workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name](workloads.DIGEST_SEED, tmp)
            rec = runner.Recorder(name, -1, tmp, in_process=name != "cli-mix")
            for op in wl.ops:
                r = rec.run(op)
                if r["problem"]:
                    raise RuntimeError(f"{name} {op.label}: {r['problem']}")
            digests[name] = [r["digest"] for r in rec.records]
            print(f"{name}: {len(rec.records)} digests")
        workloads.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.steadiness:
        return steadiness(args.workload or list(workloads.WORKLOADS), args.seed)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    return run_one(args.workload[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
