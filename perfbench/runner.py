"""Executing ops: galab from the checkout's ``src/``, in-process or in a fresh process.

Importing this module puts ``<checkout>/src`` first on ``sys.path`` but does
not import galab; ``load_galab()`` does, and refuses a galab found anywhere
else, so the benchmark never measures an installed copy by mistake.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


class MissingProgram(Exception):
    """The checkout holds no galab sources to benchmark."""


def check_checkout() -> None:
    if not (SRC / "galab" / "__init__.py").is_file():
        raise MissingProgram(f"no galab sources under {SRC}")


def load_galab():
    """Import galab from the checkout and return the package."""
    check_checkout()
    import galab
    import galab.cli

    if Path(galab.__file__).resolve().parent != (SRC / "galab").resolve():
        raise MissingProgram(f"galab was imported from {galab.__file__}, not from {SRC}")
    return galab


#: Wall time of probe() on the reference machine (Intel Xeon, 2 vCPUs) when no
#: other tenant slows its core.
REFERENCE_PROBE_S = 0.0075
PROBE_DISCRIMINANTS = (-120003, -120004)
PROBE_INTERVAL_S = 0.2
#: Repeats per probe: a longer probe estimates the slowdown with less noise.
PROBE_REPEATS = 3


def probe() -> float:
    """Mean wall time of a fixed pure-Python computation that does not involve galab."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        for d in PROBE_DISCRIMINANTS:
            inputs.reduced_forms(d)
    return (time.perf_counter() - t0) / PROBE_REPEATS


class SpeedProbe:
    """Rescales wall times to the reference machine speed.

    Other tenants of the shared host slow this core by up to about 1.8 times,
    for seconds to many minutes at a time, so raw wall times of the same ops
    drift by a third between runs.  The probe is timed at least every
    PROBE_INTERVAL_S between ops, on the same core (the benchmark pins itself
    and its children to one CPU), and each wall time recorded in between is
    scaled by REFERENCE_PROBE_S over the mean of the two probes around it.
    On a 2-vCPU Intel Xeon VM, over 25 s windows of a contended period, a
    probe of one repeat halved the window-to-window range of per-op fastest
    times (0.34-0.47 of the median raw, 0.16-0.20 scaled).
    """

    def __init__(self) -> None:
        self.last = probe()
        self.at = time.perf_counter()
        self.pending: list[dict] = []
        self.factors: list[float] = []

    def add(self, rec: dict) -> None:
        """Queue a record with a raw "wall"; the next probe gives it a "scaled" time."""
        self.pending.append(rec)
        if time.perf_counter() - self.at >= PROBE_INTERVAL_S:
            self.settle()

    def settle(self) -> None:
        now = probe()
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2)
        for rec in self.pending:
            rec["scaled"] = rec["wall"] * factor
        if self.pending:
            self.factors.append(factor)
        self.pending.clear()
        self.last, self.at = now, time.perf_counter()


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one core, the core the probe measures."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def main(argv: list[str]) -> int:
    """galab.cli.main, looked up at call time so a tracer's wrapper is used."""
    return sys.modules["galab.cli"].main(argv)


def run_inprocess(op: workloads.Op) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of an op run inside this process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.call is None:
                code = main(op.argv)
            else:
                code = _library_call(op.call, out)
    except Exception:  # a crash is a failed op, reported with its traceback
        return 1, out.getvalue(), err.getvalue() + traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def _library_call(call: tuple, out: io.StringIO) -> int:
    name, prime, sub, exps, n = call
    if name != "verify_diagram":
        raise ValueError(f"unknown library call {name!r}")
    fin = sys.modules["galab.finabelian"]
    ext = sys.modules["galab.extensions"]
    group = fin.parse_group_literal(sub)
    spec = ext.TruncationSpec(prime, group, tuple(exps), 0)
    check = ext.verify_diagram(prime, group, spec, n, bound=workloads.GRID_BOUND)
    out.write(json.dumps({"passed": check.passed, "reason": check.reason}, sort_keys=True) + "\n")
    return 0


def run_process(cmd: list[str], tmp: Path) -> tuple[int, str, str, float, int]:
    """(exit code, stdout, stderr, wall seconds, peak RSS in KiB) of a child process."""
    out_path, err_path = tmp / "child.out", tmp / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(), wall, usage.ru_maxrss)


def galab_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "galab", *argv]


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def run_smoke(tmp: Path) -> list[str]:
    """Run the warm-up ops in this process; the problems found (empty when correct)."""
    load_galab()
    stored = workloads.load_digests().get("smoke", [])
    problems = []
    for i, op in enumerate(workloads.smoke_ops(tmp)):
        code, out, err = run_inprocess(op)
        problem = op.judge(code, out, err)
        if problem is None and i < len(stored) and digest(out) != stored[i]:
            problem = "stdout differs from the stored digest"
        if problem:
            problems.append(f"{op.label}: {problem}")
    return problems


class Recorder:
    """Runs ops one at a time, times them, judges their output and keeps the records.

    A record keeps the sha256 digest of the op's stdout, not the stdout, so
    the harness's share of the peak RSS does not grow with the executions.
    """

    def __init__(self, name: str, seed: int, tmp: Path, in_process: bool):
        self.name = name
        self.seed = seed
        self.tmp = tmp
        self.in_process = in_process
        stored = workloads.load_digests()
        self.digests = stored.get(name, []) if seed == workloads.DIGEST_SEED else []
        self.records: list[dict] = []
        self.peak_child_kib = 0
        self.speed = SpeedProbe()

    def run(self, op: workloads.Op, index: int | None = None) -> dict:
        """Execute an op; `index` is its place in the op set, for the stored digests."""
        if self.in_process:
            t0 = time.perf_counter()
            code, out, err = run_inprocess(op)
            wall = time.perf_counter() - t0
        else:
            code, out, err, wall, kib = run_process(galab_cmd(op.argv), self.tmp)
            self.peak_child_kib = max(self.peak_child_kib, kib)
        problem = op.judge(code, out, err)
        sha = digest(out)
        if problem is None and index is not None and index < len(self.digests) and sha != self.digests[index]:
            problem = "stdout differs from the stored digest"
        rec = {"index": index, "label": op.label, "wall": wall, "problem": problem, "digest": sha}
        self.records.append(rec)
        self.speed.add(rec)
        return rec

    def run_round(self, ops: list[workloads.Op], order: list[int]) -> None:
        """Execute the ops at `order` in-process in one fresh child (child.py round).

        Each round gets a new process, so no op is timed with caches that an
        earlier execution of the same op filled.
        """
        out = self.tmp / "round.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"), "round", self.name,
               str(self.seed), str(self.tmp), str(out), ",".join(map(str, order))]
        code, _, err, _, kib = run_process(cmd, self.tmp)
        self.peak_child_kib = max(self.peak_child_kib, kib)
        if code != 0 or not out.exists():
            problem = f"round child failed: {err.strip() or f'exit code {code}'}"
            self.records += [{"index": i, "label": ops[i].label, "wall": math.nan, "scaled": math.nan,
                              "problem": problem, "digest": None} for i in order]
            return
        done = json.loads(out.read_text())
        self.records += done["records"]
        self.speed.factors += done["factors"]

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that ran the ops: this one, or the largest child."""
        if self.in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self.peak_child_kib / 1024
