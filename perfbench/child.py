"""Fresh-process helper of the benchmark.

    python3 perfbench/child.py smoke TMPDIR
        import galab and run the warm-up calls; exit 0 when all are correct.
        The parent times this as one set-up sample.
    python3 perfbench/child.py trace OUT.json TMPDIR [ARGV...]
        run one galab CLI call (or, with no ARGV, the warm-up calls) with the
        tracer installed, write the spans to OUT.json and exit with the
        call's exit code.
    python3 perfbench/child.py round WORKLOAD SEED TMPDIR OUT.json I,J,...
        import galab, build the seeded workload and run its ops at the given
        indices in-process, one at a time; write their timed, judged records
        and the speed probe's factors to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import runner  # noqa: E402  (puts the checkout's src/ first on sys.path)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "smoke":
        problems = runner.run_smoke(Path(argv[1]))
        for p in problems:
            print(p, file=sys.stderr)
        return 1 if problems else 0
    if mode == "trace":
        from tracer import Tracer

        out, tmp, call = Path(argv[1]), Path(argv[2]), argv[3:]
        runner.load_galab()
        tracer = Tracer()
        tracer.install()
        try:
            if call:
                with tracer.root("op"):
                    code = runner.main(call)
            else:
                with tracer.root("smoke"):
                    code = 1 if runner.run_smoke(tmp) else 0
        finally:
            tracer.uninstall()
        out.write_text(json.dumps(tracer.state()))
        return code
    if mode == "round":
        import workloads

        name, seed, tmp, out = argv[1], int(argv[2]), Path(argv[3]), Path(argv[4])
        runner.load_galab()
        wl = workloads.WORKLOADS[name](seed, tmp)
        rec = runner.Recorder(name, seed, tmp, in_process=True)
        for i in map(int, argv[5].split(",")):
            rec.run(wl.ops[i], i)
        rec.speed.settle()
        out.write_text(json.dumps({"records": rec.records, "factors": rec.speed.factors}))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
