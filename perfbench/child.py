"""One benchmark child process: a set-up probe or one workload pass.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds `src` (the directory insiderlab must be imported from),
`trace` (wrap the layers in spans), `spans_path` and `ops`, a list of
`{"command", "argv"}` run back to back through `insiderlab.cli.main`.  The
child prints `ready` once `insiderlab.cli` is imported, then one JSON line:
per-op exit code and wall time, the pass wall time, `ru_maxrss` and, when
traced, the span summary.  An empty op list makes a set-up probe.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "python": sys.version.split()[0]}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(cli, argv: list[str]) -> tuple[object, str]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a traceback is a failed op, not a failed benchmark
        code = "exception"
        err.write(traceback.format_exc())
    return code, err.getvalue()[-2000:]


def main() -> int:
    spec = json.loads(sys.argv[1])
    import insiderlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"insiderlab imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ops = []
    cpu_start = _cpu_s()
    start = time.perf_counter()
    for op_id, op in enumerate(spec["ops"]):
        t0 = time.perf_counter()
        if tracer is None:
            code, err = _run_op(cli, op["argv"])
        else:
            with tracer.op(op_id, op["command"]):
                code, err = _run_op(cli, op["argv"])
        ops.append({"code": code, "wall_s": time.perf_counter() - t0, "stderr": err})
    report = {
        "ops": ops,
        "wall_s": time.perf_counter() - start,
        "cpu_s": _cpu_s() - cpu_start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if not spec["ops"]:
        report["env"] = _environment()
    if tracer is not None:
        tracer.write(spec["spans_path"])
        report["trace"] = tracer.summary()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
