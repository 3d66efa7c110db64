"""Benchmark for insiderlab: named workloads driven through `insiderlab.cli.main`.

    python3 perfbench/run.py --workload mc_game --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --defects

Run from the root of a source checkout; insiderlab is imported from `src/`.
One client drives a closed loop: each CLI op starts when the previous one
has finished, and each workload pass runs in a fresh child process.  Passes
repeat until `--seconds` would be exceeded (at least one).  Every op's CSVs
are checked (see workloads.py); a failed check counts as a failed op.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json (medians
over passes).  `--trace 1` alternates untraced passes and traced ones, which
put a span around every call into a layer, and reports the per-layer metrics
(medians over the traced passes).
`--smoke` runs every workload at tiny sizes, twice, traced: all checks must
pass, the negative control must be flagged, and the two runs must give
identical counts.
`--defects` reruns the informed linear solve on the seeds where it missed its
Y0 gate (see workloads.py) and exits 1 while it still misses it.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# One BLAS/OpenMP thread and `--threads 1`: over five back-to-back runs on a
# shared 2-core machine, LSMC wall time spread by about 6% with two threads
# and about 1% with one.
THREADS = 1
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # hard stop for one invocation
MB = 1e6
# computed counts (besides every `.calls`) that must repeat exactly for a seed
EXACT_COUNTS = ("paths.batch_mb", "simulate.mean_se.elements", "bsde.sweeps",
                "bsde.regressions", "csvio.bytes")
# per-layer names for the workload accuracy figures
ACCURACY_NAMES = {"mc_wnv": "simulate.mc_wnv", "lsmc_rel_rmse_Y": "bsde.lsmc_rel_rmse_Y",
                  "bsde_value_abs_err": "bsde.value_abs_err"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


# -- environment ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "?"


def environment(child_env: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "?")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        if _read(f"{d}/type") in ("Unified", "Data"):
            caches[f"L{_read(f'{d}/level')}"] = _read(f"{d}/size")
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches, **child_env,
            "thread_caps": f"--threads {THREADS}, " + ", ".join(f"{k}={THREADS}" for k in THREAD_ENV)}


# -- child processes ----------------------------------------------------------------


def spawn(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one child; returns (set-up seconds, its JSON report).  The child
    is killed at the deadline."""
    env = dict(os.environ, PYTHONPATH=SRC, **{k: str(THREADS) for k in THREAD_ENV})
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "child-stderr.txt"), "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        message = err.read().strip()[-2000:]
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited {proc.returncode} (killed at the time limit if "
                         f"negative): {message}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _digests(out_dir: str, files: list[str]) -> dict[str, str]:
    found = {}
    for f in files:
        path = os.path.join(out_dir, f)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                found[f] = hashlib.sha256(fh.read()).hexdigest()
    return found


class Workload:
    """The passes of one workload in one invocation, and the reference CSV
    digests every later pass must reproduce byte for byte."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        self.name = name
        self.ops = wl.workload_ops(name, seed, smoke=smoke)
        self.dir = os.path.join(WORK, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.reference: list[dict | None] = [None] * len(self.ops)
        self.passes: list[dict] = []

    def out_dir(self, i: int) -> str:
        return os.path.join(self.dir, "out", f"{i}-{self.ops[i].name}")

    def run_pass(self, trace: bool, deadline: float) -> dict:
        shutil.rmtree(os.path.join(self.dir, "out"), ignore_errors=True)
        for i in range(len(self.ops)):
            os.makedirs(self.out_dir(i))
        spec = {"src": SRC, "trace": trace,
                "spans_path": os.path.join(self.dir, f"spans-{len(self.passes)}.jsonl"),
                "ops": [{"command": op.argv[0], "argv": op.argv + ["--out", self.out_dir(i)]}
                        for i, op in enumerate(self.ops)]}
        start = time.perf_counter()
        setup, report = spawn(spec, deadline)
        errors = {}
        for i, (op, result) in enumerate(zip(self.ops, report["ops"])):
            errs = wl.check_op(op, self.out_dir(i), result["code"])
            if result["code"] != 0 and result["stderr"].strip():
                errs.append(result["stderr"].strip().splitlines()[-1])
            digests = _digests(self.out_dir(i), op.files)
            if self.reference[i] is None:
                self.reference[i] = digests
            elif digests != self.reference[i]:
                errs.append("CSV bytes differ from the first pass of this seed")
            errors[op.name] = errs
        op_walls = {op.name: r["wall_s"] for op, r in zip(self.ops, report["ops"])}
        exited = all(r["code"] == 0 for r in report["ops"])
        result = {
            "trace": trace,
            "setup_s": setup,
            "wall_s": report["wall_s"],
            "cpu_s": report["cpu_s"],
            "peak_rss_mb": report["peak_rss_kb"] * 1024 / MB,
            "op_walls": op_walls,
            "errors": errors,
            "accuracy": self._accuracy(op_walls) if exited else {},
            "layers": report.get("trace"),
            "elapsed_s": time.perf_counter() - start,
        }
        self.passes.append(result)
        return result

    def _accuracy(self, op_walls: dict) -> dict:
        """Accuracy figures, also when a gate failed; none from unreadable
        or non-finite outputs."""
        dirs = {op.name: self.out_dir(i) for i, op in enumerate(self.ops)}
        try:
            values = wl.accuracy(self.name, dirs, op_walls)
        except (OSError, KeyError, IndexError, ValueError, ZeroDivisionError):
            return {}
        return {k: v for k, v in values.items() if math.isfinite(v)}

    def tally(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over all passes.  A negative control
        counts as failed when its check did not flag it."""
        attempted, failed, messages = 0, 0, []
        for k, p in enumerate(self.passes):
            for op in self.ops:
                attempted += 1
                errs = p["errors"][op.name]
                if op.expect_fail and not errs:
                    failed += 1
                    messages.append(f"pass {k} {op.name}: negative control was not flagged")
                elif not op.expect_fail and errs:
                    failed += 1
                    messages.append(f"pass {k} {op.name}: " + "; ".join(errs))
        return attempted, failed, messages


# -- reporting ------------------------------------------------------------------------


def layer_values(summary: dict) -> dict:
    """Span summary plus the derived per-layer figures."""
    values = dict(summary)
    values["strategies.closed_form.calls"] = sum(
        n for k, n in summary.items()
        if k.startswith(("strategies.pi_", "strategies.theta_")) and k.endswith(".calls"))
    sweeps = summary.get("bsde.sweeps", 0)
    lsmc_self = (summary.get("bsde.solve_linear_lsmc.self_s", 0.0)
                 + summary.get("bsde.solve_quadratic_lsmc.self_s", 0.0))
    values["bsde.sweep_s"] = lsmc_self / sweeps if sweeps else 0.0
    return values


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def bench(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    w = Workload(name, seed)
    probe = {"src": SRC, "trace": False, "ops": []}
    setups, env = [], {}
    for _ in range(SETUP_PROBES):
        setup, report = spawn(probe, deadline)
        setups.append(setup)
        env = report["env"]
    env = environment(env)
    print(f"insiderlab benchmark: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("environment: " + " ".join(f"{k}={v!r}" for k, v in env.items()))

    def more(kind: list[dict]) -> bool:
        estimate = _median([p["elapsed_s"] for p in kind])
        now = time.perf_counter()
        return now - start + estimate <= seconds and now + estimate < deadline

    def show(k: int, p: dict) -> None:
        ops = ", ".join(f"{op} {s:.3f}s" for op, s in p["op_walls"].items())
        bad = sum(1 for op in w.ops if bool(p["errors"][op.name]) != op.expect_fail)
        print(f"pass {k} ({'traced' if p['trace'] else 'untraced'}): wall_s={p['wall_s']:.4f} cpu_s={p['cpu_s']:.4f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f} setup_s={p['setup_s']:.4f} failed_ops={bad} [{ops}]")

    # traced runs alternate untraced and traced passes, so the overhead
    # compares passes made under the same machine conditions
    show(0, w.run_pass(False, deadline))
    while True:
        traced = trace and not w.passes[-1]["trace"]
        done = [p for p in w.passes if p["trace"] == traced]
        if done and not more(done):
            break
        show(len(w.passes), w.run_pass(traced, deadline))

    attempted, failed, messages = w.tally()
    for m in messages:
        print(f"FAILED {m}")
    plain = [p for p in w.passes if not p["trace"]]
    walls = [p["wall_s"] for p in plain]
    setups += [p["setup_s"] for p in plain]
    cpus = [p["cpu_s"] for p in plain]
    rss = [p["peak_rss_mb"] for p in plain]
    accuracy = {}
    for key in {k for p in plain for k in p["accuracy"]}:
        accuracy[key] = _median([p["accuracy"][key] for p in plain if key in p["accuracy"]])

    print(f"setup_s = {_median(setups):.4f} s ({_spread(setups)})")
    print(f"wall_s = {_median(walls):.4f} s ({_spread(walls)})")
    print(f"cpu_s = {_median(cpus):.4f} s ({_spread(cpus)}; user + system time of the pass)")
    print(f"peak_rss_mb = {_median(rss):.1f} MB ({_spread(rss)})")
    print(f"ops_failed = {failed}/{attempted} = {failed / attempted:.4f} fraction")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, value in sorted(accuracy.items()):
        print(f"{key} = {value:.6g} {units[ACCURACY_NAMES[key]]}")

    if trace:
        traced = [layer_values(p["layers"]) for p in w.passes if p["trace"]]
        values = {m["name"]: _median([t.get(m["name"], 0.0) for t in traced])
                  for m in spec["per_layer"]}
        values["trace.overhead_s"] = _median([p["wall_s"] for p in w.passes if p["trace"]]) - _median(walls)
        for key, per_layer in ACCURACY_NAMES.items():
            values[per_layer] = accuracy.get(key, 0.0)
        batch = values.get("paths.batch_mb", 0.0)
        print(f"working set: largest path batch {batch:.1f} MB against L3 {env.get('L3', '?')}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    else:
        values = {"setup_s": _median(setups), "wall_s": _median(walls), "peak_rss_mb": _median(rss)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke(seed: int, spec: dict) -> int:
    """Every workload at tiny sizes, traced twice: checks pass, the negative
    control is flagged, counts repeat exactly, every per-layer name is produced."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    attempted = failed = 0
    produced: set[str] = set()
    problems = []
    for name in wl.WORKLOADS:
        w = Workload(name, seed, smoke=True)
        first, second = (w.run_pass(True, deadline) for _ in range(2))
        a, f, messages = w.tally()
        attempted, failed = attempted + a, failed + f
        problems += messages
        counts = [{k: v for k, v in p["layers"].items() if k.endswith(".calls") or k in EXACT_COUNTS}
                  for p in (first, second)]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                          if counts[0].get(k) != counts[1].get(k))
            problems.append(f"{name}: counts differ between two traced runs: {diff}")
        produced |= {k for k, v in layer_values(first["layers"]).items() if v}
        flagged = [op.name for op in w.ops if op.expect_fail and first["errors"][op.name]]
        print(f"smoke {name}: {a} ops, {f} failed, wall_s {first['wall_s']:.3f}/{second['wall_s']:.3f}, "
              f"negative controls flagged: {flagged or 'none in this workload'}")
        for op in w.ops:
            if op.expect_fail:
                print(f"  {op.name} flagged: {'; '.join(first['errors'][op.name])}")
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in produced and m["name"] != "trace.overhead_s"
               and m["name"] not in ACCURACY_NAMES.values()]
    if missing:
        problems.append(f"per-layer metrics no workload produced: {missing}")
    for p in problems:
        print(f"FAILED {p}")
    ok = not problems
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def defects() -> int:
    """The informed linear solve on the seeds where it missed its Y0 gate;
    exits 1 while any of them still fails."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    failed = 0
    for seed in wl.KNOWN_DEFECT_SEEDS:
        w = Workload(wl.KNOWN_DEFECT, seed)
        w.run_pass(False, deadline)
        _, f, messages = w.tally()
        failed += f
        print(f"{wl.KNOWN_DEFECT} seed {seed}: " + ("; ".join(messages) or "passed"))
    print(f"known defect {'reproduced' if failed else 'not reproduced'} on {failed} of "
          f"{len(wl.KNOWN_DEFECT_SEEDS)} seeds")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, checks and counts only")
    parser.add_argument("--defects", action="store_true",
                        help="rerun the known informed linear-solve Y0 defect; exit 1 while it stands")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "insiderlab", "cli.py")) or not os.path.exists(SPEC):
        print(f"no insiderlab sources under {SRC} or no {SPEC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    try:
        if args.smoke:
            return smoke(args.seed, spec)
        if args.defects:
            return defects()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        return bench(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
