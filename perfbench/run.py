"""metacode benchmark: cold-process workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload claims --seed 1 --seconds 30 --trace 0

The workloads and metrics are listed in BENCHMARK.json.  A run makes passes
over the workload's instance list, one after another (a closed loop with
one client).  Each pass runs in a fresh interpreter (perfbench/worker.py)
that imports metacode from ./src, so the library's process-level caches
start cold as they do for every CLI invocation.  METACODE_THREADS is
removed from the workers' environment, so the library's default worker
count applies.  A run makes at least MIN_PASSES passes and keeps starting
them while the next one is expected to end within --seconds.  Set-up
(interpreter start, `import metacode`, group and algebra construction) is
timed in SETUP_SAMPLES interpreters before the passes and in every pass,
and reported as the median.

Instance times are given at the reference speed (perfbench/probe.py):
each is multiplied by the host speed measured next to it, 1.0 on the
reference VM with its host quiet.  A shared host slows every process on
it by 10-45% for tens of seconds at a time; unscaled, one pass per run
varied by a quarter from run to run.  Set-up times are not scaled: import
and construction did not follow the probe, and scaled medians of ten runs
moved more from one set of runs to the next than unscaled ones.
wall_s is the time to finish the instance list, each instance taken at its
median over the run's untraced passes.  instance_max_s (the slowest
instance's time), the unscaled wall time and the median host speed are
printed but not gated.

--trace 0 reports the end_to_end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports the per_layer metrics
from the traced ones; trace.overhead_s is the traced minus the untraced
wall time.  Every output is checked against reference.json and the paper's
invariants; a mismatch or exception counts as a failed instance.

sweep56595 (every pair of G1029 x G55 over GF(2), about 50 s a pass) runs
the same way, but it is not in BENCHMARK.json: MIN_PASSES of its passes do
not fit in a run within the time the benchmark's runs are allowed together.

Details, the run environment and the spans are written to .perfbench_out/.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says
# every end-to-end metric the runs print; BENCHMARK.json gates the steady ones
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "instance_max_s": "s", "peak_rss_mb": "MB",
             "wall_unscaled_s": "s", "host_speed": "ratio"}
EXTRA_WORKLOADS = ("sweep56595",)  # runnable, not in BENCHMARK.json
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from worker import READY, RESULT  # noqa: E402


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("METACODE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, mode: str, trace: int, deadline: float):
    """Start one worker; return (set-up seconds, pass payload or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    line = ""
    try:
        for line in proc.stdout:
            if line.strip() == READY:
                break
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != READY or proc.returncode != 0:
        raise BenchError(f"worker {mode} of {workload} failed (exit {proc.returncode})")
    if mode == "setup":
        return setup_s, None
    for out in rest.splitlines():
        if out.startswith(RESULT):
            return setup_s, json.loads(out[len(RESULT):])
    raise BenchError(f"worker pass of {workload} printed no result")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def environment(seed: int) -> dict:
    import numpy as np

    env = {"seed": seed, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
           "METACODE_THREADS": "unset in workers (caller had "
           f"{os.environ.get('METACODE_THREADS', 'it unset')})"}
    try:
        libc = ctypes.CDLL(None)
        env["l2_bytes"], env["l3_bytes"] = libc.sysconf(191), libc.sysconf(194)  # _SC_LEVEL{2,3}_CACHE_SIZE
    except (OSError, AttributeError):
        env["l2_bytes"] = env["l3_bytes"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across NumPy versions
        env["blas"] = None
    env["commit"] = git_commit()
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "metacode").rglob("*")):
        if f.is_file() and f.suffix in (".py", ".json"):
            h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout; src_sha256 identifies the code
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        f = ROOT / ".git" / ref[5:]
        return f.read_text().strip() if f.is_file() else ref[5:]
    return ref


def instance_times(passes):
    """Each instance's median time at the reference speed over the passes."""
    return [median(ts) for ts in zip(*([i["s"] * i["speed"] for i in p["instances"]] for p in passes))]


def wall(passes):
    return sum(instance_times(passes))


def end_to_end(passes, setups):
    return {
        "setup_s": median(setups),
        "wall_s": wall(passes),
        "instance_max_s": max(instance_times(passes)),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        "wall_unscaled_s": median([sum(i["s"] for i in p["instances"]) for p in passes]),
        "host_speed": median([i["speed"] for p in passes for i in p["instances"]]),
    }


def per_layer(traced, untraced, names):
    """Median over the traced passes of each self time, count and ratio.

    Layers a pass measured beyond `names` (those only sweep56595 calls) are
    added after them.
    """
    names = list(names) + sorted({k for p in traced for k in (*p["layer"], *p["counters"])} - set(names))
    out = {name: median([float(p["layer"].get(name, p["counters"].get(name, 0))) for p in traced])
           for name in names}
    out["trace.overhead_s"] = wall(traced) - wall(untraced)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    if not (ROOT / "src" / "metacode" / "__init__.py").is_file():
        print(f"no metacode sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]} | set(EXTRA_WORKLOADS):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # set-up samples first, so that the pass loop below sees their time
    setups = []
    while len(setups) < SETUP_SAMPLES and not args.trace:
        try:
            setups.append(spawn(args.workload, args.seed, "setup", 0, deadline)[0])
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1

    # passes: untraced only, or untraced and traced in turn
    passes, took = [], []
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        t0 = time.perf_counter()
        try:
            setup_s, payload = spawn(args.workload, args.seed, "pass", int(traced), deadline)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1
        took.append(time.perf_counter() - t0)
        payload["traced"] = traced
        passes.append(payload)
        setups.append(setup_s)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + median(took) > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = end_to_end(untraced, setups)
    if args.trace:
        values.update(per_layer(traced, untraced, [m["name"] for m in wanted]))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1

    problems = [msg for p in passes for msg in p["setup_problems"]]
    attempted = sum(len(p["instances"]) for p in passes)
    failed = 0
    for p in passes:
        for inst in p["instances"]:
            if inst["problems"]:
                failed += 1
                problems += inst["problems"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "metrics": metrics, "values": values, "setup_samples": setups,
              "attempted": attempted, "failed": failed, "problems": problems,
              "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        spans = [{"pass": n, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                  "instance": s[4], **s[5]}
                 for n, p in enumerate(passes) if p["traced"] for s in p["spans"]]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced), {len(setups)} set-ups, {time.perf_counter() - start:.1f} s")
    print(f"environment: nproc {env['nproc']}, L2 {env['l2_bytes']} B, L3 {env['l3_bytes']} B, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"commit {env['commit']}, METACODE_THREADS {env['METACODE_THREADS']}")
    units = dict(E2E_UNITS, **{m["name"]: m["unit"] for m in spec["per_layer"]})
    for name, value in values.items():
        print(f"{name} = {value} {units.get(name, 's' if name.endswith('.s') else 'count')}")
    width = median([p["counters"].get("code.min_distance.interval_width", 0) for p in untraced])
    print(f"interval_width = {width} count (sum of d_hi - d_lo, untraced passes)")
    print(f"failed_frac = {failed / attempted if attempted else 0.0} ({failed} of {attempted} instances)")
    for msg in problems[:20]:
        print(f"problem: {msg}")
    print(f"details: {OUT.relative_to(ROOT)}/{stem}.json")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
