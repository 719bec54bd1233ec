"""One cold pass of a workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --trace 0|1

MODE is `setup` (set up, report ready, exit), `pass` (then run every
instance once) or `record` (a pass that also returns the values that
reference.json pins).  The worker prints READY after set-up and, for a
pass, one RESULT line of JSON.  metacode must come from <root>/src.

Before the first instance, after every instance that took PROBE_AFTER_S or
more and after the last one, the worker measures the host's speed
(probe.speed, on the workload's probe_parts).  Each instance's record
carries the mean of the speeds measured last before it and first after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
PROBE_AFTER_S = 0.5


def layer_metrics(spans, counters, wall_s):
    """Per-layer self times and counts of one traced pass."""
    from spans import self_times
    from workloads import msg_classes

    out = {f"{name}.s": t for name, t in self_times(spans).items() if name != "instance"}
    exact = [s for s in spans if s[0] == "code.min_distance" and s[5].get("exact")]
    exact_s = sum(s[2] - s[1] for s in exact)
    classes = sum(msg_classes(s[5]["q"], s[5]["n"], s[5]["k"]) for s in exact)
    out["code.min_distance.classes_per_s"] = classes / exact_s if exact_s else 0.0
    calls = counters.get("code.min_distance.calls", 0)
    out["code.min_distance.exact_frac"] = counters.get("code.min_distance.exact", 0) / calls if calls else 0.0
    inst = {i for i, s in enumerate(spans) if s[0] == "instance"}
    covered = sum(s[2] - s[1] for s in spans if s[3] in inst)
    out["trace.coverage"] = covered / wall_s if wall_s else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "record"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import metacode

    if Path(metacode.__file__).resolve().parent != ROOT / "src" / "metacode":
        print(f"metacode was imported from {metacode.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    from probe import speed
    from spans import Tracer
    from workloads import WORKLOADS

    ref = json.loads((HERE / "reference.json").read_text())
    tracer = Tracer(args.trace == 1)
    wl = WORKLOADS[args.workload](args.seed, ref, tracer)
    wl.setup()
    print(READY, flush=True)
    if args.mode == "setup":
        return 0

    speed(wl.probe_parts)  # the first call pays for page faults and cold caches
    speeds = [speed(wl.probe_parts)]

    results, unmeasured = [], []
    instances = wl.instances()
    for n, inst in enumerate(instances):
        t0 = time.perf_counter()
        try:
            with tracer.span("instance", inst):
                out = wl.run(inst)
        except Exception as exc:  # an instance that raises counts as failed
            traceback.print_exc()
            out, problems = None, [f"{inst}: raised {exc!r}"]
        s = time.perf_counter() - t0
        if out is not None:
            try:
                problems = wl.check(inst, out)
            except Exception as exc:
                traceback.print_exc()
                problems = [f"{inst}: check raised {exc!r}"]
        rec = {"id": inst, "s": s, "problems": problems}
        if args.mode == "record" and out is not None:
            rec["summary"] = wl.summary(inst, out)
        results.append(rec)
        unmeasured.append(rec)
        if s >= PROBE_AFTER_S or n == len(instances) - 1:
            speeds.append(speed(wl.probe_parts))
            for r in unmeasured:
                r["speed"] = (speeds[-2] + speeds[-1]) / 2
            unmeasured = []

    wall = sum(r["s"] for r in results)
    payload = {
        "instances": results,
        "setup_problems": wl.setup_problems,
        "counters": dict(wl.counters),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer.enabled:
        payload["spans"] = tracer.spans
        payload["layer"] = layer_metrics(tracer.spans, wl.counters, wall)
    print(RESULT + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
