"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads claims traces --seeds 1-10 [--trace 1] [--out FILE]

For each workload and metric it prints the median over the seeds, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json.  Besides the
metrics in the result line it covers every value run.py printed (read
from the run's record in .perfbench_out/); those BENCHMARK.json does not
list are marked not gated.  --out writes the same numbers as JSON, which
is how baseline.json is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import E2E_UNITS  # noqa: E402


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    units = dict(E2E_UNITS, **{m["name"]: m["unit"] for m in spec["per_layer"]})
    report = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            record = ROOT / ".perfbench_out" / f"{wl}-seed{seed}-trace{args.trace}.json"
            res["values"] = json.loads(record.read_text())["values"]
            runs.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  flush=True)
        rows = {}
        for name in runs[0]["values"]:
            vals = [r["values"][name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share,
                          "unit": units.get(name), "gated": name in runs[0]["metrics"],
                          "values": vals}
            print(f"  {name:36s} median {med:.6g} IQR/median {share:.4f} bound {bounds.get(name)}")
        report[wl] = {"seeds": args.seeds, "all_correct": all(r["correct"] for r in runs),
                      "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
