#!/usr/bin/env python3
"""End-to-end benchmark of svsim: serve jobs line to line and 27-qubit
`svsim run`, with a traced run that times each layer in-process.

  python3 e2ebench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --workload all --seed 1 --seconds 10

(`all` runs every workload and prints a table.) Builds svsim and the
e2e_probe helper from this checkout on first use, then
prints one record line per run (host stamp, check outcome, every end-to-end
figure) and, last, the result object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See e2ebench/README.md."""
import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import host, workloads  # noqa: E402

BENCHMARK = host.ROOT / "BENCHMARK.json"
# Stage self times over the public call's time, per job class, should land
# here; the record says whether they did.
COVERAGE_BOUND = (0.8, 1.25)


def metric_spec():
    spec = json.loads(BENCHMARK.read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_one(name, tools, seed, seconds, trace, e2e_spec, layer_spec):
    workdir = host.build_root() / "e2ebench" / "runs" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stamp = host.stamp(tools[1])
    if name in workloads.SERVE:
        res = workloads.serve_workload(name, tools, seed, seconds, workdir)
    else:
        res = workloads.run_workload(name, tools, seed, seconds, workdir)
    correct = res["failed"] == 0
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": stamp,
        "state_bytes": res["state_bytes"],
        "state_over_llc": res["state_bytes"] / max(1, stamp["llc_bytes"]),
        "threads": res["threads"],
        "check": {"attempted": res["attempted"], "failed": res["failed"],
                  "reasons": res["fail_reasons"],
                  "max_outstanding": res["max_outstanding"],
                  "job_cap": res["job_cap"]},
        "known_defects": res.get("known_defects", {}),
        "tail_percentile": res["tail_percentile"],
        "e2e": res["e2e"],
    }
    if trace:
        layer, faithful = workloads.traced_layers(
            name, tools, seed, res, workdir, stamp["host.copy_gbps"])
        record["layers"] = layer
        record["replay_faithful"] = faithful
        lo, hi = COVERAGE_BOUND
        record["coverage_bound"] = COVERAGE_BOUND
        record["coverage_held"] = {
            c: lo <= layer["trace.coverage." + c] <= hi
            for c in ("sampled", "trajectory")}
        correct = correct and faithful
        values, spec = layer, layer_spec
    else:
        values, spec = res["e2e"], e2e_spec
    print(json.dumps({"record": record}), flush=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in values}
    out = {"correct": correct and len(metrics) == len(spec),
           "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics}
    return out, record


def table(name, out, record, units):
    """Every figure of the record (the BENCHMARK.json metrics plus
    failed_frac and run_s.<circuit>) with its unit, the check outcome and
    the known defects the run probed for."""
    lines = ["%s: correct=%s attempted=%d failed=%d %s tail=%s"
             % (name, out["correct"], out["attempted"], out["failed"],
                record["check"]["reasons"] or "",
                record["tail_percentile"])]
    if record["known_defects"]:
        lines.append("  known defects: %s" % record["known_defects"])
    for k, v in record.get("layers", record["e2e"]).items():
        unit = units.get(k, "s" if k.startswith("run_s.") else "ratio")
        lines.append("  %-32s %14.6g %s" % (k, v, unit))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        e2e_spec, layer_spec = metric_spec()
        tools = host.build()
        names = workloads.NAMES if a.workload == "all" else (a.workload,)
        results = {n: run_one(n, tools, a.seed, a.seconds, a.trace, e2e_spec,
                              layer_spec) for n in names}
    except (host.SetupError, OSError, ValueError, RuntimeError) as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in e2e_spec + layer_spec}
    tables = "\n".join(table(n, out, rec, units)
                       for n, (out, rec) in results.items())
    if a.workload == "all":
        print(tables)
        print(json.dumps({n: out for n, (out, _) in results.items()}))
    else:
        print(tables, file=sys.stderr)
        print(json.dumps(results[a.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
