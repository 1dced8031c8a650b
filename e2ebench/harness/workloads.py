"""The workloads: what is sent, how it is timed, and the metrics it yields."""
import contextlib
import json
import os
import statistics
import subprocess
import time

from . import check, gen, host, stats
from .loop import LineChannel, closed_loop, request

# setup_s is the median of this many launches, taken in two bursts (before
# and after the timed window) so that a slow spell of the host during one of
# them does not set it.
SETUP_REPS = 42
# The closed loop runs this long before the timed window, untimed: the plan
# cache fills and an idle host's cores come up to speed, as they would be on
# a server that has been running.
WARMUP_S = 1.5
WARMUP_ID = "warmup"
WARMUP = gen.job_line({"id": WARMUP_ID, "qft": 2, "shots": 1})
AMP_BYTES = 16          # f64 complex amplitude
# `svsim serve --cache-bytes`: room for serve_small's recurring deck and
# about as many plans again, so the jobs meant to miss evict each other
# (not the deck) and the server's memory levels off within the warm-up
# instead of growing with the number of jobs a run gets through.
CACHE_BYTES = 1 << 20

# workers: `svsim serve --threads`, also the closed loop's job cap.
# tail: the percentile job_latency_tail_ms reports, pinned per workload so a
# faster program does not move it. It is taken per slice of
# stats.slice_len(tail) jobs, so that every slice has ten jobs beyond it,
# and the median over the slices is reported; a 20 s run gets about 30
# slices of serve_small, 6 of serve_noisy.
SERVE = {
    "serve_small": {"workers": 4, "stream": gen.small_stream,
                    "cycle": gen.SMALL_CYCLE, "replay": 96,
                    "max_qubits": max(gen.SMALL_QFT), "tail": 99.0},
    "serve_noisy": {"workers": 2, "stream": gen.noisy_stream,
                    "cycle": gen.NOISY_CYCLE, "replay": 12,
                    "max_qubits": 12, "tail": 75.0, "leak_probe": True},
}
RUN = {
    "run_27q.ghz": {"blocked": False, "tail": 75.0},
    "run_27q.ghz_blocked": {"blocked": True, "tail": 75.0},
}
NAMES = tuple(SERVE) + tuple(RUN)


def _wait(proc):
    """Reaps the child; returns its peak RSS in MiB as rusage gives it. That
    also counts the peak of this Python process, whose address space the
    child starts from before it execs, so it is exact only for a child that
    outgrows the client many times over (a 27-qubit run); for a server
    read _peak_rss_mb while it still runs."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise host.SetupError("%s exited with %d" % (proc.args[1],
                                                     proc.returncode))
    return ru.ru_maxrss / 1024.0


def _peak_rss_mb(pid):
    """VmHWM of a live process: the peak RSS of its own program image."""
    for line in open("/proc/%d/status" % pid):
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise host.SetupError("no VmHWM for pid %d" % pid)


@contextlib.contextmanager
def _serve(svsim, workers):
    """A running `svsim serve` and its channel. The caller ends it with
    _finish; on any other way out it is killed and reaped here."""
    proc = subprocess.Popen([str(svsim), "serve", "--threads", str(workers),
                             "--cache-bytes", str(CACHE_BYTES)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        yield proc, LineChannel(proc)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def _finish(proc, chan):
    """Closes the server's input and returns what it printed until it
    exited."""
    chan.close_input()
    out = chan.drain()
    _wait(proc)
    return out


def _serve_setup_s(svsim, workers):
    """Launch to the answered warm-up job."""
    t0 = time.perf_counter()
    with _serve(svsim, workers) as (proc, chan):
        request(chan, WARMUP, WARMUP_ID)
        dt = time.perf_counter() - t0
        _finish(proc, chan)
    return dt


def _mode_leak(svsim):
    """Whether a fresh server answers a noisy job in sampled mode after a
    noiseless job on the same circuit, that is, whether the plan cache hands
    one job's execution mode to the next. Runs outside the timed window; the
    verdict goes into the record as a known defect, not into the check of
    the workload, whose jobs all carry noise."""
    clean, noisy = gen.leak_jobs()
    with _serve(svsim, 1) as (proc, chan):
        request(chan, gen.job_line(clean), clean["id"])
        line = request(chan, gen.job_line(noisy), noisy["id"])
        _finish(proc, chan)
    return json.loads(line).get("mode") != "trajectory"


def _core(line):
    """The result fields a check depends on (ok .. batch_size), without the
    id, cache attribution and timings that differ between repeats."""
    a, b = line.find('"ok"'), line.find(',"cache":')
    return line[a:b] if a >= 0 and b > a else line


def check_serve(probe, records, workdir):
    """References for every distinct job sent, then one verdict per record.
    A repeat of a job with an identical payload reuses the first verdict."""
    keys, distinct = [], {}
    for r in records:
        k = gen.without_id(r["job"])
        keys.append(k)
        distinct.setdefault(k, len(distinct))
    path = workdir / "ref_jobs.jsonl"
    path.write_text("".join(k + "\n" for k in distinct))
    refs = host.probe_json(probe, "refs", "--jobs", path)["refs"]
    memo, reasons = {}, {}
    for r, k in zip(records, keys):
        line = r["line"]
        mk = (k, _core(line))
        if mk not in memo:
            memo[mk] = check.check_serve_line(r["job"], line,
                                              refs[distinct[k]])
        r["passed"], why = memo[mk]
        if not r["passed"]:
            reasons[why] = reasons.get(why, 0) + 1
    return reasons


def _total_seconds(line):
    """timing.total_seconds, the last field of a result line."""
    key = '"total_seconds":'
    return float(line[line.rindex(key) + len(key):line.rindex("}}")])


def _latency(lat_ms, p):
    """Latency metrics (lat_ms in the order the jobs ran) plus how the tail
    was taken, and what the >= 10-beyond rule would pick for the whole
    run's sample count."""
    label, tail, slices = stats.sliced_tail(lat_ms, p)
    rule = stats.tail_percentile(len(lat_ms))
    return {"job_latency_p50_ms": stats.percentile(lat_ms, 50),
            "job_latency_tail_ms": tail}, {
                "used": label, "slice": stats.slice_len(p), "slices": slices,
                "rule": "max" if rule is None else "p%g" % rule,
                "samples": len(lat_ms)}


def serve_workload(name, tools, seed, seconds, workdir):
    svsim, probe = tools
    spec = SERVE[name]
    w = spec["workers"]
    setup = [_serve_setup_s(svsim, w) for _ in range(SETUP_REPS // 2)]

    stream = spec["stream"](seed)
    cycle = spec["cycle"]
    with _serve(svsim, w) as (proc, chan):
        request(chan, WARMUP, WARMUP_ID)
        warm, _ = closed_loop(chan, stream, w, WARMUP_S, gen.job_line, cycle)
        records, loop = closed_loop(chan, stream, w, seconds, gen.job_line,
                                    cycle)
        rss = _peak_rss_mb(proc.pid)  # idle now, every job answered
        out = _finish(proc, chan)
    summary = next(s for s in map(json.loads, filter(str.strip, out))
                   if s.get("type") == "summary")
    setup += [_serve_setup_s(svsim, w) for _ in range(SETUP_REPS // 2)]

    reasons = check_serve(probe, records, workdir)
    defects = ({"plan_cache_mode_leak": _mode_leak(svsim)}
               if spec.get("leak_probe") else {})
    ok = [r for r in records if r["passed"]]
    lat = [(r["received"] - r["sent"]) * 1e3 for r in ok]
    # Rates are medians over rounds of one deck cycle's worth of results.
    jobs = [(r["received"], r["passed"]) for r in records]
    shots = [(r["received"], r["passed"] * r["job"]["shots"]) for r in records]
    e2e = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": stats.median_rate(jobs, loop["start"], cycle),
        "shots_per_s": stats.median_rate(shots, loop["start"], cycle),
        "pass_frac": len(ok) / len(records),
        "failed_frac": 1.0 - len(ok) / len(records),
        "peak_rss_mb": rss,
    }
    label = None
    if lat:
        lm, label = _latency(lat, spec["tail"])
        e2e.update(lm)
    cache = summary["plan_cache"]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "fail_reasons": reasons,
        "known_defects": defects,
        "e2e": e2e,
        "tail_percentile": label,
        "max_outstanding": loop["max_outstanding"],
        "job_cap": w,
        "threads": {"serve_workers": w, "pool_threads_per_worker":
                    max(1, (os.cpu_count() or 1) // w)},
        "state_bytes": (1 << spec["max_qubits"]) * AMP_BYTES,
        "sent": [r["job"] for r in warm + records],
        "passed": ok,
        "layer": {
            "svc.plan_cache.hit_ratio":
                cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "svc.plan_cache.evictions": cache["evictions"],
        },
    }


def _timed_run(args):
    t0 = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read().decode()
        rss = _wait(proc)
    return time.perf_counter() - t0, rss, out


def run_workload(name, tools, seed, seconds, workdir):
    svsim, probe = tools
    spec = RUN[name]
    paths = host.probe_json(probe, "qasm", "--dir", workdir, "--qubits",
                            gen.RUN_QUBITS)
    tiny = [str(svsim), "run", paths["tiny"], "--shots", "16"]
    setup = [_timed_run(tiny)[0] for _ in range(SETUP_REPS // 2)]

    args = [str(svsim), "run", paths["ghz"]] + (
        ["--blocked"] if spec["blocked"] else [])
    seeds = gen.run_seeds(seed)
    # One untimed launch first: the first 2 GiB allocation after an idle
    # spell runs slower than the ones that follow.
    _timed_run(args + ["--shots", str(gen.RUN_SHOTS), "--seed", "1"])
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        s = next(seeds)
        wall, rss, out = _timed_run(args + ["--shots", str(gen.RUN_SHOTS),
                                            "--seed", str(s)])
        passed, why = check.check_run_output(out, gen.RUN_QUBITS,
                                             gen.RUN_SHOTS)
        runs.append({"seed": s, "wall": wall, "rss": rss, "passed": passed,
                     "why": why})
    setup += [_timed_run(tiny)[0] for _ in range(SETUP_REPS // 2)]
    ok = [r for r in runs if r["passed"]]
    reasons = {}
    for r in runs:
        if not r["passed"]:
            reasons[r["why"]] = reasons.get(r["why"], 0) + 1
    lat = [r["wall"] * 1e3 for r in ok]
    e2e = {
        "setup_s": statistics.median(setup),
        # A launch is a round: rates are medians over launches.
        "jobs_per_s": statistics.median(r["passed"] / r["wall"] for r in runs),
        "shots_per_s": statistics.median(
            r["passed"] * gen.RUN_SHOTS / r["wall"] for r in runs),
        "pass_frac": len(ok) / len(runs),
        "failed_frac": 1.0 - len(ok) / len(runs),
        "peak_rss_mb": statistics.median([r["rss"] for r in runs]),
    }
    label = None
    if lat:
        lm, label = _latency(lat, spec["tail"])
        e2e.update(lm)
        e2e["run_s.%s" % name.split(".", 1)[1]] = statistics.median(lat) / 1e3
    return {
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "fail_reasons": reasons,
        "e2e": e2e,
        "tail_percentile": label,
        "max_outstanding": 1,
        "job_cap": 1,
        "threads": {"run_pool_threads": os.cpu_count() or 1},
        "state_bytes": (1 << gen.RUN_QUBITS) * AMP_BYTES,
        "run_seeds": [r["seed"] for r in runs],
        "walls": [r["wall"] for r in runs],
        "args": args[1:],
        "paths": paths,
    }


def traced_layers(name, tools, seed, result, workdir, copy_gbps):
    """The per-layer metrics: the probe replays this workload's inputs
    in-process (plus companion jobs for the layers the workload bypasses)
    and probes the kernels on a 27-qubit state."""
    _, probe = tools
    jobs_path = workdir / "replay_jobs.jsonl"
    args = ["trace", "--spans", workdir / "spans.jsonl", "--kernel-qubits",
            gen.RUN_QUBITS]
    if name in SERVE:
        spec = SERVE[name]
        extra = gen.companions(seed, need_trajectory=name == "serve_small",
                               need_dist=name == "serve_noisy")
        jobs = result["sent"][:spec["replay"]] + extra
        args += ["--workers", spec["workers"]]
    else:
        spec = RUN[name]
        extra = gen.companions(seed, need_trajectory=True, need_dist=True)
        jobs = extra
        args += ["--workers", 1, "--run-blocked", int(spec["blocked"]),
                 "--run-shots", gen.RUN_SHOTS, "--run-seed",
                 result["run_seeds"][0], "--run-qasm", result["paths"]["ghz"]]
    jobs_path.write_text("".join(gen.job_line(j) + "\n" for j in jobs))
    args += ["--jobs", jobs_path, "--companions", len(extra)]
    t = host.probe_json(probe, *args)
    layer = {k: v["value"] for k, v in t["metrics"].items()}
    if name in SERVE:
        layer.update(result["layer"])
        # Client latency minus the service's own total: queue, parse,
        # serialize and pipe.
        outside = [(r["received"] - r["sent"] - _total_seconds(r["line"]))
                   * 1e3 for r in result["passed"]]
        layer["svc.outside_ms_p50"] = (
            stats.percentile(outside, 50) if outside else 0.0)
    else:
        layer["svc.outside_ms_p50"] = 1e3 * (
            statistics.median(result["walls"]) - t["run_call_s"])
        layer["svc.plan_cache.hit_ratio"] = t["cache"]["hit_ratio"]
        layer["svc.plan_cache.evictions"] = t["cache"]["evictions"]
    layer["host.copy_gbps"] = copy_gbps
    layer["sv.kernel.dense_bw_frac"] = layer["sv.kernel.dense_gbps"] / copy_gbps
    layer["sv.kernel.sweep_bw_frac"] = layer["sv.kernel.sweep_gbps"] / copy_gbps
    return layer, t["faithful"]
