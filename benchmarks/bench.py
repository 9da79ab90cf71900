"""Pass loop, metrics and results record behind ``run.py``."""

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads
from gauge import Gauge
from rbfadvect import runner
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# setup_s is the mean of at least this many set-up samples per run, and of
# up to MAX_SETUP_SAMPLES while set-up-only rounds fit in the time budget.
MIN_SETUP_SAMPLES, MAX_SETUP_SAMPLES = 5, 25
GAUGE_WARM_UP = 20

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "err_l1_gmean": "1",
    "pass_ratio": "1",
}


def summary(values) -> dict:
    """Median, quartiles and count of a sample."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_pass(tracer, workload, scratch: Path, index: int):
    """One pass under the root span ``bench.pass``; returns (outcomes, spans)."""
    workdir = scratch / f"pass{index}"
    workdir.mkdir()
    raw = tracer.spanned(workload.run_pass, "bench.pass")(workdir)
    spans = tracer.take()
    outcomes = workload.check(raw)
    shutil.rmtree(workdir)
    return outcomes, spans


def net_time(spans, names, gauge) -> float:
    """Time inside the outermost spans of the given names, less the gauge samples taken there."""
    idx = spans.outermost(names)
    return float(spans.duration[idx].sum()) - gauge.time_inside(spans.start[idx], spans.end[idx])


def pass_sample(spans, outcomes, gauge) -> dict:
    """Raw times of one pass, less the gauge samples taken inside them."""
    root = spans.outermost(["bench.pass"])[0]
    integrate_s = net_time(spans, ["timestep.integrate"], gauge)
    steps = spans.counts.get("timestep.steps", 0)
    l1 = [o.l1 for o in outcomes if o.l1 is not None]
    return {
        "start": float(spans.start[root]),
        "end": float(spans.end[root]),
        "wall_s": net_time(spans, ["bench.pass"], gauge),
        "setup_s": net_time(spans, layers.SETUP_SPANS, gauge),
        "steps": steps,
        "integrate_s": integrate_s,
        "steps_per_s": steps / integrate_s if integrate_s > 0 else math.nan,
        "err_l1_gmean": math.exp(statistics.fmean(math.log(v) for v in l1)) if l1 else math.nan,
    }


def warm_up(gauge=None):
    """Load lazily imported code paths before anything is timed."""
    runner.execute_run(runner.RunConfig(problem="inflow_bump", method="sat", kernel="cubic",
                                        n=10, t_end=0.01))
    if gauge is not None:
        for _ in range(GAUGE_WARM_UP):
            gauge.sample()
        gauge.clear()


def end_to_end(args, workload, scratch: Path):
    tracer = Tracer()
    gauge = Gauge()
    layers.install_probes(tracer)
    try:
        warm_up(gauge)
        tracer.clear()
        gauge.start()
        samples, outcomes_all = [], []
        start = time.perf_counter()
        while True:
            outcomes, spans = run_pass(tracer, workload, scratch, len(samples))
            samples.append(pass_sample(spans, outcomes, gauge))
            outcomes_all.append(outcomes)
            if len(samples) == 1:
                notes = spans.notes
            # Start another pass only if it and the set-up rounds still
            # owed after it fit in the time budget.
            owed = max(0, MIN_SETUP_SAMPLES - len(samples) - 1) if workload.setup_round else 0
            predicted = samples[-1]["wall_s"] + owed * samples[-1]["setup_s"]
            if time.perf_counter() - start + predicted > args.seconds:
                break
        setup = [s["setup_s"] for s in samples]
        while workload.setup_round is not None and (
                len(setup) < MIN_SETUP_SAMPLES
                or (len(setup) < MAX_SETUP_SAMPLES
                    and time.perf_counter() - start + setup[-1] <= args.seconds)):
            workload.setup_round()
            setup.append(net_time(tracer.take(), layers.SETUP_SPANS, gauge))
    finally:
        gauge.stop()
        tracer.restore()

    flat = [o for outcomes in outcomes_all for o in outcomes]
    failed = sum(not o.ok for o in flat)
    # Means over the same stretches of the run as the gauge's mean.
    pass_scale = gauge.scale([s["start"] for s in samples], [s["end"] for s in samples])
    run_scale = gauge.scale()
    steps = sum(s["steps"] for s in samples)
    integrate_s = sum(s["integrate_s"] for s in samples)
    values = {
        "wall_s": statistics.fmean(s["wall_s"] for s in samples) * pass_scale,
        "setup_s": statistics.fmean(setup) * run_scale,
        "steps_per_s": steps / (integrate_s * pass_scale) if integrate_s > 0 else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_l1_gmean": statistics.median(s["err_l1_gmean"] for s in samples),
        "pass_ratio": 1.0 - failed / len(flat),
    }
    # The raw per-pass figures, before scaling to the nominal host speed.
    stats = {
        "wall_s": summary(s["wall_s"] for s in samples),
        "setup_s": summary(setup),
        "steps_per_s": summary(s["steps_per_s"] for s in samples),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, unit in END_TO_END.items():
        line = f"{name} = {values[name]:.6g} {unit}"
        if name in stats:
            st = stats[name]
            line += (f"  (raw per sample: median {st['median']:.6g}, q1 {st['q1']:.6g},"
                     f" q3 {st['q3']:.6g}, n={st['n']})")
        print(line)
    durations = gauge.durations()
    print(f"gauge: {len(durations)} samples, mean {durations.mean() * 1e3:.4g} ms,"
          f" min {durations.min() * 1e3:.4g} ms; scale over passes {pass_scale:.4g},"
          f" over the run {run_scale:.4g}")
    scattered = [{"N": cfg.n, "centers": built, "seed": cfg.seed}
                 for cfg, built in notes if cfg.sigma is not None]
    if scattered:
        print(f"scattered leg (N -> centers built): {scattered}")
    record = {
        "passes": samples,
        "setup_samples": setup,
        "values": values,
        "raw_stats": stats,
        "gauge": {"samples": len(durations), "mean_s": float(durations.mean()),
                  "pass_scale": pass_scale, "run_scale": run_scale},
        "runs": [vars(o) for o in outcomes_all[0]],
        "failures": [vars(o) for o in flat if not o.ok],
        "scattered_centers": scattered,
    }
    return metrics, len(flat), failed, True, record


def traced(args, workload, scratch: Path):
    tracer = Tracer()
    layers.install_probes(tracer)
    try:
        warm_up()
        tracer.clear()
        base_outcomes, base_spans = run_pass(tracer, workload, scratch, 0)
    finally:
        tracer.restore()
    layers.install_trace(tracer)
    try:
        tracer.clear()
        runs = [run_pass(tracer, workload, scratch, i) for i in (1, 2)]
    finally:
        tracer.restore()

    per_pass = [{m: layers.layer_value(spans, m) for m in layers.PER_LAYER if m != "trace.overhead_s"}
                for _, spans in runs]
    counts = [{m: v for m, v in values.items() if layers.unit(m) == "count"} for values in per_pass]
    invariants = {
        "counts_repeat": counts[0] == counts[1],
        "rhs_calls_3x_steps": all(
            v["operators.rhs.calls"] == 3 * v["timestep.steps"] for v in per_pass),
    }

    untraced_wall = base_spans.inclusive("bench.pass")
    traced_walls = [spans.inclusive("bench.pass") for _, spans in runs]
    metrics = {}
    for name in layers.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - untraced_wall
        elif name in counts[0]:
            value = counts[0][name]
        else:
            value = statistics.median(values[name] for values in per_pass)
        metrics[name] = {"value": value, "unit": layers.unit(name)}
        print(f"{name} = {value:.6g} {layers.unit(name)}")

    shares = [spans.self_by_module() for _, spans in runs]
    share = {m: statistics.median(s.get(m, 0.0) / w for s, w in zip(shares, traced_walls))
             for m in sorted(set().union(*shares))}
    setup_share = statistics.median(spans.covered(layers.SETUP_SPANS) / w
                                    for (_, spans), w in zip(runs, traced_walls))
    print("self-time share of traced wall by module: "
          + ", ".join(f"{m} {v:.1%}" for m, v in share.items()))
    print(f"set-up share of traced wall: {setup_share:.1%}")
    print(f"invariants: {invariants}")
    last = runs[-1][1]
    last.save(OUT_DIR / f"spans_{args.workload}.npz")

    flat = base_outcomes + [o for outcomes, _ in runs for o in outcomes]
    failed = sum(not o.ok for o in flat)
    record = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_walls,
        "per_pass": per_pass,
        "spans": {name: {"s": last.inclusive(name), "self_s": last.exclusive(name),
                         "calls": last.calls(name)} for name in last.names},
        "self_share_by_module": share,
        "setup_share": setup_share,
        "invariants": invariants,
        "failures": [vars(o) for o in flat if not o.ok],
    }
    return metrics, len(flat), failed, all(invariants.values()), record


def blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if it can be found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(args, workload, thread_env) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "thread_env": {k: os.environ.get(k) for k in thread_env},
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "git_commit": commit,
        "seed": args.seed,
        "record_stride": workload.record_stride,
    }


def write_record(args, workload, record, line, thread_env):
    path = args.out
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    entry = data["workloads"].setdefault(args.workload, {})
    entry["trace" if args.trace else "end_to_end"] = {
        "environment": environment(args, workload, thread_env),
        "seconds": args.seconds,
        "targets": workload.targets(),
        "result": line,
        "detail": record,
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(args, thread_env) -> int:
    workload = workloads.make(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        mode = traced if args.trace else end_to_end
        metrics, attempted, failed, invariants_ok, record = mode(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in record["failures"][:10]:
        print(f"FAILED {failure['run_id']}: {failure['detail']}")
    line = {"correct": failed == 0 and invariants_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    if args.out is not None:
        write_record(args, workload, record, line, thread_env)
    print(json.dumps(line))
    return 0
