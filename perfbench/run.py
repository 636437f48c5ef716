#!/usr/bin/env python3
"""Sweep benchmark for ``lora_reliability``.

    python3 perfbench/run.py --workload distance-ref --seed 1 --seconds 24 --trace 0

Runs one workload from the package source under ``src/`` of the checkout it
sits in.  With ``--trace 0`` it measures the end-to-end metrics untraced;
with ``--trace 1`` it records spans around every public call, runs the
per-layer probes, writes the spans to ``perfbench/traces/`` and reports the
per-layer metrics.  Either way it checks the outputs.  Human-readable lines
start with ``#``; the last line of stdout is one JSON object.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import NamedTuple

from spans import Tracer, median, self_times, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH / "traces"
# Mirrors workloads.WORKLOADS, which can be imported only after the source check.
WORKLOAD_NAMES = ("distance-ref", "density-ref", "distance-dense")

MIN_REPS = 3  # pairs of repetitions per run, whatever the time budget
SETUP_REPS = {False: 5, True: 3}  # fresh interpreters per run, by --trace
OBJECT_REALIZATIONS = 400  # for the void-probability check of the object path
POINT_SPANS = 100  # a p90 with at least 10 spans beyond it
PROBE_SECONDS = 0.3  # minimum measured time per micro-probe
SUBPROCESS_TIMEOUT_S = 120


def import_package():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    init = SRC / "lora_reliability" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import lora_reliability

    if Path(lora_reliability.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {lora_reliability.__file__}, not {init}")
    return lora_reliability


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "threads": [1, threads],
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_probe(tracer: Tracer, workload: str, seed: int, size: str, reps: int) -> list[dict]:
    """Set-up times from ``reps`` fresh interpreters, one after another."""
    results = []
    for _ in range(reps):
        with tracer.span("bench.setup_probe"):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(seed), size],
                cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
            )
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def run_validate(tracer: Tracer, seed: int) -> tuple[bool, str]:
    """``lora-reliability validate`` in a fresh interpreter; True iff it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tracer.span("cli.validate"):
        proc = subprocess.run(
            [sys.executable, "-m", "lora_reliability.cli", "validate", "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
    lines = (proc.stdout or proc.stderr).strip().splitlines()
    return proc.returncode == 0, f"exit {proc.returncode}: {lines[-1] if lines else ''}"


class Rep(NamedTuple):
    threads: int
    seconds: float
    csv: str


def one_rep(wl, inp, threads: int, tracer: Tracer) -> Rep:
    with tracer.span("bench.rep", threads=threads):
        t0 = time.perf_counter()
        csv = wl.run(inp, threads, tracer)
        seconds = time.perf_counter() - t0
    return Rep(threads, seconds, csv)


def measure(wl, inp, threads: int, budget_s: float, tracer: Tracer) -> tuple[list[Rep], list[Rep]]:
    """Alternate 1-thread and ``threads``-thread repetitions of the timed
    region until ``budget_s`` is spent, at least MIN_REPS pairs.  Alternating
    spreads both metrics over the whole run, so a slow spell on a shared
    machine weighs on both alike."""
    single: list[Rep] = []
    multi: list[Rep] = []
    start = time.perf_counter()
    while len(single) < MIN_REPS or time.perf_counter() - start < budget_s:
        single.append(one_rep(wl, inp, 1, tracer))
        multi.append(one_rep(wl, inp, threads, tracer))
    return single, multi


def output_checks(wl, inp, reps: list[Rep]) -> list:
    """Every repetition uses the run's seed, so every CSV must be byte-identical
    to the first, at any thread count; then the workload's own checks."""
    from workloads import Check, digest

    first = reps[0]
    checks = [
        Check(f"CSV of repetition {i} at {r.threads} threads equals the first",
              r.csv == first.csv, digest(r.csv))
        for i, r in enumerate(reps[1:], start=1)
    ]
    return checks + wl.check(inp, first.csv)


def timed_calls(tracer: Tracer, name: str, fn, **attrs) -> None:
    """Call ``fn`` once per span until PROBE_SECONDS pass, in at least 5 spans."""
    start = time.perf_counter()
    spans = 0
    while spans < 5 or time.perf_counter() - start < PROBE_SECONDS:
        with tracer.span(name, **attrs):
            fn()
        spans += 1


def layer_probes(lr, wl, inp, tracer: Tracer, seed: int, tiny: bool) -> list:
    """Time calls into each layer's public functions, each in its own span.
    Returns the checks on the outputs of the object-level path and the CLI."""
    import numpy as np
    from workloads import Check, void_check

    rng = np.random.default_rng([seed, 99])
    cfg = inp.cfg

    # montecarlo: one-point sweeps at mean device counts 0, n/2 and n.
    n_bar = wl.kernel_n_bar(inp)
    for level in (0.0, 0.5 * n_bar, n_bar):
        call, realizations = wl.kernel_case(inp, level)
        interferers = cfg.duty_cycle * level * realizations
        for _ in range(5):
            with tracer.span("bench.kernel", interferers=interferers, realizations=realizations):
                call(tracer)

    # montecarlo: one span per point unit, until the p90 has 10 spans beyond it.
    while len(tracer.named("bench.point")) < POINT_SPANS:
        for index, call in wl.point_calls(inp):
            with tracer.span("bench.point", index=index):
                call(tracer)

    # channel: path loss over an array the size of one kernel batch.
    size = wl.kernel_array_size(inp)
    dist = np.maximum(cfg.min_distance_km, cfg.cell_radius_km * np.sqrt(rng.random(size)))
    timed_calls(tracer, "channel.path_loss_array", lambda: lr.channel.path_loss_array(dist, inp.model),
                elements=size)

    # analytic: the success transform on 4096 SIRs, a quarter of them inf.
    gamma = rng.exponential(size=4096) / rng.exponential(size=4096)
    gamma[rng.random(4096) < 0.25] = np.inf
    timed_calls(tracer, "analytic.success_from_sir_array",
                lambda: [lr.analytic.success_from_sir_array(gamma) for _ in range(50)],
                calls=50, elements=4096)
    gammas = (0.01, 0.1, 1.0, 2.0, 10.0, 100.0, 1e4)
    timed_calls(tracer, "analytic.outage_numeric_oracle",
                lambda: [lr.outage_numeric_oracle(g) for g in gammas], calls=len(gammas))

    # geometry and interference: the object-level path of estimate_mean_sir,
    # which the sweeps never call, at the default config.
    ref = lr.NetworkConfig(seed=seed)
    ref_model = lr.ChannelModel.from_config(ref)
    for _ in range(10):
        with tracer.span("geometry.sample_realization"):
            field = lr.sample_realization(ref, 1.0, rng)
        with tracer.span("interference.sir_sample", calls=20):
            for _ in range(20):
                lr.sir_sample(field, ref_model)
    with tracer.span("montecarlo.estimate_mean_sir"):
        stats = lr.estimate_mean_sir(ref, 1.0, 20 if tiny else OBJECT_REALIZATIONS, seed)
    checks = [void_check(ref, 1.0, stats["co"])]

    ok, detail = run_validate(tracer, seed)
    return checks + [Check("lora-reliability validate exits 0", ok, detail)]


def per_unit(spans, scale: float) -> float:
    """Median over spans of seconds per call, or per element where the spans
    count elements, multiplied by ``scale``."""
    return scale * median(
        [s.seconds / (s.attrs.get("calls", 1) * s.attrs.get("elements", 1)) for s in spans]
    )


def layer_metrics(tracer: Tracer, wl, inp, threads: int, overhead: float, import_s: float) -> dict:
    """Per-layer metrics, all derived from the recorded spans."""
    kernel: dict[float, list[float]] = {}
    realizations = 0
    for s in tracer.named("bench.kernel"):
        kernel.setdefault(s.attrs["interferers"], []).append(s.seconds)
        realizations = s.attrs["realizations"]
    xs = sorted(kernel)
    ys = [median(kernel[x]) for x in xs]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )

    points = tracer.named("bench.point")
    durations = [s.seconds for s in points]
    p90 = tail_percentile(durations, 0.9)
    by_index: dict[int, list[float]] = {}
    for s in points:
        by_index.setdefault(s.attrs["index"], []).append(s.seconds)
    point_medians = [median(v) for v in by_index.values()]

    reps = tracer.named("bench.rep")
    one = median([s.seconds for s in reps if s.attrs["threads"] == 1])
    many = median([s.seconds for s in reps if s.attrs["threads"] == threads])
    validate = tracer.named("cli.validate")

    return {
        "lora_reliability.import_s": (import_s, "s"),
        "montecarlo.ns_per_interferer": (slope * 1e9, "ns"),
        "montecarlo.ns_per_realization": (ys[0] / realizations * 1e9, "ns"),
        "montecarlo.interferers": (wl.interferers(inp), "count"),
        "montecarlo.point_s_p50": (median(durations), "s"),
        "montecarlo.point_s_p90": (p90, "s"),
        "montecarlo.point_spans": (len(durations), "count"),
        "montecarlo.fanout_efficiency": (one / (threads * many), "ratio"),
        "montecarlo.max_point_share": (max(point_medians) / sum(point_medians), "ratio"),
        "channel.path_loss_array_ns": (
            per_unit(tracer.named("channel.path_loss_array"), 1e9), "ns"),
        "analytic.success_from_sir_array_ns": (
            per_unit(tracer.named("analytic.success_from_sir_array"), 1e9), "ns"),
        "analytic.outage_numeric_oracle_ms": (
            per_unit(tracer.named("analytic.outage_numeric_oracle"), 1e3), "ms"),
        "geometry.sample_realization_ms": (
            per_unit(tracer.named("geometry.sample_realization"), 1e3), "ms"),
        "interference.sir_sample_us": (per_unit(tracer.named("interference.sir_sample"), 1e6), "us"),
        "cli.curve_to_csv_ms": (per_unit(tracer.named("cli.curve_to_csv"), 1e3), "ms"),
        "cli.validate_s": (validate[0].seconds, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smallest inputs, for the smoke test only")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    lr = import_package()
    from workloads import WORKLOADS, digest

    traced = bool(args.trace)
    threads = nproc()
    wl = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    tracer = Tracer(enabled=traced, run_id=uuid.uuid4().hex)
    context = run_context(threads)

    setups = setup_probe(tracer, wl.name, args.seed, args.size, 1 if tiny else SETUP_REPS[traced])
    inp = wl.build(args.seed, tiny)
    realizations = wl.realizations(inp)

    if traced:
        # The same repetitions untraced first: the base of the overhead ratio.
        plain, _ = measure(wl, inp, threads, 0.0, Tracer(False, tracer.run_id))
    single, multi = measure(wl, inp, threads, args.seconds, tracer)

    checks = output_checks(wl, inp, single + multi)
    if traced:
        checks += layer_probes(lr, wl, inp, tracer, args.seed, tiny)
    failed = [c for c in checks if not c.ok]

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace} size {args.size}")
    print("# context " + " ".join(f"{k}={v}" for k, v in context.items()))
    print(f"# csv sha256 {digest(single[0].csv)} numpy {context['numpy']}")
    for c in failed:
        print(f"# FAILED check {c.name}: {c.detail}")
    print(f"# failed_ratio {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks)")

    if traced:
        overhead = median([r.seconds for r in single[: len(plain)]]) / median(
            [r.seconds for r in plain]
        )
        metrics = layer_metrics(
            tracer, wl, inp, threads, overhead, median([s["import_s"] for s in setups])
        )
        selfs = self_times(tracer.spans)
        for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"# self_time {name} {seconds:.6f} s")
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "run_id": tracer.run_id, "workload": wl.name, "seed": args.seed, "context": context,
            "csv_sha256": digest(single[0].csv),
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "self_time_s": selfs, "spans": tracer.to_json(),
        }, indent=1) + "\n", encoding="utf-8")
        print(f"# spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (median([s["setup_s"] for s in setups]), "s"),
            "realizations_per_s": (median([realizations / r.seconds for r in single]), "1/s"),
            "realizations_per_s_mt": (median([realizations / r.seconds for r in multi]), "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} {value:.6g} {unit}")
    for reps in (single, multi):
        print(f"# rep_seconds threads={reps[0].threads} n={len(reps)}: "
              + " ".join(f"{r.seconds:.4f}" for r in reps))
    print("# setup_seconds n={}: {}".format(
        len(setups), " ".join(f"{s['setup_s']:.4f}" for s in setups)))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
