"""terraslope benchmark: end-to-end metrics and a per-layer trace of four workloads.

Run from the repository root::

    python3 benchmarks/run.py                          # the BENCHMARK.json workloads
    python3 benchmarks/run.py --workload pipeline-512 --seed 3 --seconds 20
    python3 benchmarks/run.py --workload ablation-128 --trace 1
    python3 benchmarks/run.py --workload windows-1024  # a by-hand workload
    python3 benchmarks/run.py --self-test
    python3 benchmarks/run.py --write-reference [--workload NAME]

BENCHMARK.json names the workloads a default run measures;
``ablation-128`` and ``windows-1024`` run only when named with
``--workload`` (METRICS.md says why).  Each workload runs in a child
process of its own, one after another, so ``peak_rss_mb`` is that
workload's alone.  The child imports terraslope
from ``src/``, makes its inputs from the seed, then runs iterations in a
closed loop (the next starts when the previous one ends) for ``--seconds``
and checks every iteration's output against ``reference/<workload>.json``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics.  Metric names, units and directions come from
BENCHMARK.json; METRICS.md explains each.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: Set-ups per run for setup_s: SETUP_SAMPLES - 1 set-up-only children
#: plus the measuring child.  Each costs up to 1.5 s of a run's time budget.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
MIB = 1024.0 * 1024.0


def _use_source_tree() -> None:
    """Import terraslope from this checkout's src/, never from elsewhere."""
    if not (SRC / "terraslope" / "__init__.py").is_file():
        sys.exit(f"benchmark: no terraslope sources under {SRC}")
    sys.path.insert(0, str(SRC))


# child side -----------------------------------------------------------------


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def check(workload, output, reference) -> list[str]:
    from checks import compare

    try:
        return compare(workload.fingerprint(output), reference)
    except Exception as exc:  # a malformed output is a failed iteration
        return [f"fingerprint failed: {type(exc).__name__}: {exc}"]


def run_child(args) -> dict:
    """Set up one workload, then measure it (unless ``--setup-only``)."""
    from workloads import VARIANTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        state = workload.setup(variant, workdir)
        reference = load_reference(workload.name)["variants"][str(variant)]
        setup_s = time.monotonic() - args.spawn_time
        if args.setup_only:
            return {"setup_s": setup_s}
        result = measure(workload, state, reference, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {**result, "setup_s": setup_s, "variant": variant, "machine": machine_info()}


def measure(workload, state, reference, args) -> dict:
    import resource

    from terraslope import simulate
    from tracer import MechanismCounters, Tracer

    counters = MechanismCounters(simulate.ABLATION_ARMS)
    tracer = Tracer(counters.probes()) if args.trace else None
    # Iteration 0 warms up: it is checked and counted as attempted, but its
    # time is in no metric.  After it, a traced run alternates traced and
    # untraced iterations.
    walls = {False: [], True: []}
    attempted = passed = timed_passed = 0
    warm_up_s = None
    errors: list[str] = []
    final_mae = slope_gain = None
    start = time.monotonic()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.run = attempted
            tracer.install()
        t0 = time.perf_counter()
        try:
            output, problems = workload.run(state), []
        except Exception as exc:  # counted as a failed iteration
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        problems = problems or check(workload, output, reference)
        if attempted == 0:
            warm_up_s = wall
        else:
            walls[traced].append(wall)
            timed_passed += not problems
        attempted += 1
        if problems:
            errors.extend(problems[:3])
        else:
            passed += 1
            if final_mae is None:
                final_mae = workload.final_mae(output)
                slope_gain = workload.slope_gain(output) if workload.slope_gain else None
                if not check(workload, workload.perturb(output), reference):
                    sys.exit("benchmark: the output check accepted a perturbed output")
        output = None
        elapsed = time.monotonic() - start
        if attempted >= (3 if tracer else 2) and elapsed + wall > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": attempted - passed,
        "errors": errors[:10],
        "warm_up_s": warm_up_s,
        "walls": walls[False],
    }
    if tracer is None:
        result["metrics"] = {
            "throughput_mpx_s": timed_passed * workload.pixels / 1e6 / sum(walls[False]),
            "wall_s_p50": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": passed / attempted,
            "final_mae_m": final_mae if final_mae is not None else 0.0,
        }
    else:
        result["traced_walls"] = walls[True]
        result["metrics"] = layer_metrics(tracer, counters, walls, slope_gain)
        tracer.write(
            OUT / f"trace-{workload.name}-seed{args.seed}.json",
            workload=workload.name,
            seed=args.seed,
        )
    return result


def layer_metrics(tracer, counters, walls, slope_gain) -> dict[str, float]:
    """Per-layer values, per traced iteration, for every per_layer name."""
    from tracer import LAYERS, PROBE, self_times

    n = len(walls[True])
    totals, calls = self_times(tracer.spans)
    values = {}
    for fn in tracer.functions:
        values[f"{fn}.self_s"] = totals.get(fn, 0.0) / n
        values[f"{fn}.calls"] = calls.get(fn, 0) / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t for name, t in totals.items() if name.split(".", 1)[0] == layer
        ) / n
    values["raster.read_ascii_grid.mb"] = counters.io_bytes["read"] / MIB / n
    values["raster.write_ascii_grid.mb"] = counters.io_bytes["write"] / MIB / n
    values["partition.volume_mb"] = counters.volume_bytes / MIB / max(counters.pipelines, 1)
    for name, samples in counters.samples.items():
        values[name] = statistics.fmean(samples)
    values["simulate.slope_gain_m"] = slope_gain or 0.0
    traced, untraced = statistics.fmean(walls[True]), statistics.fmean(walls[False])
    values["trace.wall_s"] = traced
    values["trace.self_sum_s"] = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.probe_s"] = totals.get(PROBE, 0.0) / n
    values["trace.overhead_s"] = traced - untraced
    # Counters a workload never reaches read 0; any other name that was not
    # measured is a mistake in BENCHMARK.json.
    known = values.keys() | counters.names()
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name not in known:
            sys.exit(f"benchmark: per_layer metric {name!r} is not measured")
        metrics[name] = values.get(name, 0.0)
    return metrics


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="ascii"))


def write_reference(names: list[str]) -> None:
    """Record the current outputs of every input variant as the reference."""
    from workloads import VARIANTS, WORKLOADS

    for name in names:
        workload = WORKLOADS[name]
        variants = {}
        workdir = OUT / f"reference-{name}"
        for variant in range(VARIANTS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            output = workload.run(workload.setup(variant, workdir))
            variants[str(variant)] = workload.fingerprint(output)
            print(f"{name} variant {variant}: final_mae_m={workload.final_mae(output):.6f}")
        shutil.rmtree(workdir, ignore_errors=True)
        REFERENCE_DIR.mkdir(exist_ok=True)
        payload = {"workload": name, "machine": machine_info(), "variants": variants}
        (REFERENCE_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=1) + "\n", encoding="ascii"
        )


# parent side ----------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: int, trace: int, setup_only: bool) -> dict:
    """Run one child to completion and return the JSON on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawn-time", repr(time.monotonic())]
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.exit(f"benchmark: {workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    setups = []
    if not trace:
        setups = [spawn(name, seed, seconds, 0, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    child = spawn(name, seed, seconds, trace, False)
    setups.append(child["setup_s"])
    if not trace:
        child["metrics"]["setup_s"] = statistics.median(setups)
    child["setup_samples"] = setups
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds, **child}, indent=1),
        encoding="ascii",
    )
    return child


def report(name: str, child: dict, trace: int) -> dict:
    """Print the workload's metrics, one per line; return them with units."""
    specs = SPEC["per_layer" if trace else "end_to_end"]
    machine = child["machine"]
    print(f"# {name}: variant {child['variant']}, {child['attempted']} iterations, "
          f"{child['failed']} failed; nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} threads={machine['thread_env']}")
    for error in child["errors"]:
        print(f"#   check failed: {error}")
    metrics = {}
    for spec in specs:
        value = child["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{name:<13} {spec['name']:<48} {value:>14.6g} {spec['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's self-tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="record current outputs as the reference values")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawn-time", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_source_tree()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.child:
        print(json.dumps(run_child(args)))
        return 0
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    if args.self_test:
        import selftest

        selftest.main(OUT / "selftest")
        return 0
    if args.write_reference:
        write_reference([args.workload] if args.workload else list(WORKLOADS))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = run_workload(name, args.seed, args.seconds, args.trace)
        metrics = report(name, child, args.trace)
        combined["correct"] &= child["failed"] == 0
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        if args.workload:
            combined["metrics"] = metrics
        else:
            combined["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
