"""driftcal benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload default --seed 7 --seconds 10 --trace 0

Run from the root of a driftcal checkout; the package is imported from
``src/``. Set-up (importing driftcal and building the inputs from the seed)
is repeated and its median reported as ``setup_s``. The pipeline then runs
in passes until ``--seconds`` have elapsed, at least one, and the median
pass is reported. With ``--trace 1`` the run makes two untraced passes and
then a traced one, and reports the per-layer metrics instead; the tracing
overhead is the traced pass minus the second untraced one (the first pass
in a process pays one-off costs the later ones do not).

Human-readable lines come first; the last line of standard output is the
JSON result. The full record (environment, quality values, checks, stage
times) goes to ``.bench_out/`` together with the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import pin
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_MIN_REPEATS = 3  # and more, up to SETUP_MAX_REPEATS, until SETUP_MIN_S have passed
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 1.0
TRACED_PASS = 2  # index of the traced pass in a --trace 1 run


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric in a section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SPECS))
    parser.add_argument("--seed", type=_non_negative, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = {"name": "unknown"}
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def host_steal_s() -> float | None:
    """CPU time the hypervisor has taken from this machine so far, all CPUs
    (the steal column of /proc/stat); None where it is not available."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup(spec, seed: int, scratch: Path):
    """Import driftcal afresh and build the inputs, several times; cheap
    set-ups repeat more so their median is steady. The inputs of the last
    repeat, built by the modules now loaded, are used."""
    import_s, inputs_s, synthetic_s, total = [], [], [], []
    inputs = None
    while len(total) < SETUP_MIN_REPEATS or (
            sum(total) < SETUP_MIN_S and len(total) < SETUP_MAX_REPEATS):
        for name in [n for n in sys.modules if n == "driftcal" or n.startswith("driftcal.")]:
            del sys.modules[name]
        inputs = None
        gc.collect()
        start = time.perf_counter()
        import driftcal.cli  # noqa: F401  (imports every driftcal module)
        imported = time.perf_counter()
        inputs, gen_s = workloads.build_inputs(spec, seed, scratch)
        done = time.perf_counter()
        import_s.append(imported - start)
        inputs_s.append(done - imported)
        synthetic_s.append(gen_s)
        total.append(done - start)
    med = statistics.median
    times = {"setup_s": med(total), "import_s": med(import_s), "inputs_s": med(inputs_s),
             "synthetic_s": med(synthetic_s), "all_s": total}
    return times, inputs


def run_passes(spec, seed: int, seconds: float, trace: bool, inputs, scratch: Path):
    passes, tracer = [], None
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        p = workloads.Pass()
        traced = trace and len(passes) == TRACED_PASS
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            p.tracer = tracer
        start = time.perf_counter()
        aborted = False
        try:
            workloads.run_pass(p, spec, seed, inputs, scratch)
        except workloads.PassAborted:
            aborted = True
        except Exception as exc:  # a check could not read an output: the last op failed
            if not p.ops:
                p.ops.append("pass")  # it failed before its first operation
            p.failures.setdefault(p.ops[-1], f"{type(exc).__name__}: {exc}")
            aborted = True
        finally:
            if tracer is not None:
                tracer.uninstall()
            p.tracer = None
        durations.append(time.perf_counter() - start)
        passes.append(p)
        gc.collect()
        if aborted or (trace and len(passes) > TRACED_PASS):
            break
        if not trace and deadline - time.perf_counter() < statistics.median(durations):
            break
    return passes, tracer


def check_pinned_reference(spec, seed: int):
    """For a seed without a pin, a pass of one untimed operation that builds
    a pinned seed's adapted dataset and windows and checks them against the
    pin, so that no run goes without the pinned-output check. None for a
    pinned seed, whose passes check their own outputs against its pin."""
    if checks.has_pin(spec.name, seed):
        return None
    reference = pin.PINNED_SEEDS[seed % len(pin.PINNED_SEEDS)]
    p = workloads.Pass()
    label = f"pinned_reference:seed{reference}"
    try:
        got = p.op(label, pin.pin, spec, reference)
    except workloads.PassAborted:
        return p
    checks.pinned_reference(p, label, spec.name, reference, got)
    return p


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftcal" / "__init__.py").is_file():
        print(f"error: no driftcal sources under {SRC}; run from the root of a driftcal "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    steal_start = host_steal_s()
    spec = workloads.SPECS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{spec.name}-"))
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times, inputs = setup(spec, args.seed, scratch)
        passes, tracer = run_passes(spec, args.seed, args.seconds, bool(args.trace), inputs,
                                    scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = workloads.maxrss_mb()
    reference = check_pinned_reference(spec, args.seed)
    steal_end = host_steal_s()
    host = {"steal_s": None if None in (steal_start, steal_end) else steal_end - steal_start}

    checked = passes if reference is None else [*passes, reference]
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    first = passes[0]
    quality = first.quality
    if args.trace and len(passes) <= TRACED_PASS:
        values, units = {}, {}  # an untraced pass failed; nothing was traced
    elif args.trace:
        traced = passes[TRACED_PASS]
        overhead = traced.pipeline_s - passes[TRACED_PASS - 1].pipeline_s
        units = metric_units("per_layer")
        values = tracing.per_layer(tracer, spec.name, traced, first.hwm_mb, setup_times,
                                   overhead, units)
        tracer.write(OUT / f"trace-{tag}.json")
    else:
        values = {
            "pipeline_s": statistics.median(p.pipeline_s for p in passes),
            "setup_s": setup_times["setup_s"],
            "peak_rss_mb": peak_rss_mb,
            "ok_op_share": 1.0 - failed / attempted if attempted else 0.0,
        }
        naive = quality.get("val_mae_naive")
        for metric, key in (("val_mae_ratio_point", "val_mae_point"),
                            ("val_mae_ratio_quantile", "val_mae_quantile")):
            if naive and key in quality:
                values[metric] = quality[key] / naive
        units = metric_units("end_to_end")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "host": host, "setup": setup_times, "passes": len(passes),
        "pass_stage_s": [p.stage_s for p in passes],
        "pass_stage_cpu_s": [p.stage_cpu_s for p in passes],
        "pass_hwm_mb": [p.hwm_mb for p in passes],
        "quality": quality, "counts": first.counts, "failures": [p.failures for p in checked],
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                             encoding="utf-8")

    print(f"workload {spec.name}  seed {args.seed}  passes {len(passes)}  trace {args.trace}")
    print("environment " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "blas") + f" blas={env['blas']}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"  {name} = {value if isinstance(value, int) else format(value, '.6g')} "
              f"{metric['unit']}")
    print("  failed_op_share = " + (f"{failed / attempted:.6g}" if attempted else "nan")
          + f" share ({failed} of {attempted} operations)")
    print("quality " + " ".join(f"{k}={v:.6g}" for k, v in sorted(quality.items())))
    print(f"windows train={first.counts.get('train_windows')} val={first.counts.get('val_windows')} "
          f"digest={str(first.counts.get('digest'))[:16]} pinned={first.counts.get('pinned')}"
          + ("" if reference is None else f" (checked {reference.ops[0]} instead)"))
    for p in checked:
        for label, reason in p.failures.items():
            print(f"FAILED {label}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
