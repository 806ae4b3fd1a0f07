"""umebkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-p47 --seed 1 --seconds 16 --trace 0

Runs from the root of a source checkout; needs no install.  `--trace 0`
times whole iterations with tracing off and reports the end-to-end
metrics.  `--trace 1` runs one settling iteration, then pairs of an
untraced and a traced iteration, and reports the per-layer metrics (see
layers.py).  Either way every operation passes through the correctness
gate (see workloads.py).  The
last line of standard output is the result as one JSON object; the lines
before it give every metric by name and unit, the environment and the
verdict of each operation.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
# no iteration is started that would end past this, so a run ends well
# inside its 180 s limit even on a slower machine
ITERATION_DEADLINE_S = 150.0
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the package sources, which names the code under test without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "umebkit").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "seed": seed,
    }


def highest_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return q
    return None


def summarize_ops(ops) -> list[str]:
    lines = []
    by_name: dict[str, list] = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(op)
    for name, group in by_name.items():
        failed = [op for op in group if op.failed]
        claimed = "PASS" if group[0].claimed_pass else "FAIL"
        verdict = f"FAIL {len(failed)}/{len(group)}" if failed else f"PASS {len(group)}/{len(group)}"
        line = f"op {name}: {verdict} (program verdict {claimed})"
        if failed:
            line += ": " + "; ".join(failed[0].problems)
        lines.append(line)
    return lines


def run(args: argparse.Namespace, nproc: int) -> int:
    from perfbench import spans as spans_mod
    from perfbench.layers import LAYER_METRICS, layer_values
    from perfbench.workloads import DEVIATIONS, WORK, WORKLOADS, merge_devs, run_child

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = environment(args.seed, nproc)

    probes = [run_child(workload.probe_argv()) for _ in range(SETUP_PROBES)]
    broken = [c for c in probes if c.code != 0]
    if broken:
        print(f"perfbench: set-up probe exited {broken[0].code}:\n{broken[0].out}", file=sys.stderr)
        return 1
    setup_s = statistics.median(c.seconds for c in probes)
    workload.warm_up(args.seed)

    tracer = spans_mod.Tracer() if args.trace else None
    untraced, traced = [], []
    # The first iteration in a process pays for fresh memory.  With tracing
    # on it is left out of the comparison, and the untraced and traced
    # iterations that follow are interleaved, so their difference is the
    # tracing overhead.
    settling = [workload.iteration(args.seed, None)] if tracer is not None else []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is None:
            untraced.append(workload.iteration(args.seed, None))
        else:
            plain, with_tracing = workload.pair(args.seed, tracer, len(traced))
            untraced.append(plain)
            traced.append(with_tracing)
        now = time.perf_counter()
        if now - start >= args.seconds or now - start + (now - began) > ITERATION_DEADLINE_S:
            break

    iterations = settling + untraced + traced
    ops = [op for it in iterations for op in it.ops]
    failed = sum(op.failed for op in ops)
    correct = not any(op.contradicted for op in ops)
    walls = [it.wall_s for it in untraced]
    child_rss = [r for it in untraced for r in it.child_rss_mib]
    devs = dict.fromkeys(DEVIATIONS, 0.0)
    for it in iterations:
        merge_devs(devs, it.devs)
    artifact_mb = max(it.artifact_bytes for it in iterations) / 1e6

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in summarize_ops(ops):
        print(line)
    print(f"fail_rate: {failed}/{len(ops)} = {failed / len(ops):.4f} (failed/attempted operations)")
    print(f"correct: {str(correct).lower()} (no PASS verdict contradicted by the gate)")
    for key, value in devs.items():
        print(f"{key}: {value:.3e} (worst; 0 = layer not run)")
    print(f"artifact_mb: {artifact_mb:.3f} MB")

    if tracer is None:
        q = highest_percentile(len(walls))
        tail = (f"p{q:g} {statistics.quantiles(walls, n=1000)[int(q * 10) - 1]:.4f} s"
                if q is not None else "no higher percentile has 10 samples beyond it")
        print(f"wall_s: {statistics.median(walls):.4f} s (median of n={len(walls)} iterations; {tail})")
        peak = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scope = "largest child process" if child_rss else "benchmark process"
        print(f"peak_rss_mb: {peak:.1f} MiB ({scope})")
        print(f"setup_s: {setup_s:.4f} s (median of {SETUP_PROBES} probes, process start to ready)")
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": peak, "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        WORK.mkdir(exist_ok=True)
        tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}.json"))
        n = len(traced)
        plain = statistics.median(walls)
        with_tracing = statistics.median(it.wall_s for it in traced)
        self_sum = sum(spans_mod.self_times(tracer.spans)) / 1e9 / n
        measured = dict(devs)
        measured.update({
            "cli.artifact_mb": artifact_mb,
            "trace.untraced_wall_s": plain,
            "trace.traced_wall_s": with_tracing,
            "trace.overhead_s": with_tracing - plain,
            "trace.self_sum_s": self_sum,
            "trace.spans": len(tracer.spans) / n,
        })
        values = layer_values(spans_mod.totals(tracer.spans), n, measured)
        for metric in LAYER_METRICS:
            print(f"{metric.name}: {values[metric.name]:.6g} {metric.unit} "
                  f"(moves {metric.moves}; flat on {metric.flat_on})")
        print(f"accounted: self times {self_sum:.4f} s vs untraced wall_s {plain:.4f} s; "
              f"difference {self_sum - plain:+.4f} s, tracing overhead {with_tracing - plain:+.4f} s")
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in LAYER_METRICS}

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "umebkit" / "__init__.py").is_file():
        print(f"perfbench: no umebkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # at most one BLAS thread per core, fixed before numpy loads; children inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        from perfbench.workloads import WORKLOADS

        WORKLOADS[args.setup_probe]().warm_up(args.seed)
        return 0
    return run(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
