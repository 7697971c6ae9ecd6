"""Protocol-stage benchmark for segadapt.

Runs one workload's stages back to back in this process, in a closed loop:
each stage call starts when the previous one has returned.  Run it from the
root of a checkout:

    python3 perfbench/run.py --workload ttda_dec --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which alternates untraced and traced iterations to report the
tracer's own overhead.  The lines above it give the same figures with units
and sample counts, the output digest and the environment.  Working files go
to ``perfbench/.work`` and are removed at exit, except the span file of a
traced run, the results log and the ledger of digests and counts.
"""

from __future__ import annotations

import os
import sys
import time

# Pin BLAS to one thread before numpy is first imported (by segadapt).
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("base_full_ft", "method_sam_da_dec", "ttda_dec")
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
# Timed end-to-end figures are scaled to a machine on which the calibration
# kernel (workloads.calibration_kernel) takes this long.
CALIBRATION_REF_MS = 1.0

# name -> unit; the JSON of an untraced run holds exactly these.  The "_ref"
# units are at the reference machine speed (CALIBRATION_REF_MS).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stage_samples_per_s": "1/s_ref",
    "stage_sample_ms_p50": "ms_ref",
    "stage_sample_ms_p90": "ms_ref",
    "eval_images_per_s": "1/s_ref",
}
# What the stage metrics are called on each workload, in the engine's terms.
STAGE_ALIASES = {
    "base_full_ft": "train",
    "method_sam_da_dec": "train",
    "ttda_dec": "ttda",
}

_COUNT_SUFFIXES = (".calls", ".elements", ".flops", ".params_updated", ".bytes_parsed",
                   ".bytes", ".samples")


def _per_layer_metrics() -> dict[str, str]:
    """name -> unit of every metric a traced run reports.

    Self times are listed only for spans every workload enters, so none reads
    zero by construction; the workload-specific spans are covered by their
    call counts and by their layer's total, and printed in full above the JSON.
    """
    layers = ("data", "model", "adapter", "tensor", "losses", "params", "checkpoint", "engine")
    out: dict[str, str] = {}
    for layer in layers:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    out.update({
        "model.encode_image.calls": "count",
        "model.encode_image.self_s": "s",
        "model.encode_image.passes_per_image": "ratio",
        "model.decode.self_s": "s",
        "model.encode_prompts.self_s": "s",
        "tensor.gelu.calls": "count",
        "tensor.gelu.self_s": "s",
        "tensor.gelu.elements": "count",
        "tensor.matmul.calls": "count",
        "tensor.matmul.self_s": "s",
        "tensor.matmul.flops": "flop_computed",
        "tensor.backward.calls": "count",
        "tensor.backward.self_s": "s",
        "params.adamw_step.calls": "count",
        "params.adamw_step.self_s": "s",
        "params.adamw_step.params_updated": "count",
        "checkpoint.restore.calls": "count",
        "checkpoint.restore.self_s": "s",
        "checkpoint.restore.bytes_parsed": "B",
        "checkpoint.dump_bytes.calls": "count",
        "checkpoint.dump_bytes.self_s": "s",
        "checkpoint.dump_bytes.bytes": "B",
        "adapter.adapter_apply.calls": "count",
        "losses.supervised_loss.calls": "count",
        "losses.confident_entropy_loss.calls": "count",
        "losses.proximity_loss.calls": "count",
        "losses.slice_contrastive_loss.calls": "count",
        "losses.compute_iou.self_s": "s",
        "data.generate_dataset.self_s": "s",
        "data.generate_dataset.samples": "count",
        "data.load_split.self_s": "s",
        "engine.train_supervised.calls": "count",
        "engine.run_ttda.calls": "count",
        "engine.evaluate_model.self_s": "s",
        "engine.load_model.self_s": "s",
        "engine.interior_prompt.self_s": "s",
        "trace.coverage": "fraction",
        "trace.overhead_frac": "fraction",
    })
    return out


PER_LAYER = _per_layer_metrics()


def _is_count(name: str) -> bool:
    return name.endswith(_COUNT_SUFFIXES) or name.endswith(".passes_per_image") or (
        name.endswith(".distinct_images")
    )


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _code_id() -> str:
    """Identity of the code under test plus this benchmark, for the ledger."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "segadapt").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _ledger_check(code_id: str, workload: str, seed: int, digest: str, counts: dict | None) -> list[str]:
    """Digests and counts must repeat exactly across runs of one code and seed."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    entry = ledger.setdefault(code_id, {}).setdefault(workload, {}).setdefault(str(seed), {})
    problems = []
    if entry.setdefault("digest", digest) != digest:
        problems.append(f"output digest {digest} differs from an earlier run's {entry['digest']}")
    if counts is not None:
        if entry.setdefault("counts", counts) != counts:
            diff = sorted(k for k in counts if entry["counts"].get(k) != counts[k])
            problems.append(f"counts differ from an earlier traced run: {diff}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


_IMPORT_TIMER = "import time; s = time.perf_counter(); import segadapt; print(time.perf_counter() - s)"


def _import_segadapt() -> list[float]:
    """Import the package from this checkout's src/; return import times.

    The first time is this process's own import.  Fresh interpreters repeat
    it, so that set-up time reports a median rather than one reading.
    """
    if not (SRC / "segadapt" / "__init__.py").is_file():
        sys.exit(f"error: no segadapt package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import segadapt

    times = [time.perf_counter() - start]
    if Path(segadapt.__file__).resolve().parent != SRC / "segadapt":
        sys.exit(f"error: imported segadapt from {segadapt.__file__}, not from {SRC}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, capture_output=True,
                               text=True, check=True, timeout=60)
        times.append(float(child.stdout))
    return times


def _run_workload(args) -> int:
    code_id = _code_id()
    import_times = _import_segadapt()
    from workloads import WORKLOADS, Seeds

    env = _environment()
    workload = WORKLOADS[args.workload]
    seeds = Seeds.derive(args.seed)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, workload, seeds, work, import_times, env, code_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, seeds, work, import_times, env, code_id) -> int:
    from tracer import Tracer
    from workloads import calibration_kernel

    traced_run = bool(args.trace)
    setup_tracer = Tracer() if traced_run else None
    setup_times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        if setup_tracer is not None and k == 0:
            with setup_tracer:
                setup = workload.setup(work / f"setup{k}", seeds)
        else:
            setup = workload.setup(work / f"setup{k}", seeds)
        setup_times.append(time.perf_counter() - start)

    iterations, traced_metrics, walls = [], [], {False: [], True: []}
    tracer = None
    kernel = calibration_kernel()
    loop_start = time.perf_counter()
    durations = []
    while True:
        i = len(iterations)
        traced = traced_run and i % 2 == 1
        start = time.perf_counter()
        if traced:
            tracer = Tracer()
            with tracer:
                it = workload.iterate(setup, work / f"it{i}", kernel=None)
            traced_metrics.append(tracer.metrics())
        else:
            it = workload.iterate(setup, work / f"it{i}", kernel=None if traced_run else kernel)
        durations.append(time.perf_counter() - start)
        walls[traced].append(it.stage_wall_s + it.eval_wall_s)
        iterations.append(it)
        shutil.rmtree(work / f"it{i - 1}", ignore_errors=True)
        if it.failed:
            break
        elapsed = time.perf_counter() - loop_start
        if len(iterations) >= MIN_ITERATIONS and elapsed + statistics.median(durations) > args.seconds:
            break
    measured_s = time.perf_counter() - loop_start

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    problems = [p for it in iterations for p in it.problems]
    digests = {it.digest for it in iterations if it.digest}
    if len(digests) > 1:
        failed += 1
        problems.append(f"iterations of one run gave different output digests: {sorted(digests)}")
    last = iterations[-1]
    if not last.failed:
        attempted += 1
        final = workload.final_check(setup, last)
        if final:
            failed += 1
            problems.extend(final)

    counts = None
    if traced_metrics:
        counts = {k: v for k, v in traced_metrics[0].items() if _is_count(k)}
        for other in traced_metrics[1:]:
            drift = sorted(k for k in counts if other[k] != counts[k])
            if drift:
                failed += 1
                problems.append(f"counts differ between traced iterations: {drift}")
    digest = last.digest
    if digest:
        ledger = _ledger_check(code_id, args.workload, args.seed, digest, counts)
        if ledger:
            failed += 1
            problems.extend(ledger)

    alias = STAGE_ALIASES[args.workload]
    if not any(it.stage_wall_s > 0 and not it.failed for it in iterations):
        print(f"workload {args.workload} seed {args.seed}: no iteration completed", file=sys.stderr)
        for problem in problems:
            print(f"  FAILED CHECK: {problem}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(iterations)} iterations in {measured_s:.1f} s")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    if traced_run:
        metrics = _traced_report(traced_metrics, setup_tracer, walls, tracer, args)
    else:
        metrics = _untraced_report(iterations, setup_times, import_times, alias)
    print(f"  error_rate             {failed / attempted:.6f}  ({failed} of {attempted} operations)")
    print(f"  output digest          sha256:{digest}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a") as fh:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "iterations": len(iterations), "digest": digest,
                  "env": env, **result,
                  "per_iteration": [
                      {k: v for k, v in _iteration_figures(it).items() if k != "latencies_ms_ref"}
                      for it in iterations
                  ]}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def _iteration_figures(it) -> dict:
    """Raw figures of one iteration, plus its latencies and rates at the
    reference speed: a time t measured while the kernel took c ms counts as
    t * CALIBRATION_REF_MS / c."""
    figures = {"stage_wall_s": it.stage_wall_s, "stage_samples": it.stage_samples,
               "eval_wall_s": it.eval_wall_s, "eval_images": it.eval_images,
               "stage_kernel_ms": it.stage_kernel_ms, "eval_kernel_ms": it.eval_kernel_ms}
    if it.stage_wall_s > 0 and it.stage_kernel_ms > 0:
        figures["stage_samples_per_s"] = it.stage_samples / it.stage_wall_s
        figures["stage_samples_per_s_ref"] = figures["stage_samples_per_s"] * it.stage_kernel_ms / CALIBRATION_REF_MS
        figures["latencies_ms_ref"] = [1e3 * v * CALIBRATION_REF_MS / k for v, k in it.latencies]
    if it.eval_wall_s > 0 and it.eval_kernel_ms > 0:
        figures["eval_images_per_s"] = it.eval_images / it.eval_wall_s
        figures["eval_images_per_s_ref"] = figures["eval_images_per_s"] * it.eval_kernel_ms / CALIBRATION_REF_MS
    return figures


def _untraced_report(iterations, setup_times, import_times, alias) -> dict:
    """Medians over the run's iterations (rates) and its samples (latencies)."""
    figures = [_iteration_figures(it) for it in iterations if not it.failed and it.stage_wall_s > 0]
    n = len(figures)
    latencies = [v for f in figures for v in f["latencies_ms_ref"]]
    raw_ms = [1e3 * v for it in iterations if not it.failed for v, _ in it.latencies]
    kernel_ms = statistics.median(f["stage_kernel_ms"] for f in figures)

    def median(key):
        return statistics.median(f[key] for f in figures)

    rows = {
        "setup_s": (statistics.median(import_times) + statistics.median(setup_times),
                    f"median of {len(import_times)} imports, {statistics.median(import_times):.3f} s, "
                    f"+ median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "whole process"),
        "stage_samples_per_s": (median("stage_samples_per_s_ref"),
                                f"median of {n} calls of {figures[0]['stage_samples']} samples; "
                                f"raw {median('stage_samples_per_s'):.4f} 1/s"),
        "stage_sample_ms_p50": (statistics.median(latencies),
                                f"{len(latencies)} samples; raw {statistics.median(raw_ms):.4f} ms"),
        "stage_sample_ms_p90": (_percentile(latencies, 90),
                                f"{len(latencies)} samples, {len(latencies) // 10} beyond; "
                                f"raw {_percentile(raw_ms, 90):.4f} ms"),
        "eval_images_per_s": (median("eval_images_per_s_ref"),
                              f"median of {n} passes of {figures[0]['eval_images']} images; "
                              f"raw {median('eval_images_per_s'):.4f} 1/s"),
    }
    for key, (value, note) in rows.items():
        label = key.replace("stage_", f"{alias}_")
        print(f"  {label:<22} {value:12.4f} {END_TO_END[key]:<7} ({note})")
    print(f"  calibration kernel     {kernel_ms:12.4f} ms      (median per sample boundary; "
          f"reference {CALIBRATION_REF_MS} ms)")
    return {key: (value, END_TO_END[key]) for key, (value, _) in rows.items()}


def _traced_report(traced_metrics, setup_tracer, walls, last_tracer, args) -> dict:
    merged = dict(traced_metrics[0])
    for key in merged:
        if not _is_count(key):
            merged[key] = statistics.median(m[key] for m in traced_metrics)
    setup_metrics = setup_tracer.metrics()
    for key in ("data.generate_dataset.self_s", "data.generate_dataset.samples"):
        merged[key] = setup_metrics[key]
    merged["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0

    wall = merged["trace.stage_wall_s"]
    print(f"  {'span':<36} {'calls':>9} {'self_s':>10} {'share':>7}")
    for key in sorted(merged):
        if key.endswith(".self_s") and key.count(".") == 2 and key != "data.generate_dataset.self_s":
            name = key[: -len(".self_s")]
            print(f"  {name:<36} {merged[name + '.calls']:>9} {merged[key]:10.4f} "
                  f"{merged[key] / wall:7.1%}")
    for key in sorted(merged):
        if key.endswith(".self_s") and key.count(".") == 1:
            layer = key[: -len(".self_s")]
            print(f"  layer {layer:<30} {merged[layer + '.calls']:>9} {merged[key]:10.4f} "
                  f"{merged[key] / wall:7.1%}")
    for key in sorted(merged):
        if _is_count(key) and not key.endswith(".calls"):
            print(f"  {key:<40} {merged[key]}")
    print(f"  set-up: data.generate_dataset self_s {merged['data.generate_dataset.self_s']:.4f} "
          f"for {merged['data.generate_dataset.samples']} samples")
    print(f"  trace.coverage         {merged['trace.coverage']:.4f} (layer self time / stage wall, "
          f"engine self time excluded)")
    print(f"  trace.overhead_frac    {merged['trace.overhead_frac']:+.4f} (traced / untraced stage wall - 1, "
          f"{len(walls[True])} traced and {len(walls[False])} untraced iterations)")
    spans = WORK / f"spans-{args.workload}.tsv"
    last_tracer.write_spans(spans)
    print(f"  spans of the last traced iteration: {spans.relative_to(ROOT)} ({len(last_tracer.spans)} spans)")
    return {name: (merged[name], unit) for name, unit in PER_LAYER.items()}


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
