"""simpnet benchmark: train and eval throughput, set-up time, memory and
gradient-check speed, plus a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the engine is imported from its `src/` directory.
`--trace 0` prints the end-to-end metrics of BENCHMARK.json, measured
with nothing wrapped but a step clock and a loss recorder. Throughputs
are medians over the timed steps and eval batches; set-up time is
everything untimed: imports, writing, loading and normalizing the data
and building the model (medians of three), and the warm-up step and
batch that open each phase. `--trace 1` runs the train phase, one eval
batch and the full gradcheck suite untraced as references, then the
train and eval phases again with spans around the public functions of
data, rng, layers, network, train and gradcheck, and prints the
per-layer metrics. Both print report lines
first and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. A full report (environment, checks,
metrics, absent metrics) and, when tracing, the spans are written under
.bench_work/ in the checkout.

BLAS threads are pinned to min(2, nproc) before numpy is imported, so
loss sequences and digests compare across runs and machines.

What each per-layer metric should move (train = train_img_per_s, eval =
eval_img_per_s):
- layers.<kind>.fwd_ms/bwd_ms: train on both train workloads; eval_ms: eval.
- layers.im2col_ms, layers.col2im_ms, layers.conv.self_ms: train, most on
  train-300k-cifar; im2col also eval (col2im cannot: eval has no backward).
- layers.conv.gemm_floor_ms/gemm_share/gmacs_per_s, blas.sgemm_gflops:
  the roofline; gemm_share toward 1 moves train on train-300k-cifar.
- rng.keep_mask_ms/melems: train on both; predicted to leave eval unchanged.
- data.batches_ms, data.augment_ms (train-300k-cifar only), train.*,
  network.*: train. proc.minflt_per_step: peak_rss_mb and train.
- setup.*: setup_s, each part measured untraced.
- gradcheck.*: the speed of the full gradcheck suite (20 instances, the
  oracle that gates every kernel change), run untraced in its own phase.
- tracing.overhead_frac: traced over untraced step time, minus one.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MAX_BLAS_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def pin_blas_threads() -> int:
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def reported_blas_threads():
    """Thread count as OpenBLAS itself reports it, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": threads,
        "blas_threads_reported": reported_blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def median(values) -> float:
    import numpy as np

    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else 0.0


def cases_per_s(times: dict) -> float:
    """Layer-case instances per second: case count over the sum of each
    case's median instance time (robust to a burst hitting one case)."""
    total = sum(median(t) for t in times.values() if t)
    return len(times) / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(wl, seed: int, seconds: float, import_s: float, workdir: str):
    import resource

    import workload as W

    st = W.setup(wl, seed, workdir)
    gc_res, gc_times = W.gradcheck_phase(W.KERNEL_CHECK_INSTANCES)
    model = W.fresh_model(st.spec, seed)
    tr = W.train_phase(model, st, wl, seed, budget_s=W.TRAIN_SHARE * seconds)
    ev = W.eval_phase(model, st, wl, W.EVAL_SHARE * seconds)
    metrics = {
        "train_img_per_s": wl.batch / median(tr.timed) if tr.failed == 0 and len(tr.timed) else 0.0,
        "eval_img_per_s": wl.eval_batch / median(ev.timed) if len(ev.timed) else 0.0,
        "setup_s": import_s + st.data_s + st.build_s + tr.warmup_s + ev.warmup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    checks = {
        "steps": len(tr.values),
        "step_s": [round(d, 4) for d in tr.durations],  # the first is the warm-up
        "eval_batch_s": [round(d, 4) for d in ev.durations],
        "final_loss": tr.values[-1] if tr.values else None,
        "digest": tr.digest,
        "gradcheck_worst": dict(zip(gc_times, gc_res.values)),
    }
    return metrics, checks, (gc_res, tr, ev), True


# ---------------------------------------------------------------------------
# traced run


def traced(wl, seed: int, seconds: float, import_s: float, workdir: str):
    import gc

    import numpy as np

    import roofline
    import workload as W
    from simpnet import layers, train
    from tracing import SpanTable, Tracer

    # untraced references: the train phase, one eval batch (its warm-up)
    # and the full gradcheck suite
    st = W.setup(wl, seed, workdir)
    model = W.fresh_model(st.spec, seed)
    ref = W.train_phase(model, st, wl, seed, budget_s=W.TRAIN_SHARE * seconds)
    t = time.perf_counter()
    train.evaluate(model, W.chunks(st.test_ds, wl.eval_batch)[0], wl.eval_batch)
    eval_warmup_s = time.perf_counter() - t
    del model
    gc.collect()
    gc_res, gc_times = W.gradcheck_phase(W.SUITE_INSTANCES)

    tracer = Tracer()
    tracer.install()
    try:
        model = W.fresh_model(st.spec, seed)
        tr = W.train_phase(model, st, wl, seed, steps=ref.attempted)
        ev = W.eval_phase(model, st, wl, W.EVAL_SHARE * seconds)
    finally:
        tracer.uninstall()
    floor = roofline.conv_floor(model, wl.batch)
    sgemm = roofline.sgemm_gflops()
    breakdown = roofline.conv_breakdown(layers)
    tracer.dump(os.path.join(workdir, "spans.npz"))

    table = SpanTable(tracer)
    steps_b, eval_b = tr.bounds[1:], ev.bounds[1:]  # timed samples, after each warm-up

    def per(name, bounds=steps_b, **kw):
        return table.per_interval(name, bounds, **kw)

    m: dict[str, float | None] = {}

    def ms(key, arr):
        m[key] = None if arr is None else median(arr) * 1e3

    kinds = {n.split(".")[1] for n in tracer.names if n.startswith("layers.") and n.endswith((".forward", ".backward"))}
    for kind in kinds:
        ms(f"layers.{kind}.fwd_ms", per(f"layers.{kind}.forward"))
        ms(f"layers.{kind}.bwd_ms", per(f"layers.{kind}.backward"))
        ms(f"layers.{kind}.eval_ms", per(f"layers.{kind}.forward", eval_b))
    ms("layers.im2col_ms", per("layers.im2col"))
    ms("layers.col2im_ms", per("layers.col2im"))
    conv_f, conv_b = per("layers.conv.forward"), per("layers.conv.backward")
    if conv_f is not None and conv_b is not None:
        conv = conv_f + conv_b
        parents = ["layers.conv.forward", "layers.conv.backward"]
        children = np.zeros_like(conv)
        for child in ("layers.im2col", "layers.col2im"):
            part = per(child, parent_names=parents)
            if part is not None:
                children += part
        ms("layers.conv.self_ms", conv - children)
        conv_s = median(conv)
        m["layers.conv.gemm_floor_ms"] = floor["floor_s"] * 1e3
        m["layers.conv.gemm_share"] = floor["floor_s"] / conv_s if conv_s > 0 else None
        m["layers.conv.gmacs_per_s"] = floor["train_macs"] / conv_s / 1e9 if conv_s > 0 else None
    m["blas.sgemm_gflops"] = sgemm
    for part, seconds_ in breakdown.items():
        m[f"conv32.{part}_ms"] = seconds_ * 1e3
    ms("rng.keep_mask_ms", per("rng.keep_mask"))
    elems = per("rng.keep_mask", column="amount")
    m["rng.keep_mask_melems"] = None if elems is None else median(elems) / 1e6
    for name in ("data.batches", "data.augment", "train.sgd_step", "network.forward", "network.backward"):
        ms(f"{name}_ms", per(name))
    ms("train.softmax_xent_ms", per("layers.softmax_xent"))  # defined in layers, called by train
    m["proc.minflt_per_step"] = ref.faults_per_timed
    m["setup.data_load_s"] = st.data_s
    m["setup.build_s"] = st.build_s
    m["setup.warmup_s"] = ref.warmup_s + eval_warmup_s
    for case, times in gc_times.items():
        m[f"gradcheck.{case}_ms"] = median(times) * 1e3
    m["gradcheck.cases_per_s"] = cases_per_s(gc_times)
    untraced_step, traced_step = median(ref.timed), median(tr.timed)
    m["tracing.overhead_frac"] = traced_step / untraced_step - 1.0 if untraced_step > 0 else None

    consistent = ref.digest == tr.digest and ref.values == tr.values
    checks = {
        "steps": len(tr.values),
        "digest_untraced": ref.digest,
        "digest_traced": tr.digest,
        "losses_match": ref.values == tr.values,
        "spans": len(tracer.start),
        "gradcheck_worst": dict(zip(gc_times, gc_res.values)),
    }
    return {k: v for k, v in m.items() if v is not None}, checks, (gc_res, ref, tr, ev), consistent


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "simpnet", "__init__.py")):
        print(f"error: engine sources not found under {src}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path[:0] = [src, BENCH]
    import simpnet

    if not os.path.abspath(simpnet.__file__).startswith(src + os.sep):
        print(f"error: imported simpnet from {simpnet.__file__}, not {src}", file=sys.stderr)
        return 2
    import workload as W

    import_s = time.perf_counter() - T_START

    wl = W.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    env = environment(threads)
    print("env " + json.dumps(env))
    run = traced if args.trace else end_to_end
    try:
        computed, checks, phases, consistent = run(wl, args.seed, args.seconds, import_s, workdir)
    finally:
        shutil.rmtree(os.path.join(workdir, "data"), ignore_errors=True)

    spec = bench["per_layer" if args.trace else "end_to_end"]
    metrics, absent = {}, []
    for entry in spec:
        value = computed.get(entry["name"])
        if value is None or not math.isfinite(value):
            absent.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    errors = [e for ph in phases for e in ph.errors]
    correct = failed == 0 and consistent and (args.trace == 1 or not absent)
    print("checks " + json.dumps(checks))
    print("absent " + json.dumps(absent))
    for err in errors:
        print("error " + json.dumps(err))
    report = {
        "workload": wl.name, "batch": wl.batch, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env,
        "checks": checks, "absent": absent, "errors": errors,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
