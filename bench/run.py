"""bevkit benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload {train,eval,datagen} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. bevkit is imported from ``src/`` of the same
checkout; scratch files go to ``.bench_work/`` there and are removed at the
end, except the determinism digests under ``.bench_work/digests/`` and the
span dump of a traced run.

With ``--trace 0`` the last line of standard output is the JSON result with
every end-to-end metric; with ``--trace 1`` it carries every per-module metric
instead. The line before it is a report with timing distributions, static
counts and, for a traced run, the self-time table. README.md says why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"


def import_bevkit():
    """Import bevkit from this checkout's src/, never from an installed copy."""
    init = ROOT / "src" / "bevkit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init.relative_to(ROOT)} is missing; run from a bevkit checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    import types

    import bevkit

    if Path(bevkit.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported bevkit from {bevkit.__file__}, not from this checkout")
    names = ("checkpoint", "dataset", "errors", "evaluation", "fusion", "geometry", "model",
             "optim", "synthscene", "tensor")
    return types.SimpleNamespace(**{n: importlib.import_module(f"bevkit.{n}") for n in names})


def blas_threads():
    """OpenBLAS thread count of the BLAS numpy loaded, or None if unknown."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            f = getattr(dll, fn, None)
            if f is not None:
                f.restype = ctypes.c_int
                return int(f())
    return None


def static_counts(bk):
    """Recorded next to the timings; nothing is gated on them."""
    import numpy as np
    import scipy

    src = ROOT / "src" / "bevkit"
    det = bk.model.Detector(bk.model.ModelConfig(), bk.geometry.BEVGridSpec(),
                            np.random.default_rng(0))
    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
        "params": int(sum(p.data.size for p in det.parameters())),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def check_digest(w, workdir, value):
    """Same workload and seed must give the same digest on every run made in
    this checkout; the first run records it."""
    path = workdir / "digests" / f"{w.name}-seed{w.seed}.sha256"
    path.parent.mkdir(parents=True, exist_ok=True)
    w.attempted += 1
    if path.exists():
        if path.read_text().strip() != value:
            w.fail(f"digest {value} differs from the one an earlier run recorded in {path.name}")
    else:
        path.write_text(value + "\n")


def untraced(w, W, bk, workdir, seconds):
    setup_raw, setup_s = w.timed_setups()
    r = w.run(seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w.replay()
    metrics = {"setup_s": median(setup_s), "peak_rss_mb": peak_rss_mb, **w.metrics()}
    report = {"setup_s.raw": setup_raw, "units": r["units"], "wall_s": r["wall"],
              "kernel_ms": w.kernel.summary(), w.name: w.report(),
              "digest": r["digest"]}
    # Every run reports every end-to-end metric: the other workloads' metrics
    # come from small fixed-input probes run after the workload (and after
    # peak RSS is read), so they never shape its own numbers. The workload's
    # objects are freed first, so that a probe after train does not run beside
    # its detector, optimizer and heap.
    w.teardown()
    gc.collect()
    for other in W.WORKLOADS.values():
        if other is type(w):
            continue
        probe = other(bk, W.PROBE_SEED, workdir, size="probe")
        try:
            probe.setup()
            probe.run(seconds=0)
        finally:
            probe.teardown()
        metrics.update(probe.metrics())
        report[f"probe.{other.name}"] = probe.report()
        w.attempted += probe.attempted
        w.failed += probe.failed
        w.errors += probe.errors
    return r["digest"], metrics, report


def traced(w, spans, workdir, seconds):
    """Run the workload twice from identical set-ups, one unit of each in
    turn: a replica untraced and w traced. Paired units do the same work a
    moment apart, so the median over units of traced / untraced time is the
    tracing overhead, and a burst of load from elsewhere moves it little."""
    a = type(w)(w.bk, w.seed, workdir, w.size)
    tracer = spans.Tracer()

    def with_tracing(fn):
        tracer.install_modules()
        if "det" in w.state:
            tracer.install_object(w.state["det"])
        try:
            return fn()
        finally:
            tracer.uninstall()

    try:
        a.setup()
        with_tracing(w.setup)
        a.begin()
        w.begin()
        loop_t0 = perf_counter_ns()
        t_start = perf_counter()
        while not a.enough(t_start, seconds, full=False):
            a.unit()
            with_tracing(w.unit)
        a.finish()
        with_tracing(w.finish)
    finally:
        a.teardown()
    w.attempted += a.attempted + 1
    w.failed += a.failed
    w.errors += a.errors
    if a.r["digest"] != w.r["digest"]:
        w.fail("the traced replica gave a different digest from the untraced one")
    ratios = [tb / ta for ta, tb in zip(a.r["unit_ms"], w.r["unit_ms"]) if ta > 0 and tb > 0]
    overhead_pct = (median(ratios) - 1.0) * 100.0
    units = len(w.r["unit_ms"])
    metrics = tracer.metrics(loop_t0, *w.encoder_scope(), overhead_pct)
    traced_ms = sum(w.r["unit_ms"])
    report = {
        "units": units, "untraced_unit_ms_sum": sum(a.r["unit_ms"]), "traced_unit_ms_sum": traced_ms,
        "overhead_pct": overhead_pct, "spans": len(tracer.spans),
        "unmeasured": sorted(tracer.unmeasured),
        "self_ms": {k: {"calls": v[0], "total_ms": round(v[1], 3), "self_ms": round(v[2], 3),
                        "self_share": round(v[2] / traced_ms, 4)}
                    for k, v in sorted(tracer.self_times(loop_t0).items(), key=lambda kv: -kv[1][2])},
        "digest": w.r["digest"],
    }
    dump = workdir / f"spans-{w.name}-seed{w.seed}.json"
    dump.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                                "spans": tracer.spans}))
    return w.r["digest"], metrics, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not BENCH.is_file():
        sys.exit("bench: BENCHMARK.json not found at the checkout root")
    spec = json.loads(BENCH.read_text())
    bk = import_bevkit()
    import spans
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("bench: --seed must be >= 0 and --seconds > 0")

    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    t0 = perf_counter()
    w = W.WORKLOADS[args.workload](bk, args.seed, workdir)
    try:
        if args.trace:
            value, metrics, report = traced(w, spans, workdir, args.seconds)
            wanted = spec["per_layer"]
        else:
            value, metrics, report = untraced(w, W, bk, workdir, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        w.teardown()
    check_digest(w, workdir, value)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  errors=w.errors, total_s=perf_counter() - t0, static=static_counts(bk))
    print("bench report " + json.dumps(report, sort_keys=True))
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": w.failed == 0, "attempted": w.attempted,
                      "failed": w.failed, "metrics": out}))
    for e in w.errors:
        print(f"bench: {e}", file=sys.stderr)


if __name__ == "__main__":
    main()
