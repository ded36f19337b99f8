"""Benchmark of the vplandau solver: one workload in one process.

    python3 bench/run.py --workload nonlinear-default --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The run repeats whole rounds (set-ups and one solve, see
``workloads``) for ``--seconds``, then checks the last solve's outputs
outside the timed region.  It prints a manifest line, a checks line and, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics from a traced run with ``--trace 1``.
``--smoke`` takes every code path and check on tiny grids.  Outputs go to
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
MIB = 2.0**20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("nonlinear-default", "picard-large",
                            "linearized-decay"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def manifest(w, args, inputs):
    import numpy
    import scipy

    return {"workload": w.name, "seed": args.seed, "inputs": inputs,
            "smoke": args.smoke, "nproc": os.cpu_count(),
            "fft_workers": w.workers,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "grid": f"{w.n_x}x{w.n_v}^3", "scheme": w.scheme, "dt": w.dt,
            "steps_per_solve": w.steps, "record_every": w.record_every,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _per(x, n):
    return x / n if n else 0.0


def layer_metrics(acc, traced, w, setup, overhead_s, convolve_peak,
                  checkpoint_file):
    """Per-layer metrics from the span summary of the traced solves.

    ``_s`` metrics of step and record layers are self times per step or
    per record; set-up, checkpoint, resume and CSV metrics are span
    durations per call.
    """
    steps = sum(len(r.infos) for r in traced)
    records = sum(len(r.record_s) for r in traced)

    def get(phase, name, field):
        return acc.get((phase, name), (0.0, 0.0, 0))[field]

    def step_self(name):
        return _per(get("step", name, 0), steps)

    def record_self(name):
        return _per(get("record", name, 0), records)

    def per_call(phase, name):
        return _per(get(phase, name, 1), get(phase, name, 2))

    step_total = sum(v[0] for (phase, _), v in acc.items() if phase == "step")
    ck_bytes = os.path.getsize(checkpoint_file) if checkpoint_file else 0
    payload = setup.state.f_plus.nbytes + setup.state.f_minus.nbytes
    iters = [i.picard_iterations for r in traced for i in r.infos]
    m = {
        "landau.convolve_s": _per(get("step", "landau.convolve", 0),
                                  get("step", "landau.convolve", 2)),
        "landau.convolve_calls": _per(get("step", "landau.convolve", 2),
                                      steps),
        "landau.convolve_peak_mb": convolve_peak / MIB,
        "landau.assemble_s": step_self("landau.assemble"),
        "landau.assemble_calls": _per(get("step", "landau.assemble", 2),
                                      steps),
        "landau.correct_s": step_self("landau.correct"),
        "landau.linearized_s": step_self("landau.linearized"),
        "landau.tables_s": per_call("setup", "landau.tables"),
        "landau.epsilon_op_s": per_call("setup", "landau.epsilon_op"),
        "dynamics.transport_s": step_self("dynamics.transport"),
        "dynamics.field_s": step_self("dynamics.field"),
        "dynamics.collision_s": step_self("dynamics.collision"),
        "dynamics.picard_iterations": _per(sum(iters), len(iters)),
        "dynamics.spectral_radius_s": _per(
            get("setup", "dynamics.spectral_radius", 1),
            get("setup", "bench.setup", 2)),
        "grid.v_derivative_s": step_self("grid.v_derivative"),
        "grid.v_derivative_calls": _per(get("step", "grid.v_derivative", 2),
                                        steps),
        "grid.v_derivative_record_s": record_self("grid.v_derivative"),
        "grid.v_derivative_record_calls": _per(
            get("record", "grid.v_derivative", 2), records),
        "poisson.solve_s": step_self("poisson.solve"),
        "poisson.solve_calls": _per(get("step", "poisson.solve", 2), steps),
        "state.project_P_s": record_self("state.project_P"),
        "state.checkpoint_s": per_call("checkpoint", "state.checkpoint"),
        "state.checkpoint_mb": ck_bytes / MIB,
        "state.checkpoint_payload_ratio": ck_bytes / payload,
        "state.resume_s": per_call("check", "state.resume"),
        "weights.E_k_s": record_self("weights.E_k"),
        "weights.D_k_s": record_self("weights.D_k"),
        "weights.mixed_derivatives_s": record_self(
            "weights.mixed_derivatives"),
        "weights.mixed_derivatives_calls": _per(
            get("record", "weights.mixed_derivatives", 2), records),
        "weights.anisotropic_gradient_s": record_self(
            "weights.anisotropic_gradient"),
        "diagnostics.record_self_s": record_self("diagnostics.record"),
        "diagnostics.projection_s": record_self("diagnostics.projection"),
        "diagnostics.balance_s": record_self("diagnostics.balance"),
        "diagnostics.csv_s": _per(get("solve", "diagnostics.csv", 1),
                                  len(traced)),
        "initial.condition_s": per_call("setup", "initial.condition"),
        "initial.halvings": setup.halvings,
        "trace.overhead_s": overhead_s,
        "trace.step_s": _per(step_total, steps),
        "trace.step_uncovered_s": step_self("dynamics.advance"),
    }
    return m


def no_span(_name):
    return nullcontext()


def run(args):
    import checks
    import spans
    import workloads
    from vplandau import landau

    w = workloads.get_workload(args.workload, args.smoke)
    w = replace(w, workers=min(w.workers, os.cpu_count() or 1))
    os.environ["VPLANDAU_THREADS"] = str(w.workers)
    inputs = workloads.make_inputs(w, args.seed)
    out_dir = ROOT / ".bench_out" / (("smoke-" if args.smoke else "")
                                     + w.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    print(json.dumps({"manifest": manifest(w, args, inputs)}), flush=True)

    # A round is ``setup_reps`` set-ups and one solve from the last of them,
    # so set-up samples spread over the run like the solves do.  A round
    # starts only if one more of median length still ends within
    # ``--seconds``.  With tracing, rounds alternate untraced and traced; the
    # paired difference of their solve times is the tracing overhead.
    setup_s, results, is_traced, round_s = [], [], [], []
    t_begin = time.perf_counter()
    while (len(results) < (2 if tracer else 1)
           or time.perf_counter() - t_begin + statistics.median(round_s)
           <= args.seconds):
        t_round = time.perf_counter()
        on = tracer is not None and len(results) % 2 == 1
        span = tracer.span if on else no_span
        with (tracer.installed() if on else nullcontext()):
            for _ in range(w.setup_reps):
                t0 = time.perf_counter()
                with span("bench.setup"):
                    setup = workloads.set_up(w, inputs)
                setup_s.append(time.perf_counter() - t0)
            with span("bench.solve"):
                res = workloads.solve(w, setup, str(out_dir), span)
        results.append(res)
        is_traced.append(on)
        round_s.append(time.perf_counter() - t_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records_planned = workloads.records_per_solve(w)
    attempted = len(results) * (w.steps + records_planned)
    failed = sum(r.steps_failed + r.records_failed
                 + records_planned - len(r.record_s) for r in results)
    done = [r for r in results if r.final is not None]
    check_rows = []
    if done:
        span = tracer.span if tracer else no_span
        with (tracer.installed() if tracer else nullcontext()), \
                span("bench.check"):
            check_rows = checks.run_checks(w, setup, done[-1], str(out_dir))
        csv_rows = workloads.read_csv_rows(str(out_dir / "series.csv"))
        check_rows.append(("csv_rows", len(csv_rows), records_planned + 1,
                           len(csv_rows) == records_planned + 1))
    correct = bool(check_rows) and all(ok for *_, ok in check_rows)
    print(json.dumps({"checks": [
        {"name": n, "value": v, "limit": lim, "ok": ok}
        for n, v, lim, ok in check_rows],
        "errors": [r.error for r in results if r.error]}, default=str),
        flush=True)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r.run_s for r in results),
            "step_s": statistics.median(t for r in results for t in r.step_s),
            "record_s": statistics.median(
                t for r in results for t in r.record_s),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced_res = [r for r, on in zip(results, is_traced) if on]
        plain = [r for r, on in zip(results, is_traced) if not on]
        overhead = statistics.median(
            t.run_s - u.run_s for u, t in zip(plain, traced_res))
        s = done[-1].final.f_plus + done[-1].final.f_minus if done else \
            setup.state.f_plus + setup.state.f_minus
        tracemalloc.start()
        landau.convolve_tables(setup.tables, s, w.workers)
        convolve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        ck = (str(workloads.checkpoint_path(str(out_dir), w.checkpoint_every))
              if w.checkpoint_every else None)
        metrics = layer_metrics(spans.summarize(tracer.spans), traced_res, w,
                                setup, overhead, convolve_peak, ck)
        tracer.write(str(out_dir / "trace.json"))
    checks.remove_checkpoints(str(out_dir))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if tracer else "end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "vplandau" / "__init__.py").is_file():
        print(f"bench: no vplandau sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
