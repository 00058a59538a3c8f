#!/usr/bin/env python3
"""kernsense benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root; kernsense is imported from ./src.  The run
sets up its inputs from the seed (several times, to time set-up), then
calls the workload's task back to back until --seconds are spent, checks
every output against the dense oracle, and prints one JSON object as the
last line of stdout.  With --trace 0 that object holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics from spans recorded
around every public function of kernsense's modules.  Details, workloads
and the metric table are in perfbench/README.md.
"""

import os
import sys

# BLAS threads are fixed through this process's environment before numpy
# loads, so results do not depend on the caller's settings.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

IMPORT_REPEATS = 5      # fresh interpreters timed importing kernsense
BUILDS = 3              # set-ups per run; setup_s uses their median
MIN_TASKS = 3

# The sweep's instance family: n=40, r=5, spectrum all ones, student-t
# noise (dof 2, scale 1) rescaled to norm EPS_TOP, bandwidth H.
N, R, H, LAMBDA_MIX, EPS_TOP = 40, 5, 0.5, 0.2, 0.9
NORM_M_STAR = math.sqrt(R)          # ||M*||_F for a spectrum of ones
SOLVE_M = 4000
SOLVE_ITERS = {"kernel": 9, "mse": 400}
RHO_SAMPLES = 2                     # auto_rho step resolution in set-up
SWEEP = dict(n=N, r=R, m=1200, losses=("mse", "kernel", "combined"), h=H,
             lambda_mix=LAMBDA_MIX, eps_grid=(0.5, 0.7, 0.9), trials=1,
             noise_kind="student_t", noise_params={"dof": 2.0, "scale": 1.0},
             delta_regime="low", max_iters=30, eta="auto_rho",
             init_scale=0.05, const_samples=8, workers=1)
CONST_M, CONST_SAMPLES, LAMBDA_MIN_ITERS = 1200, 8, 40


def load_kernsense():
    if not (SRC / "kernsense" / "__init__.py").is_file():
        raise SystemExit(f"error: kernsense sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kernsense
    if Path(kernsense.__file__).resolve().parent != SRC / "kernsense":
        raise SystemExit(f"error: imported kernsense from {kernsense.__file__}")
    for layer in spans.LAYERS:
        importlib.import_module(f"kernsense.{layer}")
    return kernsense


def import_seconds():
    """Wall time to import numpy and kernsense in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import numpy, kernsense; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def top_instance(ks, m, seed):
    """The sweep's instance at its largest noise level, built from the seed."""
    inst = ks.model.make_instance(N, R, m, (1.0,) * R,
                                  ks.model.NoiseModel.student_t(2.0, 1.0), seed)
    w = EPS_TOP * inst.noise / np.linalg.norm(inst.noise)
    b = ks.model.apply_op(inst.op, inst.truth.matrix) + w
    return replace(inst, noise=w, measurements=b)


def task_seed(seed, i):
    """Seed of the i-th task of a run: every task gets fresh inputs, so no
    result can be reused from an earlier call."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Workloads: build(seed) -> state, task(state, i) -> output of the i-th task,
# check(state, output) -> problems.
# ---------------------------------------------------------------------------

class Sweep:
    m = SWEEP["m"]

    def build(self, ks, seed):
        return ks.cli.SweepConfig(base_seed=seed, **SWEEP)

    def task(self, ks, config, i):
        return ks.cli.run_sweep(replace(config,
                                        base_seed=task_seed(config.base_seed, i)))

    def check(self, ks, config, rows):
        return oracle.check_sweep(rows, SWEEP["losses"], SWEEP["eps_grid"],
                                  NORM_M_STAR)

    def report(self, durations):
        return {"sweep_s": (statistics.median(durations), "s")}


class Solve:
    m = SOLVE_M

    def __init__(self, kind):
        self.kind = kind
        self.iters = SOLVE_ITERS[kind]

    def build(self, ks, seed):
        spec = (ks.losses.LossSpec.mse() if self.kind == "mse"
                else ks.losses.LossSpec.kernel(H))
        inst = top_instance(ks, SOLVE_M, seed)
        eta = ks.optimize.auto_step_size(inst, spec, "auto_rho", seed=seed,
                                         rho_samples=RHO_SAMPLES)
        return inst, spec, eta, seed

    @staticmethod
    def start_point(X, seed):
        """The truth plus a perturbation of 5% of its norm."""
        pert = np.random.default_rng(seed).standard_normal(X.shape)
        return X + 0.05 * np.linalg.norm(X) / np.linalg.norm(pert) * pert

    def task(self, ks, state, i):
        inst, spec, eta, seed = state
        X0 = self.start_point(inst.truth.factor, task_seed(seed, i))
        return ks.optimize.gradient_descent(inst, spec, ks.optimize.SolverConfig(
            eta=eta, max_iters=self.iters, grad_tol=0.0, init="explicit",
            init_X0=X0))

    def check(self, ks, state, res):
        inst, spec, _, _ = state
        b = inst.measurements
        out = oracle.SolveOutput(
            X_hat=res.X_hat, first_loss=float(res.loss_trace[0]),
            final_loss=float(res.loss_trace[-1]),
            final_error=float(res.error_trace[-1]),
            grad=ks.losses.grad_X(spec, inst.op, b, res.X_hat),
            iterations=res.iterations_run, termination=res.termination,
            trace_len=len(res.loss_trace))
        return oracle.check_solve(oracle.Loss(self.kind, H), inst.op.mats, b,
                                  inst.truth.matrix, self.iters, out)

    def report(self, durations):
        evals = self.iters + 1
        return {"iter_ms": (statistics.median(durations) / evals * 1e3, "ms")}


class Constants:
    m = CONST_M

    def build(self, ks, seed):
        return top_instance(ks, CONST_M, seed), ks.losses.LossSpec.kernel(H), seed

    def task(self, ks, state, i):
        inst, spec, seed = state
        s = task_seed(seed, i)
        est = ks.empirics.estimate_constants(spec, inst, CONST_SAMPLES, s)
        lam = ks.losses.lambda_min_hessian(spec, inst.op, inst.measurements,
                                           inst.truth.matrix,
                                           iters=LAMBDA_MIN_ITERS, seed=s + 1)
        return est, lam

    def check(self, ks, state, out):
        inst, _, _ = state
        return oracle.check_constants(out[0], out[1], inst.noise, H)

    def report(self, durations):
        return {"constants_s": (statistics.median(durations), "s")}


WORKLOADS = {
    "sweep_heavy_tail": Sweep(),
    "solve_kernel_m4000": Solve("kernel"),
    "solve_mse_m4000": Solve("mse"),
    "constants_kernel": Constants(),
}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def run_tasks(ks, wl, state, seconds, tracer):
    """Closed loop: the next task starts when the previous one has returned
    and been checked.  With a tracer, tasks alternate untraced and traced."""
    timed = {False: [], True: []}
    problems = []
    failed = 0
    walls = []
    start = time.perf_counter()
    while (len(walls) < MIN_TASKS or
           time.perf_counter() - start + statistics.median(walls) <= seconds):
        traced = tracer is not None and len(walls) % 2 == 1
        t_wall = time.perf_counter()
        out = None
        try:
            if traced:
                tracer.phase = ("task", len(walls))
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = wl.task(ks, state, len(walls))
                t1 = time.perf_counter()
            finally:
                if traced:
                    tracer.uninstall()
            timed[traced].append(t1 - t0)
            bad = wl.check(ks, state, out)
        except Exception:
            bad = ["raised: " + traceback.format_exc(limit=3)]
        out = None
        if bad:
            failed += 1
            problems.append({"task": len(walls), "problems": bad})
        walls.append(time.perf_counter() - t_wall)
    return timed, len(walls), failed, problems


def fmt_timing(name, xs, unit, scale=1.0):
    return fmt_summary(name, spans.tail_summary(xs), unit, scale)


def fmt_summary(name, s, unit, scale=1.0):
    tail = (f"p{s['tail']['p']} {s['tail']['value'] * scale:.6g}"
            if s["tail"] else "no tail percentile (<= 20 samples)")
    return (f"{name} = {s['median'] * scale:.6g} {unit} "
            f"(median of {s['samples']} samples; {tail})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that the oracle rejects corrupted outputs")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    ks = load_kernsense()
    if args.self_test:
        problems = selftest.run(ks)
        print("\n".join(problems) or "oracle self-test passed")
        return 1 if problems else 0

    wl = WORKLOADS[args.workload]
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]

    tracer = spans.Tracer() if args.trace else None
    builds = []
    state = None
    for i in range(BUILDS):
        state = None                      # free the previous build first
        if tracer:
            tracer.phase = ("build", i)
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = wl.build(ks, args.seed)
        finally:
            if tracer:
                tracer.uninstall()
        builds.append(time.perf_counter() - t0)

    timed, attempted, failed, problems = run_tasks(ks, wl, state, args.seconds,
                                                   tracer)
    del state
    self_problems = selftest.run(ks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = timed[False]
    if not untraced:
        print("\n".join(str(p) for p in problems), file=sys.stderr)
        raise SystemExit("error: no task completed")
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
             fmt_timing("import_s", imports, "s"),
             fmt_timing("build_s", builds, "s"),
             fmt_timing("task_s", untraced, "s")]
    for name, (value, unit) in wl.report(untraced).items():
        lines.append(f"{name} = {value:.6g} {unit} (median over "
                     f"{len(untraced)} untraced tasks)")
    lines.append(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    lines.append(f"oracle self-test: "
                 f"{'; '.join(self_problems) if self_problems else 'passed'}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
            "task_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {}
    else:
        metrics = spans.layer_metrics(tracer.spans, wl.m, N)
        overhead = statistics.median(timed[True]) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        lines.append(fmt_timing("traced task_s", timed[True], "s"))
        lines.append(f"tracing overhead = {overhead:+.4f} of the untraced task time")
        extra = {"per_call": spans.per_call_tails(tracer.spans)}
        for name, s in extra["per_call"].items():
            if s["tail"]:
                lines.append(fmt_summary(f"call {name}", s, "ms", 1e3))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")

    facts = machine_facts(args.seed)
    lines.append("machine " + json.dumps(facts, sort_keys=True))
    print("\n".join(lines))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(RESULTS / f"{stem}-spans.jsonl")
    correct = failed == 0 and not self_problems
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "machine": facts,
           "samples_s": {"import": imports, "build": builds,
                         "task_untraced": untraced, "task_traced": timed[True]},

           "workload_metrics": {k: v for k, (v, _) in wl.report(untraced).items()},
           "problems": problems, "self_test_problems": self_problems,
           **extra}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    doc["result"] = result
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
