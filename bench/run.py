"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: boundarylab is imported from
``src/`` there, and scratch files go under ``.bench_work/``, which is
removed on exit.  The workloads and metrics are listed in ``spec.py``.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, each time in
a fresh process; the median set-up, warm-up iteration included, is
``setup_s``.  After each set-up it times untraced iterations for a third
of ``--seconds`` and reports the end-to-end metrics over all of them.
``--trace 1`` sets up once with spans on, times untraced iterations for
half of ``--seconds`` and traced ones for the other half, and reports
the per-layer metrics per traced iteration.

Every iteration's output bytes must hash to the warm-up iteration's, and
the warm-up output must match the committed accuracy reference; an
iteration that raises or differs counts as failed.  Lines starting with
``#`` describe the run; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_TRACE_ITERATIONS = 2
CHILD_TIMEOUT_S = 55

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (plain data; numpy must not load before pinning)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one set-up of an untraced run in this directory
    parser.add_argument("--one-setup", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def source_sha256(src):
    """Hash of the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".h"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(workload, blas_threads):
    import boundarylab
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(ROOT / "src" / "boundarylab"),
        "kernel_backend": boundarylab.KERNEL_BACKEND,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": spec.WORKERS,
        "blas_threads": blas_threads,
    }


def tail(times):
    """(value, percentile, samples): the highest percentile of ``times``
    with at least ten samples beyond it, or the maximum when there are
    fewer than eleven samples."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


def iterations(run, reference, seconds, minimum):
    """Call ``run`` until ``seconds`` have passed and ``minimum`` calls
    were made; returns (wall times, failed count)."""
    times = []
    failed = 0
    start = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            digest = run()
        except Exception:
            traceback.print_exc()
            digest = None
        times.append(time.perf_counter() - t0)
        if digest != reference:
            failed += 1
            print(f"# iteration {len(times)}: output differs from the "
                  f"reference", file=sys.stderr)
    return times, failed


def reference_problems(w, backend):
    """Accuracy of the warm-up output against the committed reference."""
    ref = spec.REFERENCE.get(backend, spec.REFERENCE["python"])[w.name]
    got = w.accuracy()
    print(f"# accuracy {json.dumps(got, sort_keys=True)} reference "
          f"{json.dumps(ref, sort_keys=True)}")
    return [f"{key} {got[key]:.4f} outside [{lo}, {hi}]"
            for key, (lo, hi) in ref.items() if not lo <= got[key] <= hi]


def one_setup(make, seconds):
    """One set-up with its warm-up iteration, then timed iterations for
    ``seconds`` (at least one)."""
    import boundarylab

    w = make()
    t0 = time.perf_counter()
    w.setup()
    reference = w.warmup()
    setup_s = time.perf_counter() - t0
    problems = reference_problems(w, boundarylab.KERNEL_BACKEND)
    times, failed = iterations(w.iterate, reference, seconds, 1)
    return {"setup_s": setup_s, "times": times, "failed": failed,
            "problems": problems, "digest": reference,
            "examples": w.examples, "grad_evals": w.grad_evals,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def spawn_setups(argv, workdir):
    """Run ``SETUP_REPEATS`` set-ups, each in a fresh process.

    Iteration speed on a 2-vCPU VM differs by up to ~20% between
    processes doing identical work, so one process would report its own
    luck; the median over set-ups in separate processes does not.
    """
    rounds = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, *argv, "--one-setup", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up process exited with {out.returncode}")
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        rounds.append(json.loads(lines[-1]))
    return rounds


def end_to_end(rounds):
    """End-to-end metrics over the set-ups of one run."""
    times = [t for r in rounds for t in r["times"]]
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("set-ups in separate processes produced different "
                        "outputs")
    last = rounds[-1]
    value, pct, n = tail(times)
    setups = [r["setup_s"] for r in rounds]
    print(f"# setup_s = median of {len(rounds)} set-ups with warm-up "
          f"{[round(s, 3) for s in setups]}")
    print(f"# iterations {n}, median {statistics.median(times):.4f} s, "
          f"iter_s_tail {value:.4f} s is p{pct:.1f} of {n} samples: "
          f"{[round(t, 3) for t in times]}")
    print(f"# per iteration: {last['examples']} examples, "
          f"{last['grad_evals']} gradient evaluations")
    # Throughput is work over the whole measured time, not over the
    # median iteration: on a shared 2-vCPU VM iteration times switch
    # between two speeds ~40% apart, and a median jumps with the mix
    # (train-cnn: run-to-run spread 0.20 by the median, 0.13 by the mean).
    busy = sum(times)
    values = {
        "setup_s": statistics.median(setups),
        "examples_per_s": last["examples"] * n / busy,
        "grad_evals_per_s": last["grad_evals"] * n / busy,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    return (values, units, len(times), sum(r["failed"] for r in rounds),
            problems)


def per_layer(w, seconds):
    """A traced set-up, then untraced and traced iterations for half of
    ``seconds`` each; per-layer metrics per traced iteration."""
    import boundarylab
    import spans

    labels = spans.kernel_labels(w.template())
    setup_rec = spans.Recorder()
    patches = spans.install(setup_rec, labels)
    try:
        w.setup()
    finally:
        patches.restore()
    reference = w.warmup()
    problems = reference_problems(w, boundarylab.KERNEL_BACKEND)

    cpu0, wall0 = time.process_time(), time.perf_counter()
    plain, failed = iterations(w.iterate, reference, seconds / 2,
                               MIN_TRACE_ITERATIONS)
    cpu_per_wall = ((time.process_time() - cpu0)
                    / (time.perf_counter() - wall0))

    rec = spans.Recorder()
    patches = spans.install(rec, labels)
    try:
        traced, traced_failed = iterations(
            rec.wrap("iteration", w.iterate), reference, seconds / 2,
            MIN_TRACE_ITERATIONS)
    finally:
        patches.restore()

    values = spans.layer_metrics(rec, len(traced), setup_rec)
    values["harness.cpu_per_wall"] = cpu_per_wall
    values["trace.overhead"] = (statistics.median(traced)
                                / statistics.median(plain))
    root_s, layer_self, remainder = spans.main_thread_accounting(rec)
    print(f"# traced iterations {len(traced)}, untraced {len(plain)}; "
          f"main thread: layer self times {layer_self:.4f} s + remainder "
          f"{remainder:.4f} s = {layer_self + remainder:.4f} s of "
          f"{root_s:.4f} s traced")
    units = {name: unit for name, unit, _ in spec.PER_LAYER}
    return (values, units, len(plain) + len(traced), failed + traced_failed,
            problems)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    workload = args.workload
    blas = spec.BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)

    src = ROOT / "src"
    if not (src / "boundarylab" / "__init__.py").is_file():
        print(f"bench: no boundarylab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import boundarylab
    if Path(boundarylab.__file__).resolve().parent != src / "boundarylab":
        print(f"bench: imported boundarylab from {boundarylab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    def make(workdir):
        return lambda: workloads.WORKLOADS[workload](args.seed, workdir)

    if args.one_setup:
        rounds = one_setup(make(Path(args.one_setup)),
                           args.seconds / SETUP_REPEATS)
        print(json.dumps(rounds))
        return 0

    print("# env " + json.dumps(environment(workload, blas), sort_keys=True))
    base = ROOT / ".bench_work"
    workdir = base / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            values, units, attempted, failed, problems = per_layer(
                make(workdir)(), args.seconds)
        else:
            values, units, attempted, failed, problems = end_to_end(
                spawn_setups(argv, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in problems:
        print(f"# reference check failed: {p}", file=sys.stderr)
    print(f"# error_rate {failed / attempted:.4f} ({failed}/{attempted} "
          f"iterations failed)")
    for name, value in values.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
