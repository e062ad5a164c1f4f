"""Print what ``import boundarylab.cli``, or a training run, costs a fresh
interpreter.

    python3 tools/footprint.py [--src DIR] [--train [--predict]]

Each of RUNS (15) fresh interpreters, one after another, imports
``boundarylab.cli`` from ``DIR`` (default: the ``src/`` next to this
file) with OPENBLAS_NUM_THREADS=1, as the benchmark runs.  Each reports
the wall time of that import statement and its own peak resident set
(``ru_maxrss``) after it.  The script prints the median, minimum and
maximum of both, and the top-level packages outside the standard library
that the import loaded, with their module counts (extension modules
outside a package are not listed).

With ``--train``, each of TRAIN_RUNS (7) fresh interpreters builds
``make_digits(128, classes=(0, 1, 2, 3), size=16)``, runs one
``predict`` of those digits on an untrained small_cnn if ``--predict``
is given, then runs TRAINS (3) six-epoch small_cnn trains at batch 128,
as the train-cnn benchmark workload does.  For each train in process
order it prints the minor page faults (``ru_minflt``) and the seconds
the train took, and the process's peak resident set after the last,
each as the median, minimum and maximum over the interpreters.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 15
TRAIN_RUNS, TRAINS = 7, 3

CHILD = """
import json, resource, sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import boundarylab.cli
seconds = time.perf_counter() - t0
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
packages = {}
for name in set(sys.modules) - before:
    top = name.partition(".")[0]
    if (top not in sys.stdlib_module_names
            and hasattr(sys.modules.get(top), "__path__")):
        packages[top] = packages.get(top, 0) + 1
print(json.dumps({"seconds": seconds, "maxrss_kb": maxrss_kb,
                  "packages": packages}))
"""

TRAIN_CHILD = """
import json, resource, sys, time
from boundarylab import data, model
predict, trains = sys.argv[1] == "1", int(sys.argv[2])
digits = data.make_digits(128, classes=(0, 1, 2, 3), size=16, seed=1)
shape = (1, 16, 16)
if predict:
    model.small_cnn(k=4, n=2, input_shape=shape).predict(digits.images)
faults, seconds = [], []
for i in range(trains):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    model.train(model.small_cnn(k=4, n=2, input_shape=shape, seed=2),
                digits, epochs=6, batch_size=128, seed=3)
    seconds.append(time.perf_counter() - t0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"faults": faults, "seconds": seconds,
                  "maxrss_kb": maxrss_kb}))
"""


def one_run(src, *args, child=CHILD):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", child, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


def spread(values, fmt):
    return (f"median {fmt.format(statistics.median(values))} "
            f"(min {fmt.format(min(values))}, max {fmt.format(max(values))})")


def train_report(src, predict):
    runs = [one_run(src, str(int(predict)), str(TRAINS), child=TRAIN_CHILD)
            for _ in range(TRAIN_RUNS)]
    print(f"{TRAINS} six-epoch small_cnn trains from {src}, "
          f"{'after one predict, ' if predict else ''}{TRAIN_RUNS} fresh "
          f"interpreters, python {sys.version.split()[0]}")
    for i in range(TRAINS):
        print(f"train {i + 1} minor faults: "
              + spread([r["faults"][i] for r in runs], "{:.0f}"))
        print(f"train {i + 1} s:            "
              + spread([r["seconds"][i] for r in runs], "{:.3f}"))
    print("ru_maxrss MB:          "
          + spread([r["maxrss_kb"] / 1024 for r in runs], "{:.1f}"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the boundarylab package")
    parser.add_argument("--train", action="store_true",
                        help="time training runs instead of the import")
    parser.add_argument("--predict", action="store_true",
                        help="with --train: run one predict first")
    args = parser.parse_args(argv)
    if args.predict and not args.train:
        parser.error("--predict needs --train")
    if args.train:
        train_report(args.src.resolve(), args.predict)
        return
    runs = [one_run(args.src.resolve()) for _ in range(RUNS)]
    print(f"import boundarylab.cli from {args.src}, {RUNS} fresh "
          f"interpreters, python {sys.version.split()[0]}")
    print("wall s:       " + spread([r["seconds"] for r in runs], "{:.3f}"))
    print("ru_maxrss MB: " + spread([r["maxrss_kb"] / 1024 for r in runs],
                                    "{:.1f}"))
    # every run imports the same modules
    listed = sorted(runs[0]["packages"].items(),
                    key=lambda kv: (-kv[1], kv[0]))
    print("loaded:       " + ", ".join(f"{top}: {count} modules"
                                       for top, count in listed))


if __name__ == "__main__":
    main()
