"""Print what ``import boundarylab.cli`` costs a fresh interpreter.

    python3 tools/footprint.py [--src DIR]

Each of RUNS (15) fresh interpreters, one after another, imports
``boundarylab.cli`` from ``DIR`` (default: the ``src/`` next to this
file) with OPENBLAS_NUM_THREADS=1, as the benchmark runs.  Each reports
the wall time of that import statement and its own peak resident set
(``ru_maxrss``) after it.  The script prints the median, minimum and
maximum of both, and the top-level packages outside the standard library
that the import loaded, with their module counts (extension modules
outside a package are not listed).
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


def one_run(src):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout)


def spread(values, fmt):
    return (f"median {fmt.format(statistics.median(values))} "
            f"(min {fmt.format(min(values))}, max {fmt.format(max(values))})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the boundarylab package")
    args = parser.parse_args(argv)
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
