"""Print the minor page faults and wall time of a benchmark workload's
iterations.

    python3 tools/faults.py WORKLOAD [--src DIR]

Builds WORKLOAD (train-cnn, attack-fab-cnn or cli-mlp) from
``bench/workloads.py`` next to this file at seed 11, with the BLAS
thread count the benchmark pins (1, ``bench/spec.py``), and imports
boundarylab from ``DIR`` (default: the ``src/`` next to this file).  After the
set-up and the warm-up iteration it runs ITERATIONS (6) iterations and
prints, for each, its wall time and the minor page faults
(``getrusage`` ``ru_minflt``) the process took during it, then their
medians and the process's peak resident set.  ``bench/`` is only read:
no bytecode is written there, and the workload's files go to a
temporary directory.
"""

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
ITERATIONS = 6


def main(argv=None):
    sys.dont_write_bytecode = True  # bench/ is only read
    sys.path.insert(0, str(ROOT / "bench"))
    import spec  # plain data: numpy must not load before the pinning

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the boundarylab package")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(spec.BLAS_THREADS)
    sys.path.insert(0, str(args.src.resolve()))
    import boundarylab
    import workloads

    def minflt():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.WORKLOADS[args.workload](SEED, Path(tmp))
        w.setup()
        w.warmup()
        walls, faults = [], []
        for _ in range(ITERATIONS):
            f0, t0 = minflt(), time.perf_counter()
            w.iterate()
            walls.append(time.perf_counter() - t0)
            faults.append(minflt() - f0)
    print(f"{args.workload}, seed {SEED}, boundarylab from "
          f"{Path(boundarylab.__file__).parent}, "
          f"{spec.BLAS_THREADS} BLAS thread(s)")
    for i, (wall, fault) in enumerate(zip(walls, faults), 1):
        print(f"iteration {i}: {wall:.3f} s, {fault} minor faults")
    print(f"median: {statistics.median(walls):.3f} s, "
          f"{statistics.median(faults):.0f} minor faults per iteration")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {maxrss:.2f} MB")


if __name__ == "__main__":
    main()
