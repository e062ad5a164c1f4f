"""boundarylab: last-layer decision-boundary geometry and boundary-seeded attacks.

Small image classifiers built on explicit forward/backward layers, split
into a nonlinear head and a final linear tail.  The tail yields every
pairwise class boundary in closed form; attacks can start from the nearest
boundary instead of a random perturbation and the harness compares both
under the same gradient budget.
"""

__version__ = "0.1.0"

KERNEL_BACKEND = "python"  # the kernels are numpy; the benchmark records this

__all__ = ["KERNEL_BACKEND", "__version__"]
