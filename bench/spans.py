"""Span recorder and the patches that time boundarylab from outside.

Nothing under ``src/`` knows about tracing.  ``install`` replaces each
public callable in the namespace that looks it up at call time, so the
program's own calls go through a timing wrapper:

* ``layers`` imports the kernel functions by name, so the kernels are
  patched as ``boundarylab.layers.conv2d_forward`` and so on;
* ``attacks`` binds ``nearest_boundary_batch`` and the per-restart
  helpers, ``harness`` binds ``run_restarts_batch``, ``cli`` reaches
  ``attacks``, ``harness``, ``data`` and ``model`` through module
  attributes;
* layer ``forward``/``backward`` and the ``Classifier`` methods are
  patched on the class, because ``model.train`` deep-copies the
  classifier and a per-instance wrapper would keep calling the original
  instance.

Every patch is undone by ``Patches.restore``.  The recorder is
thread-safe and keys each span by thread, so self time stays correct when
``harness.evaluate`` runs chunks on a thread pool.
"""

import itertools
import os
import threading
import time
from collections import Counter, defaultdict

from boundarylab import attacks, cli, data, harness, layers, model
from spec import KERNELS, LAYER_KINDS


class Recorder:
    """Spans ``(id, parent id, name, thread id, start, end)`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a span.

        ``name`` is a string or a function of the call's arguments.
        ``after(name, args, kwargs, result, seconds)`` runs once the span
        has closed, so counting costs land outside it.
        """
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, parent, label, threading.get_ident(), t0, t1))
            if after is not None:
                after(label, args, kwargs, out, t1 - t0)
            return out
        return traced

    def totals(self):
        return totals(self.spans)


def totals(spans):
    """name -> [calls, seconds, self seconds] over ``spans``."""
    child = defaultdict(float)
    for _, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, name, _, t0, t1 in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += t1 - t0 - child[sid]
    return out


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        # vars() keeps the raw descriptor (e.g. a classmethod) to restore
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def kernel_labels(clf):
    """Kernel call labels by shape: ``conv<j>`` by weight shape and
    ``pool<j>`` by channel count, numbered in layer order."""
    labels = {}
    j = 0
    for layer in clf.layers:
        if isinstance(layer, layers.Conv2d):
            j += 1
            labels[layer.weight.shape] = f"conv{j}"
            labels[("pool", layer.out_channels)] = f"pool{j}"
    return labels


def _conv_flop(gy_shape, w_shape):
    # one multiply-add per output element and kernel tap
    b, o, oh, ow = gy_shape
    _, c, kh, kw = w_shape
    return 2 * b * o * oh * ow * c * kh * kw


def restart_counts(rec, via_harness):
    def after(_, args, kwargs, out, seconds):
        evals = out.grad_evals_per_restart
        ok = out.iterations_per_restart >= 0
        rec.add("restarts_run", ok.size)
        rec.add("restarts_ok", int(ok.sum()))
        rec.add("evals", int(evals.sum()))
        rec.add("evals_useful", int(evals[ok].sum()))
        if via_harness:
            rec.add("chunks", 1)
            rec.add("busy_s", seconds)
    return after


def install(rec, labels):
    """Patch every traced callable to record into ``rec``; returns the
    ``Patches`` to restore.  ``labels`` comes from :func:`kernel_labels`."""
    p = Patches()

    def span(owner, attr, name, after=None, static=False):
        fn = rec.wrap(name, getattr(owner, attr), after)
        p.set(owner, attr, staticmethod(fn) if static else fn)

    def flop(count):
        def after(label, args, kwargs, out, _):
            rec.add(label + ".flop", count(args, out))
        return after

    def conv(op, w_of):
        return lambda *a, **k: (
            f"kernels.{labels.get(tuple(w_of(a)), 'conv?')}_{op}")

    def pool(op):
        return lambda *a, **k: (
            f"kernels.{labels.get(('pool', a[0].shape[1]), 'pool?')}_{op}")

    def descent_evals(label, args, kwargs, out, seconds):
        rec.add("evals_descent", int(out[1].sum()))

    def attack_evals(label, args, kwargs, out, seconds):
        rec.add("evals_attack", int(out.grad_evals.sum()))

    def pool_seconds(label, args, kwargs, out, seconds):
        rec.add("pool_s", seconds * kwargs.get("workers", 1))

    def idx_bytes(label, args, kwargs, out, seconds):
        rec.add("idx_bytes", sum(os.path.getsize(f) for f in args[:2]))

    span(layers, "conv2d_forward", conv("fwd", lambda a: a[1].shape),
         flop(lambda a, out: _conv_flop(out.shape, a[1].shape)))
    span(layers, "conv2d_input_grad", conv("igrad", lambda a: a[1].shape),
         flop(lambda a, out: _conv_flop(a[0].shape, a[1].shape)))
    span(layers, "conv2d_param_grad", conv("wgrad", lambda a: a[2]),
         flop(lambda a, out: _conv_flop(a[1].shape, a[2])))
    # 3 comparisons per 2x2 window forward, one scattered value backward
    span(layers, "maxpool2_forward", pool("fwd"),
         flop(lambda a, out: 3 * out[0].size))
    span(layers, "maxpool2_backward", pool("bwd"),
         flop(lambda a, out: a[0].size))

    for kind, cls in layers.LAYER_KINDS.items():
        span(cls, "forward", f"layers.{kind}.fwd")
        span(cls, "backward", f"layers.{kind}.bwd")

    span(model.Classifier, "head_forward_with_ctx", "model.head_forward")
    span(model.Classifier, "head_backward", "model.head_backward")
    span(model.Classifier, "predict", "model.predict")
    span(model.Classifier, "load", "model.load", static=True)
    span(model, "train", "model.train")

    span(attacks, "nearest_boundary_batch", "geometry.nearest_boundary")
    span(attacks, "random_start_batch", "attacks.random_start")
    span(attacks, "boundary_init_batch", "attacks.descent", descent_evals)
    span(attacks, "pgd_batch", "attacks.pgd", attack_evals)
    span(attacks, "fab_batch", "attacks.fab", attack_evals)
    span(attacks, "project_hyperplane_box", "attacks.project")
    span(attacks, "run_restarts_batch", "attacks.restarts",
         restart_counts(rec, via_harness=False))
    span(harness, "run_restarts_batch", "attacks.restarts",
         restart_counts(rec, via_harness=True))

    span(harness, "evaluate", "harness.evaluate", pool_seconds)
    span(harness, "export_representation_space", "harness.export")
    for cls in (harness.EvalReport, harness.ReprExport):
        span(cls, "to_json", "harness.serialize")
    for cls in (harness.SweepResult, harness.ReprExport):
        span(cls, "to_csv", "harness.serialize")

    span(data, "load_idx", "data.load_idx", idx_bytes)
    span(data, "make_digits", "data.make_digits")
    span(cli, "main", "cli.main")
    return p


def layer_metrics(rec, iterations, setup_rec):
    """Per-layer metrics per timed iteration from a traced run.

    ``rec`` holds the spans of ``iterations`` traced iterations and
    ``setup_rec`` those of one traced set-up.  ``harness.cpu_per_wall``
    and ``trace.overhead`` come from untraced timing and are added by the
    caller.
    """
    tot = rec.totals()
    c = rec.counts
    n = iterations

    def calls(name):
        return tot[name][0] / n if name in tot else 0

    def dur(name):
        return tot[name][1] / n if name in tot else 0.0

    def self_s(name):
        return tot[name][2] / n if name in tot else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    kernel_total = 0.0
    for name, (_, _, own) in tot.items():
        if name.startswith("kernels."):
            kernel_total += own
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.gflop_per_s"] = ratio(c[name + ".flop"] / n,
                                         self_s(name) * 1e9)
    m["kernels.total.self_s"] = kernel_total / n
    for kind in LAYER_KINDS:
        for d in ("fwd", "bwd"):
            m[f"layers.{kind}.{d}_self_s"] = self_s(f"layers.{kind}.{d}")
    for name in ("model.head_forward", "model.head_backward"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["model.train.self_s"] = self_s("model.train")
    m["model.load.s"] = dur("model.load")
    m["model.predict.s"] = dur("model.predict")
    m["geometry.nearest_boundary.calls"] = calls("geometry.nearest_boundary")
    m["geometry.nearest_boundary.s"] = dur("geometry.nearest_boundary")
    m["attacks.restarts.s"] = dur("attacks.restarts")
    m["attacks.random_start.s"] = dur("attacks.random_start")
    m["attacks.descent.self_s"] = self_s("attacks.descent")
    m["attacks.pgd.self_s"] = self_s("attacks.pgd")
    m["attacks.fab.self_s"] = self_s("attacks.fab")
    m["attacks.project.calls"] = calls("attacks.project")
    m["attacks.project.s"] = dur("attacks.project")
    m["attacks.grad_evals_descent"] = c["evals_descent"] / n
    m["attacks.grad_evals_attack"] = c["evals_attack"] / n
    m["attacks.useful_eval_ratio"] = ratio(c["evals_useful"], c["evals"])
    m["attacks.restart_success_ratio"] = ratio(c["restarts_ok"],
                                               c["restarts_run"])
    m["harness.evaluate.calls"] = calls("harness.evaluate")
    m["harness.chunks"] = c["chunks"] / n
    m["harness.self_s"] = self_s("harness.evaluate")
    m["harness.worker_busy_ratio"] = ratio(c["busy_s"], c["pool_s"])
    m["harness.export.s"] = dur("harness.export")
    m["harness.serialize_s"] = dur("harness.serialize")
    m["data.load_idx.s"] = dur("data.load_idx")
    m["data.load_idx.mb_per_s"] = ratio(c["idx_bytes"] / 1e6,
                                        tot["data.load_idx"][1])
    m["data.make_digits.s"] = setup_rec.totals()["data.make_digits"][1]
    m["cli.self_s"] = self_s("cli.main")
    return m


def main_thread_accounting(rec, root="iteration"):
    """(root seconds, layer self seconds, remainder) on the root's thread.

    Self times telescope, so the layers' self seconds plus the root's own
    self time (the benchmark's glue, the untraced remainder) equal the
    root spans' total duration.
    """
    threads = {s[3] for s in rec.spans if s[2] == root}
    t = totals([s for s in rec.spans if s[3] in threads])
    root_s = t[root][1]
    remainder = t[root][2]
    layer_self = sum(v[2] for k, v in t.items() if k != root)
    return root_s, layer_self, remainder
