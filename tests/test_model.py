import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest

from boundarylab import attacks, data, geometry, kernels, layers, model
from boundarylab.verify import fd_grad, rel_err
from helpers import rewrite_checkpoint_header


def test_head_tail_composition_is_bit_exact(blobs_mlp, rng):
    x = rng.uniform(0, 1, size=(20, 8))
    v = blobs_mlp.head_forward(x)
    np.testing.assert_array_equal(blobs_mlp.tail_forward(v),
                                  blobs_mlp.forward(x))


def test_identity_head_passes_input_through():
    clf = model.linear_model(2, 2, weight=np.eye(2), bias=np.zeros(2))
    np.testing.assert_array_equal(clf.head_forward(np.array([[0.2, 0.8]])),
                                  [[0.2, 0.8]])


def test_tail_forward_hand_values():
    clf = model.linear_model(2, 2, weight=np.array([[2.0, 0.0], [0.0, 0.0]]),
                             bias=np.array([0.0, 1.0]))
    np.testing.assert_array_equal(clf.tail_forward(np.array([[1.0, 5.0]])),
                                  [[2.0, 1.0]])


def test_cnn_preset_maps_image_to_plane():
    clf = model.small_cnn(k=4, n=2, input_shape=(1, 28, 28), seed=0)
    v = clf.head_forward(np.random.default_rng(0).uniform(0, 1,
                                                          (1, 1, 28, 28)))
    assert v.shape == (1, 2)
    assert clf.k == 4 and clf.n == 2


# "-eval" in the ids: a head pass runs in eval mode only
@pytest.mark.parametrize("channels", [1, 3], ids=["1-eval", "3-eval"])
def test_cnn_head_is_batch_innermost_inside_and_c_order_outside(
        monkeypatch, rng, channels):
    # From conv1's output to Flatten's input, and back from pool2's
    # gradient to conv1's, every activation is a batch-first view of a
    # batch-innermost buffer; what the head hands out is C-order batch-first
    clf = model.small_cnn(k=4, n=2, input_shape=(channels, 16, 16), seed=0)
    flat = next(i for i, layer in enumerate(clf.layers)
                if layer.kind == "flatten")
    inside = []
    for layer in clf.layers[:flat + 1]:
        def forward(x, _run=layer.forward, **kwargs):
            y, ctx = _run(x, **kwargs)
            inside.append(y)
            return y, ctx

        def backward(ctx, gy, _run=layer.backward, **kwargs):
            gx = _run(ctx, gy, **kwargs)
            inside.append(gx)
            return gx
        monkeypatch.setattr(layer, "forward", forward)
        monkeypatch.setattr(layer, "backward", backward)
    x = rng.uniform(0, 1, (5, channels, 16, 16))
    v, ctxs = clf.head_forward_with_ctx(x)
    g = clf.head_backward(ctxs, rng.standard_normal(v.shape))
    inside.pop(flat)  # Flatten's own output is a row batch
    assert len(inside) == 2 * flat + 1
    # Flatten is a pure reshape: its gradient is Dense's, C-order
    assert inside.pop(flat).flags.c_contiguous
    for a in inside:
        assert a.ndim == 4 and a.transpose(1, 2, 3, 0).flags.c_contiguous
    assert v.shape == (5, 2) and v.flags.c_contiguous
    assert g.shape == x.shape and g.flags.c_contiguous
    assert clf.head_forward(x).flags.c_contiguous


def _owned_heads():
    # heads whose ReLU and BatchNorm layers the model's loops run in place:
    # the presets, a head that starts and ends with ReLU (the last one gets
    # the caller's representation gradient), one that starts with
    # BatchNorm (its rank-4 input is the caller's array, batch-innermost
    # below, so its rows view it), and Flatten then ReLU (the ReLU gets a
    # view of the caller's input)
    rng = np.random.default_rng(3)
    L = layers
    heads = {
        "small_cnn": model.small_cnn(k=3, n=2, input_shape=(1, 12, 12),
                                     seed=1),
        "mlp": model.mlp((1, 6, 6), 3, n=2, hidden=(8,), seed=1),
        "relu-first": model.Classifier(
            [L.ReLU(), L.Dense(12, 2, rng=rng), L.ReLU(),
             L.Dense(2, 3, rng=rng)], (12,)),
        "batchnorm-first": model.Classifier(
            [L.BatchNorm(2), L.Conv2d(2, 3, 3, rng=rng), L.BatchNorm(3),
             L.ReLU(), L.Flatten(), L.Dense(48, 2, rng=rng),
             L.Dense(2, 3, rng=rng)], (2, 6, 6)),
        "flatten-relu": model.Classifier(
            [L.Flatten(), L.ReLU(), L.Dense(18, 5, rng=rng), L.BatchNorm(5),
             L.ReLU(), L.Dense(5, 2, rng=rng), L.Dense(2, 3, rng=rng)],
            (2, 3, 3)),
    }
    for clf in heads.values():
        for layer in clf.layers:  # running statistics away from identity
            if isinstance(layer, L.BatchNorm):
                layer.running_mean[:] = rng.normal(size=layer.channels)
                layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
                layer.gamma[:] = rng.uniform(0.5, 2.0, layer.channels)
                layer.beta[:] = rng.normal(size=layer.channels)
    return heads


def _caller_input(name, clf, rng, rows=7):
    # negative values too, which a ReLU written over x would change
    x = rng.uniform(-1, 1, (rows, *clf.input_shape))
    return kernels.batch_inner(x) if name == "batchnorm-first" else x


def _pure_head_pass(clf, x, gv, crop=True):
    # the head's layer loops with every layer method called as a caller
    # would, in eval mode and without overwrite: the oracle of the
    # model's in-place loops.  With ``crop`` they run on the input corner
    # the head reads (test_head_reads_the_corner_its_pools_keep pins it),
    # and the corner's gradient is embedded in +0.0, as the model's is;
    # without, on the whole input
    corner = clf._corner if crop else None
    h, ctxs = (x if corner is None else x[corner]), []
    for layer in clf.layers[:-1]:
        h, ctx = layer.forward(h)
        ctxs.append(ctx)
    g = gv
    for layer, ctx in zip(reversed(clf.layers[:-1]), reversed(ctxs)):
        g = layer.backward(ctx, g)
    if corner is None:
        return h, np.ascontiguousarray(g)
    gx = np.zeros(x.shape)
    gx[corner] = g
    return h, gx


@pytest.mark.filterwarnings("ignore:input outside")
@pytest.mark.parametrize("name", list(_owned_heads()),
                         ids=lambda name: f"{name}-eval")
def test_head_passes_leave_the_callers_arrays_alone(name, rng):
    clf = _owned_heads()[name]
    x = _caller_input(name, clf, rng)
    x0 = x.tobytes()
    clf.head_forward(x)
    v, ctxs = clf.head_forward_with_ctx(x)
    gv = rng.standard_normal(v.shape)
    gv0 = gv.tobytes()
    clf.head_backward(ctxs, gv)
    clf.forward(x)
    clf.predict(x[1:])
    assert x.tobytes() == x0 and gv.tobytes() == gv0


@pytest.mark.filterwarnings("ignore:input outside")
@pytest.mark.parametrize("name", list(_owned_heads()),
                         ids=lambda name: f"{name}-eval")
def test_head_passes_equal_the_pure_layer_loop(name, rng):
    clf = _owned_heads()[name]
    pure = copy.deepcopy(clf)
    x = _caller_input(name, clf, rng)
    v, ctxs = clf.head_forward_with_ctx(x)
    gv = rng.standard_normal(v.shape)
    want_v, want_g = _pure_head_pass(pure, x, gv)
    assert v.tobytes() == want_v.tobytes()
    # FAB back-propagates several directions through one forward's
    # contexts, so a backward must leave them as they were
    for _ in range(2):
        assert clf.head_backward(ctxs, gv).tobytes() == want_g.tobytes()
    assert clf.head_forward(x).tobytes() == want_v.tobytes()


@pytest.mark.filterwarnings("ignore:input outside")
@pytest.mark.parametrize("name", list(_owned_heads()))
def test_head_passes_run_in_eval_mode(name, rng):
    # no head pass moves a BatchNorm running statistic or keeps a Conv2d
    # patch matrix: train mode is training's alone
    clf = _owned_heads()[name]

    def buffers():
        return [buf.tobytes() for layer in clf.layers
                for buf in layer.buffers().values()]

    before = buffers()
    x = _caller_input(name, clf, rng)
    v, ctxs = clf.head_forward_with_ctx(x)
    clf.head_backward(ctxs, rng.standard_normal(v.shape))
    clf.head_forward(x)
    clf.forward(x)
    clf.predict(x)
    assert buffers() == before
    for layer, ctx in zip(clf.layers, ctxs):
        if isinstance(layer, layers.Conv2d):
            assert ctx[2][0] is None  # no patch matrix
        if layer.params():  # an eval context: no parameter gradients
            with pytest.raises(ValueError, match="eval-mode"):
                layer.param_grads(ctx, np.ones(v.shape))


def _specials(rng, shape):
    # NaN, +-inf and +-0.0 among normal values
    x = rng.standard_normal(shape)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    pick = rng.random(shape) < 0.2
    x[pick] = rng.choice(special, pick.sum())
    return x


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 16, 16), (2, 17, 15)],
                         ids=["even-eval", "odd-eval"])
def test_pooled_relu_head_pass_equals_the_unfused_loop(rng, shape):
    # the head passes fold each ReLU's mask into the next pool's codes;
    # the layer loop without keywords keeps the mask in the ReLU
    clf = model.small_cnn(k=3, n=2, input_shape=shape, seed=3)
    for layer in clf.layers:  # running statistics away from identity
        if isinstance(layer, layers.BatchNorm):
            layer.running_mean[:] = rng.normal(size=layer.channels)
            layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
    pure = copy.deepcopy(clf)
    x = _specials(rng, (9, *shape))
    v, ctxs = clf.head_forward_with_ctx(x)
    gv = _specials(rng, v.shape)
    want_v, want_g = _pure_head_pass(pure, x, gv)
    assert v.tobytes() == want_v.tobytes()
    for _ in range(2):
        assert clf.head_backward(ctxs, gv).tobytes() == want_g.tobytes()
    assert clf.head_forward(x).tobytes() == want_v.tobytes()


# (input shape, the (H, W) corner small_cnn's head reads): each pool
# drops an odd trailing row and column, and each valid 3x3 conv reads two
# more than it writes
_CORNERS = [((1, 16, 16), (14, 14)), ((1, 28, 28), (26, 26)),
            ((2, 17, 15), (14, 14)), ((1, 12, 12), (10, 10)),
            ((1, 14, 14), (14, 14))]


@pytest.mark.parametrize("shape, corner", _CORNERS,
                         ids=lambda v: "x".join(map(str, v)))
def test_head_reads_the_corner_its_pools_keep(shape, corner):
    clf = model.small_cnn(k=3, n=2, input_shape=shape)
    x = np.zeros((1, *shape))
    read = x if clf._corner is None else x[clf._corner]
    assert read.shape == (1, shape[0], *corner)
    assert (clf._corner is None) == (corner == shape[1:])


@pytest.mark.parametrize("name", ["padded-conv", "mlp"])
def test_a_head_without_a_dropping_pool_reads_its_whole_input(name, rng):
    # a padded conv reads past its output's edge, and a Flatten reads
    # every pixel: the bottom-right one moves the representation
    L = layers
    shape = (1, 9, 9)
    clf = (model.mlp(shape, 3, n=2, hidden=(6,), seed=2) if name == "mlp"
           else model.Classifier(
               [L.Conv2d(1, 4, 3, padding=1, rng=rng), L.ReLU(),
                L.MaxPool2x2(), L.Flatten(), L.Dense(64, 2, rng=rng),
                L.Dense(2, 3, rng=rng)], shape))
    assert clf._corner is None
    x = rng.uniform(0, 1, (4, *shape))
    moved = x.copy()
    moved[:, :, -1, -1] = 1.0 - moved[:, :, -1, -1]
    assert (clf.head_forward(x) != clf.head_forward(moved)).any()


def _unread(shape, corner):
    # a (C, H, W) mask of the pixels outside the top-left corner
    mask = np.ones(shape, dtype=bool)
    mask[:, :corner[0], :corner[1]] = False
    return mask


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:input outside")
@pytest.mark.parametrize("shape, corner", _CORNERS[:4],
                         ids=lambda v: "x".join(map(str, v)))
def test_no_head_pass_depends_on_the_unread_pixels(rng, shape, corner):
    # NaN, +-inf or random values outside the corner leave every head
    # pass's bytes as they were, and the input gradient there is +0.0,
    # under NaN and inf upstream rows too
    clf = model.small_cnn(k=3, n=2, input_shape=shape, seed=4)
    for layer in clf.layers:  # running statistics away from identity
        if isinstance(layer, layers.BatchNorm):
            layer.running_mean[:] = rng.normal(size=layer.channels)
            layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
    unread = _unread(shape, corner)
    for rows in (1, 6, 13):
        x = rng.uniform(0, 1, (rows, *shape))
        v, ctxs = clf.head_forward_with_ctx(x)
        gvs = [rng.standard_normal(v.shape), _specials(rng, v.shape)]
        want = [clf.head_forward(x).tobytes(), clf.predict(x).tobytes(),
                *(clf.head_backward(ctxs, gv).tobytes() for gv in gvs)]
        for fill in (np.nan, np.inf, -np.inf, None):
            y = x.copy()
            y[:, unread] = (rng.uniform(-5, 5, (rows, unread.sum()))
                            if fill is None else fill)
            w, ctxs = clf.head_forward_with_ctx(y)
            assert w.tobytes() == v.tobytes()
            grads = [clf.head_backward(ctxs, gv) for gv in gvs]
            assert [clf.head_forward(y).tobytes(), clf.predict(y).tobytes(),
                    *(g.tobytes() for g in grads)] == want
            for g in grads:
                assert g.shape == y.shape and g.flags.c_contiguous
                assert not g[:, unread].view(np.uint64).any()  # +0.0


@pytest.mark.parametrize("shape", [(1, 12, 12), (1, 28, 28), (1, 16, 16)],
                         ids=["12x12", "28x28", "16x16"])
def test_the_corner_moves_a_head_pass_by_rounding_alone(rng, shape):
    # BLAS may round a conv product's column differently once the column
    # count changes, so the corner's passes may differ from the whole
    # input's in their last bits, by rounding alone; outside the corner
    # the whole input's gradient is +0.0 as well
    clf = model.small_cnn(k=3, n=2, input_shape=shape, seed=5)
    for layer in clf.layers:
        if isinstance(layer, layers.BatchNorm):
            layer.running_mean[:] = rng.normal(size=layer.channels)
            layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
    pure = copy.deepcopy(clf)
    unread = _unread(shape, dict(_CORNERS)[shape])
    for rows in (1, 7, 8, 33):
        x = rng.uniform(0, 1, (rows, *shape))
        v, ctxs = clf.head_forward_with_ctx(x)
        gv = rng.standard_normal(v.shape)
        g = clf.head_backward(ctxs, gv)
        want_v, want_g = _pure_head_pass(pure, x, gv, crop=False)
        assert not want_g[:, unread].view(np.uint64).any()
        for got, want in ((v, want_v), (g, want_g)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-14 * np.abs(want).max())


def test_a_pooled_relu_keeps_no_mask(rng):
    clf = model.small_cnn(k=3, n=2, input_shape=(1, 16, 16))
    _, ctxs = clf.head_forward_with_ctx(rng.uniform(0, 1, (4, 1, 16, 16)))
    relus = [ctx for layer, ctx in zip(clf.layers, ctxs)
             if isinstance(layer, layers.ReLU)]
    assert relus == [(None,), (None,)]
    assert not any(isinstance(a, np.ndarray) and a.dtype == bool
                   for ctx in ctxs for a in ctx)
    # an mlp's ReLU feeds a Dense, not a pool: it keeps its mask
    mlp = model.mlp((1, 4, 4), 3, n=2, hidden=(6,))
    _, ctxs = mlp.head_forward_with_ctx(rng.uniform(0, 1, (4, 1, 4, 4)))
    assert ctxs[2][0].shape == (4, 6) and ctxs[2][0].dtype == bool


def test_training_builds_each_patch_matrix_as_planned(monkeypatch):
    ds = data.make_digits(4, classes=(0, 1, 2), size=16, seed=5)
    clf = model.small_cnn(k=3, n=2, input_shape=(1, 16, 16), seed=1)
    built, spare = [], []  # input channels of each matrix built; cols given
    patches, input_grad = kernels._patches, layers.conv2d_input_grad

    def recorded_patches(x, *args, **kwargs):
        built.append(x.shape[1])
        return patches(x, *args, **kwargs)

    def recorded_input_grad(*args, cols=None, **kwargs):
        spare.append(cols is not None)
        return input_grad(*args, cols=cols, **kwargs)

    monkeypatch.setattr(kernels, "_patches", recorded_patches)
    monkeypatch.setattr(layers, "conv2d_input_grad", recorded_input_grad)
    model.train(clf, ds, epochs=1, batch_size=12, seed=0)
    # one step: conv1 and conv2 forward, then conv1's parameter gradients,
    # which build conv1's matrix again: nothing takes conv1's input
    # gradient, which would reuse it.  conv2's input gradient writes over
    # the matrix its parameter gradients read.
    assert built == [1, 16, 1]
    assert spare == [True]


@pytest.mark.parametrize("adversarial", [False, True],
                         ids=["train", "adv_train"])
@pytest.mark.parametrize("name", list(_owned_heads()))
def test_training_in_place_equals_pure_and_leaves_the_data_alone(
        monkeypatch, name, adversarial, rng):
    clf = _owned_heads()[name]
    images = rng.uniform(0, 1, (12, *clf.input_shape))
    ds = data.Dataset(images=images, labels=np.arange(12) % 3)
    before = images.tobytes()
    cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.02, restarts=1,
                               n_init=0, n_attack=2, seed=0)

    def fit():
        if adversarial:
            return model.adv_train(clf, ds, cfg, epochs=2, batch_size=5,
                                   seed=4)
        return model.train(clf, ds, epochs=2, batch_size=5, seed=4)

    got = fit()
    assert images.tobytes() == before
    # the oracles: the same loops with no layer told to overwrite, and
    # with no ReLU's mask folded into the next pool's codes
    for oracle, plain in (
            ("_owning", lambda layers, owned=False: ((l, {}) for l in layers)),
            ("_pooling", tuple)):
        with monkeypatch.context() as m:
            m.setattr(model, oracle, plain)
            want = fit()
        for a, b in zip(got.layers, want.layers):
            for key, p in {**a.params(), **a.buffers()}.items():
                assert p.tobytes() == {**b.params(),
                                       **b.buffers()}[key].tobytes(), oracle


@pytest.mark.parametrize("preset, overwritten", [
    ("mlp", [2]),  # Flatten, Dense, ReLU, Dense | Dense
    # Conv, BatchNorm, ReLU, Pool, Conv, BatchNorm, ReLU, Pool, Flatten,
    # Dense | Dense
    ("small_cnn", [1, 2, 5, 6]),
])
def test_which_layers_the_model_loops_overwrite(monkeypatch, preset,
                                                overwritten, rng):
    # every pass of the model's own loops tells the same layers to write
    # over their argument: a BatchNorm or ReLU after the first layer that
    # is not Flatten
    shape = (1, 8, 8) if preset == "mlp" else (1, 16, 16)
    clf = (model.mlp(shape, 3, n=2, hidden=(6,)) if preset == "mlp"
           else model.small_cnn(k=3, n=2, input_shape=shape))
    calls = []  # (method, overwrite) per layer call, in call order
    for cls in {type(layer) for layer in clf.layers}:
        for method in ("forward", "backward"):
            def recorded(self, *args, _fn=getattr(cls, method),
                         _method=method, **kwargs):
                calls.append((_method, kwargs.get("overwrite", False)))
                return _fn(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, recorded)

    def told(run, last):
        # the layer index of each call told to overwrite: forward calls go
        # from layer 0 up, backward calls from layer ``last`` down
        calls.clear()
        run()
        out = {"forward": [], "backward": []}
        for method in out:
            mine = [o for m, o in calls if m == method]
            index = range(len(mine)) if method == "forward" else range(
                last, last - len(mine), -1)
            out[method] = sorted(i for i, o in zip(index, mine) if o)
        return out

    head = len(clf.layers) - 2
    x = rng.uniform(0, 1, (4, *shape))
    v, ctxs = clf.head_forward_with_ctx(x)
    assert told(lambda: clf.head_forward_with_ctx(x), head) == {
        "forward": overwritten, "backward": []}
    assert told(lambda: clf.head_backward(ctxs, np.ones_like(v)), head) == {
        "forward": [], "backward": overwritten}
    # forward, predict: the head's forward pass, then the tail
    for run in (lambda: clf.forward(x), lambda: clf.predict(x)):
        assert told(run, head)["forward"] == overwritten
    ds = data.Dataset(images=x, labels=np.arange(4) % 3)
    fit = told(lambda: model.train(clf, ds, epochs=1, batch_size=4, seed=0),
               len(clf.layers) - 1)
    assert fit == {"forward": overwritten, "backward": overwritten}
    # a copy's loops run its own layers, as training's deep copy needs
    dup = copy.deepcopy(clf)
    for pass_ in vars(dup._passes).values():
        assert {id(layer) for layer, _ in pass_} <= set(map(id, dup.layers))


def test_predict_is_argmax(blobs_mlp, rng):
    for rows in (10, 600):  # 600 rows run in three blocks, the last short
        x = rng.uniform(0, 1, size=(rows, 8))
        np.testing.assert_array_equal(blobs_mlp.predict(x),
                                      np.argmax(blobs_mlp.forward(x), axis=1))
    assert blobs_mlp.predict(x[:1]).shape == (1,)


@pytest.mark.parametrize("preset", ["mlp", "small_cnn"])
def test_empty_batch_gives_empty_results(preset):
    shape = (1, 16, 16)
    clf = (model.small_cnn(k=4, n=2, input_shape=shape) if preset == "small_cnn"
           else model.mlp(shape, 4, n=2))
    x = np.zeros((0, *shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clf.predict(x).shape == (0,)
        assert clf.forward(x).shape == (0, 4)
        assert clf.head_forward(x).shape == (0, 2)
        v, ctxs = clf.head_forward_with_ctx(x)
        assert clf.head_backward(ctxs, np.zeros_like(v)).shape == x.shape


@pytest.mark.parametrize("shape", [(8,), (), (2, 4), (3, 8, 1)])
def test_unbatched_input_is_refused_by_name(blobs_mlp, shape):
    with pytest.raises(layers.ShapeMismatchError, match=r"\(B, 8\)"):
        blobs_mlp.predict(np.full(shape, 0.5))
    with pytest.raises(layers.ShapeMismatchError):
        blobs_mlp.tail_forward(np.zeros(2))  # one representation vector


def test_softmax_never_changes_argmax(blobs_mlp, rng):
    z = blobs_mlp.forward(rng.uniform(0, 1, size=(50, 8)))
    soft = np.exp(layers.log_softmax(z))
    np.testing.assert_array_equal(np.argmax(z, axis=1),
                                  np.argmax(soft, axis=1))


def test_tail_must_be_single_dense_layer():
    rng = np.random.default_rng(0)
    stack = [layers.Flatten(), layers.Dense(4, 3, rng=rng),
             layers.ReLU(), layers.Dense(3, 2, rng=rng)]
    with pytest.raises(ValueError):
        model.Classifier(stack[:3], input_shape=(4,))  # ReLU as the tail
    with pytest.raises(ValueError):
        model.Classifier([], input_shape=(4,))  # no tail at all
    clf = model.Classifier(stack, input_shape=(4,))  # valid
    assert clf.tail is stack[3]


def test_out_of_box_input_warns(blobs_mlp):
    with pytest.warns(UserWarning, match="outside"):
        blobs_mlp.head_forward(np.full((1, 8), 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blobs_mlp.head_forward(np.full((1, 8), 0.5))
    # predict warns once for the whole input, at the caller's line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        blobs_mlp.predict(np.linspace(0, 1.5, 600 * 8).reshape(600, 8))
    assert [w.filename for w in caught] == [__file__]


def _ce_gradient(clf, x, y):
    v, ctxs = clf.head_forward_with_ctx(x)
    return attacks.cross_entropy_grad(clf, ctxs, clf.tail_forward(v), y)


def _dist_gradient(clf, bs, x, y, m):
    _, ctxs = clf.head_forward_with_ctx(x)
    return attacks.boundary_distance_grad(clf, bs, ctxs, y, m)


def test_identity_head_distance_gradient_is_unit_row():
    w = np.array([[1.0, 2.0], [0.0, -1.0]])
    clf = model.linear_model(2, 2, weight=w, bias=np.zeros(2))
    g = _dist_gradient(clf, geometry.boundary_set_for(clf),
                       np.array([[0.3, 0.4]]), [0], [1])
    row = w[0] - w[1]
    np.testing.assert_allclose(g[0], row / np.linalg.norm(row), rtol=1e-15)


def test_logit_gradient_of_identity_head_linear_tail():
    clf = model.linear_model(1, 2, weight=np.array([[1.0], [0.0]]),
                             bias=np.zeros(2))
    # cross-entropy at label 0 has gradient (softmax - onehot) @ w
    x = np.array([[0.4]])
    g = _ce_gradient(clf, x, [0])
    z = clf.forward(x)
    soft = np.exp(layers.log_softmax(z))[0]
    expected = (soft - np.array([1.0, 0.0])) @ clf.tail.weight
    np.testing.assert_allclose(g[0], expected, rtol=1e-12)


@pytest.mark.parametrize("scalar", ["ce", "dist"])
def test_input_gradient_matches_finite_differences_on_cnn(scalar):
    clf = model.small_cnn(k=4, n=2, input_shape=(1, 12, 12), seed=3)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.9, size=(1, 1, 12, 12))
    if scalar == "ce":
        g = _ce_gradient(clf, x, [1])

        def f(xq):
            z = clf.forward(xq)
            return float(-layers.log_softmax(z)[0, 1])
    else:
        bs = geometry.boundary_set_for(clf)
        g = _dist_gradient(clf, bs, x, [1], [3])

        def f(xq):
            return geometry.signed_distances(bs, clf.head_forward(xq),
                                             1)[0, 3]

    assert rel_err(g, fd_grad(f, x)) < 1e-6


def test_input_gradient_batch_is_per_example(blobs_mlp, rng):
    x = rng.uniform(0, 1, size=(4, 8))
    y = np.array([0, 1, 2, 3])
    batch = _ce_gradient(blobs_mlp, x, y)
    for i in range(4):
        # a B=1 call must equal its row of the batch: rows do not mix
        single = _ce_gradient(blobs_mlp, x[i:i + 1], y[i:i + 1])
        np.testing.assert_allclose(batch[i], single[0], rtol=1e-12)


# -- persistence ---------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path, blobs_mlp, rng):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    loaded = model.Classifier.load(path)
    probe = rng.uniform(0, 1, size=(10, 8))
    np.testing.assert_array_equal(loaded.forward(probe),
                                  blobs_mlp.forward(probe))
    assert loaded.meta == blobs_mlp.meta
    assert ([layer.config() for layer in loaded.layers]
            == [layer.config() for layer in blobs_mlp.layers])


def test_checkpoint_round_trip_cnn(tmp_path):
    clf = model.small_cnn(k=3, n=2, input_shape=(1, 12, 12), seed=9)
    path = tmp_path / "c.ckpt"
    clf.save(path)
    loaded = model.Classifier.load(path)
    probe = np.random.default_rng(1).uniform(0, 1, size=(4, 1, 12, 12))
    np.testing.assert_array_equal(loaded.forward(probe), clf.forward(probe))


def test_checkpoint_rejects_non_finite_weights(tmp_path, blobs_mlp):
    bad = copy.deepcopy(blobs_mlp)
    bad.layers[1].weight[0, 0] = np.nan
    path = bad.save(tmp_path / "nan.ckpt")
    with pytest.raises(model.CheckpointError,
                       match=r"layer 1 \(dense\) param 'weight'"):
        model.Classifier.load(path)


def _corrupt(path, mutate):
    blob = bytearray(path.read_bytes())
    mutate(blob)
    path.write_bytes(bytes(blob))


def test_checkpoint_rejects_bad_magic(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    _corrupt(path, lambda b: b.__setitem__(0, ord("x")))
    with pytest.raises(model.CheckpointError):
        model.Classifier.load(path)


def test_checkpoint_rejects_truncated_payload(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(model.CheckpointError, match="truncat"):
        model.Classifier.load(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(model.CheckpointError):
        model.Classifier.load(path)


def test_checkpoint_rejects_unknown_layer_kind(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    raw = path.read_bytes().replace(b'"kind": "relu"', b'"kind": "gelu"', 1)
    path.write_bytes(raw)
    with pytest.raises(model.CheckpointError, match="gelu"):
        model.Classifier.load(path)


def _drop(*path):
    def mutate(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


def _set_tensor(i, **fields):
    return lambda h: h["tensors"][i].update(fields)


def _reverse_tensor_shape(h):
    h["tensors"][0]["shape"] = h["tensors"][0]["shape"][::-1]


# the blobs mlp: flatten, dense(8,16), relu, dense(16,2), dense(2,4)
MALFORMED_HEADERS = {
    "no-arch": (_drop("arch"), "header has no 'arch'"),
    "no-tensors": (_drop("tensors"), "header has no 'tensors'"),
    "no-layers": (_drop("arch", "layers"), "arch has no 'layers'"),
    "no-split": (_drop("arch", "split"), "arch has no 'split'"),
    "no-input-shape": (_drop("arch", "input_shape"),
                       "arch has no 'input_shape'"),
    "no-tensor-layer": (_drop("tensors", 2, "layer"),
                        "tensor 2 has no 'layer'"),
    "no-tensor-shape": (_drop("tensors", 2, "shape"),
                        "tensor 2 has no 'shape'"),
    "layer-out-of-range": (_set_tensor(0, layer=99),
                           r"tensor 0: layer 99 is not one of 0\.\.4"),
    "layer-not-an-index": (_set_tensor(0, layer="1"),
                           r"tensor 0: layer '1' is not one of"),
    "unknown-tensor-name": (_set_tensor(1, name="gain"),
                            r"tensor 1: layer 1 \(dense\) param 'gain' "
                            r"is not"),
    "param-as-buffer": (_set_tensor(1, kind="buffer"),
                        r"layer 1 \(dense\) buffer 'bias' is not"),
    "tensor-on-relu": (_set_tensor(0, layer=2), r"layer 2 \(relu\) param"),
    "reversed-shape": (_reverse_tensor_shape,
                       r"tensor 0: .* has shape \[8, 16\], the layer's is "
                       r"\[16, 8\]"),
    "missing-tensor": (_drop("tensors", -1),
                       r"layer 4 \(dense\) param 'bias' is missing"),
    "layer-config-key": (_drop("arch", "layers", 1, "out_features"),
                         r"arch layer 1: .*'out_features'"),
    "layer-config-rng": (lambda h: h["arch"]["layers"][1].update(rng=3),
                         r"arch layer 1: dense config has an unexpected "
                         r"key 'rng'"),
    "split-not-last": (lambda h: h["arch"].update(split=2),
                       r"arch split 2: the tail must be the last of 5"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_checkpoint_rejects_malformed_header(tmp_path, blobs_mlp, case):
    mutate, message = MALFORMED_HEADERS[case]
    path = blobs_mlp.save(tmp_path / "m.ckpt")
    if case == "missing-tensor":
        # the last entry's bytes go too, so only the manifest is short
        path.write_bytes(path.read_bytes()[:-4 * 8])
    rewrite_checkpoint_header(path, path, mutate)
    with pytest.raises(model.CheckpointError, match=message):
        model.Classifier.load(path)


def test_checkpoint_rejects_future_version(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    raw = path.read_bytes().replace(b"boundarylab-checkpoint 1",
                                    b"boundarylab-checkpoint 9", 1)
    path.write_bytes(raw)
    with pytest.raises(model.CheckpointError, match="9"):
        model.Classifier.load(path)


# -- training ------------------------------------------------------------


def test_training_is_deterministic(tmp_path, blobs_train):
    outs = []
    for run in range(2):
        clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
        fitted = model.train(clf, blobs_train, epochs=5, seed=11)
        path = tmp_path / f"r{run}.ckpt"
        fitted.save(path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def _full_backprop_train(clf, ds, *, epochs, lr, momentum, batch_size, seed):
    # model.train's SGD with momentum, back-propagating through every
    # layer, the first one included
    clf = copy.deepcopy(clf)
    rng = np.random.default_rng(seed)
    velocity = {}
    for _ in range(epochs):
        perm = rng.permutation(len(ds.labels))
        for lo in range(0, len(perm), batch_size):
            idx = perm[lo:lo + batch_size]
            h, ctxs = ds.images[idx], []
            for layer in clf.layers:
                h, ctx = layer.forward(h, train=True)
                ctxs.append(ctx)
            _, g = layers.cross_entropy_with_logits(h, ds.labels[idx])
            for i in range(len(clf.layers) - 1, -1, -1):
                grads = clf.layers[i].param_grads(ctxs[i], g)
                g = clf.layers[i].backward(ctxs[i], g)
                params = clf.layers[i].params()
                for name, grad in grads.items():
                    vel = momentum * velocity.get((i, name), 0.0) - lr * grad
                    velocity[(i, name)] = vel
                    params[name] += vel
    return clf


def test_training_skips_the_first_layer_input_gradient(monkeypatch):
    ds = data.make_digits(6, classes=(0, 1, 2), size=16, seed=5)
    clf = model.small_cnn(k=3, n=2, input_shape=(1, 16, 16), seed=1)
    want = _full_backprop_train(clf, ds, epochs=2, lr=0.05, momentum=0.9,
                                batch_size=7, seed=2)
    shapes = []
    input_grad = layers.conv2d_input_grad

    def recorded(gy, weight, *args, **kwargs):
        shapes.append(weight.shape)
        return input_grad(gy, weight, *args, **kwargs)

    monkeypatch.setattr(layers, "conv2d_input_grad", recorded)
    got = model.train(clf, ds, epochs=2, lr=0.05, momentum=0.9, batch_size=7,
                      seed=2)
    assert clf.layers[0].weight.shape not in shapes
    assert clf.layers[4].weight.shape in shapes  # conv2 still backprops
    for a, b in zip(got.layers, want.layers):
        for name, p in {**a.params(), **a.buffers()}.items():
            q = {**b.params(), **b.buffers()}[name]
            assert p.tobytes() == q.tobytes(), name


def test_training_leaves_input_model_untouched(blobs_train):
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    before = {n: p.copy() for n, p in clf.layers[1].params().items()}
    model.train(clf, blobs_train, epochs=2, seed=0)
    for n, p in clf.layers[1].params().items():
        np.testing.assert_array_equal(p, before[n])


def test_separable_blobs_reach_perfect_accuracy():
    train = data.make_blobs(60, k=2, d=2, separation=12.0, seed=3)
    test = data.make_blobs(40, k=2, d=2, separation=12.0, seed=4)
    clf = model.linear_model(2, 2, seed=0)
    fitted = model.train(clf, train, epochs=40, seed=0)
    assert (fitted.predict(test.images) == test.labels).mean() == 1.0


def test_divergence_aborts_with_diagnostic(blobs_train):
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    with pytest.raises(model.TrainingDivergedError, match="epoch"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model.train(clf, blobs_train, epochs=5, lr=1e30, seed=0)


def test_training_refuses_a_non_finite_buffer():
    # the loss stays finite here: ReLU zeroes the NaN activations
    ds = data.make_digits(16, classes=(0, 1, 2, 3), size=16, seed=0)
    clf = model.small_cnn(k=4, input_shape=(1, 16, 16), seed=0)
    with pytest.raises(model.TrainingDivergedError,
                       match=r"non-finite running_var of layer 5 "
                             r"\(batchnorm\) at epoch 1, step 5"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model.train(clf, ds, epochs=3, lr=1000.0, batch_size=16, seed=0)


def test_adv_train_with_zero_epsilon_equals_train(tmp_path, blobs_train):
    cfg = attacks.AttackConfig(epsilon=0.0, alpha=0.01, restarts=1,
                               n_init=0, n_attack=3, seed=0)
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    plain = model.train(clf, blobs_train, epochs=3, seed=5)
    hard = model.adv_train(clf, blobs_train, cfg, epochs=3, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    plain.save(p1)
    hard.save(p2)
    # identical up to the adversarial flag recorded in metadata
    a = p1.read_bytes().replace(b'"adversarial": false', b"")
    b = p2.read_bytes().replace(b'"adversarial": true', b"")
    assert a == b


def test_adv_train_is_deterministic(tmp_path, blobs_train):
    cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.02, restarts=1,
                               n_init=0, n_attack=3, seed=0)
    blobs = []
    for run in range(2):
        clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
        fitted = model.adv_train(clf, blobs_train, cfg, epochs=3, seed=5)
        path = tmp_path / f"adv{run}.ckpt"
        fitted.save(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_adv_train_reads_only_epsilon_alpha_and_n_attack(tmp_path,
                                                         blobs_train):
    # the README, the cli docstring and adv_train's docstring say so; a
    # start rule that reads n_init or init would change all three
    base = attacks.AttackConfig(epsilon=0.05, alpha=0.02, restarts=1,
                                n_init=0, n_attack=3, seed=0)
    other = dataclasses.replace(base, restarts=4, n_init=5, eta_init=0.3,
                                seed=9)
    saved = []
    for cfg in (base, other):
        clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
        path = tmp_path / f"adv-{len(saved)}.ckpt"
        model.adv_train(clf, blobs_train, cfg, epochs=2, seed=5).save(path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_adv_train_start_is_one_uniform_draw_per_batch(monkeypatch,
                                                       blobs_train):
    cfg = attacks.AttackConfig(epsilon=0.1, alpha=0.02, restarts=1,
                               n_init=0, n_attack=2, seed=0)
    seen = []
    pgd = attacks.pgd_batch

    def recorded(c, x, y, config, start):
        seen.append((x.copy(), start.copy()))
        return pgd(c, x, y, config, start)

    monkeypatch.setattr(attacks, "pgd_batch", recorded)
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    model.adv_train(clf, blobs_train, cfg, epochs=2, batch_size=37, seed=5)
    assert len(seen) == 2 * 9  # 320 examples in batches of 37
    for step, (x, start) in enumerate(seen):
        delta = np.random.default_rng(5 * 1_000_003 + step).uniform(
            -0.1, 0.1, x.shape)
        assert start.tobytes() == np.clip(x + delta, 0, 1).tobytes(), step


def test_adv_train_refuses_a_seed_past_the_start_seed_bound(blobs_train):
    cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.02, restarts=1,
                               n_init=0, n_attack=1, seed=0)
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    steps = 3  # 320 examples in batches of 128, one epoch
    top = (2**63 - steps) // 1_000_003  # the largest seed that fits
    model.adv_train(clf, blobs_train, cfg, epochs=1, seed=top)
    with pytest.raises(ValueError,
                       match=rf"^seed: {top + 1} .*2\*\*63 - 1"):
        model.adv_train(clf, blobs_train, cfg, epochs=1, seed=top + 1)
    model.train(clf, blobs_train, epochs=1, seed=top + 1)  # no start seeds
    # the last step's start seed at exactly 2**63 - 1, then one step past it
    seed, steps = divmod(2**63, 1_000_003)
    model.check_fit(steps, epochs=1, batch_size=1, seed=seed,
                    adversarial=True)
    with pytest.raises(ValueError, match=rf"^seed: {seed} "):
        model.check_fit(steps + 1, epochs=1, batch_size=1, seed=seed,
                        adversarial=True)


@pytest.mark.parametrize("make, key", [
    (lambda: model.small_cnn(k=1, input_shape=(1, 16, 16)), "k"),
    (lambda: model.small_cnn(n=0, input_shape=(1, 16, 16)), "n"),
    (lambda: model.small_cnn(input_shape=(1, 16, 16), seed=-3), "seed"),
    (lambda: model.small_cnn(input_shape=(1, 8, 8)), "input_shape"),
    (lambda: model.mlp((8,), 4, hidden=(16, 0)), r"hidden\[1\]"),
    (lambda: model.mlp((8,), 4, n=0), "n"),
    (lambda: model.linear_model(8, 1), "k"),
], ids=["small_cnn-k", "small_cnn-n", "small_cnn-seed", "small_cnn-input",
        "mlp-hidden", "mlp-n", "linear-k"])
def test_presets_refuse_bad_arguments_by_name(make, key):
    with pytest.raises(ValueError, match=f"^{key}: "):
        make()


@pytest.mark.parametrize("kwargs, key", [
    ({"epochs": -1}, "epochs"),
    ({"batch_size": 0}, "batch_size"),
    ({"seed": -1}, "seed"),
], ids=["epochs", "batch_size", "seed"])
@pytest.mark.parametrize("adversarial", [False, True], ids=["plain", "adv"])
def test_training_refuses_bad_arguments_by_name(blobs_train, kwargs, key,
                                                adversarial):
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    args = dict({"epochs": 1, "seed": 0}, **kwargs)
    with pytest.raises(ValueError, match=f"^{key}: must be >= "):
        if adversarial:
            model.adv_train(clf, blobs_train, attacks.AttackConfig(), **args)
        else:
            model.train(clf, blobs_train, **args)


@pytest.mark.parametrize("kwargs, error, message", [
    ({"lr": -1}, ValueError, "lr: must be > 0, got -1"),
    ({"lr": 0.0}, ValueError, "lr: must be > 0, got 0.0"),
    ({"lr": "x"}, TypeError, "lr: expected float, got str"),
    ({"momentum": 1.5}, ValueError, "momentum: must be < 1, got 1.5"),
    ({"momentum": 1}, ValueError, "momentum: must be < 1, got 1"),
    ({"momentum": -0.1}, ValueError, "momentum: must be >= 0, got -0.1"),
], ids=["lr-negative", "lr-zero", "lr-str", "momentum-above", "momentum-one",
        "momentum-negative"])
@pytest.mark.parametrize("adversarial", [False, True], ids=["plain", "adv"])
def test_training_refuses_bad_lr_and_momentum_by_name(blobs_train, kwargs,
                                                      error, message,
                                                      adversarial):
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    args = dict({"epochs": 1, "seed": 0}, **kwargs)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        if adversarial:
            model.adv_train(clf, blobs_train, attacks.AttackConfig(), **args)
        else:
            model.train(clf, blobs_train, **args)


def test_check_fit_returns_the_checked_values():
    got = model.check_fit(10, epochs=np.int64(2), lr=1, momentum=0,
                          batch_size=4, seed=3)
    assert got == (2, 1.0, 0.0, 4, 3)
    assert [type(v) for v in got] == [int, float, float, int, int]


def test_adv_training_improves_robustness():
    train = data.make_blobs(100, k=3, d=6, separation=5.0, seed=7)
    test = data.make_blobs(60, k=3, d=6, separation=5.0, seed=8)
    eps = 0.1
    atk = attacks.AttackConfig(epsilon=eps, alpha=0.025, restarts=2,
                               n_init=0, n_attack=10, seed=0)
    train_cfg = attacks.AttackConfig(epsilon=eps, alpha=0.04, restarts=1,
                                     n_init=0, n_attack=5, seed=0)

    def robust_acc(clf, seed):
        bs = geometry.boundary_set_for(clf)
        from boundarylab import harness
        from dataclasses import replace
        rep = harness.evaluate(clf, bs, test, replace(atk, seed=seed),
                               method="pgd", init="random")
        return rep.robust_accuracy

    base = model.mlp((6,), k=3, n=3, hidden=(16,), seed=1)
    plain = model.train(base, train, epochs=20, seed=1)
    hard = model.adv_train(base, train, train_cfg, epochs=20, seed=1)
    plain_mean = np.mean([robust_acc(plain, s) for s in range(5)])
    hard_mean = np.mean([robust_acc(hard, s) for s in range(5)])
    assert hard_mean >= plain_mean
