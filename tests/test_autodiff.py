import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatmotion import autodiff as ad
from quatmotion import rotmath as rm
from quatmotion import training as tr
from quatmotion.autodiff import Tensor, TapeConsumedError
from quatmotion.gradcheck import check_scalar_fn, run_gradcheck


def test_all_primitive_gradients():
    assert run_gradcheck(verbose=False) == 0


def test_leaf_accumulates_over_reuse():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = ad.tsum(x * x + x)
    y.backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_backward_twice_raises():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = ad.tsum(x * x)
    y.backward()
    with pytest.raises(TapeConsumedError):
        y.backward()


def test_broadcast_unbroadcast(rng):
    a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    ad.tsum(a * b).backward()
    assert a.grad.shape == (3, 1)
    assert b.grad.shape == (1, 4)
    assert np.allclose(a.grad[:, 0], b.data.sum())


def test_getitem_scatter_adds_duplicates():
    x = Tensor(np.arange(4.0), requires_grad=True)
    idx = np.array([1, 1, 2])
    ad.tsum(x[idx]).backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


def test_getitem_fancy_tuple(rng):
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    sel = x[..., np.array([0, 2]), :]
    assert sel.data.shape == (2, 2, 3)
    ad.tsum(sel).backward()
    assert x.grad[:, [0, 2], :].sum() == pytest.approx(12.0)
    assert x.grad[:, [1, 3, 4], :].sum() == 0.0


def test_deep_graph_iterative_topo():
    # recursion-based backprop would hit the interpreter limit here
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    ad.tsum(y).backward()
    assert x.grad[0] == 1.0


@pytest.mark.parametrize("mode", ["absolute", "velocity"])
def test_quat_head_projects_radial_component(rng, mode):
    raw, prev = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    t = Tensor(raw.copy(), requires_grad=True)
    p = Tensor(prev.copy(), requires_grad=True) if mode == "velocity" else None
    out = ad.quat_head(t, p)
    ad.tsum(out * Tensor(rng.normal(size=(2, 4)))).backward()
    # moving either input radially does not change the normalized output
    for leaf, value in ((t, raw), (p, prev)):
        if leaf is not None:
            assert np.abs(np.sum(leaf.grad * value, axis=-1)).max() < 1e-10


def _causal_conv_composite(x, past, w0, w1, b, slope, skip):
    """causal_conv from the elementary ops, as the conv stack once built it."""
    seq = ad.concat([past, x], axis=1)
    y = seq[:, :x.shape[1]] @ w0 + x @ w1 + b
    if slope is not None:
        y = ad.leaky_relu(y, slope)
    return y if skip is None else y + skip


@pytest.mark.parametrize("t", [5, 1])
@pytest.mark.parametrize("slope,skip", [(0.05, True), (None, False)])
def test_causal_conv_matches_composite(rng, t, slope, skip):
    # dilation 2: over 5 frames the lagged tap reads x too, over 1 it reads past only
    arrays = [rng.normal(size=shape) for shape in
              ((2, t, 3), (2, 2, 3), (3, 4), (3, 4), (4,), (2, t, 4))]
    weights = Tensor(rng.normal(size=(2, t, 4)))

    def run(op):
        x, past, w0, w1, b, sk = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        y = op(x, past, w0, w1, b, slope, sk if skip else None)
        ad.tsum(y * weights).backward()
        return [y.data] + [leaf.grad for leaf in (x, past, w0, w1, b) + ((sk,) if skip else ())]

    for got, want in zip(run(ad.causal_conv), run(_causal_conv_composite)):
        assert np.array_equal(got, want)


def _mutated_node_cases(rng):
    """name -> (op building the node from a tensor, input, a wrong adjoint
    of the node's one input from its right one)."""
    q = rng.normal(size=(3, 4))
    keep = np.array([[True], [False], [True]])
    return {
        # the sign of 1 - <p, q> dropped
        "loss_quat_dot": (lambda t: tr.loss_quat_dot(t, q), rng.normal(size=(3, 4)),
                          lambda fn: lambda g: -fn(g)),
        # d|q|^2/dq taken as q, not 2q
        "penalty_unit_norm": (lambda t: tr.penalty_unit_norm(t, 0.05),
                              1.5 * q + 0.1 * rng.normal(size=(3, 4)),
                              lambda fn: lambda g: 0.5 * fn(g)),
        # the kept rows' adjoint given to the unkept input
        "select": (lambda t: ad.select(keep, q, t), rng.normal(size=(3, 4)),
                   lambda fn: lambda g: np.where(keep, g, 0.0)),
    }


@pytest.mark.parametrize("name", ["loss_quat_dot", "penalty_unit_norm", "select"])
def test_wrong_adjoint_of_new_node_fails_gradcheck(rng, name):
    op, x, mutate = _mutated_node_cases(rng)[name]
    weights = Tensor(rng.normal(size=(3, 4)))

    def builder(wrong):
        def f(t):
            node = op(t)
            if wrong and node._parents:
                node._grad_fns = tuple(mutate(fn) for fn in node._grad_fns)
            return ad.tsum(node * weights)
        return f

    assert check_scalar_fn(builder(False), x) < 1e-5
    assert check_scalar_fn(builder(True), x) > 0.1


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_sum_mean_consistency(vals):
    x = Tensor(np.array(vals), requires_grad=True)
    ad.tmean(x).backward()
    assert np.allclose(x.grad, 1.0 / len(vals))


def test_constants_get_no_grad():
    c = Tensor(np.ones(3))
    x = Tensor(np.ones(3), requires_grad=True)
    ad.tsum(c * x).backward()
    assert c.grad is None
    assert np.allclose(x.grad, 1.0)


def test_no_grad_records_nothing_and_restores_on_exception():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.tsum(x * 2.0)
    assert y._parents == () and not y.requires_grad
    with pytest.raises(KeyError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (x * 2.0).requires_grad  # the inner exit keeps it off
            raise KeyError("inside")
    z = ad.tsum(x * 2.0)
    assert z.requires_grad
    z.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_gru_sequence_matches_gru_cell_loop(rng):
    b, t, i, h = 3, 6, 4, 5
    arrays = [rng.normal(size=shape) for shape in ((b, t, i), (h,), (i, 3 * h), (h, 3 * h),
                                                    (3 * h,))]
    weights = Tensor(rng.normal(size=(b, t, h)))

    def run(fused):
        xs, h0, wx, wh, bias = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        if fused:
            states = ad.gru_sequence(xs, h0, wx, wh, bias)
        else:
            state, steps = h0 + ad.zeros((b, h)), []
            for f in range(t):
                state = ad.gru_cell(xs[:, f], state, wx, wh, bias)
                steps.append(state)
            states = ad.stack(steps, axis=1)
        ad.tsum(states * weights).backward()
        return states.data, [leaf.grad for leaf in (xs, h0, wx, wh, bias)]

    (got, got_grads), (want, want_grads) = run(True), run(False)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("node", ["gru_cell", "gru_sequence"])
def test_gru_node_off_the_tape_matches_taped(node, rng):
    b, t, i, h = 3, 6, 4, 5
    x = rng.normal(size=(b, i) if node == "gru_cell" else (b, t, i))
    args = [x, rng.normal(size=(b, h)), rng.normal(size=(i, 3 * h)),
            rng.normal(size=(h, 3 * h)), rng.normal(size=3 * h)]
    taped = getattr(ad, node)(*(Tensor(a, requires_grad=True) for a in args))
    with ad.no_grad():
        free = getattr(ad, node)(*(Tensor(a, requires_grad=True) for a in args))
    assert taped._parents and free._parents == () and not free.requires_grad
    assert np.array_equal(free.data, taped.data)


def _fused_node_cases(rng):
    """(name, op, argument arrays) of the fused nodes and reshape, whose
    values off the tape must be the recorded nodes': quat_head in both
    modes; reshape."""
    b = 2
    return [
        ("quat_head velocity", ad.quat_head, [rng.normal(size=(b, 3, 4)) for _ in range(2)]),
        ("quat_head absolute", ad.quat_head, [rng.normal(size=(b, 3, 4))]),
        ("reshape", lambda a: ad.reshape(a, (b, 12)), [rng.normal(size=(b, 3, 4))]),
    ]


def test_fused_node_off_the_tape_matches_taped(rng):
    for name, op, args in _fused_node_cases(rng):
        taped = op(*(Tensor(a, requires_grad=True) for a in args))
        with ad.no_grad():
            free = op(*(Tensor(a, requires_grad=True) for a in args))
            plain = op(*args)
        assert taped._parents and free._parents == () and not free.requires_grad, name
        assert free.data.tobytes() == taped.data.tobytes(), name
        assert plain.data.tobytes() == taped.data.tobytes(), name


@pytest.mark.parametrize("t, d, slope, skip", [(2, 4, 0.05, False), (5, 2, 0.05, True),
                                               (1, 8, None, False)],
                         ids=["window", "t > d, skip", "linear"])
def test_conv_kernel_is_the_recorded_node(t, d, slope, skip, rng):
    # off the tape the convolutional stack calls _conv_forward on arrays
    # in place of causal_conv: its bytes must be the node's
    b, i, o = 2, 3, 4
    args = [rng.normal(size=s) for s in ((b, t, i), (b, d, i), (i, o), (i, o), (o,))]
    extra = rng.normal(size=(b, t, o)) if skip else None
    taped = ad.causal_conv(*(Tensor(a, requires_grad=True) for a in args), slope,
                           None if extra is None else Tensor(extra, requires_grad=True))
    assert taped._parents
    assert ad._conv_forward(*args, slope, extra)[0].tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("name", ["quat_to_euler", "euler_to_quat", "expmap_to_quat"])
def test_conversion_node_forward_is_rotmath_kernel(name, rng):
    # raw quaternions off the unit sphere, angles, and exponential maps
    # with one in the series branch
    x = rng.normal(size=(30, 4 if name == "quat_to_euler" else 3))
    x[0] = 1e-9 * x[0]
    kernels = {"quat_to_euler": lambda v, order: rm.quat_to_euler(v, order).angles,
               "euler_to_quat": rm.euler_to_quat,
               "expmap_to_quat": lambda v, order: rm.expmap_to_quat(v)}
    for order in rm.TAIT_BRYAN_ORDERS:
        args = () if name == "expmap_to_quat" else (order,)
        got = getattr(ad, name)(Tensor(x), *args).data
        assert np.array_equal(got, kernels[name](x, order)), order
