import operator

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


def _causal_conv_composite(x, past, w0, w1, b, slope, skip, at=0):
    """causal_conv from the elementary ops, as the conv stack once built it."""
    seq = ad.concat([past[:, at:] if at else past, x], axis=1)
    y = seq[:, :x.shape[1]] @ w0 + x @ w1 + b
    if slope is not None:
        y = ad.leaky_relu(y, slope)
    return y if skip is None else y + skip


@pytest.mark.parametrize("t,at", [(5, 0), (1, 0), (1, 2)], ids=["5", "1", "1-at2"])
@pytest.mark.parametrize("slope,skip", [(0.05, True), (None, False)])
def test_causal_conv_matches_composite(rng, t, at, slope, skip):
    # dilation 2: over 5 frames the lagged tap reads x too, over 1 it reads
    # past only; at 2 it reads frame 2 of a 4-frame chunk
    arrays = [rng.normal(size=shape) for shape in
              ((2, t, 3), (2, 2 + at, 3), (3, 4), (3, 4), (4,), (2, t, 4))]
    weights = Tensor(rng.normal(size=(2, t, 4)))

    def run(op):
        x, past, w0, w1, b, sk = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        y = op(x, past, w0, w1, b, slope, sk if skip else None, at)
        ad.tsum(y * weights).backward()
        return [y.data] + [leaf.grad for leaf in (x, past, w0, w1, b) + ((sk,) if skip else ())]

    for got, want in zip(run(ad.causal_conv), run(_causal_conv_composite)):
        assert np.array_equal(got, want)


def _mutated_node_cases(rng):
    """name -> (op building the node from a tensor, input, a wrong adjoint
    of the node's one input from its right one)."""
    q = rng.normal(size=(3, 4))
    keep = np.array([[True], [False], [True]])
    cases = {
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
    # a step's lag adjoint written at offset 0 of its 4-frame chunk, not at 2
    x, w0, w1, b = (Tensor(rng.normal(size=s)) for s in ((3, 1, 3), (3, 4), (3, 4), (4,)))
    cases["causal_conv_at"] = (lambda t: ad.causal_conv(x, t, w0, w1, b, 0.05, None, 2),
                               rng.normal(size=(3, 4, 3)),
                               lambda fn: lambda g: np.roll(fn(g), -2, axis=1))
    return cases


@pytest.mark.parametrize("name", ["loss_quat_dot", "penalty_unit_norm", "select",
                                  "causal_conv_at"])
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
    # what each op returns off the tape: test_op_off_the_tape_is_its_node
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(KeyError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert type(x * 2.0) is np.ndarray  # the inner exit keeps it off
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
            state, steps = h0 + np.zeros((b, h)), []
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


def _off_tape_cases():
    """(id, op, argument shapes) of every op that returns its kernel's value
    first thing off the tape, and of conversion nodes that decode_pose_t
    runs there through _make."""
    b, t, i, h = 3, 6, 4, 5
    gru = [(h, 3 * h), (3 * h,)]
    return [
        ("gru_cell", ad.gru_cell, [(b, i), (b, h), (i, 3 * h)] + gru),
        ("gru_sequence", ad.gru_sequence, [(b, t, i), (b, h), (i, 3 * h)] + gru),
        ("quat_head velocity", ad.quat_head, [(b, 3, 4), (b, 3, 4)]),
        ("quat_head absolute", ad.quat_head, [(b, 3, 4)]),
        ("linear", ad.linear, [(b, i), (i, h), (h,)]),
        ("add", ad.add, [(b, 1), (1, i)]),
        ("reshape", lambda a: ad.reshape(a, (b, 12)), [(b, 3, 4)]),
        ("concat", lambda *a: ad.concat(a, axis=-1), [(b, 2), (b, 3), (b, 1)]),
        ("leaky_relu", ad.leaky_relu, [(b, 7)]),
        ("expmap_to_quat", ad.expmap_to_quat, [(b, 3)]),
        ("euler_to_quat", lambda a: ad.euler_to_quat(a, "yzx"), [(b, 3)]),
    ]


@pytest.mark.parametrize("name, op, shapes", _off_tape_cases(),
                         ids=[case[0] for case in _off_tape_cases()])
def test_op_off_the_tape_is_its_node(name, op, shapes, rng):
    # inside no_grad an op returns a plain array, from Tensors or arrays,
    # with the bytes of the node it records on the tape
    args = [rng.normal(size=shape) for shape in shapes]
    taped = op(*(Tensor(a, requires_grad=True) for a in args))
    with ad.no_grad():
        free = [op(*(Tensor(a, requires_grad=True) for a in args)), op(*args)]
    assert taped._parents
    for got in free:
        assert type(got) is np.ndarray and got.shape == taped.shape
        assert got.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["+", "-", "*", "/"])
def test_array_and_tensor_make_one_tensor(op, rng):
    # numpy defers to the Tensor's reflected operator instead of building
    # an object array of Tensors, so the gradient is counted once
    a, x = rng.uniform(1.0, 2.0, size=3), Tensor(rng.uniform(1.0, 2.0, size=3), requires_grad=True)
    y = op(a, x)
    assert type(y) is Tensor and np.array_equal(y.data, op(a, x.data))
    ad.tsum(y).backward()
    want = {operator.add: np.ones(3), operator.sub: -np.ones(3), operator.mul: a,
            operator.truediv: -a / (x.data * x.data)}[op]
    assert np.allclose(x.grad, want)


def test_leaky_is_the_where_form_bit_for_bit(rng):
    # np.maximum(y, slope * y) for 0 < slope < 1 is np.where(y > 0, y,
    # slope * y) in every bit: signed zeros, infinities, both NaN signs,
    # subnormals (some of which the slope rounds to -0), over contiguous
    # and strided arrays
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 20 * tiny,
                        -20 * tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308, 5.0, -5.0])
    y = np.concatenate([special, rng.normal(size=1000) * 10.0 ** rng.integers(-310, 300, 1000)])
    rng.shuffle(y)
    for a in (special, y, y[::-1], y[::3], y.reshape(-1, 8)):
        assert ad._leaky(a, 0.05).tobytes() == np.where(a > 0, a, 0.05 * a).tobytes()


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
