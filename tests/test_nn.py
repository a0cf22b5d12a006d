import hashlib
import json

import numpy as np
import pytest

from gazehead.controllers import MlpController
from gazehead.nn import (
    AdamState,
    DenseNet,
    LstmNet,
    adam_step,
    load_checkpoint,
    _lstm_gates,
    save_checkpoint,
)
from gazehead.training import HEAD_DECAY
from oracles import adam_step_np, gradient_check


def zeroed(net):
    for k, v in net.params().items():
        v[...] = 0.0
    return net


def forward_one_row(net, x):
    """The net on one input vector."""
    return net.forward_rows(x[None])[0]


def zero_state(hidden_size):
    return np.zeros(hidden_size), np.zeros(hidden_size)


def test_dense_zero_net_outputs_zero():
    net = zeroed(DenseNet([9, 8, 2]))
    assert np.array_equal(forward_one_row(net, np.ones(9)), [0.0, 0.0])


def test_dense_hand_computed_oracle():
    # 1-2-2 net, weights set by hand; expected values from independent
    # scalar arithmetic.
    net = DenseNet([1, 2, 2])
    net.set_params(
        {
            "w0": np.array([[0.3], [-0.5]]),
            "b0": np.array([0.1, 0.2]),
            "w1": np.array([[0.4, -0.6], [0.25, 0.5]]),
            "b1": np.array([-0.05, 0.15]),
        }
    )
    out = forward_one_row(net, np.array([0.7]))
    assert abs(out[0] - 0.15950585903305242) < 1e-12
    assert abs(out[1] - 0.15066675747525457) < 1e-12


def test_dense_output_layer_is_linear():
    net = DenseNet([4, 5, 2], seed=1)
    x = np.random.default_rng(2).normal(size=4)
    base = forward_one_row(net, x)
    net.weights[-1] = net.weights[-1] * 2
    net.biases[-1] = net.biases[-1] * 2
    assert np.allclose(forward_one_row(net, x), 2 * base, atol=1e-14)


def test_dense_shape_mismatch():
    # a dense net meets its 9 inputs and 2 outputs once, when its
    # controller is built, not on every forward
    for sizes in ([6, 8, 2], [9, 8, 3], [9, 2, 8, 1]):
        with pytest.raises(ValueError, match="needs DenseNet with 9 inputs and 2 outputs"):
            MlpController(DenseNet(sizes))
    MlpController(DenseNet([9, 8, 2]))


def test_lstm_zero_net_stays_zero():
    net = zeroed(LstmNet(9, 4))
    y, hidden, cell = net.step(*zero_state(4), np.ones(9))
    assert np.array_equal(y, [0.0, 0.0])
    assert np.array_equal(cell, np.zeros(4))
    assert np.array_equal(hidden, np.zeros(4))


def test_lstm_hand_computed_oracle():
    # 1-input, 1-unit cell; gate rows [i, f, g, o]; expected values from
    # independent scalar arithmetic.
    net = LstmNet(1, 1)
    net.set_params(
        {
            "w": np.array([[0.6, -0.3], [-0.4, 0.2], [0.9, 0.5], [0.3, -0.7]]),
            "b": np.array([0.05, 0.1, -0.2, 0.0]),
            "w_out": np.array([[1.2], [-0.8]]),
            "b_out": np.array([-0.1, 0.2]),
        }
    )
    y, hidden, cell = net.step(*zero_state(1), np.array([0.5]))
    assert abs(y[0] - -0.00797495501627872) < 1e-12
    assert abs(y[1] - 0.1386499700108525) < 1e-12
    assert abs(hidden[0] - 0.0766875374864344) < 1e-12
    assert abs(cell[0] - 0.14367359277093478) < 1e-12


def test_lstm_closed_gates_make_cell_memoryless():
    # With forget and output gates saturated shut, the cell state after a
    # step depends only on that step's input.
    net = LstmNet(3, 2, seed=9)
    hs = net.hidden_size
    net.b[hs : 2 * hs] = -60.0  # forget gate ~ 0
    net.b[3 * hs :] = -60.0  # output gate ~ 0, so hidden stays ~ 0
    x = np.array([0.4, -0.2, 0.9])
    _, h1, c1 = net.step(*zero_state(hs), x)
    _, _, c2 = net.step(h1, c1, x)
    assert np.all(np.abs(c2 - c1) < 1e-9)


def test_lstm_statefulness():
    net = LstmNet(3, 4, seed=4)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    _, h_ab, _ = net.step(*net.step(*zero_state(4), a)[1:], b)
    _, h_ba, _ = net.step(*net.step(*zero_state(4), b)[1:], a)
    assert not np.allclose(h_ab, h_ba, atol=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstm_gates_equal_per_slice_sigmoid_and_tanh():
    # one sigmoid over all 4H preactivations, the candidate slice then
    # overwritten by tanh, gives each element the bits of per-slice calls;
    # the values reach both exp overflow and tanh saturation
    rng = np.random.default_rng(5)
    for hs in (1, 2, 8, 128):
        z = rng.normal(scale=30.0, size=(7, 4 * hs))
        z[0, :4] = [800.0, -800.0, 0.0, -0.0][: z.shape[1]]
        expect = np.concatenate(
            [1.0 / (1.0 + np.exp(-z[:, k * hs : (k + 1) * hs])) for k in range(4)], axis=1
        )
        expect[:, 2 * hs : 3 * hs] = np.tanh(z[:, 2 * hs : 3 * hs])
        assert _lstm_gates(z, hs).tobytes() == expect.tobytes()
        for row, want in zip(z, expect):
            assert _lstm_gates(row, hs).tobytes() == want.tobytes()
        out = np.empty_like(z[0])
        assert _lstm_gates(z[1], hs, out) is out and out.tobytes() == expect[1].tobytes()


def lstm_grads_digest(hidden, inputs):
    """SHA-256 of sequence_loss_grads' loss and every gradient over a 1-step
    sequence, a 240-step one, and the 240-step one again with w and b
    scaled by 60, which saturates gates (sigmoid at exactly 0 or 1, tanh at
    exactly +-1)."""
    rng = np.random.default_rng(100 * hidden + inputs)
    x = rng.normal(size=(240, inputs))
    d = rng.normal(size=(240, 2)) * 0.5
    net = LstmNet(inputs, hidden, seed=hidden)
    digest = hashlib.sha256()
    for scale, steps in ((1.0, 1), (1.0, 240), (60.0, 240)):
        net.set_params({**net.params(), "w": net.w * scale, "b": net.b * scale})
        loss, grads = net.sequence_loss_grads(x[:steps], d[:steps])
        digest.update(np.float64(loss).tobytes())
        for name in sorted(grads):
            digest.update(grads[name].tobytes())
    return digest.hexdigest()


LSTM_GRADS_SHA256 = {
    (2, 9): "0b01f12bb682a382ca1c74de300a82baab133e06990be602a303d542678d6802",
    (2, 6): "83dfa7e517588de84c7ebf609fad47b89f4b3e757021a52f010bebae2c746988",
    (8, 9): "07261e8c46dea369150a76c36e7408ba8991d805be26e982ece145bd10888f1c",
    (8, 6): "383a19b4711a9afdb1e43f2fe379b6a6d6f006e1ca78bc231acdb83213a06431",
    (128, 9): "9b81bb94b681f7baa7aea4259e45d748339f336e85561365a341e967c54191de",
    (128, 6): "71d037513b6e709184eb85d2c86897d33bc1f91f78882d431397bdc304499aa7",
}


@pytest.mark.parametrize("hidden, inputs", sorted(LSTM_GRADS_SHA256))
def test_lstm_sequence_grads_bits_are_pinned(hidden, inputs):
    # a product formed in another order, or a gate computed another way,
    # changes these digests
    assert lstm_grads_digest(hidden, inputs) == LSTM_GRADS_SHA256[hidden, inputs]


def random_sequence(rng, t_steps, n_in):
    return rng.normal(size=(t_steps, n_in)), rng.normal(size=(t_steps, 2)) * 0.1


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    for sizes in ([4, 3, 2], [4, 5, 5, 2]):
        net = DenseNet(sizes, seed=rng.integers(1 << 30))
        x, d = random_sequence(rng, 10, sizes[0])
        assert gradient_check(net, x, d) < 1e-4


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(37)
    net = LstmNet(4, 3, seed=5)
    x, d = random_sequence(rng, 10, 4)
    assert gradient_check(net, x, d) < 1e-4


def test_gradients_zero_at_minimum():
    net = DenseNet([3, 4, 2], seed=8)
    rng = np.random.default_rng(41)
    x = rng.normal(size=(12, 3))
    d = net.forward_batch(x)
    _, grads = net.sequence_loss_grads(x, d)
    for g in grads.values():
        assert np.all(np.abs(g) < 1e-10)


def test_gradients_linear_in_residual():
    net = DenseNet([3, 4, 2], seed=8)
    rng = np.random.default_rng(43)
    x = rng.normal(size=(12, 3))
    y = net.forward_batch(x)
    r = rng.normal(size=y.shape)
    _, g1 = net.sequence_loss_grads(x, y - r)
    _, g2 = net.sequence_loss_grads(x, y - 2 * r)
    for k in g1:
        assert np.all(np.abs(2 * g1[k] - g2[k]) < 1e-9)


def test_adam_zero_gradient_keeps_params():
    params = {"p": np.array([1.0, -2.0])}
    grads = {"p": np.zeros(2)}
    state = AdamState()
    new, state = adam_step(params, grads, state)
    assert np.array_equal(new["p"], params["p"])
    assert state.step_count == 1


def test_adam_constant_gradient_approaches_learning_rate():
    params = {"p": np.array([0.0])}
    grads = {"p": np.array([0.3])}
    state = AdamState(learning_rate=1e-3)
    for _ in range(5000):
        params, state = adam_step(params, grads, state)
    # per-step magnitude settles at lr * m_hat / sqrt(v_hat) -> lr
    params2, _ = adam_step(params, grads, state)
    assert abs(abs(params2["p"][0] - params["p"][0]) - 1e-3) < 1e-5


def test_adam_odd_symmetry():
    params = {"a": np.array([0.0]), "b": np.array([0.0])}
    grads = {"a": np.array([0.7]), "b": np.array([-0.7])}
    state = AdamState()
    for _ in range(50):
        params, state = adam_step(params, grads, state)
    assert abs(params["a"][0] + params["b"][0]) < 1e-15


# the parameter shapes of the bench's five-fit mix, and the vector fit's one
# (v, alpha, b, c) parameter
ADAM_FITS = {
    "mlp-8": lambda: DenseNet([9, 8, 2]).params(),
    "mlp-16_16": lambda: DenseNet([9, 16, 16, 2]).params(),
    "lstm-h2": lambda: LstmNet(9, 2).params(),
    "lstm-h128": lambda: LstmNet(9, 128).params(),
    "vector": lambda: {"theta": np.array([1.0, np.log(0.5), 8.0, 0.0])},
}


@pytest.mark.parametrize("fit", sorted(ADAM_FITS))
def test_adam_step_has_the_bits_of_the_out_of_place_form(fit):
    # 50 steps against the textbook form, the head-column decay between
    # steps as _fit_net applies it, on gradients that mix ordinary values
    # with exact zeros, 1e-300 (whose square underflows) and 1e150
    rng = np.random.default_rng(7)
    params = ADAM_FITS[fit]()
    expect = {k: p.copy() for k, p in params.items()}
    m, v = {}, {}
    lr = 1e-2
    state = AdamState(learning_rate=lr)
    for step in range(1, 51):
        grads = {}
        for k, p in params.items():
            g = rng.normal(size=p.shape) * 10.0 ** rng.uniform(-4, 4, size=p.shape)
            special = rng.choice([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150], size=p.shape)
            grads[k] = np.where(rng.random(p.shape) < 0.2, special, g)
        old, old_bytes = params, {k: p.tobytes() for k, p in params.items()}
        params, state = adam_step(params, grads, state)
        expect = adam_step_np(expect, grads, m, v, step, lr)
        for k in expect:
            assert params[k].tobytes() == expect[k].tobytes(), (step, k)
            assert state.m[k].tobytes() == m[k].tobytes(), (step, k)
            assert state.v[k].tobytes() == v[k].tobytes(), (step, k)
            assert old[k].tobytes() == old_bytes[k]  # the arrays passed in keep their values
            assert not np.shares_memory(params[k], old[k])
        if "w" in params:  # an lstm: the head-direction columns of its 9 inputs
            for p in (params["w"], expect["w"]):
                p[:, 6:9] *= 1.0 - lr * HEAD_DECAY
    assert state.step_count == 50


def test_loss_decreases_over_first_adam_steps():
    rng = np.random.default_rng(101)
    x9 = rng.normal(size=(30, 9))
    d = rng.normal(size=(30, 2)) * 0.05
    builders = [
        lambda seed: DenseNet([9, 8, 2], seed=seed),
        lambda seed: DenseNet([9, 16, 16, 2], seed=seed),
        lambda seed: LstmNet(9, 2, seed=seed),
        lambda seed: LstmNet(9, 16, seed=seed),
    ]
    for build in builders:
        ok = 0
        for seed in range(20):
            net = build(seed)
            state = AdamState(learning_rate=1e-3)
            losses = []
            params = net.params()
            for _ in range(10):
                loss, grads = net.sequence_loss_grads(x9, d)
                losses.append(loss)
                params, state = adam_step(params, grads, state)
                net.set_params(params)
            final_loss, _ = net.sequence_loss_grads(x9, d)
            losses.append(final_loss)
            if all(b < a for a, b in zip(losses, losses[1:])):
                ok += 1
        assert ok >= 19


def test_checkpoint_roundtrip_exact(tmp_path):
    dense = DenseNet([9, 16, 16, 2], seed=3)
    path = tmp_path / "dense.json"
    save_checkpoint(dense, path, train_config={"epochs": 5})
    loaded, cfg = load_checkpoint(path)
    assert cfg == {"epochs": 5}
    for k, v in dense.params().items():
        assert np.array_equal(loaded.params()[k], v)

    lstm = LstmNet(9, 5, seed=6)
    path2 = tmp_path / "lstm.json"
    save_checkpoint(lstm, path2)
    loaded2, _ = load_checkpoint(path2)
    for k, v in lstm.params().items():
        assert np.array_equal(loaded2.params()[k], v)
    # file is valid JSON with flat arrays
    payload = json.loads(path2.read_text())
    assert payload["architecture"]["hidden_size"] == 5
    assert len(payload["params"]["w"]) == 4 * 5 * (9 + 5)
