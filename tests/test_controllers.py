import json
import math

import numpy as np
import pytest

from gazehead.controllers import (
    LstmController,
    MlpController,
    QuadrantController,
    QuadrantParams,
    VectorAxisParams,
    VectorController,
    VectorParams,
    combined_inputs,
    control_law,
    load_controller,
    quadrant_step,
    save_controller,
    symmetric_control_law,
    vector_step,
)
from gazehead.geometry import (
    dir_to_pitch_yaw,
    dirs_to_pitch_yaw,
    normalize,
    normalize_rows,
    pitch_yaw_to_dir,
    vec3,
)
from gazehead.nn import DenseNet, LstmNet, save_checkpoint
from oracles import control_law_mp, lstm_predict_loop

QP = QuadrantParams()


def test_quadrant_deadzone_center():
    assert quadrant_step(QP, 0.0, 0.0, 0.02) == (0.0, 0.0)


def test_quadrant_right_speed():
    dp, dy = quadrant_step(QP, 0.0, 20.0, 0.02)
    assert dp == 0.0
    assert abs(dy - 0.4) < 1e-12


def test_quadrant_dominant_axis():
    for dt in (0.005, 0.02, 0.3):
        dp, dy = quadrant_step(QP, -15.0, 3.0, dt)
        assert dy == 0.0
        assert abs(dp + 20.0 * dt) < 1e-12


def test_quadrant_tie_goes_to_yaw():
    dp, dy = quadrant_step(QP, 8.0, 8.0, 0.02)
    assert dp == 0.0 and dy > 0


def test_quadrant_fuzz_axis_aligned_and_quantized():
    rng = np.random.default_rng(19)
    dt = 1.0 / 90.0
    for _ in range(10_000):
        gp, gy = rng.uniform(-90, 90, 2)
        dp, dy = quadrant_step(QP, gp, gy, dt)
        assert dp * dy == 0.0
        speed = math.hypot(dp, dy) / dt
        assert speed == 0.0 or abs(speed - 20.0) < 1e-9
        if math.hypot(gp, gy) <= 5.0:
            assert (dp, dy) == (0.0, 0.0)


def test_control_law_zero_at_c():
    p = VectorAxisParams(v=1.3, a=0.7, b=4.0, c=2.5)
    assert control_law(p, 2.5) == 0.0
    assert symmetric_control_law(p, 2.5) == 0.0


def test_control_law_spec_point():
    p = VectorAxisParams(v=1.0, a=1.0, b=0.0, c=0.0)
    assert abs(control_law(p, 2.0) - 1.7615942) < 1e-7


def test_control_law_asymptote():
    p = VectorAxisParams(v=1.0, a=10.0, b=5.0, c=0.0)
    out = control_law(p, 30.0)
    assert abs(out - 30.0) < 1e-6 * 30.0


def test_control_law_matches_high_precision_oracle():
    rng = np.random.default_rng(29)
    for _ in range(300):
        v = rng.uniform(-2, 2)
        a = rng.uniform(0.05, 2.0)
        b = rng.uniform(0, 20)
        c = rng.uniform(-10, 10)
        x = rng.uniform(-40, 40)
        got = control_law(VectorAxisParams(v, a, b, c), x)
        expect = control_law_mp(v, a, b, c, x)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_control_law_monotone_in_asymptotic_region():
    rng = np.random.default_rng(53)
    for _ in range(50):
        v = rng.uniform(0.1, 2)
        a = rng.uniform(0.1, 2)
        b = rng.uniform(0, 10)
        c = rng.uniform(-5, 5)
        p = VectorAxisParams(v, a, b, c)
        start = c + b + 5.0 / a
        xs = np.linspace(start, start + 50, 200)
        hs = [control_law(p, x) for x in xs]
        for h1, h2 in zip(hs, hs[1:]):
            assert h2 >= h1 - 1e-9
        # sign matches v past the inflection region
        assert all(math.copysign(1, h) == math.copysign(1, v) for h in hs if h != 0)


def test_control_law_overflow_guard():
    p = VectorAxisParams(v=1.0, a=50.0, b=0.0, c=0.0)
    assert control_law(p, -100.0) == 0.0


def test_symmetric_law_is_odd_about_c():
    p = VectorAxisParams(v=0.8, a=0.5, b=6.0, c=1.0)
    for off in (0.5, 3.0, 10.0, 25.0):
        assert symmetric_control_law(p, 1.0 + off) == pytest.approx(
            -symmetric_control_law(p, 1.0 - off), abs=1e-15
        )


def test_vector_step_scales_with_dt():
    params = VectorParams(
        pitch=VectorAxisParams(1.0, 1.0, 0.0, 0.0),
        yaw=VectorAxisParams(1.0, 1.0, 0.0, 0.0),
    )
    dp, dy = vector_step(params, 2.0, -2.0, 0.5)
    assert abs(dp - 0.5 * 1.7615941559557649) < 1e-12
    assert abs(dy + 0.5 * 1.7615941559557649) < 1e-12


def gaze_dirs(pitch_deg, yaw_deg):
    d = pitch_yaw_to_dir(math.radians(pitch_deg), math.radians(yaw_deg))
    return d, d


def test_quadrant_controller_stateless_and_axis_aligned():
    ctrl = QuadrantController()
    left, right = gaze_dirs(4.0, 30.0)
    head = vec3(0, 0, 1)
    first = ctrl.step(left, right, head, 1 / 90)
    for _ in range(5):
        assert ctrl.step(left, right, head, 1 / 90) == first
    assert first[0] == 0.0
    assert abs(first[1] - math.radians(20 / 90)) < 1e-12


def test_combined_inputs_normalize_each_row_as_a_rollout_does():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(500, 9))
    combined = combined_inputs(x)
    assert combined[:, 0:3].tobytes() == normalize_rows(x[:, 0:3] + x[:, 3:6]).tobytes()
    assert combined[:, 3:6].tobytes() == x[:, 6:9].tobytes()
    for k in range(len(x)):
        assert combined[k, 0:3].tobytes() == normalize(x[k, 0:3] + x[k, 3:6]).tobytes()


@pytest.mark.parametrize("family", ["quadrant", "vector"])
def test_law_predict_has_the_bits_of_step_rows(family):
    # head-frame gaze near straight ahead; numpy's arcsin and arctan2 round
    # some rows' angles differently from math's, which step_rows takes
    rng = np.random.default_rng(23)
    left, right, head = (
        normalize_rows(rng.normal(size=(400, 3)) * [0.4, 0.4, 0.2] + [0.0, 0.0, 1.0]) for _ in range(3)
    )
    x = np.concatenate([left, right, head], axis=1)
    units = normalize_rows(left + right)
    pitch, yaw = np.degrees(dirs_to_pitch_yaw(units))
    exact = [tuple(map(math.degrees, dir_to_pitch_yaw(unit))) for unit in units.tolist()]
    wider = [k for k, (p, y) in enumerate(exact) if math.hypot(pitch[k], yaw[k]) > math.hypot(p, y)]
    assert wider
    if family == "quadrant":
        # the deadzone's edge at one such row: inside it by math's angles,
        # outside by numpy's
        controller = QuadrantController(QuadrantParams(deadzone_diameter=2 * math.hypot(*exact[wider[0]])))
    else:
        controller = VectorController(
            VectorParams(VectorAxisParams(0.8, 0.5, 6.0, 1.0), VectorAxisParams(1.2, 0.3, 4.0, -2.0))
        )
    dt = 1 / 90
    out, faults = controller.step_rows(x, np.full(len(x), dt), np.arange(len(x)))
    assert not faults.any()
    assert controller.predict([x], [dt])[0].tobytes() == out.tobytes()


def test_mlp_controller_zero_net():
    net = DenseNet([9, 8, 2])
    for p in net.params().values():
        p[...] = 0.0
    ctrl = MlpController(net)
    left, right = gaze_dirs(10, 10)
    assert ctrl.step(left, right, vec3(0, 0, 1), 1 / 90) == (0.0, 0.0)


def test_mlp_controller_delegates_to_one_row_forward():
    net = DenseNet([9, 16, 2], seed=2)
    ctrl = MlpController(net, train_rate_hz=90.0)
    rng = np.random.default_rng(59)
    for _ in range(100):
        l = rng.normal(size=3)
        r = rng.normal(size=3)
        h = rng.normal(size=3)
        l, r, h = (u / np.linalg.norm(u) for u in (l, r, h))
        out = net.forward_rows(np.concatenate([l, r, h])[None])[0]
        got = ctrl.step(l, r, h, 1 / 90)
        assert abs(got[0] - out[0]) < 1e-15
        assert abs(got[1] - out[1]) < 1e-15


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_controller_faults_on_nonfinite():
    net = DenseNet([9, 2])
    net.weights[0][...] = np.inf
    ctrl = MlpController(net)
    left, right = gaze_dirs(0, 5)
    assert ctrl.step(left, right, vec3(0, 0, 1), 1 / 90) == (0.0, 0.0)
    assert ctrl.faulted


def test_lstm_controller_zero_net():
    net = LstmNet(9, 4)
    for p in net.params().values():
        p[...] = 0.0
    ctrl = LstmController(net)
    left, right = gaze_dirs(3, -7)
    assert ctrl.step(left, right, vec3(0, 0, 1), 1 / 45) == (0.0, 0.0)
    assert np.array_equal(ctrl.hidden, np.zeros((1, 4)))


def test_lstm_controller_delegates_and_is_stateful():
    net = LstmNet(9, 4, seed=3)
    ctrl = LstmController(net, train_rate_hz=45.0)
    a = gaze_dirs(5, 0)[0]
    b = gaze_dirs(0, 12)[0]
    head = vec3(0, 0, 1)

    expect, hidden, _ = net.step(np.zeros(4), np.zeros(4), np.concatenate([a, a, head]))
    got = ctrl.step(a, a, head, 1 / 45)
    assert abs(got[0] - expect[0]) < 1e-15 and abs(got[1] - expect[1]) < 1e-15
    assert np.array_equal(ctrl.hidden, hidden[None])

    ctrl.reset_rows(1)
    ab = [ctrl.step(a, a, head, 1 / 45), ctrl.step(b, b, head, 1 / 45)][-1]
    ctrl.reset_rows(1)
    ba = [ctrl.step(b, b, head, 1 / 45), ctrl.step(a, a, head, 1 / 45)][-1]
    assert ab != ba  # order matters: the controller carries state

    ctrl.reset_rows(1)
    again = [ctrl.step(a, a, head, 1 / 45), ctrl.step(b, b, head, 1 / 45)][-1]
    assert again == ab  # fresh state makes runs reproducible


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstm_predict_leaves_a_live_controller_alone():
    # predict starts from its own zero state: the stepped state and the
    # fault latch of the controller it is called on stay as they were
    net = LstmNet(9, 4, seed=3)
    live, control = LstmController(net), LstmController(net)
    xs = np.random.default_rng(8).normal(size=(4, 9))
    xs[3, 0] = np.nan
    ticks = [[] for _ in range(2)]
    for k, x in enumerate(xs):
        for ctrl, out in zip((live, control), ticks):
            out.append(ctrl.step(x[0:3], x[3:6], x[6:9], 1 / 45))
        live.predict([xs[:3], xs[:1]], [1 / 45, 1 / 90])
        assert live.faulted == control.faulted == (k == 3)
        assert live.hidden.tobytes() == control.hidden.tobytes()
        assert live.cell.tobytes() == control.cell.tobytes()
    assert ticks[0] == ticks[1]


@pytest.mark.parametrize("inputs", [9, 6])
@pytest.mark.parametrize("hidden", [2, 8, 128])
def test_lstm_predict_equals_a_per_trajectory_step_loop(hidden, inputs):
    # one lockstep pass over unequal lengths, in an order that is not
    # sorted by length, with a 0-row sequence (the inputs of a 1-sample
    # trajectory) and a tick length per trajectory
    rng = np.random.default_rng(10 * hidden + inputs)
    lengths = [37, 0, 121, 1, 121, 64, 2]
    xs = [rng.normal(size=(n, 9)) for n in lengths]
    dts = [1 / 45, 1 / 90, 1 / 30, 1 / 45, 1 / 60, 1 / 45, 1 / 90]
    ctrl = LstmController(LstmNet(inputs, hidden, seed=hidden), train_rate_hz=45.0)
    got = ctrl.predict(xs, dts)
    expect = lstm_predict_loop(ctrl, xs, dts)
    assert [p.shape for p in got] == [(n, 2) for n in lengths]
    for p, q in zip(got, expect):
        assert p.tobytes() == q.tobytes()
    assert ctrl.predict([], []) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstm_step_rows_equal_step_per_row_and_latch_faults():
    # row 0 faults at its second step; from then on its state stays put,
    # as a one-row controller's does once ``faulted`` is set
    net = LstmNet(9, 4, seed=3)
    batched = LstmController(net)
    batched.reset_rows(3)
    single = [LstmController(net) for _ in range(3)]
    xs = np.random.default_rng(5).normal(size=(4, 3, 9))
    xs[1, 0, 0] = np.nan
    for step in range(4):
        out, faults = batched.step_rows(xs[step], np.full(3, 1 / 45), np.arange(3))
        for r, ctrl in enumerate(single):
            expect = ctrl.step(xs[step, r, 0:3], xs[step, r, 3:6], xs[step, r, 6:9], 1 / 45)
            assert tuple(out[r]) == expect
            assert faults[r] == (step == 1 and r == 0)
            assert batched.hidden[r].tobytes() == ctrl.hidden[0].tobytes()
            assert batched.cell[r].tobytes() == ctrl.cell[0].tobytes()
    assert batched.faulted and batched.row_faulted.tolist() == [True, False, False]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstm_row_that_faulted_keeps_its_state_after_the_latch_is_cleared():
    # row 1 faults at the second call; the latch is cleared after every
    # call, as ExoSim.tick clears it, yet row 1's state never moves again,
    # whether or not a later call includes it, and rows 0 and 2 keep
    # stepping with ``step``'s bits
    net = LstmNet(9, 4, seed=3)
    batched = LstmController(net)
    batched.reset_rows(3)
    single = [LstmController(net) for _ in range(3)]
    xs = np.random.default_rng(6).normal(size=(6, 3, 9))
    xs[1, 1, 4] = np.nan
    calls = [[0, 1, 2], [0, 1, 2], [0, 1, 2], [1], [0, 2], [2, 1, 0]]
    for step, rows in enumerate(calls):
        rows = np.array(rows)
        x = xs[step, rows]
        out, faults = batched.step_rows(x, np.full(len(rows), 1 / 45), rows)
        assert faults.tolist() == [step == 1 and r == 1 for r in rows]
        batched.faulted = False
        for k, r in enumerate(rows):
            expect = single[r].step(x[k, 0:3], x[k, 3:6], x[k, 6:9], 1 / 45)
            assert tuple(out[k]) == expect
        for r, ctrl in enumerate(single):
            assert batched.hidden[r].tobytes() == ctrl.hidden[0].tobytes()
            assert batched.cell[r].tobytes() == ctrl.cell[0].tobytes()
        if step == 1:
            frozen = batched.hidden[1].copy(), batched.cell[1].copy()
    assert batched.row_faulted.tolist() == [False, True, False]
    assert batched.hidden[1].tobytes() == frozen[0].tobytes()
    assert batched.cell[1].tobytes() == frozen[1].tobytes()


@pytest.mark.parametrize("latched", [False, True])
def test_guard_rows_on_finite_commands_is_an_all_false_mask_and_keeps_the_latch(latched):
    ctrl = QuadrantController()
    ctrl.faulted = latched
    out = np.array([[0.1, -0.2], [0.0, 3.0], [-1e300, 1e-300]])
    before = out.tobytes()
    faults = ctrl._guard_rows(out)
    assert faults.shape == (3,) and faults.dtype == bool and not faults.any()
    assert ctrl.faulted is latched
    assert out.tobytes() == before
    out[1, 0] = np.inf
    assert ctrl._guard_rows(out).tolist() == [False, True, False]
    assert ctrl.faulted and out[1].tolist() == [0.0, 0.0]


def test_lstm_step_advances_row_0_and_leaves_the_other_rows_alone():
    # rows 1 and 2 take a lockstep step; row 0 is still fresh, so step
    # gives a fresh controller's bits, and it never touches rows 1 and 2
    net = LstmNet(9, 4, seed=3)
    ctrl, fresh = LstmController(net), LstmController(net)
    ctrl.reset_rows(3)
    x = np.random.default_rng(12).normal(size=(2, 9))
    ctrl.step_rows(x, np.full(2, 1 / 45), np.array([1, 2]))
    hidden, cell = ctrl.hidden[1:].copy(), ctrl.cell[1:].copy()
    assert hidden.all() and cell.all()
    head = vec3(0, 0, 1)
    for pitch, yaw in ((5, 0), (-3, 12), (9, -14)):
        left, right = gaze_dirs(pitch, yaw)
        got = ctrl.step(left, right, head, 1 / 45)
        expect = fresh.step(left, right, head, 1 / 45)
        assert np.array(got).tobytes() == np.array(expect).tobytes()
        assert ctrl.hidden[0].tobytes() == fresh.hidden[0].tobytes()
        assert ctrl.cell[0].tobytes() == fresh.cell[0].tobytes()
    assert ctrl.hidden[1:].tobytes() == hidden.tobytes()
    assert ctrl.cell[1:].tobytes() == cell.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstm_reset_after_lockstep_leaves_one_zero_row_and_a_clear_latch():
    ctrl = LstmController(LstmNet(9, 4, seed=3))
    ctrl.reset_rows(3)
    x = np.random.default_rng(13).normal(size=(3, 9))
    x[0, 0] = np.nan
    _, faults = ctrl.step_rows(x, np.full(3, 1 / 45), np.arange(3))
    assert faults.tolist() == [True, False, False] and ctrl.faulted
    assert ctrl.hidden[1:].any()
    ctrl.reset_rows(1)
    assert not ctrl.faulted
    assert ctrl.row_faulted.tolist() == [False]
    for state in (ctrl.hidden, ctrl.cell):
        assert state.shape == (1, 4) and not state.any()


def test_controller_config_roundtrip(tmp_path):
    specs = [
        QuadrantController(QuadrantParams(12.0, 25.0), name="quad"),
        VectorController(
            VectorParams(VectorAxisParams(0.8, 0.5, 6.0, 1.0), VectorAxisParams(1.1, 0.3, 4.0, -2.0)),
            name="vec",
        ),
        MlpController(DenseNet([9, 8, 2], seed=1), name="mlp8"),
        LstmController(LstmNet(9, 2, seed=2), name="lstm2"),
    ]
    left, right = gaze_dirs(9, -14)
    head = vec3(0, 0, 1)
    for ctrl in specs:
        path = tmp_path / f"{ctrl.name}.json"
        save_controller(ctrl, path)
        loaded = load_controller(path)
        loaded.reset_rows(1)
        ctrl.reset_rows(1)
        assert loaded.family == ctrl.family
        assert loaded.name == ctrl.name
        assert loaded.step(left, right, head, 1 / 90) == ctrl.step(left, right, head, 1 / 90)


def write_net_config(tmp_path, family, net, tick_rate_hz=None):
    """A controller config of ``family`` over a checkpoint of ``net``."""
    save_checkpoint(net, tmp_path / "net.ckpt.json")
    config = {"family": family, "name": family, "params": {"checkpoint": "net.ckpt.json"}}
    if tick_rate_hz is not None:
        config["tick_rate_hz"] = tick_rate_hz
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "family, net, tick_rate_hz, reason",
    [
        ("lstm", LstmNet(9, 4, output_size=3), None,
         "lstm controller needs LstmNet with 6 or 9 inputs and 2 outputs, got 9 inputs and 3 outputs"),
        ("mlp", DenseNet([6, 8, 2]), None,
         "mlp controller needs DenseNet with 9 inputs and 2 outputs, got 6 inputs and 2 outputs"),
        ("lstm", LstmNet(7, 4), None,
         "lstm controller needs LstmNet with 6 or 9 inputs and 2 outputs, got 7 inputs and 2 outputs"),
        ("lstm", DenseNet([9, 8, 2]), None,
         "lstm controller needs LstmNet with 6 or 9 inputs and 2 outputs, got DenseNet"),
        ("mlp", DenseNet([9, 8, 2]), 0, "train_rate_hz must be positive and finite, got 0.0"),
        ("lstm", LstmNet(9, 4), float("inf"), "train_rate_hz must be positive and finite, got inf"),
    ],
    ids=["lstm-3-outputs", "mlp-6-inputs", "lstm-7-inputs", "lstm-on-dense", "rate-0", "rate-inf"],
)
def test_load_controller_rejects_a_network_or_rate_its_family_cannot_run(
    tmp_path, family, net, tick_rate_hz, reason
):
    # checked once, when the controller is built, and named by file
    path = write_net_config(tmp_path, family, net, tick_rate_hz)
    with pytest.raises(ValueError) as info:
        load_controller(path)
    ckpt = tmp_path / "net.ckpt.json"
    assert str(info.value) == f"{path} (checkpoint {ckpt}): {reason}"


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda params: params.update(w0=params["w0"][:5]),
         "cannot reshape array of size 5 into shape (8,9)"),
        (lambda params: params.pop("w0"), "missing key 'w0'"),
    ],
    ids=["w0-cut-to-5", "w0-deleted"],
)
def test_load_controller_names_the_files_of_a_malformed_checkpoint(tmp_path, damage, reason):
    path = write_net_config(tmp_path, "mlp", DenseNet([9, 8, 2]))
    ckpt = tmp_path / "net.ckpt.json"
    payload = json.loads(ckpt.read_text(encoding="utf-8"))
    damage(payload["params"])
    ckpt.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_controller(path)
    assert str(info.value) == f"{path} (checkpoint {ckpt}): {reason}"


GOLDEN_QUADRANT = """{
  "family": "quadrant",
  "name": "quadrant",
  "tick_rate_hz": 90.0,
  "params": {
    "deadzone_diameter": 10.0,
    "speed": 20.0
  }
}
"""

GOLDEN_VECTOR = """{
  "family": "vector",
  "name": "vector",
  "tick_rate_hz": 90.0,
  "params": {
    "pitch": {
      "v": 3.496618746323547,
      "a": 0.49305541145759535,
      "b": 10.00861969277404,
      "c": 0.007463774885813525
    },
    "yaw": {
      "v": 3.5285599371294816,
      "a": 0.4774483084333128,
      "b": 10.024040520378966,
      "c": 0.11335228887252977
    },
    "symmetric": true
  }
}
"""


def test_saved_law_configs_match_golden_bytes(tmp_path):
    # key order family, name, tick_rate_hz, params; pitch/yaw as v, a, b, c,
    # then symmetric. The vector params are those of a fit_vector_params run
    # (full-precision floats, so their repr is pinned too).
    fitted = VectorParams(
        VectorAxisParams(3.496618746323547, 0.49305541145759535, 10.00861969277404, 0.007463774885813525),
        VectorAxisParams(3.5285599371294816, 0.4774483084333128, 10.024040520378966, 0.11335228887252977),
    )
    for ctrl, golden in (
        (QuadrantController(), GOLDEN_QUADRANT),
        (VectorController(fitted), GOLDEN_VECTOR),
    ):
        path = tmp_path / f"{ctrl.family}.json"
        save_controller(ctrl, path)
        assert path.read_bytes() == golden.encode()
