"""Dense and LSTM primitives with exact analytic gradients, plus Adam.

Small networks, float64 throughout, numpy only. Gradients are for the
sequence objective used everywhere in this package: the mean over all time
steps and both output components of the squared residual, i.e. a residual
vector (p, q) contributes (p^2 + q^2) / 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)), computed in ``out`` when given."""
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _lstm_gates(z, hs, out=None):
    """Gate activations of LSTM preactivations z (..., 4H), laid out [input,
    forget, candidate, output]: one _sigmoid over all 4H, then tanh over
    the candidate slice. Elementwise, so each element gets the bits of
    per-slice _sigmoid and tanh calls."""
    out = _sigmoid(z, out)
    np.tanh(z[..., 2 * hs : 3 * hs], out=out[..., 2 * hs : 3 * hs])
    return out


def _init_uniform(rng, shape, fan_in):
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class DenseNet:
    """Fully connected net, tanh hidden layers, identity output."""

    kind = "dense"

    def __init__(self, sizes, seed=0):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = sizes
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(_init_uniform(rng, (fan_out, fan_in), fan_in))
            self.biases.append(_init_uniform(rng, fan_out, fan_in))

    @property
    def input_size(self):
        return self.sizes[0]

    def params(self):
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    def set_params(self, params):
        for i in range(len(self.weights)):
            self.weights[i] = np.asarray(params[f"w{i}"], dtype=float).reshape(self.weights[i].shape)
            self.biases[i] = np.asarray(params[f"b{i}"], dtype=float).reshape(self.biases[i].shape)

    @property
    def output_size(self):
        return self.sizes[-1]

    def _forward(self, a, acts=None):
        """The layers over ``a``; each layer's output is appended to
        ``acts`` when it is given a list."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T + b
            if i != last:
                a = np.tanh(a)
            if acts is not None:
                acts.append(a)
        return a

    def forward_batch(self, x):
        """x: (T, in) -> (T, out), one matmul per layer over all rows."""
        return self._forward(np.asarray(x, dtype=float))

    def forward_rows(self, x):
        """x: (K, in) -> (K, out), each row through its own product.

        A stacked ``(K, 1, in) @ (in, out)`` matmul gives every row the
        bits of a one-row forward; the plain matmul of forward_batch
        rounds some rows differently.
        """
        return self._forward(np.asarray(x, dtype=float)[:, None, :])[:, 0, :]

    def sequence_loss_grads(self, inputs, targets):
        """Mean-squared-error loss and exact gradients over a sequence.

        inputs: (T, in), targets: (T, out). Returns (loss, grads dict).
        """
        x = np.asarray(inputs, dtype=float)
        d = np.asarray(targets, dtype=float)
        acts = [x]
        self._forward(x, acts)
        resid = acts[-1] - d
        loss = float(np.mean(resid**2))
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss in dense sequence")
        grads = {}
        # d(loss)/d(output) for mean over T steps and `out` components
        dz = resid * (2.0 / resid.size)
        for i in range(len(self.weights) - 1, -1, -1):
            grads[f"w{i}"] = dz.T @ acts[i]
            grads[f"b{i}"] = dz.sum(axis=0)
            if i > 0:
                da = dz @ self.weights[i]
                dz = da * (1.0 - acts[i] ** 2)
        return loss, grads


class LstmNet:
    """Single-layer LSTM with a linear output projection.

    Gate layout in the stacked weight matrix is [input, forget, candidate,
    output]; the candidate uses tanh, the gates sigmoid.
    """

    kind = "lstm"

    def __init__(self, input_size, hidden_size, output_size=2, seed=0):
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.output_size = int(output_size)
        rng = np.random.default_rng(seed)
        fan_in = self.input_size + self.hidden_size
        self.w = _init_uniform(rng, (4 * self.hidden_size, fan_in), fan_in)
        self.b = _init_uniform(rng, 4 * self.hidden_size, fan_in)
        self.w_out = _init_uniform(rng, (self.output_size, self.hidden_size), self.hidden_size)
        self.b_out = _init_uniform(rng, self.output_size, self.hidden_size)

    def params(self):
        return {"w": self.w, "b": self.b, "w_out": self.w_out, "b_out": self.b_out}

    def set_params(self, params):
        self.w = np.asarray(params["w"], dtype=float).reshape(self.w.shape)
        self.b = np.asarray(params["b"], dtype=float).reshape(self.b.shape)
        self.w_out = np.asarray(params["w_out"], dtype=float).reshape(self.w_out.shape)
        self.b_out = np.asarray(params["b_out"], dtype=float).reshape(self.b_out.shape)

    def _advance(self, z, cell):
        """Gates from preactivations z (..., 4H), then the new (hidden, cell)."""
        hs = self.hidden_size
        a = _lstm_gates(z, hs)
        cell = a[..., hs : 2 * hs] * cell + a[..., :hs] * a[..., 2 * hs : 3 * hs]
        return a[..., 3 * hs :] * np.tanh(cell), cell

    def step_rows(self, hidden, cell, x):
        """One step of K independent sequences: (K, H) hidden and cell
        state and (K, in) inputs -> (K, out) outputs, new hidden, new cell.

        Each matrix-vector product is a stacked ``(K, n, 1)`` matmul, which
        gives every row the bits of ``step``.
        """
        v = np.concatenate([x, hidden], axis=1)
        hidden, cell = self._advance((self.w @ v[:, :, None])[:, :, 0] + self.b, cell)
        return (self.w_out @ hidden[:, :, None])[:, :, 0] + self.b_out, hidden, cell

    def step(self, hidden, cell, x):
        """step_rows on one row: (H,) hidden and cell state and an (in,)
        input -> (out,) output, new hidden, new cell. Its plain
        matrix-vector products round as the stacked ones do, and cost less
        on a single row."""
        hidden, cell = self._advance(self.w @ np.concatenate([x, hidden]) + self.b, cell)
        return self.w_out @ hidden + self.b_out, hidden, cell

    def sequence_loss_grads(self, inputs, targets):
        """Full-sequence backprop through time from zero initial state.

        The input half of the gate preactivations, the output projection,
        and the weight-gradient accumulation are batched over the whole
        sequence; only the recurrent half runs step by step, and the
        backward loop finds every factor of the gate gradients that does
        not depend on the recurrence precomputed over all T steps.
        """
        x = np.asarray(inputs, dtype=float)
        d = np.asarray(targets, dtype=float)
        t_steps = x.shape[0]
        hs = self.hidden_size
        w_x = self.w[:, : self.input_size]
        w_h = self.w[:, self.input_size :]
        zx = x @ w_x.T + self.b  # (T, 4H) input-side preactivations

        gates = np.empty((t_steps, 4 * hs))  # [i, f, g, o] per step
        tanh_cs = np.empty((t_steps, hs))
        hiddens = np.zeros((t_steps + 1, hs))  # row t is the state before step t
        cells = np.zeros((t_steps + 1, hs))
        for t in range(t_steps):
            z = w_h @ hiddens[t]
            z += zx[t]
            a = _lstm_gates(z, hs, gates[t])
            c = np.multiply(a[hs : 2 * hs], cells[t], out=cells[t + 1])
            c += a[:hs] * a[2 * hs : 3 * hs]
            np.multiply(a[3 * hs :], np.tanh(c, out=tanh_cs[t]), out=hiddens[t + 1])
        ys = hiddens[1:] @ self.w_out.T + self.b_out
        resid = ys - d
        loss = float(np.mean(resid**2))
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss in LSTM sequence")
        dy = resid * (2.0 / resid.size)
        dh_from_y = dy @ self.w_out  # (T, H)

        # The per-gate formulas
        #   dz_i = ((dc * g) * i) * (1 - i)    dz_f = ((dc * c_prev) * f) * (1 - f)
        #   dz_g = (dc * i) * (1 - g**2)       dz_o = (do * o) * (1 - o)
        # are, in the same left-to-right order and so with the same bits, one
        # ((F * P) * Q) * R product over the 4H gates, with F = [dc, dc, dc, do],
        # P = [g, c_prev, i, o], Q = [i, f, 1 - g**2, 1 - o] and
        # R = [1 - i, 1 - f, 1, 1]; x1.0 is exact, so R keeps its first half.
        # No block is added for them: P fills the spent preactivations'
        # block, and step t's dz overwrites P's row t once it has been read;
        # Q overwrites g and o in the gates block; 1 - tanh(c)**2 fills the
        # spent cell states' block.
        i, f, g, o = (gates[:, k * hs : (k + 1) * hs] for k in range(4))
        p = np.concatenate([g, cells[:-1], i, o], axis=1, out=zx)
        r = 1.0 - gates[:, : 2 * hs]
        np.subtract(1.0, g**2, out=g)
        np.subtract(1.0, o, out=o)
        q, o = gates, p[:, 3 * hs :]  # o is read from P from here on
        dtanh_cs = np.square(tanh_cs, out=cells[1:])
        np.subtract(1.0, dtanh_cs, out=dtanh_cs)
        dz_all = p
        dc_do = np.empty(4 * hs)  # F = [dc, dc, dc, do]
        dcs = dc_do[: 3 * hs].reshape(3, hs)
        dh_next = np.zeros(hs)
        dc_next = np.zeros(hs)
        w_h_t = w_h.T
        for t in range(t_steps - 1, -1, -1):
            dh = dh_from_y[t] + dh_next
            np.multiply(dh, tanh_cs[t], out=dc_do[3 * hs :])
            dc = dh * o[t]
            dc *= dtanh_cs[t]
            dc += dc_next
            dcs[...] = dc
            dz = np.multiply(dc_do, p[t], out=dz_all[t])  # P's row t, read for the last time
            dz *= q[t]
            dz[: 2 * hs] *= r[t]
            dc_next = dc * f[t]
            dh_next = w_h_t @ dz
        dw = np.concatenate([dz_all.T @ x, dz_all.T @ hiddens[:-1]], axis=1)
        db = dz_all.sum(axis=0)
        dw_out = dy.T @ hiddens[1:]
        db_out = dy.sum(axis=0)
        return loss, {"w": dw, "b": db, "w_out": dw_out, "b_out": db_out}


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators and step counter.
    ``adam_step`` updates each accumulator array in place."""

    learning_rate: float = 1e-3
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState):
    """Standard Adam update with bias correction.

    Returns (new params dict, state). The moment accumulators are updated
    in place; each new parameter is one fresh array, and the arrays passed
    in are left as they were. Every operation keeps the operands and order
    of the out-of-place form, and so its bits:
      m = BETA1 * m + (1 - BETA1) * g
      v = BETA2 * v + (1 - BETA2) * (g * g)
      p - lr * (m / bc1) / (sqrt(v / bc2) + EPSILON)
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    out = {}
    for k, p in params.items():
        g = np.asarray(grads[k], dtype=float)
        if k not in state.m:
            state.m[k] = np.zeros_like(g)
            state.v[k] = np.zeros_like(g)
        m, v = state.m[k], state.v[k]
        tmp = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += tmp
        tmp = np.multiply(g, g, out=tmp)
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        step = np.divide(m, bc1, out=tmp)
        step *= state.learning_rate
        new = np.divide(v, bc2)
        np.sqrt(new, out=new)
        new += EPSILON
        np.divide(step, new, out=new)
        out[k] = np.subtract(p, new, out=new)
    return out, state


def save_checkpoint(net, path, train_config=None):
    """JSON checkpoint: architecture, flat row-major parameters, config."""
    if net.kind == "dense":
        arch = {"kind": "dense", "sizes": net.sizes}
    else:
        arch = {
            "kind": "lstm",
            "input_size": net.input_size,
            "hidden_size": net.hidden_size,
            "output_size": net.output_size,
        }
    payload = {
        "architecture": arch,
        "params": {k: np.asarray(v).ravel().tolist() for k, v in net.params().items()},
        "train_config": train_config or {},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


def load_checkpoint(path):
    """Rebuild a network from a checkpoint file; returns (net, train_config)."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    arch = payload["architecture"]
    if arch["kind"] == "dense":
        net = DenseNet(arch["sizes"])
    elif arch["kind"] == "lstm":
        net = LstmNet(arch["input_size"], arch["hidden_size"], arch.get("output_size", 2))
    else:
        raise ValueError(f"unknown checkpoint kind {arch['kind']!r}")
    net.set_params(payload["params"])
    return net, payload.get("train_config", {})
