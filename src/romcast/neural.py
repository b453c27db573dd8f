"""From-scratch differentiable primitives: LSTM, dense head, dropout, BPTT.

Everything is float64 numpy. Forward passes record a Tape of
intermediates; ``backward`` replays it in reverse for exact gradients.
Batched inputs use the leading axis; single sequences are promoted
internally and squeezed on the way out.

Layout (fused gates, as in cuDNN). An LSTM keeps W (4H x D), U (4H x H)
and b (4H), each stacking its gates in the order i, f, o, g; ``w_i`` ...
``b_g`` are row-block views into them. A model keeps all its parameters
in one float64 buffer, ``model.flat``, in the order W, U, b,
head.weight, head.bias. ``model.params()`` maps the keys ``lstm.w_i``
... ``lstm.b_g``, ``head.weight`` and ``head.bias`` to views into it, so
the ROMF keys of saved models are unchanged. Gradients come back in the
same layout, so Nadam and clipping act on the whole buffer at once.
"""

from dataclasses import dataclass

import numpy as np

from . import romf
from .errors import InvalidConfig, NonFiniteInput, ShapeMismatch, TapeMismatch
from .optim import FlatParams

GATE_NAMES = tuple(kind + "_" + gate for kind in "wub" for gate in "ifog")


def sigmoid(x):
    """Logistic function as 0.5 (1 + tanh(x / 2)), which cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def relu(x):
    return np.maximum(x, 0.0)


ACTIVATIONS = {
    "relu": relu,
    "sigmoid": sigmoid,
    "linear": lambda x: x,
}


class LstmParams:
    """Fused gate weights W (4H x D), U (4H x H) and biases b (4H).

    Built from the twelve per-gate arrays (hidden x input, hidden x
    hidden, hidden); ``w_i`` ... ``b_g`` are then views into W, U and b.
    """

    def __init__(self, w_i, w_f, w_o, w_g, u_i, u_f, u_o, u_g,
                 b_i, b_f, b_o, b_g):
        self.bind(
            np.concatenate([w_i, w_f, w_o, w_g], dtype=np.float64),
            np.concatenate([u_i, u_f, u_o, u_g], dtype=np.float64),
            np.concatenate([b_i, b_f, b_o, b_g], dtype=np.float64),
        )

    def bind(self, W, U, b):
        """Point W, U, b and every per-gate view at the given arrays."""
        self.W, self.U, self.b = W, U, b
        hidden = self.hidden_dim
        for k, gate in enumerate("ifog"):
            rows = slice(k * hidden, (k + 1) * hidden)
            for kind, fused in (("w", W), ("u", U), ("b", b)):
                setattr(self, kind + "_" + gate, fused[rows])

    @property
    def input_dim(self):
        return self.W.shape[1]

    @property
    def hidden_dim(self):
        return self.U.shape[1]

    def params(self, prefix=""):
        return {prefix + name: getattr(self, name) for name in GATE_NAMES}


@dataclass
class DenseParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def params(self, prefix=""):
        return {prefix + "weight": self.weight, prefix + "bias": self.bias}


@dataclass
class _Network:
    """An LSTM and a dense head whose parameters share one flat buffer;
    the given ``lstm`` and ``head`` are re-pointed at views into it."""

    lstm: LstmParams
    head: DenseParams

    def __post_init__(self):
        lstm, head = self.lstm, self.head
        self._params = FlatParams.pack(
            {**lstm.params("lstm."), **head.params("head.")}
        )
        self.flat = self._params.flat
        n_w, n_u = lstm.W.size, lstm.U.size
        lstm.bind(
            self.flat[:n_w].reshape(lstm.W.shape),
            self.flat[n_w:n_w + n_u].reshape(lstm.U.shape),
            self.flat[n_w + n_u:n_w + n_u + lstm.b.size],
        )
        head.weight = self._params["head.weight"]
        head.bias = self._params["head.bias"]

    def params(self):
        return self._params


@dataclass
class LstmForecaster(_Network):
    """Single-layer LSTM plus dense output head predicting the next step."""

    output_activation: str = "sigmoid"
    dropout_rate: float = 0.0
    time_lag: int = 2

    def __post_init__(self):
        if self.output_activation not in ACTIVATIONS:
            raise InvalidConfig(
                f"unknown output activation {self.output_activation!r}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must lie in [0, 1)")
        if self.time_lag < 1:
            raise InvalidConfig("time_lag must be >= 1")
        super().__post_init__()

    @property
    def output_dim(self):
        return self.head.weight.shape[0]


@dataclass
class Discriminator(_Network):
    """Mirrored LSTM scoring a PC sequence as real (1) or predicted (0);
    its head outputs one logit, with the sigmoid fixed."""

    def __post_init__(self):
        if self.head.weight.shape[0] != 1:
            raise InvalidConfig("discriminator head must output a scalar")
        super().__post_init__()


class Tape:
    """Recorded forward intermediates sufficient for exact BPTT."""

    def __init__(self, kind, **fields):
        self.kind = kind
        self.__dict__.update(fields)


def init_lstm_params(input_dim, hidden_dim, rng):
    """uniform(-s, s) matrices with s = 1/sqrt(hidden), zero biases,
    forget-gate bias +1. W and U are each drawn as one block, which takes
    the same numbers, in the same order, as drawing the gates i, f, o, g
    one after another."""
    s = 1.0 / np.sqrt(hidden_dim)
    W = rng.uniform(-s, s, size=(4 * hidden_dim, input_dim))
    U = rng.uniform(-s, s, size=(4 * hidden_dim, hidden_dim))
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim:2 * hidden_dim] = 1.0
    return LstmParams(*np.split(W, 4), *np.split(U, 4), *np.split(b, 4))


def _init_head(output_dim, hidden_dim, rng):
    s = 1.0 / np.sqrt(hidden_dim)
    return DenseParams(
        weight=rng.uniform(-s, s, size=(output_dim, hidden_dim)),
        bias=np.zeros(output_dim),
    )


def init_forecaster(input_dim, hidden_dim, output_dim, output_activation,
                    dropout_rate, time_lag, rng):
    rng = np.random.default_rng(rng)
    lstm = init_lstm_params(input_dim, hidden_dim, rng)
    return LstmForecaster(lstm, _init_head(output_dim, hidden_dim, rng),
                          output_activation, dropout_rate, time_lag)


def init_discriminator(input_dim, hidden_dim, rng):
    rng = np.random.default_rng(rng)
    lstm = init_lstm_params(input_dim, hidden_dim, rng)
    return Discriminator(lstm=lstm, head=_init_head(1, hidden_dim, rng))


def _promote_sequence(sequence, input_dim):
    seq = np.asarray(sequence, dtype=np.float64)
    squeezed = seq.ndim == 2
    if squeezed:
        seq = seq[None]
    if seq.ndim != 3 or seq.shape[2] != input_dim:
        raise ShapeMismatch(
            f"sequence shape {np.shape(sequence)} incompatible with "
            f"input_dim {input_dim}"
        )
    if seq.shape[1] < 1:
        raise ShapeMismatch("sequence must have at least one step")
    if not np.all(np.isfinite(seq)):
        raise NonFiniteInput("sequence contains NaN/Inf")
    return seq, squeezed


def _recur(lstm, seq):
    """The one LSTM kernel: the recurrence over a (B, T, D) sequence from
    a zero state, for training and inference alike.

    One GEMM projects the inputs of all steps; the loop keeps only
    h @ U.T, which step 0 skips since h starts at zero. Gates, states and
    tanh(c) land in preallocated step-major arrays, so the returned tape
    costs nothing extra and inference just drops it.
    """
    batch, steps, dim = seq.shape
    hidden = lstm.hidden_dim
    n3 = 3 * hidden
    x = np.ascontiguousarray(seq.swapaxes(0, 1)).reshape(steps * batch, dim)
    gates = (x @ lstm.W.T).reshape(steps, batch, 4 * hidden)
    gates += lstm.b
    h = np.zeros((steps + 1, batch, hidden))
    c = np.zeros((steps + 1, batch, hidden))
    tc = np.empty((steps, batch, hidden))
    for t in range(steps):
        a = gates[t]
        if t:
            a += h[t] @ lstm.U.T
        # i, f, o through sigmoid(z) = 0.5 (1 + tanh(z / 2)), g through tanh
        sig = a[:, :n3]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        np.multiply(a[:, hidden:2 * hidden], c[t], out=c[t + 1])
        c[t + 1] += a[:, :hidden] * a[:, n3:]
        np.tanh(c[t + 1], out=tc[t])
        np.multiply(a[:, 2 * hidden:n3], tc[t], out=h[t + 1])
    return Tape("lstm", params=lstm, x=x, gates=gates, h=h, c=c, tc=tc)


def lstm_forward(params, sequence):
    """Run the standard LSTM recurrence over a (B,)T x input_dim sequence
    from a zero state.

    Returns (hidden states over time, final hidden, tape).
    """
    seq, squeezed = _promote_sequence(sequence, params.input_dim)
    tape = _recur(params, seq)
    tape.squeezed = squeezed
    hs = tape.h[1:].swapaxes(0, 1)
    if squeezed:
        return hs[0], tape.h[-1, 0], tape
    return hs, tape.h[-1], tape


def _lstm_backward(tape, d_h_final=None, d_hs=None):
    """Exact BPTT. Returns (dW, dU, db, d_sequence).

    Only dh = dA @ U stays in the time loop; the weight and input
    gradients are one GEMM each over all steps afterwards.
    """
    lstm = tape.params
    gates = tape.gates
    steps, batch, width = gates.shape
    hidden = lstm.hidden_dim
    n3 = 3 * hidden
    # dL/da of a gate is (dL/dgate) * gate'(a), and dL/dgate is dc * g,
    # dc * c_prev, dh * tanh(c) and dc * i for i, f, o, g: fold all but
    # dc and dh into one factor per step
    factor = gates * (1.0 - gates)
    g = gates[..., n3:]
    factor[..., n3:] = 1.0 - g * g
    factor *= np.concatenate(
        [g, tape.c[:-1], tape.tc, gates[..., :hidden]], axis=-1
    )
    dc_dh = gates[..., 2 * hidden:n3] * (1.0 - tape.tc * tape.tc)
    forget = gates[..., hidden:2 * hidden]
    d_gates = np.empty_like(gates)
    dh = np.zeros((batch, hidden)) if d_h_final is None else d_h_final
    dc = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        if d_hs is not None:
            dh = dh + d_hs[:, t]
        dc = dc + dh * dc_dh[t]
        da = d_gates[t]
        np.multiply(factor[t].reshape(batch, 4, hidden), dc[:, None],
                    out=da.reshape(batch, 4, hidden))
        np.multiply(factor[t, :, 2 * hidden:n3], dh,
                    out=da[:, 2 * hidden:n3])
        dc = dc * forget[t]
        if t:
            dh = da @ lstm.U
    d_flat = d_gates.reshape(steps * batch, width)
    # h is zero before step 0, so step 0 adds nothing to dU
    h_prev = tape.h[1:-1].reshape((steps - 1) * batch, hidden)
    dU = d_flat[batch:].T @ h_prev
    d_seq = (d_flat @ lstm.W).reshape(steps, batch, -1).swapaxes(0, 1)
    return d_flat.T @ tape.x, dU, d_flat.sum(axis=0), d_seq


def _head(model, lstm_tape, activation, mask=None, squeezed=False):
    """The dense head on the final hidden state (times the dropout mask,
    if any); returns (output, tape)."""
    h = lstm_tape.h[-1] if mask is None else lstm_tape.h[-1] * mask
    y_lin = h @ model.head.weight.T + model.head.bias
    pred = ACTIVATIONS[activation](y_lin)
    return pred, Tape("head", model=model, lstm_tape=lstm_tape, h=h,
                      mask=mask, y_lin=y_lin, pred=pred,
                      activation=activation, squeezed=squeezed)


def forecaster_forward(model, window, training_mode=False, rng=None):
    """Predict the next PC vector from an N x tau window.

    Inverted dropout is applied to the final hidden state only when
    ``training_mode`` is set and the rate is nonzero; ``rng`` then supplies
    the mask.
    """
    _, _, lstm_tape = lstm_forward(model.lstm, window)
    steps = lstm_tape.gates.shape[0]
    if steps != model.time_lag:
        raise ShapeMismatch(
            f"window has {steps} rows, model expects {model.time_lag}"
        )
    mask = None
    if training_mode and model.dropout_rate > 0.0:
        if rng is None:
            raise InvalidConfig("dropout in training mode needs an rng")
        keep = 1.0 - model.dropout_rate
        mask = (rng.random(lstm_tape.h[-1].shape) >= model.dropout_rate) / keep
    pred, tape = _head(model, lstm_tape, model.output_activation, mask,
                       lstm_tape.squeezed)
    return (pred[0] if tape.squeezed else pred), tape


def forecaster_step(model, windows):
    """Tape-free inference: predictions for a (B,) N x tau window batch.

    Runs the kernel and head of ``forecaster_forward`` in inference mode,
    so outputs are bit-identical, and drops the tape; it skips input
    validation and dropout, which is what makes autoregressive rollouts
    cheap.
    """
    squeezed = windows.ndim == 2
    seq = windows[None] if squeezed else windows
    pred, _ = _head(model, _recur(model.lstm, seq), model.output_activation)
    return pred[0] if squeezed else pred


def discriminator_forward(disc, sequence):
    """Score sequences; returns probabilities in (0, 1) plus the tape."""
    _, _, lstm_tape = lstm_forward(disc.lstm, sequence)
    prob, tape = _head(disc, lstm_tape, "sigmoid", squeezed=lstm_tape.squeezed)
    return (prob[0, 0] if tape.squeezed else prob[:, 0]), tape


def _activation_deriv(tape):
    if tape.activation == "relu":
        return (tape.y_lin > 0).astype(np.float64)
    if tape.activation == "sigmoid":
        return tape.pred * (1.0 - tape.pred)
    return np.ones_like(tape.y_lin)


def backward(tape, upstream):
    """Exact gradients of the recorded computation.

    For a model tape, ``upstream`` is dL/dprediction; returns
    (param grads laid out like ``model.params()``, input grads). For a
    raw LSTM tape, ``upstream`` is dL/d(final hidden) or dL/d(all
    hiddens), and the grads are keyed ``w_i`` ... ``b_g``.
    """
    if tape.kind == "lstm":
        steps, batch, _ = tape.gates.shape
        hidden = tape.params.hidden_dim
        up = np.asarray(upstream, dtype=np.float64)
        if tape.squeezed:
            up = up[None] if up.ndim in (1, 2) else up
        if up.shape == (batch, hidden):
            dW, dU, db, d_seq = _lstm_backward(tape, d_h_final=up)
        elif up.shape == (batch, steps, hidden):
            dW, dU, db, d_seq = _lstm_backward(tape, d_hs=up)
        else:
            raise TapeMismatch(
                f"upstream shape {np.shape(upstream)} matches neither the "
                "final hidden nor the full hidden-state stack"
            )
        grads = FlatParams.pack(dict(zip(
            GATE_NAMES,
            [*np.split(dW, 4), *np.split(dU, 4), *np.split(db, 4)],
        )))
        return grads, d_seq[0] if tape.squeezed else d_seq

    if tape.kind != "head":
        raise TapeMismatch(f"unknown tape kind {tape.kind!r}")
    model = tape.model
    d_pred = np.asarray(upstream, dtype=np.float64)
    if tape.squeezed:
        d_pred = np.atleast_1d(d_pred)
        d_pred = d_pred.reshape(tape.pred[0].shape)[None]
    if d_pred.shape != tape.pred.shape:
        raise TapeMismatch(
            f"upstream shape {np.shape(upstream)} != prediction shape "
            f"{tape.pred.shape}"
        )
    d_ylin = d_pred * _activation_deriv(tape)
    d_h = d_ylin @ model.head.weight
    if tape.mask is not None:
        d_h = d_h * tape.mask
    dW, dU, db, d_seq = _lstm_backward(tape.lstm_tape, d_h_final=d_h)
    flat = np.concatenate([
        dW.ravel(), dU.ravel(), db,
        (d_ylin.T @ tape.h).ravel(), d_ylin.sum(axis=0),
    ])
    grads = FlatParams(flat, model.params().layout)
    return grads, d_seq[0] if tape.squeezed else d_seq


# the type of each value in a model's metadata record, checked on load
_META = {"kind": str, "seed": (int, type(None))}
_FORECASTER_META = {"output_activation": str, "dropout_rate": (int, float),
                    "time_lag": int}


def save_model(path, model, seed=None, extra_arrays=None):
    """Persist weights, plus what their shapes cannot tell, in one ROMF file."""
    arrays = dict(model.params())
    if extra_arrays:
        arrays.update(extra_arrays)
    meta = {"kind": "discriminator", "seed": seed}
    if isinstance(model, LstmForecaster):
        meta.update(kind="forecaster",
                    output_activation=model.output_activation,
                    dropout_rate=model.dropout_rate, time_lag=model.time_lag)
    romf.write_arrays(path, arrays, meta)


def load_model(path):
    """Load a model saved by ``save_model``; returns (model, meta, extras)."""
    arrays, meta = romf.read_arrays(path)
    romf.require(arrays, [f"lstm.{name}" for name in GATE_NAMES]
                 + ["head.weight", "head.bias"], path)
    romf.require(meta, _META, path, "meta key")
    if meta["kind"] == "forecaster":
        romf.require(meta, _FORECASTER_META, path, "meta key")
    elif meta["kind"] != "discriminator":
        raise romf.FormatError(f"{path}: unknown model kind {meta['kind']!r}")
    extras = {key: val for key, val in arrays.items()
              if not key.startswith(("lstm.", "head."))}
    with romf.building(path):
        lstm = LstmParams(*(arrays["lstm." + name] for name in GATE_NAMES))
        head = DenseParams(arrays["head.weight"], arrays["head.bias"])
        if meta["kind"] == "discriminator":
            return Discriminator(lstm, head), meta, extras
        settings = {key: meta[key] for key in _FORECASTER_META}
        return LstmForecaster(lstm, head, **settings), meta, extras
