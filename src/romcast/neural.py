"""From-scratch differentiable primitives: LSTM, dense head, dropout, BPTT.

Forward passes record a Tape of intermediates; ``backward`` replays it
in reverse for exact gradients. Every input is batched on the leading
axis: sequences are (B, T, D); only ``forecaster_step`` also takes one
(T, D) window.

Dtype. A model computes in the dtype of its parameter buffer: every
array a forward or backward pass allocates, the dropout mask and the
gradient buffer take it, and inputs are cast to it. ``model.astype``
makes a copy in another dtype. Training works on float32 copies, which
run elementwise passes and small GEMMs several times faster, and hands
out every model widened back to float64, which is exact. Saved files,
loaded models and inference stay float64: a rollout feeds each
prediction back for tens of steps, and a reported metric is recomputed
from the saved model to 1e-12.

Layout (fused gates, as in cuDNN). An LSTM keeps W (4H x D), U (4H x H)
and b (4H), each stacking its gates in the order i, f, o, g. A model
keeps all its parameters in one buffer, ``model.flat``, in the
order W, U, b, head.weight, head.bias; ``model.params()`` maps the keys
``lstm.W``, ``lstm.U``, ``lstm.b``, ``head.weight`` and ``head.bias`` to
views into it, and a saved model stores these five blocks under the same
keys. Gradients come back in the same layout, so Nadam and clipping act
on the whole buffer at once.

Construction alone checks a network's shapes (``ShapeMismatch``), and
copies the blocks it is given into its own buffer, never writing them.
Dropout has one entry point, ``forecaster_head``; ``forecaster_forward``
and ``forecaster_step`` are inference.

Inside the kernel the activations are gate-major, as cuDNN lays them out
(Appleyard et al. 2016, arXiv:1604.01946): the gates of a run are
(T, 4H, B), h and c are (T+1, H, B) and tanh(c) is (T, H, B), so each
gate of a step is one contiguous (H, B) block. A step's input projection
is W @ x_t and its recurrence U @ h_t. Nearly all of a step's work is
elementwise passes over the gates, which on batch-major (B, 4H) rows
would each stride over a column block; here each is one contiguous
pass. Backward keeps the layout and hands on dL/d(gates) as one (4H, T*B)
matrix, from which dW, dU and the input gradient are one GEMM each.
Only the kernel's tape sees this layout: ``lstm_forward`` returns (B, T, H)
and (B, H) views, predictions are (B, O), input gradients (B, T, D) and
dropout masks (B, H).

Sequences that share a prefix (the discriminator's real and fake inputs
in training) share its work: ``discriminator_branches`` runs the prefix
once and each last step from its final state, through the starting
state (h0, c0) that ``_recur`` takes and ``_lstm_backward`` returns the
gradient of. It is the discriminator's one forward path, and
``_param_grads`` is every model's one backward path.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import romf
from .errors import InvalidConfig, NonFiniteInput, ShapeMismatch, TapeMismatch
from .optim import FlatParams


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


@dataclass(frozen=True)
class LstmParams:
    """Fused gate weights, each stacking the gates i, f, o, g."""

    W: np.ndarray  # (4H, in)
    U: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def input_dim(self):
        return self.W.shape[1]

    @property
    def hidden_dim(self):
        return self.U.shape[1]


@dataclass(frozen=True)
class DenseParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class _Network:
    """An LSTM and a dense head whose parameters share one flat buffer.

    Construction checks the five blocks' shapes and copies them into a
    buffer of the network's own; ``lstm`` and ``head`` are then new views
    into it, and the given ones are never written."""

    lstm: LstmParams
    head: DenseParams

    def __post_init__(self):
        blocks = {f"{part}.{name}": block for part in ("lstm", "head")
                  for name, block in vars(getattr(self, part)).items()}
        shapes = {key: np.shape(block) for key, block in blocks.items()}
        if not (len(shapes["lstm.W"]) == len(shapes["lstm.U"])
                == len(shapes["head.weight"]) == 2):
            raise ShapeMismatch("'lstm.W', 'lstm.U' and 'head.weight' must "
                                "be 2-D")
        dim, hidden = shapes["lstm.W"][1], shapes["lstm.U"][1]
        out = shapes["head.weight"][0]
        expected = {"lstm.W": (4 * hidden, dim), "lstm.U": (4 * hidden, hidden),
                    "lstm.b": (4 * hidden,), "head.weight": (out, hidden),
                    "head.bias": (out,)}
        for key, shape in expected.items():
            if shapes[key] != shape:
                raise ShapeMismatch(f"{key!r} has shape {shapes[key]}, "
                                    f"expected {shape}")
        self._params = FlatParams.pack(blocks)
        self.flat = self._params.flat
        W, U, b, weight, bias = self._params.values()
        self.lstm, self.head = LstmParams(W, U, b), DenseParams(weight, bias)

    def params(self):
        return self._params

    def astype(self, dtype):
        """A copy of the network with its parameters cast to ``dtype``."""
        lstm, head = (type(part)(*(block.astype(dtype)
                                   for block in vars(part).values()))
                      for part in (self.lstm, self.head))
        return replace(self, lstm=lstm, head=head)


@dataclass
class LstmForecaster(_Network):
    """Single-layer LSTM plus dense output head predicting the next step;
    each prediction is the next input, so the head outputs the LSTM's
    input size."""

    output_activation: str = "sigmoid"
    dropout_rate: float = 0.0
    time_lag: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.output_activation not in ACTIVATIONS:
            raise InvalidConfig(
                f"unknown output activation {self.output_activation!r}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must lie in [0, 1)")
        if self.time_lag < 1:
            raise InvalidConfig("time_lag must be >= 1")
        if self.head.weight.shape[0] != self.lstm.input_dim:
            raise ShapeMismatch(
                f"head.weight has shape {self.head.weight.shape}; a "
                f"forecaster's head outputs its input size "
                f"{self.lstm.input_dim}"
            )


@dataclass
class Discriminator(_Network):
    """Mirrored LSTM scoring a PC sequence as real (1) or predicted (0);
    its head outputs one logit, with the sigmoid fixed."""

    def __post_init__(self):
        super().__post_init__()
        if self.head.weight.shape[0] != 1:
            raise InvalidConfig("discriminator head must output a scalar")


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
    return LstmParams(W, U, b)


def _init_head(output_dim, hidden_dim, rng):
    s = 1.0 / np.sqrt(hidden_dim)
    return DenseParams(
        weight=rng.uniform(-s, s, size=(output_dim, hidden_dim)),
        bias=np.zeros(output_dim),
    )


def init_forecaster(input_dim, hidden_dim, output_activation, dropout_rate,
                    time_lag, rng):
    rng = np.random.default_rng(rng)
    lstm = init_lstm_params(input_dim, hidden_dim, rng)
    return LstmForecaster(lstm, _init_head(input_dim, hidden_dim, rng),
                          output_activation, dropout_rate, time_lag)


def init_discriminator(input_dim, hidden_dim, rng):
    rng = np.random.default_rng(rng)
    lstm = init_lstm_params(input_dim, hidden_dim, rng)
    return Discriminator(lstm=lstm, head=_init_head(1, hidden_dim, rng))


def _check_sequence(sequence, lstm):
    """The (B, T, D) sequence as an array of the LSTM's dtype."""
    input_dim = lstm.input_dim
    seq = np.asarray(sequence, dtype=lstm.W.dtype)
    if seq.ndim != 3 or seq.shape[2] != input_dim or seq.shape[1] < 1:
        raise ShapeMismatch(f"sequence shape {seq.shape} is not (B, T >= 1, "
                            f"{input_dim})")
    if not np.all(np.isfinite(seq)):
        raise NonFiniteInput("sequence contains NaN/Inf")
    return seq


def _recur(lstm, seq, h0=None, c0=None):
    """The one LSTM kernel: the recurrence over a (B, T, D) sequence, for
    training and inference alike.

    It starts from a zero state, or from the state (h0, c0), each
    (H, B), when given: a run then continues one that ended there, as
    the discriminator's last step continues the prefix it shares with
    other sequences. The input projection W @ x_t of all steps is one
    batched matmul; the loop keeps only U @ h_t, which step 0 skips when
    h starts at zero. Gates (T, 4H, B), states (T+1, H, B) and tanh(c)
    (T, H, B) land in preallocated arrays, so the returned tape costs
    nothing extra and inference just drops it.
    """
    batch, steps, dim = seq.shape
    hidden = lstm.hidden_dim
    n3 = 3 * hidden
    dtype = lstm.W.dtype
    x = np.ascontiguousarray(seq.swapaxes(0, 1), dtype=dtype)
    x = x.reshape(steps * batch, dim)
    gates = np.matmul(lstm.W, x.reshape(steps, batch, dim).transpose(0, 2, 1))
    gates += lstm.b[:, None]
    h = np.zeros((steps + 1, hidden, batch), dtype)
    c = np.zeros((steps + 1, hidden, batch), dtype)
    start = h0 is not None
    if start:
        h[0], c[0] = h0, c0
    tc = np.empty((steps, hidden, batch), dtype)
    for t in range(steps):
        a = gates[t]
        if t or start:
            a += lstm.U @ h[t]
        # i, f, o through sigmoid(z) = 0.5 (1 + tanh(z / 2)), g through tanh
        sig = a[:n3]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        np.multiply(a[hidden:2 * hidden], c[t], out=c[t + 1])
        c[t + 1] += a[:hidden] * a[n3:]
        np.tanh(c[t + 1], out=tc[t])
        np.multiply(a[2 * hidden:n3], tc[t], out=h[t + 1])
    return Tape("lstm", params=lstm, x=x, gates=gates, h=h, c=c, tc=tc,
                start=start)


def lstm_forward(params, sequence):
    """Run the standard LSTM recurrence over a (B, T, D) sequence from a
    zero state.

    Returns (hidden states over time, final hidden, tape); the first two
    are (B, T, H) and (B, H) views into the tape.
    """
    tape = _recur(params, _check_sequence(sequence, params))
    return tape.h[1:].transpose(2, 0, 1), tape.h[-1].T, tape


def _lstm_backward(tape, d_h_final, d_c_final=None):
    """Exact BPTT down to the gate pre-activations.

    Starts from dL/d(final h) and, if given, dL/d(final c), each (H, B).
    Returns (dA, dc0): dA = dL/d(gates) as a (4H, T*B) matrix whose
    columns run step by step, like the rows of ``tape.x``, and dc0 =
    dL/dc0 (H, B). The loop writes each step's (4H, B) block of dA in
    place, so no copy reorders it, and keeps only dh = U^T dA_t; the
    rest is one GEMM each afterwards: ``_weight_grads`` for dW, dU and
    db, ``_input_grads`` for the inputs and, for a run that started from
    a given state, U^T dA_0 for dL/dh0.
    """
    lstm = tape.params
    steps, width, batch = tape.gates.shape
    hidden = lstm.hidden_dim
    gates = tape.gates.reshape(steps, 4, hidden, batch)
    i, f, o, g = (gates[:, k] for k in range(4))
    # dL/da of a gate is (dL/dgate) * gate'(a), and dL/dgate is dc * g,
    # dc * c_prev, dh * tanh(c) and dc * i for i, f, o, g: fold all but
    # dc and dh into one factor per step, in place and gate by gate, with
    # tanh' = 1 - g^2 as (1 - g)(1 + g)
    factor = 1.0 - gates
    factor[:, :3] *= gates[:, :3]
    factor[:, 3] *= 1.0 + g
    factor[:, 0] *= g
    factor[:, 1] *= tape.c[:-1]
    factor[:, 2] *= tape.tc
    factor[:, 3] *= i
    dc_dh = o * (1.0 - tape.tc * tape.tc)
    d_cols = np.empty((width, steps * batch), gates.dtype)
    d_steps = d_cols.reshape(4, hidden, steps, batch)
    dh = d_h_final
    dc = d_c_final
    if dc is None:
        dc = np.zeros((hidden, batch), gates.dtype)
    for t in reversed(range(steps)):
        dc = dc + dh * dc_dh[t]
        da = d_steps[:, :, t]
        np.multiply(factor[t], dc, out=da)
        np.multiply(factor[t, 2], dh, out=da[2])
        dc = dc * f[t]
        if t:
            dh = lstm.U.T @ d_cols[:, t * batch:(t + 1) * batch]
    return d_cols, dc


def _weight_grads(tape, d_cols):
    """(dW, dU, db) from the dA of ``_lstm_backward``: one GEMM each, with
    db as dA times a column of ones."""
    hidden, batch = tape.h.shape[1:]
    if tape.start:
        h_prev, d_cols_u = tape.h[:-1], d_cols
    else:
        # h is zero before step 0, so step 0 adds nothing to dU
        h_prev, d_cols_u = tape.h[1:-1], d_cols[:, batch:]
    # h as rows, one per (step, sequence) like tape.x: BLAS takes the
    # plain product faster than one against a transposed operand
    h_rows = np.ascontiguousarray(h_prev.transpose(0, 2, 1))
    dU = d_cols_u @ h_rows.reshape(-1, hidden)
    ones = np.ones(d_cols.shape[1], d_cols.dtype)
    return d_cols @ tape.x, dU, d_cols @ ones


def _input_grads(tape, d_cols):
    """dL/d(sequence), (B, T, D), from the dA of ``_lstm_backward``."""
    steps, _, batch = tape.gates.shape
    return (d_cols.T @ tape.params.W).reshape(steps, batch, -1).swapaxes(0, 1)


def _flat_grads(head_tape, d_ylin, segments):
    """A model's gradients in the layout of ``model.params()``: the
    head's, from dL/d(logits) ``d_ylin``, and the LSTM's, summed over the
    (tape, dA) pairs in ``segments``."""
    dW, dU, db = _weight_grads(*segments[0])
    for segment in segments[1:]:
        for total, more in zip((dW, dU, db), _weight_grads(*segment)):
            total += more
    model = head_tape.model
    flat = np.concatenate([
        dW.ravel(), dU.ravel(), db,
        (d_ylin.T @ head_tape.h.T).ravel(), d_ylin.sum(axis=0),
    ])
    return FlatParams(flat, model.params().layout)


def _head(model, lstm_tape, activation, mask=None, prefix=None):
    """The dense head on the final hidden state (times the dropout mask,
    if any); returns (output, tape). The head runs on the kernel's
    (H, B) state, and the output is (B, O). ``prefix`` is the tape of
    the shared run that ``lstm_tape`` continues, if any."""
    h = lstm_tape.h[-1] if mask is None else lstm_tape.h[-1] * mask.T
    y_lin = (model.head.weight @ h).T + model.head.bias
    pred = ACTIVATIONS[activation](y_lin)
    return pred, Tape("head", model=model, lstm_tape=lstm_tape,
                      prefix=prefix, h=h, mask=mask, y_lin=y_lin, pred=pred,
                      activation=activation)


def _head_backward(tape, d_pred):
    """dL/d(logits), (B, O), and dL/d(final h), (H, B), from
    dL/dprediction through the head and the dropout mask, if any."""
    if tape.kind != "head":
        raise TapeMismatch(f"backward needs a model's tape, not {tape.kind!r}")
    d_pred = np.asarray(d_pred, dtype=tape.pred.dtype)
    if d_pred.shape != tape.pred.shape:
        raise TapeMismatch(
            f"upstream shape {d_pred.shape} != prediction shape "
            f"{tape.pred.shape}"
        )
    d_ylin = d_pred * _activation_deriv(tape)
    d_h = tape.model.head.weight.T @ d_ylin.T
    if tape.mask is not None:
        d_h *= tape.mask.T
    return d_ylin, d_h


def _activation_deriv(tape):
    if tape.activation == "relu":
        return (tape.y_lin > 0).astype(tape.y_lin.dtype)
    if tape.activation == "sigmoid":
        return tape.pred * (1.0 - tape.pred)
    return np.ones_like(tape.y_lin)


def forecaster_forward(model, windows):
    """Predict the next PC vector from each window of a (B, N, tau)
    batch, in inference mode; returns (prediction, tape)."""
    _, _, lstm_tape = lstm_forward(model.lstm, windows)
    steps = lstm_tape.gates.shape[0]
    if steps != model.time_lag:
        raise ShapeMismatch(
            f"window has {steps} rows, model expects {model.time_lag}"
        )
    return _head(model, lstm_tape, model.output_activation)


def forecaster_head(model, lstm_tape, training_mode=False, rng=None):
    """The head on the tape of an LSTM pass that ``lstm_forward``
    recorded; returns (prediction, tape). The one place dropout applies:
    inverted, on the final hidden state, when ``training_mode`` is set
    and the rate is nonzero, with the mask drawn from ``rng``.

    Heads on one pass share its LSTM work: adversarial training takes
    the fake batch without dropout and the generator step with it from
    the same pass.
    """
    mask = None
    if training_mode and model.dropout_rate > 0.0:
        if rng is None:
            raise InvalidConfig("dropout in training mode needs an rng")
        keep = 1.0 - model.dropout_rate
        hidden, batch = lstm_tape.h.shape[1:]
        kept = rng.random((batch, hidden)) >= model.dropout_rate
        mask = kept.astype(model.flat.dtype) / keep
    return _head(model, lstm_tape, model.output_activation, mask)


def forecaster_step(model, windows):
    """Tape-free inference: predictions (B, tau) for a (B, N, tau) window
    batch, or (tau,) for one N x tau window.

    Runs the kernel and head of ``forecaster_forward``, so outputs are
    bit-identical, and drops the tape; it skips input validation, which
    is what makes autoregressive rollouts cheap.
    """
    if windows.ndim == 2:
        return forecaster_step(model, windows[None])[0]
    pred, _ = _head(model, _recur(model.lstm, windows), model.output_activation)
    return pred


def discriminator_forward(disc, sequence):
    """Score (B, T, D) sequences; returns probabilities (B,) and the tape.

    Each sequence's last step is the one candidate of
    ``discriminator_branches``, scored from the state its first T - 1
    steps leave.
    """
    seq = _check_sequence(sequence, disc.lstm)
    prob, tape = discriminator_branches(disc, seq[:, :-1], seq[None, :, -1])
    return prob[0], tape


def discriminator_branches(disc, prefix, candidates):
    """Score each sequence [prefix, candidate] for k candidate batches
    that share one prefix; returns probabilities (k, B) and the tape.

    This is the discriminator's one forward path. ``prefix`` is
    (B, N, D) with N >= 0 and ``candidates`` is (k, B, D). The prefix
    runs once from a zero state; the last step then runs for all k*B
    sequences from its final (h, c). With N = 0 the candidates are
    scored alone, from a zero state.
    """
    if not (np.isfinite(prefix).all() and np.isfinite(candidates).all()):
        raise NonFiniteInput("discriminator input contains NaN/Inf")
    k, batch, dim = candidates.shape
    pre = h0 = c0 = None
    if prefix.shape[1]:
        pre = _recur(disc.lstm, prefix)
        h0 = np.concatenate([pre.h[-1]] * k, axis=1)
        c0 = np.concatenate([pre.c[-1]] * k, axis=1)
    last = _recur(disc.lstm, candidates.reshape(k * batch, 1, dim), h0, c0)
    prob, tape = _head(disc, last, "sigmoid", prefix=pre)
    return prob.reshape(k, batch), tape


def candidate_grad(tape, d_prob):
    """dL/d(candidates), (k, B, D), of a ``discriminator_branches`` tape.

    A candidate enters only the last segment, so this is that segment's
    input gradient: nothing runs through the prefix, and no weight
    gradient is formed.
    """
    _, d_h = _head_backward(tape, d_prob.reshape(-1, 1))
    d_cols, _ = _lstm_backward(tape.lstm_tape, d_h)
    return _input_grads(tape.lstm_tape, d_cols).reshape(*d_prob.shape, -1)


def backward(tape, upstream):
    """Exact gradients of the recorded computation: the one backward
    path, ``_param_grads``, plus the input gradient.

    ``tape`` comes from ``forecaster_forward``, ``forecaster_head`` or
    ``discriminator_forward`` and ``upstream`` is dL/dprediction; returns
    (param grads laid out like ``model.params()``, input grads (B, T, D)),
    the segments' input grads joined in time.
    """
    grads, segments = _param_grads(tape, upstream)
    d_seq = np.concatenate([_input_grads(*seg) for seg in segments], axis=1)
    return grads, d_seq


def _param_grads(tape, d_pred):
    """The one backward path, for forecaster, discriminator and branch
    tapes alike. Returns (param grads laid out like ``model.params()``,
    the (segment tape, dA) pairs in time order); no input gradient is
    formed.

    When the tape's run continues a shared prefix, the k branches' dh
    and dc at its end add up, and the prefix is back-propagated once.
    """
    d_ylin, d_h = _head_backward(tape, d_pred)
    last = tape.lstm_tape
    d_cols, dc0 = _lstm_backward(last, d_h)
    segments = [(last, d_cols)]
    pre = tape.prefix
    if pre is not None:
        hidden, batch = pre.h.shape[1:]
        dh = (last.params.U.T @ d_cols).reshape(hidden, -1, batch).sum(axis=1)
        dc = dc0.reshape(hidden, -1, batch).sum(axis=1)
        pre_cols, _ = _lstm_backward(pre, d_h_final=dh, d_c_final=dc)
        segments.insert(0, (pre, pre_cols))
    return _flat_grads(tape, d_ylin, segments), segments


# the type of each value in a model's metadata record, checked on load
_META = {"kind": str, "seed": (int, type(None))}
_FORECASTER_META = {"output_activation": str, "dropout_rate": (int, float),
                    "time_lag": int}


def save_model(path, model, seed=None):
    """Persist weights, plus what their shapes cannot tell, in one ROMF file."""
    meta = {"kind": "discriminator", "seed": seed}
    if isinstance(model, LstmForecaster):
        meta.update(kind="forecaster",
                    output_activation=model.output_activation,
                    dropout_rate=model.dropout_rate, time_lag=model.time_lag)
    romf.write_arrays(path, model.params(), meta)


def load_model(path):
    """Load a model saved by ``save_model``; returns (model, meta, {}).

    A model file holds no arrays beyond the model's; the empty third item
    keeps the 3-tuple that callers unpack."""
    arrays, meta = romf.read_arrays(path)
    romf.require(arrays, ["lstm.W", "lstm.U", "lstm.b", "head.weight",
                          "head.bias"], path)
    romf.require(meta, _META, path, "meta key")
    if meta["kind"] == "forecaster":
        romf.require(meta, _FORECASTER_META, path, "meta key")
    elif meta["kind"] != "discriminator":
        raise romf.FormatError(f"{path}: unknown model kind {meta['kind']!r}")
    with romf.building(path):
        lstm = LstmParams(arrays["lstm.W"], arrays["lstm.U"], arrays["lstm.b"])
        head = DenseParams(arrays["head.weight"], arrays["head.bias"])
        if meta["kind"] == "discriminator":
            return Discriminator(lstm, head), meta, {}
        settings = {key: meta[key] for key in _FORECASTER_META}
        return LstmForecaster(lstm, head, **settings), meta, {}
