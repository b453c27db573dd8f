"""From-scratch differentiable primitives: LSTM, dense head, dropout, BPTT.

Forward passes record a tape of intermediates, an ``LstmTape`` per
kernel run and a ``HeadTape`` per head; ``backward`` replays them in
reverse for exact gradients. Every input is batched on the leading
axis: sequences are (B, T, D); only ``forecaster_step`` also takes one
(T, D) window.

Dtype. A model computes in the dtype of its parameter buffer: every
array a forward or backward pass allocates, the dropout mask and the
gradient buffer take it, and inputs are cast to it. ``model.astype``
makes a copy in another dtype, by one cast of the buffer. Float32 runs
elementwise passes and GEMMs several times faster, so training works on
float32 copies and ``forecast._roll`` rolls every forecast out on a
float32 ``stack`` of one or more models: a batch of 50 to 141 windows,
as ``bench`` and ``evaluate`` roll, steps about twice as fast and one
window about as fast, and over 50 steps the scaled predictions of desk
models stay within about 1e-7 of float64's.
Training hands out every model widened back to float64, which is exact,
and ``save_model`` stores those float32 values as float32 records;
``load_model`` widens them again. So a loaded model is float64, and
``forecaster_forward``, ``forecaster_step`` and validation on it compute
in float64: a reported validation MSE is recomputed from the saved model
to 1e-12.

Layout (fused gates, as in cuDNN). An LSTM keeps W (4H x D), U (4H x H)
and b (4H), each stacking its gates in the order i, f, o, g. A model
keeps all its parameters in one buffer, ``model.flat``, in the
order W, U, b, head.weight, head.bias; ``model.params()`` maps the keys
``lstm.W``, ``lstm.U``, ``lstm.b``, ``head.weight`` and ``head.bias`` to
views into it, and a saved model stores these five blocks under the same
keys. Gradients come back in the same layout, so Nadam and clipping act
on the whole buffer at once. A ``ForecasterStack`` (``stack``) holds M
forecasters of one ``layout`` (input size, hidden size, lag and head
activation) side by side in the batch columns, for batches of B
windows: W (M, 4H, D), U (M, 4H, H) and the head's weight (M, D, H)
hold each model's float32 block in order, and the biases are broadcast
to their model's columns, b (4H, M*B) and the head's (D, M*B), with
model m in columns m*B ... (m+1)*B. It is for inference only; no tape
of it is replayed, so it keeps its step arrays and reuses them.

Construction alone checks a network's shapes (``ShapeMismatch``) and
that its weights are finite (``NonFiniteInput``), and copies the blocks
it is given into its own buffer, never writing them.
Dropout has one entry point, ``forecaster_head`` given an rng (training
mode); ``forecaster_forward`` and ``forecaster_step`` are inference.

One kernel, ``_recur``, runs every LSTM pass, for training and
inference alike. Its activations are gate-major, as cuDNN lays them out
(Appleyard et al. 2016, arXiv:1604.01946): the gates of a run are
(T, 4H, B) and each step's h, c and tanh(c) are (H, B), so each gate of
a step is one contiguous block of rows. A step's input projection is
W @ x_t and its recurrence U @ h_t. Nearly all of a step's work is
elementwise passes over the gates, which on batch-major (B, 4H) rows
would each stride over a column block; here each is one contiguous
pass. A stack runs through the same code in the column layout: its
gates are (T, 4H, M*B) and its states (H, M*B), exactly one network's
at batch M*B, so every elementwise pass of a step covers all M models
in one contiguous pass. Each of its three products is one batched
matmul of M GEMMs, each the model's own, which writes model m's result
into its columns through an (M, rows, B) view of the (rows, M*B) array:
BLAS's output row stride places it, and nothing is laid out again. No
arithmetic mixes models, so each model's outputs are bit for bit what
it gives alone; a forecast step costs about 25 numpy calls on small
blocks, whatever the batch, and a stack pays them once for M models, as
cuDNN runs independent small recurrences in fewer, larger calls. A
network's step arrays are fresh each step, and the tape only keeps
references to what the run computes anyway, so inference pays for no
copy that only backward needs; a stack's step overwrites the arrays it
owns, so a stack is not shared between threads. Backward stacks the
states and hands on dL/d(gates) as one (4H, T*B) matrix, from which dW,
dU and the input gradient are one GEMM each. Only the kernel's tape sees
this layout: ``lstm_forward`` returns (B, T, H) and (B, H) arrays,
predictions are (B, O), input gradients (B, T, D) and dropout masks
(B, H); a stacked step returns (M, B, O).

Sequences that share a prefix (the discriminator's real and fake inputs
in training) share its work: ``discriminator_branches`` runs the prefix
once and each last step from its final state, through the starting
state (h0, c0) that ``_recur`` takes and ``_lstm_backward`` returns the
gradient of. It is the discriminator's path in training, which the
tests hold to ``discriminator_forward``'s whole-sequence run;
``_param_grads`` is every model's one backward path.

The discriminator's head is linear: it emits a logit, and the sigmoid
lives in the loss (``optim.bce``). Its backward hands dL/d(logit)
straight to the head's weights and the LSTM, with no activation factor.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import romf
from .errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    ShapeMismatch,
    TapeMismatch,
)
from .optim import FlatParams


def sigmoid(x, out=None):
    """Logistic function as 0.5 (1 + tanh(x / 2)), which cannot overflow;
    into ``out`` when given, which may be ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


ACTIVATIONS = {
    "relu": relu,
    "sigmoid": sigmoid,
    "linear": lambda x, out=None: x,
}


@dataclass(frozen=True)
class LstmParams:
    """Fused gate weights, each stacking the gates i, f, o, g."""

    W: np.ndarray  # (4H, in)
    U: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def input_dim(self):
        return self.W.shape[-1]

    @property
    def hidden_dim(self):
        return self.U.shape[-1]


@dataclass(frozen=True)
class DenseParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class _Network:
    """An LSTM and a dense head whose parameters share one flat buffer.

    Construction checks the five blocks' shapes and that they are finite
    (``NonFiniteInput``), and copies them into a buffer of the network's
    own; ``lstm`` and ``head`` are then new views into it, and the given
    ones are never written."""

    lstm: LstmParams
    head: DenseParams
    steps = None  # a class constant: a network owns no step arrays

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
            if not np.isfinite(blocks[key]).all():
                raise NonFiniteInput(f"{key!r} holds NaN/Inf")
        self._lay(FlatParams.pack(blocks))

    def _lay(self, params):
        """Take ``params`` as the buffer, and ``lstm`` and ``head`` as
        views into it."""
        self._params, self.flat = params, params.flat
        W, U, b, weight, bias = params.values()
        self.lstm, self.head = LstmParams(W, U, b), DenseParams(weight, bias)

    def params(self):
        return self._params

    def astype(self, dtype):
        """A copy of the network with its parameters cast to ``dtype``:
        one cast of the buffer, with the views laid over it again; the
        shapes and settings are this network's, so nothing is rechecked
        but the cast. A weight that it takes past ``dtype``'s range is a
        NonFiniteInput naming its block; one that is NaN or Inf already
        (written after construction) stays so."""
        with np.errstate(over="ignore"):
            flat = self.flat.astype(dtype)
        params = FlatParams(flat, self._params.layout)
        if not np.isfinite(flat).all():
            for key, block in params.items():
                if np.any(np.isinf(block) & np.isfinite(self._params[key])):
                    raise NonFiniteInput(
                        f"{key!r} holds a weight past {flat.dtype.name}'s "
                        f"range (largest {np.finfo(flat.dtype).max:.3g})")
        net = copy.copy(self)
        net._lay(params)
        return net


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
    its linear head outputs one logit, whose sigmoid is the probability
    that the sequence is real."""

    output_activation = "linear"  # a class constant, not a field

    def __post_init__(self):
        super().__post_init__()
        if self.head.weight.shape[0] != 1:
            raise InvalidConfig("discriminator head must output a scalar")


def layout(model):
    """What forecasters must share to run as one ``ForecasterStack``:
    input size, hidden size, lag and head activation."""
    return (model.lstm.input_dim, model.lstm.hidden_dim, model.time_lag,
            model.output_activation)


class _StackSteps:
    """A stack's step arrays, in the column layout: each is (rows, M*B),
    with model m in columns m*B ... (m+1)*B. ``gates`` (N, 4H, M*B) holds
    a step's gates, ``product`` U @ h, ``c``, ``tc`` and ``h`` the state,
    and ``pred`` (D, M*B) the head's output. Each ``*_m`` is an
    (M, rows, B) view of its array, model m's columns as its own block
    with a row stride of M*B: a batched matmul that writes into one
    through ``out=`` puts each model's GEMM into its own columns by
    BLAS's output row stride, so nothing is laid out again. ``preds`` is
    the (M, B, D) view of ``pred`` that a stacked step returns, and
    ``rows`` the ``_gate_rows`` of the gates.

    All are made once, with the stack, and every step overwrites the
    arrays; no stacked tape is replayed, so none is kept. On a one-window
    step, making the five row slices costs about 1% of the step."""

    __slots__ = ("gates", "gates_m", "product", "product_m", "c", "tc", "h",
                 "h_m", "pred", "pred_m", "preds", "rows")

    def __init__(self, models, batch, lag, hidden, dim):
        def block(*rows):
            cols = np.empty((*rows, models * batch), np.float32)
            return cols, cols.reshape(*rows, models, batch).swapaxes(-3, -2)

        self.gates, self.gates_m = block(lag, 4 * hidden)
        self.product, self.product_m = block(4 * hidden)
        self.h, self.h_m = block(hidden)
        self.c, _ = block(hidden)
        self.tc, _ = block(hidden)
        self.pred, self.pred_m = block(dim)
        self.preds = self.pred_m.swapaxes(1, 2)
        self.rows = _gate_rows(hidden)


@dataclass(frozen=True, eq=False)
class ForecasterStack:
    """M forecasters of one ``layout`` side by side in the batch columns,
    for batches of ``batch`` windows (see ``stack``): a stacked step is
    exactly one network's step at batch M*B, with model m in columns
    m*B ... (m+1)*B of each (rows, M*B) array.

    ``lstm`` holds W (M, 4H, D), U (M, 4H, H) and b (4H, M*B), and
    ``head`` weight (M, D, H) and bias (D, M*B): each model's float32
    blocks, with both biases broadcast to their model's columns, so that
    each bias add is one contiguous pass over all M models. ``steps``
    holds the step arrays that every step of the stack overwrites
    (``_StackSteps``); so a stack is not shared between threads, and
    what a stacked step returns is a view that holds until the stack's
    next step. ``models`` are the forecasters stacked, in order, as they
    were given."""

    models: tuple
    lstm: LstmParams
    head: DenseParams
    steps: _StackSteps

    @property
    def output_activation(self):
        return self.models[0].output_activation

    @property
    def batch(self):
        return self.lstm.b.shape[-1] // len(self.models)


def stack(models, batch):
    """The forecasters ``models``, which must share one ``layout``
    (``ShapeMismatch`` otherwise; ``EmptyInput`` for none), as a
    ForecasterStack for batches of ``batch`` windows. Their weights are
    narrowed to float32 once; a weight that this takes past float32's
    range is a NonFiniteInput naming its block, as ``astype`` names it,
    and one that is NaN or Inf already stays so."""
    models = tuple(models)
    if not models:
        raise EmptyInput("no forecasters to stack")
    layouts = {layout(model) for model in models}
    if len(layouts) != 1:
        raise ShapeMismatch(f"forecasters of layouts {sorted(layouts)} "
                            f"(input, hidden, lag, activation) do not stack")
    # one cast of the M buffers, into one copy; each block is then a view
    # of its columns
    with np.errstate(over="ignore"):
        flat = np.array([model.flat for model in models], np.float32)
    if not np.isfinite(flat).all():
        for model in models:
            model.astype(np.float32)  # names a block taken past the range
    W, U, b, weight, bias = (
        flat[:, offset:offset + math.prod(shape)].reshape(-1, *shape)
        for offset, shape in models[0].params().layout.values())
    # (M, rows) -> (rows, M*B): model m's bias in columns m*B ... (m+1)*B
    b, bias = (np.repeat(block.T, batch, axis=1) for block in (b, bias))
    dim, hidden, lag, _ = layouts.pop()
    return ForecasterStack(models, LstmParams(W, U, b),
                           DenseParams(weight, bias),
                           _StackSteps(len(models), batch, lag, hidden, dim))


@dataclass(slots=True, eq=False)
class LstmTape:
    """One run of the kernel, as backward reads it.

    ``seq`` is the (B, T, D) input, ``gates`` the activated gates
    (T, 4H, B). ``h`` and ``c`` list the T + 1 states and ``tc`` the T
    values of tanh(c), each one step's (H, B) array; ``h[0]`` and ``c[0]``
    are None for a run from the zero state."""

    params: LstmParams
    seq: np.ndarray
    gates: np.ndarray
    h: list
    c: list
    tc: list

    @property
    def start(self):
        """Whether the run continued from a given state (h0, c0)."""
        return self.h[0] is not None


@dataclass(slots=True, eq=False)
class HeadTape:
    """A head on a kernel run: ``h`` is the final hidden state (H, B)
    times the dropout ``mask`` (B, H), if any, and ``pred`` the output
    (B, O). ``prefix`` is the tape of the shared run that ``lstm_tape``
    continues, if any."""

    model: _Network
    lstm_tape: LstmTape
    prefix: LstmTape
    h: np.ndarray
    mask: np.ndarray
    pred: np.ndarray


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


def _gate_rows(hidden):
    """The rows of the gates i, f, o and g, and of i, f, o together, in a
    step's (4H, B) gates or a stack's (4H, M*B): plain row slices, which
    a network's run makes and a stack keeps."""
    return (slice(0, hidden), slice(hidden, 2 * hidden),
            slice(2 * hidden, 3 * hidden), slice(3 * hidden, 4 * hidden),
            slice(0, 3 * hidden))


def _recur(lstm, seq, h0=None, c0=None, steps=None):
    """The one LSTM kernel: the recurrence over a (B, T, D) sequence, for
    training and inference alike, or over a stack's (M, B, T, D)
    sequences, with its (M, ...) blocks and its ``steps``.

    It starts from a zero state, or from the state (h0, c0), each
    (H, B), when given: a run then continues one that ended there, as
    the discriminator's last step continues the prefix it shares with
    other sequences. The input projection W @ x_t of all steps is one
    batched matmul on a (T, D, B) view of the sequence, which may be any
    strided (B, T, D) array, such as a window of a rollout's buffer. The
    loop keeps U @ h_t and f c_t, which step 0 skips from a zero state:
    c_1 = i g there. A network's c, tanh(c) and h are fresh (H, B)
    arrays each step that the tape lists, so recording costs a list
    append, and inference runs this kernel as training does and drops
    the tape. A stack's gates and states are (rows, M*B) and the same
    steps run on them: its two products write each model's GEMMs into
    that model's columns, and every step overwrites its ``steps``. A
    stack's run starts from the zero state.
    """
    hidden = lstm.hidden_dim
    seq = np.asarray(seq, dtype=lstm.W.dtype)
    if steps is None:
        # (B, T, D) -> (T, D, B)
        gates = np.matmul(lstm.W, seq.transpose(1, 2, 0))
        gates += lstm.b[:, None]
        c_out = tc_out = h_out = None
        i, f, o, g, ifo = _gate_rows(hidden)
    else:
        # (M, B, T, D) -> (T, M, D, B), into (T, M, 4H, B) column blocks
        gates = steps.gates
        np.matmul(lstm.W, seq.transpose(2, 0, 3, 1), out=steps.gates_m)
        gates += lstm.b
        c_out, tc_out, h_out = steps.c, steps.tc, steps.h
        i, f, o, g, ifo = steps.rows
    h, c, tc = [h0], [c0], []
    for a in gates:
        c_t = c[-1]  # None for the zero state
        if c_t is not None:
            if steps is None:
                a += lstm.U @ h[-1]
            else:
                np.matmul(lstm.U, steps.h_m, out=steps.product_m)
                a += steps.product
        # i, f, o through sigmoid(z) = 0.5 (1 + tanh(z / 2)), g through tanh
        sig = a[ifo]
        sig *= 0.5
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        if c_t is None:
            c_t = np.multiply(a[i], a[g], out=c_out)
        else:
            c_t = np.multiply(a[f], c_t, out=c_out)
            # a stack's tc holds i g until tanh(c) overwrites it
            c_t += np.multiply(a[i], a[g], out=tc_out)
        tc_t = np.tanh(c_t, out=tc_out)
        h.append(np.multiply(a[o], tc_t, out=h_out))
        c.append(c_t)
        tc.append(tc_t)
    return LstmTape(lstm, seq, gates, h, c, tc)


def lstm_forward(params, sequence):
    """Run the standard LSTM recurrence over a (B, T, D) sequence from a
    zero state.

    Returns (hidden states over time, final hidden, tape); the first is
    a (B, T, H) array and the second a (B, H) view into the tape.
    """
    tape = _recur(params, _check_sequence(sequence, params))
    return np.array(tape.h[1:]).transpose(2, 0, 1), tape.h[-1].T, tape


def _lstm_backward(tape, d_h_final, d_c_final=None):
    """Exact BPTT down to the gate pre-activations.

    Starts from dL/d(final h) and, if given, dL/d(final c), each (H, B).
    Returns (dA, dc0): dA = dL/d(gates) as a (4H, T*B) matrix whose
    columns run step by step, like the input rows of ``_weight_grads``,
    and dc0 = dL/dc0 (H, B) for a run that started from a given state, or
    None for one from a zero state, whose c0 is no input. The loop writes
    each step's (4H, B) block of dA in place, so no copy reorders it, and
    keeps only dh = U^T dA_t; the rest is one GEMM each afterwards:
    ``_weight_grads`` for dW, dU and db, ``_input_grads`` for the inputs
    and, for a run that started from a given state, U^T dA_0 for
    dL/dh0.
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
    tc = np.array(tape.tc)
    factor = 1.0 - gates
    factor[:, :3] *= gates[:, :3]
    factor[:, 3] *= 1.0 + g
    factor[:, 0] *= g
    for t, c_prev in enumerate(tape.c[:-1]):
        # None is the zero state's c_0
        factor[t, 1] *= 0.0 if c_prev is None else c_prev
    factor[:, 2] *= tc
    factor[:, 3] *= i
    dc_dh = o * (1.0 - tc * tc)
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
        if t:
            dc = dc * f[t]
            dh = lstm.U.T @ d_cols[:, t * batch:(t + 1) * batch]
    return d_cols, dc * f[0] if tape.start else None


def _weight_grads(tape, d_cols):
    """(dW, dU, db) from the dA of ``_lstm_backward``: one GEMM each, with
    db as dA times a column of ones. Only training runs this, so the
    contiguous input rows that the dW GEMM takes are made here."""
    # inputs and states as rows, one per (step, sequence): BLAS takes the
    # plain product faster than one against a transposed operand
    seq = tape.seq
    x_rows = np.ascontiguousarray(seq.swapaxes(0, 1)).reshape(-1, seq.shape[2])
    # h is zero before step 0 of a run from the zero state, so that step
    # adds nothing to dU
    h_prev = tape.h[:-1] if tape.start else tape.h[1:-1]
    if h_prev:
        hidden = tape.params.hidden_dim
        h_rows = np.array([h.T for h in h_prev]).reshape(-1, hidden)
        dU = d_cols[:, -len(h_rows):] @ h_rows
    else:
        dU = np.zeros_like(tape.params.U)
    ones = np.ones(d_cols.shape[1], d_cols.dtype)
    return d_cols @ x_rows, dU, d_cols @ ones


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


def _head(model, lstm_tape, mask=None, prefix=None):
    """The dense head and ``model.output_activation`` on the final hidden
    state (times the dropout mask, if any); returns (output, tape), the
    output (B, O) from the kernel's (H, B) state. ``prefix`` is the tape
    of the shared run that ``lstm_tape`` continues, if any. A stack's
    head writes each model's GEMM into its columns of ``steps.pred``, and
    its output is the (M, B, O) view ``steps.preds``.

    The bias and the activation apply in place, on the GEMM's result
    (``block``, whose transpose or view is the output), so the logits are
    not kept: backward needs only the output.
    """
    h = lstm_tape.h[-1] if mask is None else lstm_tape.h[-1] * mask.T
    steps = model.steps
    if steps is None:
        pred = block = (model.head.weight @ h).swapaxes(-1, -2)
    else:
        np.matmul(model.head.weight, steps.h_m, out=steps.pred_m)
        pred, block = steps.preds, steps.pred
    block += model.head.bias
    ACTIVATIONS[model.output_activation](block, out=block)
    return pred, HeadTape(model, lstm_tape, prefix, h, mask, pred)


def _head_backward(tape, d_pred):
    """dL/d(logits), (B, O), and dL/d(final h), (H, B), from
    dL/dprediction through the head and the dropout mask, if any. A
    linear head's prediction is its logits, so dL/dprediction passes
    straight through."""
    if not isinstance(tape, HeadTape):
        raise TapeMismatch(f"backward needs a model's tape, not "
                           f"{type(tape).__name__}")
    d_pred = np.asarray(d_pred, dtype=tape.pred.dtype)
    if d_pred.shape != tape.pred.shape:
        raise TapeMismatch(
            f"upstream shape {d_pred.shape} != prediction shape "
            f"{tape.pred.shape}"
        )
    d_ylin = d_pred
    if tape.model.output_activation != "linear":
        d_ylin = d_pred * _activation_deriv(tape)
    d_h = tape.model.head.weight.T @ d_ylin.T
    if tape.mask is not None:
        d_h *= tape.mask.T
    return d_ylin, d_h


def _activation_deriv(tape):
    """d(prediction)/d(logits) of a relu or sigmoid head, from the
    prediction: relu(y) > 0 exactly where y > 0."""
    if tape.model.output_activation == "relu":
        return (tape.pred > 0).astype(tape.pred.dtype)
    return tape.pred * (1.0 - tape.pred)


def forecaster_forward(model, windows):
    """Predict the next PC vector from each window of a (B, N, tau)
    batch, in inference mode; returns (prediction, tape)."""
    _, _, lstm_tape = lstm_forward(model.lstm, windows)
    steps = lstm_tape.gates.shape[0]
    if steps != model.time_lag:
        raise ShapeMismatch(
            f"window has {steps} rows, model expects {model.time_lag}"
        )
    return _head(model, lstm_tape)


def forecaster_head(model, lstm_tape, rng=None):
    """The head on the tape of an LSTM pass that ``lstm_forward``
    recorded; returns (prediction, tape). The one place dropout applies:
    inverted, on the final hidden state, when an ``rng`` is given
    (training mode) and the rate is nonzero, with the mask drawn from it.

    Heads on one pass share its LSTM work: adversarial training takes
    the fake batch without dropout and the generator step with it from
    the same pass.
    """
    mask = None
    if rng is not None and model.dropout_rate > 0.0:
        keep = 1.0 - model.dropout_rate
        hidden, batch = lstm_tape.h[-1].shape
        kept = rng.random((batch, hidden)) >= model.dropout_rate
        mask = kept.astype(model.flat.dtype) / keep
    return _head(model, lstm_tape, mask)


def forecaster_step(model, windows):
    """Inference: predictions (B, tau) for a (B, N, tau) window batch, or
    (tau,) for one N x tau window; for a ``ForecasterStack``, (M, B, tau)
    for its (M, B, N, tau) windows, as a view of the stack's step arrays
    that holds until its next step.

    Runs the kernel and head of ``forecaster_forward``, so outputs are
    bit-identical, and drops their tapes. It skips input validation, and
    takes windows of any strides, such as views into a rollout's buffer;
    it never writes them.
    """
    if windows.ndim == 2:
        return forecaster_step(model, windows[None])[0]
    return _head(model, _recur(model.lstm, windows, steps=model.steps))[0]


def discriminator_forward(disc, sequence):
    """Score (B, T, D) sequences, each as one run from a zero state;
    returns logits (B,) and the tape. Training scores through
    ``discriminator_branches``, which the tests hold to this."""
    lstm_tape = _recur(disc.lstm, _check_sequence(sequence, disc.lstm))
    logits, tape = _head(disc, lstm_tape)
    return logits[:, 0], tape


def discriminator_branches(disc, prefix, candidates):
    """Score each sequence [prefix, candidate] for k candidate batches
    that share one prefix; returns logits (k, B) and the tape.

    This is the discriminator's path in training. ``prefix`` is
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
    logits, tape = _head(disc, last, prefix=pre)
    return logits.reshape(k, batch), tape


def candidate_grad(tape, d_logits):
    """dL/d(candidates), (k, B, D), of a ``discriminator_branches`` tape,
    from dL/d(logits) (k, B).

    A candidate enters only the last segment, so this is that segment's
    input gradient: nothing runs through the prefix, and no weight
    gradient is formed.
    """
    _, d_h = _head_backward(tape, d_logits.reshape(-1, 1))
    d_cols, _ = _lstm_backward(tape.lstm_tape, d_h)
    return _input_grads(tape.lstm_tape, d_cols).reshape(*d_logits.shape, -1)


def backward(tape, upstream):
    """Exact gradients of the recorded computation: the one backward
    path, ``_param_grads``, plus the input gradient.

    ``tape`` comes from ``forecaster_forward``, ``forecaster_head`` or
    ``discriminator_forward`` and ``upstream`` is dL/dprediction (for the
    discriminator, dL/d(logits)); returns (param grads laid out like
    ``model.params()``, input grads (B, T, D)), the segments' input grads
    joined in time.
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
        hidden, batch = pre.h[-1].shape
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
    """Persist a forecaster's weights, plus what their shapes cannot
    tell, in one ROMF file: as float32 records when every weight is a
    float32 value, as a trained model's are, which halves the file, and
    as float64 records otherwise. ``load_model`` gives back the same
    float64 model either way."""
    with np.errstate(over="ignore"):
        exact = np.array_equal(model.flat.astype(np.float32), model.flat)
    romf.write_arrays(path, model.params(), {
        "kind": "forecaster", "seed": seed,
        "output_activation": model.output_activation,
        "dropout_rate": model.dropout_rate, "time_lag": model.time_lag},
        romf.DTYPE_F32 if exact else romf.DTYPE_F64)


def load_model(path):
    """Load a forecaster saved by ``save_model``; returns (model, meta, {}),
    the model float64, widened exactly from float32 records.

    A file of another kind, such as a discriminator, is a FormatError. A
    model file holds no arrays beyond the model's; the empty third item
    keeps the 3-tuple that callers unpack."""
    arrays, meta = romf.read_arrays(path)
    romf.require(arrays, ["lstm.W", "lstm.U", "lstm.b", "head.weight",
                          "head.bias"], path)
    romf.require(meta, _META, path, "meta key")
    if meta["kind"] != "forecaster":
        raise romf.FormatError(f"{path}: a {meta['kind']}, not a forecaster "
                               f"(kind {meta['kind']!r})")
    romf.require(meta, _FORECASTER_META, path, "meta key")
    with romf.building(path):
        lstm = LstmParams(arrays["lstm.W"], arrays["lstm.U"], arrays["lstm.b"])
        head = DenseParams(arrays["head.weight"], arrays["head.bias"])
        settings = {key: meta[key] for key in _FORECASTER_META}
        return LstmForecaster(lstm, head, **settings), meta, {}
