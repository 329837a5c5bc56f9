"""Softmax policy network over a flat parameter vector.

Tanh hidden layers feeding a linear softmax head. Gradients of log action
probabilities are computed analytically by reverse accumulation so that the
training loop needs no autodiff framework, from the forward values the
rollouts kept (`Forward`), so no row passes through the head twice.
Parameters are values: a `PolicyParams` vector is read-only and updates
build new values, with one exception. `meta_rl.meta_train` copies its
initial vector once and folds every meta update into that copy in place
(`fold_into`); no vector that is passed in or returned is written.

The head weight (action_count x width) holds almost every parameter, while
a gradient over S steps changes it by a matrix of rank at most S. So a
gradient keeps that part as two factors, and an adapted policy is the shared
parameters plus one pending factored head update (`AdaptedParams`), as long
as the factors are smaller than the matrix (`factors_fit`). Past that
break-even, or when a second update would stack on a pending one, the
update is folded into a new dense `PolicyParams`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import atomic_open
from .env import EnvState, ReadOnlyArrays, ScenarioConfig


@dataclass(frozen=True)
class PolicyParams(ReadOnlyArrays):
    """Flat double-precision parameter vector plus its layer layout."""

    flat: np.ndarray
    layer_shapes: tuple[tuple[int, int], ...]
    action_count: int

    def __post_init__(self):
        for i, ((_, width), (n_in, _)) in enumerate(zip(self.layer_shapes, self.layer_shapes[1:])):
            if width != n_in:
                raise ValueError(
                    f"layer_shapes do not chain: layer {i} gives {width} outputs, layer {i + 1} takes {n_in}"
                )
        expected = sum(n_in * n_out + n_out for n_in, n_out in self.layer_shapes)
        if self.flat.shape != (expected,):
            raise ValueError(f"flat vector has {self.flat.shape}, layout needs ({expected},)")
        if self.layer_shapes[-1][1] != self.action_count:
            raise ValueError(
                f"layer_shapes end in {self.layer_shapes[-1][1]} outputs, but action_count is {self.action_count}"
            )
        if not np.isfinite(self.flat).all():
            raise ValueError("policy parameters must be finite")
        self.flat.setflags(write=False)

    @property
    def size(self) -> int:
        return self.flat.size

    def folded(self) -> PolicyParams:
        """The dense parameters: these, as no head update is pending."""
        return self


def factors_fit(rank: int, action_count: int, width: int) -> bool:
    """True while rank-`rank` factors of an (action_count, width) matrix,
    (rank, action_count) and (rank, width), hold fewer entries than it."""
    return rank * (action_count + width) < width * action_count


def _parts(flat: np.ndarray, layer_shapes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views (hidden layers, head weight, head bias) into a flat vector of that layout."""
    width, actions = layer_shapes[-1]
    ofs = flat.size - actions * (width + 1)
    return flat[:ofs], flat[ofs : ofs + actions * width].reshape(actions, width), flat[ofs + actions * width :]


@dataclass(frozen=True)
class Gradient:
    """A gradient over a policy's parameters with the head weight kept apart.

    `body` holds the hidden layers' entries and `bias` the head bias, in
    flat order. The head weight's gradient is d.T @ h, with d (S, action
    count) and h (S, width), plus `head`, a dense (action count, width)
    matrix, when there is one: the kernel keeps its rows as factors while
    `factors_fit`, and otherwise writes the matrix and leaves them empty.
    """

    body: np.ndarray
    bias: np.ndarray
    d: np.ndarray
    h: np.ndarray
    head: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.d)

    @classmethod
    def zero(cls, layer_shapes) -> Gradient:
        width, actions = layer_shapes[-1]
        body = np.zeros(sum(n_in * n_out + n_out for n_in, n_out in layer_shapes[:-1]))
        return cls(body, np.zeros(actions), np.empty((0, actions)), np.empty((0, width)))


@dataclass(frozen=True)
class AdaptedParams(ReadOnlyArrays):
    """Shared parameters plus one pending low-rank head-weight update.

    The policy's head weight is base's plus lr * d.T @ h, never formed:
    d (S, action count) and h (S, width) are the factors of the gradient
    the update took. The hidden layers (`body`) and the head bias (`bias`)
    are small and held dense. `flat` is the shared vector the head weight
    is read from, not this policy's; `folded()` builds that.
    """

    base: PolicyParams
    body: np.ndarray
    bias: np.ndarray
    lr: float
    d: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.lr):
            raise ValueError("policy parameters must be finite")
        for a in (self.body, self.bias, self.d, self.h):
            if not np.isfinite(a).all():
                raise ValueError("policy parameters must be finite")
            a.setflags(write=False)

    @property
    def flat(self) -> np.ndarray:
        return self.base.flat

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        return self.base.layer_shapes

    @property
    def action_count(self) -> int:
        return self.base.action_count

    def folded(self) -> PolicyParams:
        """The dense parameters of this policy."""
        return fold(self, [], 0.0)


Policy = PolicyParams | AdaptedParams


def ascend(params: Policy, grad: Gradient, lr: float) -> Policy:
    """params + lr * grad.

    The head update stays factored while its factors fit and no update is
    pending on params; otherwise it is folded into new dense parameters.
    """
    width, actions = params.layer_shapes[-1]
    if isinstance(params, PolicyParams) and grad.head is None and factors_fit(grad.rank, actions, width):
        body, _, bias = _parts(params.flat, params.layer_shapes)
        return AdaptedParams(params, body + lr * grad.body, bias + lr * grad.bias, lr, grad.d, grad.h)
    return fold(params, [grad], lr)


def _mean(arrays: list[np.ndarray], n: int) -> np.ndarray:
    """Sum in order, over n."""
    total = arrays[0] if len(arrays) == 1 else sum(arrays)
    return total if n == 1 else total / n


# Head rows folded per block, through one (4096, width) buffer.
_FOLD_ROWS = 4096


def fold_into(out: np.ndarray, params: Policy, grads: list[Gradient], lr: float) -> None:
    """Write dense params + lr * mean(grads), any pending head update
    included, into `out`, which may be the shared vector itself.

    The head weight goes in blocks of rows: per block one gemm,
    (rows x sum S) @ (sum S x width), over every factor pair, plus the old
    rows, plus the dense head parts summed in order; each block is read in
    full before it is written, so no temporary is head-sized. Refuses a
    non-finite result; `out` may then be partly written.
    """
    base = params if isinstance(params, PolicyParams) else params.base
    body, head, bias = _parts(base.flat, base.layer_shapes)
    ds, hs = [], []
    if isinstance(params, AdaptedParams):
        body, bias = params.body, params.bias
        ds.append(params.d)
        hs.append(params.lr * params.h)
    new_body, new_head, new_bias = _parts(out, base.layer_shapes)
    new_body[:] = body
    new_bias[:] = bias
    n = len(grads)
    if grads:
        new_body += lr * _mean([g.body for g in grads], n)
        new_bias += lr * _mean([g.bias for g in grads], n)
        ds += [g.d for g in grads]
        hs += [(lr / n) * g.h for g in grads]
    if not (np.isfinite(new_body).all() and np.isfinite(new_bias).all()):
        raise ValueError("policy parameters must be finite")
    factored = sum(len(d) for d in ds) > 0
    if factored:
        d, h = np.concatenate(ds).T, np.concatenate(hs)
    dense = [g.head for g in grads if g.head is not None]
    buffer = np.empty((min(_FOLD_ROWS, len(new_head)), new_head.shape[1]))
    for lo in range(0, len(new_head), _FOLD_ROWS):
        rows = slice(lo, lo + _FOLD_ROWS)
        block = buffer[: len(new_head[rows])]
        if factored:
            np.matmul(d[rows], h, out=block)
            block += head[rows]
        else:
            block[:] = head[rows]
        if dense:
            block += lr * _mean([m[rows] for m in dense], n)
        if not np.isfinite(block).all():
            raise ValueError("policy parameters must be finite")
        new_head[rows] = block


def fold(params: Policy, grads: list[Gradient], lr: float) -> PolicyParams:
    """Dense params + lr * mean(grads) as new parameters (see `fold_into`)."""
    base = params if isinstance(params, PolicyParams) else params.base
    flat = np.empty(base.size)
    fold_into(flat, params, grads, lr)
    return PolicyParams(flat=flat, layer_shapes=base.layer_shapes, action_count=base.action_count)


def layer_shapes_for(encoding_dim: int, hidden_sizes: tuple[int, ...], action_count: int) -> tuple[tuple[int, int], ...]:
    widths = [encoding_dim, *hidden_sizes, action_count]
    return tuple((widths[i], widths[i + 1]) for i in range(len(widths) - 1))


def _views(flat: np.ndarray, layer_shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views into a flat vector of that layout; W is (out, in)."""
    out = []
    ofs = 0
    for n_in, n_out in layer_shapes:
        w = flat[ofs : ofs + n_in * n_out].reshape(n_out, n_in)
        ofs += n_in * n_out
        b = flat[ofs : ofs + n_out]
        ofs += n_out
        out.append((w, b))
    return out


def init_params(layer_shapes: tuple[tuple[int, int], ...], seed: int) -> PolicyParams:
    """Weights ~ N(0, 1/fan_in), biases zero; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for n_in, n_out in layer_shapes:
        chunks.append(rng.normal(0.0, 1.0 / np.sqrt(n_in), n_in * n_out))
        chunks.append(np.zeros(n_out))
    return PolicyParams(
        flat=np.concatenate(chunks),
        layer_shapes=tuple(layer_shapes),
        action_count=layer_shapes[-1][1],
    )


def encode_state(state: EnvState, scenario: ScenarioConfig) -> np.ndarray:
    """Per-user (x, y, height) normalized to [0, 1], then the served bits."""
    (row,) = encode_states(
        np.array([state.user_cells]), np.array([state.user_heights]), np.array([state.served]),
        np.array(scenario.cell_centers), scenario,
    )
    return row


def encode_states(
    cells: np.ndarray, heights: np.ndarray, served: np.ndarray, centers: np.ndarray, scenario: ScenarioConfig
) -> np.ndarray:
    """The `encode_state` row of each state given as arrays: the users'
    cells, heights and served flags [state, user], with the cells' (x, y)
    centres [cell, 2]."""
    count, users = cells.shape
    out = np.empty((count, 4 * users))
    coords = out[:, : 3 * users].reshape(count, users, 3)
    np.divide(centers[cells], scenario.room_side, out=coords[:, :, :2])
    np.divide(heights, scenario.ceiling_z, out=coords[:, :, 2])
    out[:, 3 * users :] = served
    return out


def encoding_dim(scenario: ScenarioConfig) -> int:
    """Length of the `encode_state` vector: four entries per user."""
    return 4 * scenario.num_users


def _layers(params: Policy) -> tuple[list[tuple[np.ndarray, np.ndarray]], tuple | None]:
    """Per-layer (W, b) plus the pending head update (lr, d, h), if any."""
    if isinstance(params, PolicyParams):
        return _views(params.flat, params.layer_shapes), None
    layers = _views(params.body, params.layer_shapes[:-1])
    layers.append((_parts(params.base.flat, params.layer_shapes)[1], params.bias))
    return layers, (params.lr, params.d, params.h)


def _forward_rows(layers, pending, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden activations and logits of a 2-D batch, one `X @ W.T` per layer.

    A pending head update enters as lr * (x_last @ h_p.T) @ d_p. A batch of
    one row goes through gemv, so its logits may differ in the last bits
    from the same row batched with others.
    """
    activations = [x]
    for w, b in layers[:-1]:
        activations.append(np.tanh(activations[-1] @ w.T + b))
    w, b = layers[-1]
    last = activations[-1]
    logits = last @ w.T
    logits += b
    if pending is not None:
        lr, d, h = pending
        logits += (lr * (last @ h.T)) @ d
    return activations, logits


class Forward(NamedTuple):
    """Forward values of a batch of rows at one policy: `inputs`, the input
    rows of every layer (the encodings, then each hidden layer's
    activations), and `probs`, each row's action distribution."""

    inputs: list[np.ndarray]
    probs: np.ndarray


def forward(params: Policy, encodings: np.ndarray) -> Forward:
    """The forward values of a 2-D batch of encodings.

    Softmax stabilized by max subtraction, in the logits' buffer, so a batch
    of n rows holds one (n, action count) array.
    """
    x = np.asarray(encodings, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.layer_shapes[0][0]:
        raise ValueError("encodings must be one row each, as wide as the input layer")
    inputs, z = _forward_rows(*_layers(params), x)
    if not np.isfinite(z).all():
        raise ValueError("non-finite logits; check the parameter vector")
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return Forward(inputs, z)


def accumulate_grad_log_prob(
    params: Policy,
    kept: Forward,
    rows,
    action_indices,
    coeffs,
) -> Gradient:
    """sum_s coeffs[s] * grad log pi(action_s | row_s), as one Gradient, from
    the forward values `kept` holds for each step's row at these params.

    No forward pass runs. Steps of one row merge into one gradient row,
    d_r = sum c * one_hot(a) - (sum c) * probs_r, in the order the rows first
    appear; a row of one step is (one_hot(a) - probs_r) * c. Then one
    backward pass per layer; a weight gradient is the product delta.T @
    inputs. For the head that is d.T @ h, with h the rows' last hidden
    activations: kept as factors while `factors_fit`. Otherwise rows are
    taken in blocks of at most the head's input width and each block's
    product is added into a dense head matrix, so no temporary is larger
    than it. A pending head update enters the backward pass as lr * (delta
    @ d_p.T) @ h_p, never as a matrix.
    """
    r = np.asarray(rows, dtype=np.intp)
    actions = np.asarray(action_indices, dtype=np.intp)
    c = np.asarray(coeffs, dtype=float)
    n_steps = len(c)
    if r.shape != (n_steps,) or actions.shape != (n_steps,) or c.shape != (n_steps,):
        raise ValueError("need one row, one action index and one coefficient per step")
    widths = [n_in for n_in, _ in params.layer_shapes]
    n_kept = len(kept.probs)
    shapes = [a.shape for a in (*kept.inputs, kept.probs)]
    if shapes != [(n_kept, n) for n in (*widths, params.action_count)]:
        raise ValueError("kept forward values do not fit the policy's layers")
    if n_steps and not (0 <= r.min() and r.max() < n_kept):
        raise ValueError("row index out of range")
    if n_steps and not (0 <= actions.min() and actions.max() < params.action_count):
        raise ValueError("action index out of range")
    first: dict[int, int] = {}  # kept row -> its gradient row
    merged = np.array([first.setdefault(row, len(first)) for row in r.tolist()], dtype=np.intp)
    distinct = np.fromiter(first, dtype=np.intp, count=len(first))
    sums = np.bincount(merged, weights=c, minlength=len(distinct))
    alone = np.bincount(merged, minlength=len(distinct))[merged] == 1
    layers, pending = _layers(params)
    zero = Gradient.zero(params.layer_shapes)
    body, bias, d, h = zero.body, zero.bias, zero.d, zero.h
    width = widths[-1]
    factored = factors_fit(len(distinct), params.action_count, width)
    head = None if factored else np.zeros((params.action_count, width))
    hidden = _views(body, params.layer_shapes[:-1])
    for lo in range(0, len(distinct), width):  # one block when factored: then rows < width
        block = distinct[lo : lo + width]
        # d log pi / d logits = one_hot(action) - probs, per step, summed per row
        delta = kept.probs[block]
        np.negative(delta, out=delta)
        here = (lo <= merged) & (merged < lo + width)
        one = here & alone
        delta[merged[one] - lo, actions[one]] += 1.0
        delta *= sums[lo : lo + width, None]
        many = here & ~alone
        for i, a, ci in zip((merged[many] - lo).tolist(), actions[many].tolist(), c[many].tolist()):
            delta[i, a] += ci
        activations = [a[block] for a in kept.inputs]
        w = layers[-1][0]
        last = activations[-1]
        bias += delta.sum(axis=0)
        if factored:
            d, h = delta, last
        else:
            head += delta.T @ last
        if not hidden:
            continue
        back = delta @ w
        if pending is not None:
            lr, pd, ph = pending
            back += (lr * (delta @ pd.T)) @ ph
        delta = back * (1.0 - last**2)
        for layer in range(len(hidden) - 1, -1, -1):
            w_grad, b_grad = hidden[layer]
            w_grad += delta.T @ activations[layer]
            b_grad += delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ layers[layer][0]) * (1.0 - activations[layer] ** 2)
    return Gradient(body, bias, d, h, head)


# Entries per block of a draw's search: a wider row is searched in two
# levels, its block totals and then one block.
DRAW_BLOCK = 128


def draw_actions(probs: np.ndarray, rows, u) -> np.ndarray:
    """Inverse-CDF draws: for each draw i, the first index of row
    probs[rows[i]] whose running sum exceeds the uniform u[i], or the last
    index when u[i] is at or above the row's total.

    A row of at most `DRAW_BLOCK` entries takes the running sum of the whole
    row, the sum of `np.cumsum`, so its draws are those of a sequential
    search. A wider row takes two levels: the running total of its block
    sums picks the first block whose total passes u; then the running sum of
    that block alone, carried on from the total before it, picks the entry,
    never one past the block (when rounding leaves its sum short of u, its
    last). Block sums add in another order than a running sum over the row,
    so a wide row's index can differ from the sequential search's only
    where u lies within rounding of a running sum.
    """
    rows = np.asarray(rows, dtype=np.intp)
    u = np.asarray(u, dtype=float)
    n, width = probs.shape
    if width <= DRAW_BLOCK:
        run = np.cumsum(probs, axis=1)[rows]
        return np.minimum((run <= u[:, None]).sum(axis=1), width - 1)
    full, tail = divmod(width, DRAW_BLOCK)
    totals = np.empty((n, full + (tail > 0)))
    totals[:, :full] = probs[:, : full * DRAW_BLOCK].reshape(n, full, DRAW_BLOCK).sum(axis=2)
    if tail:
        totals[:, full] = probs[:, full * DRAW_BLOCK :].sum(axis=1)
    np.cumsum(totals, axis=1, out=totals)
    run = totals[rows]
    block = (run <= u[:, None]).sum(axis=1)
    past = block == run.shape[1]  # u at or above the row's total
    block[past] -= 1
    lo = block * DRAW_BLOCK
    last = np.minimum(lo + DRAW_BLOCK, width) - 1  # the block's last entry
    # the block's entries after its carried total; a short last block
    # repeats the row's last entry, past which no draw goes
    part = np.empty((len(rows), 1 + DRAW_BLOCK))
    part[:, 0] = np.where(block > 0, run[np.arange(len(rows)), block - 1], 0.0)
    part[:, 1:] = probs[rows[:, None], np.minimum(lo[:, None] + np.arange(DRAW_BLOCK), width - 1)]
    np.cumsum(part, axis=1, out=part)
    at = np.minimum(lo + (part[:, 1:] <= u[:, None]).sum(axis=1), last)
    return np.where(past, width - 1, at)


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw by inverse CDF; reproducible given the rng state."""
    return int(draw_actions(np.asarray(dist, dtype=float)[None], [0], [rng.random()])[0])


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def save_params(path, params: Policy, config_hash: str, kind: str, scenario_hash: str) -> None:
    """Checkpoint layout: one JSON header line, then raw float64 bytes.

    `kind` names the policy head (`mpg` or `dmpg`) and `scenario_hash` the
    simulated world, so a loader can refuse a checkpoint trained for another
    head or room. The payload is the folded vector. The file is replaced
    atomically.
    """
    params = params.folded()
    header = {
        "layer_shapes": [list(s) for s in params.layer_shapes],
        "action_count": params.action_count,
        "config_hash": config_hash,
        "kind": kind,
        "param_count": int(params.size),
        "scenario_hash": scenario_hash,
    }
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_params(path) -> tuple[PolicyParams, dict]:
    with open(path, "rb") as fh:
        line = fh.readline()
        raw = fh.read()
    if not line.endswith(b"\n"):
        raise ValueError(f"checkpoint {path} is truncated")
    try:
        header = json.loads(line.decode())
    except ValueError:  # undecodable bytes or not JSON
        raise ValueError(f"checkpoint {path} header is not a JSON line") from None
    for field in ("action_count", "layer_shapes", "param_count"):
        if not isinstance(header, dict) or field not in header:
            raise ValueError(f"checkpoint {path} header has no {field!r} field")
    for field in ("action_count", "param_count"):
        if type(header[field]) is not int:
            raise ValueError(f"checkpoint {path} header field {field!r} is not an int: {header[field]!r}")
    shapes = header["layer_shapes"]
    if not (isinstance(shapes, list) and shapes and all(
        isinstance(s, list) and len(s) == 2 and all(type(n) is int for n in s) for s in shapes
    )):
        raise ValueError(
            f"checkpoint {path} header field 'layer_shapes' is not a list of int pairs: {shapes!r}"
        )
    expected = 8 * header["param_count"]
    if len(raw) < expected:
        raise ValueError(f"checkpoint {path} is truncated")
    if len(raw) != expected:
        raise ValueError(f"checkpoint {path} holds more than its header's param_count of {header['param_count']}")
    try:
        params = PolicyParams(
            flat=np.frombuffer(raw, dtype="<f8").astype(float),
            layer_shapes=tuple(tuple(s) for s in header["layer_shapes"]),
            action_count=header["action_count"],
        )
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    return params, header
