"""Softmax policy network over a flat parameter vector.

Tanh hidden layers feeding a linear softmax head. Gradients of log action
probabilities are computed analytically by reverse accumulation so that the
training loop needs no autodiff framework. Parameters are immutable values;
updates build new values.

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

import numpy as np

from .artifacts import atomic_open
from .env import EnvState, ScenarioConfig


@dataclass(frozen=True)
class PolicyParams:
    """Flat double-precision parameter vector plus its layer layout."""

    flat: np.ndarray
    layer_shapes: tuple[tuple[int, int], ...]
    action_count: int

    def __post_init__(self):
        expected = sum(n_in * n_out + n_out for n_in, n_out in self.layer_shapes)
        if self.flat.shape != (expected,):
            raise ValueError(f"flat vector has {self.flat.shape}, layout needs ({expected},)")
        if self.layer_shapes[-1][1] != self.action_count:
            raise ValueError("last layer width must equal the action count")
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

    @classmethod
    def of_flat(cls, flat: np.ndarray, layer_shapes) -> Gradient:
        """A dense flat gradient vector, split into views."""
        body, head, bias = _parts(flat, layer_shapes)
        width, actions = layer_shapes[-1]
        return cls(body, bias, np.empty((0, actions)), np.empty((0, width)), head)

    def dense(self) -> np.ndarray:
        """The flat gradient vector: the factors folded into the head weight."""
        head = self.d.T @ self.h
        if self.head is not None:
            head += self.head
        return np.concatenate([self.body, head.ravel(), self.bias])


@dataclass(frozen=True)
class AdaptedParams:
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

    @property
    def size(self) -> int:
        return self.base.size

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


def fold(params: Policy, grads: list[Gradient], lr: float) -> PolicyParams:
    """Dense params + lr * mean(grads), any pending head update included.

    The new head weight takes one copy of the shared one and one gemm,
    (action count x sum S) @ (sum S x width), over every factor pair; the
    dense head parts are summed in order and added after.
    """
    base = params if isinstance(params, PolicyParams) else params.base
    body, head, bias = _parts(base.flat, base.layer_shapes)
    ds, hs = [], []
    if isinstance(params, AdaptedParams):
        body, bias = params.body, params.bias
        ds.append(params.d)
        hs.append(params.lr * params.h)
    flat = np.empty(base.size)
    new_body, new_head, new_bias = _parts(flat, base.layer_shapes)
    new_body[:] = body
    new_bias[:] = bias
    n = len(grads)
    if grads:
        new_body += lr * _mean([g.body for g in grads], n)
        new_bias += lr * _mean([g.bias for g in grads], n)
        ds += [g.d for g in grads]
        hs += [(lr / n) * g.h for g in grads]
    if sum(len(d) for d in ds):
        np.matmul(np.concatenate(ds).T, np.concatenate(hs), out=new_head)
        new_head += head
    else:
        new_head[:] = head
    dense = [g.head for g in grads if g.head is not None]
    if dense:
        new_head += lr * _mean(dense, n)
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
    for (_, prev_out), (next_in, _) in zip(layer_shapes, layer_shapes[1:]):
        if prev_out != next_in:
            raise ValueError("layer shapes do not chain")
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
    grid = scenario.grid
    coords = np.empty(3 * scenario.num_users)
    for j, (cell, h) in enumerate(zip(state.user_cells, state.user_heights)):
        cx, cy = grid.cell_center(cell)
        coords[3 * j] = cx / scenario.room_side
        coords[3 * j + 1] = cy / scenario.room_side
        coords[3 * j + 2] = h / scenario.ceiling_z
    served = np.array([1.0 if w else 0.0 for w in state.served])
    return np.concatenate([coords, served])


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


def _forward_raw(params: Policy, encoding: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden activations (tanh) and the final logits."""
    layers, pending = _layers(params)
    activations = [np.asarray(encoding, dtype=float)]
    for w, b in layers[:-1]:
        activations.append(np.tanh(w @ activations[-1] + b))
    w, b = layers[-1]
    logits = w @ activations[-1] + b
    if pending is not None:
        lr, d, h = pending
        logits += (lr * (h @ activations[-1])) @ d
    return activations, logits


def forward(params: Policy, encoding: np.ndarray) -> np.ndarray:
    """Action distribution; softmax stabilized by max subtraction."""
    if len(encoding) != params.layer_shapes[0][0]:
        raise ValueError("encoding length does not match the input layer")
    _, logits = _forward_raw(params, encoding)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits; check the parameter vector")
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def log_prob(params: Policy, encoding: np.ndarray, action_index: int) -> float:
    _, logits = _forward_raw(params, encoding)
    z = logits - logits.max()
    return float(z[action_index] - np.log(np.exp(z).sum()))


def grad_log_prob(params: Policy, encoding: np.ndarray, action_index: int) -> np.ndarray:
    """Exact gradient of log pi(action | encoding) w.r.t. the flat vector."""
    return accumulate_grad_log_prob(params, [encoding], [action_index], [1.0]).dense()


def accumulate_grad_log_prob(
    params: Policy,
    encodings,
    action_indices,
    coeffs,
) -> Gradient:
    """sum_s coeffs[s] * grad log pi(action_s | encoding_s), as one Gradient.

    Rows go through one batched forward and one backward pass per layer; a
    weight gradient is the product delta.T @ activations. For the head that
    is d.T @ h, with d the rows' coefficient-weighted one_hot(action) -
    probs and h their last hidden activations: kept as factors while
    `factors_fit`. Otherwise rows are taken in blocks of at most the head's
    input width and each block's product is added into a dense head
    matrix, so no temporary is larger than it. A pending head update
    enters as lr * d_p.T @ (h_p @ x) in the logits and lr * (delta @ d_p.T)
    @ h_p in the backward pass, never as a matrix.
    """
    x = np.asarray(encodings, dtype=float)
    actions = np.asarray(action_indices, dtype=np.intp)
    c = np.asarray(coeffs, dtype=float)
    n_rows = len(x)
    if x.shape != (n_rows, params.layer_shapes[0][0]):
        raise ValueError("encodings must be one row per step, as wide as the input layer")
    if actions.shape != (n_rows,) or c.shape != (n_rows,):
        raise ValueError("need one action index and one coefficient per encoding")
    if n_rows and not (0 <= actions.min() and actions.max() < params.action_count):
        raise ValueError("action index out of range")
    layers, pending = _layers(params)
    zero = Gradient.zero(params.layer_shapes)
    body, bias, d, h = zero.body, zero.bias, zero.d, zero.h
    width = params.layer_shapes[-1][0]
    factored = factors_fit(n_rows, params.action_count, width)
    head = None if factored else np.zeros((params.action_count, width))
    hidden = _views(body, params.layer_shapes[:-1])
    for lo in range(0, n_rows, width):  # one block when factored: then n_rows < width
        rows = slice(lo, lo + width)
        activations = [x[rows]]
        for w, b in layers[:-1]:
            activations.append(np.tanh(activations[-1] @ w.T + b))
        w, b = layers[-1]
        last = activations[-1]
        # d log pi / d logits = one_hot(action) - probs, built in one buffer
        delta = last @ w.T
        delta += b
        if pending is not None:
            lr, pd, ph = pending
            delta += (lr * (last @ ph.T)) @ pd
        delta -= delta.max(axis=1, keepdims=True)
        np.exp(delta, out=delta)
        delta /= -delta.sum(axis=1, keepdims=True)
        delta[np.arange(len(delta)), actions[rows]] += 1.0
        delta *= c[rows, None]
        bias += delta.sum(axis=0)
        if factored:
            d, h = delta, last.copy()
        else:
            head += delta.T @ last
        if not hidden:
            continue
        back = delta @ w
        if pending is not None:
            back += (lr * (delta @ pd.T)) @ ph
        delta = back * (1.0 - last**2)
        for layer in range(len(hidden) - 1, -1, -1):
            w_grad, b_grad = hidden[layer]
            w_grad += delta.T @ activations[layer]
            b_grad += delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ layers[layer][0]) * (1.0 - activations[layer] ** 2)
    return Gradient(body, bias, d, h, head)


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw by inverse CDF; reproducible given the rng state."""
    cum = np.cumsum(dist)
    u = rng.random()
    return int(min(np.searchsorted(cum, u, side="right"), len(dist) - 1))


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def save_params(
    path, params: Policy, config_hash: str = "", kind: str = "", scenario_hash: str = ""
) -> None:
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
    header = json.loads(line.decode())
    expected = 8 * header["param_count"]
    if len(raw) < expected:
        raise ValueError(f"checkpoint {path} is truncated")
    if len(raw) != expected:
        raise ValueError("checkpoint payload size does not match its header")
    params = PolicyParams(
        flat=np.frombuffer(raw, dtype="<f8").astype(float),
        layer_shapes=tuple(tuple(s) for s in header["layer_shapes"]),
        action_count=header["action_count"],
    )
    return params, header
