"""Softmax policy network over a flat parameter vector.

Tanh hidden layers feeding a linear softmax head. Gradients of log action
probabilities are computed analytically by reverse accumulation so that the
training loop needs no autodiff framework. Parameters are immutable values;
updates build new vectors.
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


def _forward_raw(params: PolicyParams, encoding: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden activations (tanh) and the final logits."""
    layers = _views(params.flat, params.layer_shapes)
    activations = [np.asarray(encoding, dtype=float)]
    for w, b in layers[:-1]:
        activations.append(np.tanh(w @ activations[-1] + b))
    w, b = layers[-1]
    logits = w @ activations[-1] + b
    return activations, logits


def forward(params: PolicyParams, encoding: np.ndarray) -> np.ndarray:
    """Action distribution; softmax stabilized by max subtraction."""
    if len(encoding) != params.layer_shapes[0][0]:
        raise ValueError("encoding length does not match the input layer")
    _, logits = _forward_raw(params, encoding)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits; check the parameter vector")
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def log_prob(params: PolicyParams, encoding: np.ndarray, action_index: int) -> float:
    _, logits = _forward_raw(params, encoding)
    z = logits - logits.max()
    return float(z[action_index] - np.log(np.exp(z).sum()))


def grad_log_prob(params: PolicyParams, encoding: np.ndarray, action_index: int) -> np.ndarray:
    """Exact gradient of log pi(action | encoding) w.r.t. the flat vector."""
    out = np.zeros_like(params.flat)
    accumulate_grad_log_prob(params, [encoding], [action_index], [1.0], out)
    return out


def accumulate_grad_log_prob(
    params: PolicyParams,
    encodings,
    action_indices,
    coeffs,
    out: np.ndarray,
) -> None:
    """Add sum_s coeffs[s] * grad log pi(action_s | encoding_s) into `out`.

    Rows go through one batched forward and one backward pass per layer; a
    weight gradient is the product delta.T @ activations. Rows are taken in
    blocks of at most the last layer's input width, so no temporary is
    larger than that layer's (action_count, width) weight gradient.
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
    layers = _views(params.flat, params.layer_shapes)
    grads = _views(out, params.layer_shapes)
    block = params.layer_shapes[-1][0]
    for lo in range(0, n_rows, block):
        rows = slice(lo, lo + block)
        activations = [x[rows]]
        for w, b in layers[:-1]:
            activations.append(np.tanh(activations[-1] @ w.T + b))
        w, b = layers[-1]
        # d log pi / d logits = one_hot(action) - probs, built in one buffer
        delta = activations[-1] @ w.T
        delta += b
        delta -= delta.max(axis=1, keepdims=True)
        np.exp(delta, out=delta)
        delta /= -delta.sum(axis=1, keepdims=True)
        delta[np.arange(len(delta)), actions[rows]] += 1.0
        delta *= c[rows, None]
        for layer in range(len(layers) - 1, -1, -1):
            w_grad, b_grad = grads[layer]
            w_grad += delta.T @ activations[layer]
            b_grad += delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ layers[layer][0]) * (1.0 - activations[layer] ** 2)


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw by inverse CDF; reproducible given the rng state."""
    cum = np.cumsum(dist)
    u = rng.random()
    return int(min(np.searchsorted(cum, u, side="right"), len(dist) - 1))


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def save_params(
    path, params: PolicyParams, config_hash: str = "", kind: str = "", scenario_hash: str = ""
) -> None:
    """Checkpoint layout: one JSON header line, then raw float64 bytes.

    `kind` names the policy head (`mpg` or `dmpg`) and `scenario_hash` the
    simulated world, so a loader can refuse a checkpoint trained for another
    head or room. The file is replaced atomically.
    """
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
