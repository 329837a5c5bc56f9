"""Reference computations used only by the tests.

Most of this is written directly from the model formulas with plain math,
deliberately separate from the package code paths it checks. The rest are
references that no run executes, built on package code: the priced period
association solver, the gradient kernel that runs its own forward pass
with the one-row policy helpers over it, the one-slot-at-a-time step and
rollout, the lockstep loop that built one object per step with its
sequential inverse-CDF search over a whole row's running sum, the dense
link pass, the reset that drew a task's start afresh on every call and
the dense (cells, cells) form of a movement pattern.
"""

from __future__ import annotations

import itertools
import math

C = 3.0e8


# --- scalar channel formulas -------------------------------------------------


def transmittance(r, k_abs):
    return math.exp(-k_abs * r)


def path_loss(r, freq, k_abs):
    return (C / (4.0 * math.pi * freq * r)) ** 2 * math.exp(-k_abs * r)


def noise(distances, power, freq, k_abs, density_w_per_hz, bandwidth):
    total = density_w_per_hz * bandwidth
    for r in distances:
        total += power * (C / (4.0 * math.pi * freq * r)) ** 2 * (1.0 - math.exp(-k_abs * r))
    return total


def rate(g, noise_w, power, bandwidth):
    return bandwidth * math.log2(1.0 + power * g / noise_w)


def delay(size_bits, rate_bps):
    return size_bits / rate_bps if rate_bps > 0 else math.inf


def distance(a, b):
    """Euclidean distance between two points with x, y and z."""
    dx, dy, dz = a.x - b.x, a.y - b.y, a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def ceiling_points(scenario, key):
    """The scenario's `vap_positions` or `sbs_positions` as points at its
    ceiling height."""
    from thzvlc.geometry import Point3

    return [Point3(x, y, scenario.ceiling_z) for x, y in getattr(scenario, key)]


def free_links(scenario, point):
    """The flags of every ceiling unit's link to a receiver at `point`,
    blockage aside, VAPs then SBSs: the VAP lies inside the FOV; a clear
    THz link from the SBS delivers the image within the slot."""
    flags = []
    for vap in ceiling_points(scenario, "vap_positions"):
        dx, dy = vap.x - point.x, vap.y - point.y
        angle = math.atan2(math.sqrt(dx * dx + dy * dy), vap.z - point.z)
        flags.append(angle <= scenario.optics.fov_semi_angle_rad)
    radio = scenario.radio
    args = (radio.carrier_freq_hz, radio.absorption_per_m)
    stations = ceiling_points(scenario, "sbs_positions")
    noise_w = noise([distance(s, point) for s in stations], radio.tx_power_w, *args,
                    radio.noise_density_w_per_hz, radio.bandwidth_hz)
    for sbs in stations:
        g = path_loss(distance(sbs, point), *args)
        d = delay(radio.image_size_bits, rate(g, noise_w, radio.tx_power_w, radio.bandwidth_hz))
        flags.append(d <= radio.slot_duration_s)
    return flags


# --- blockage by dense parameter sweep ---------------------------------------


def swept_blocked(tx, rx, center, height, radius, samples=10_000):
    """Existence check on a dense grid of interior segment parameters.

    Blocked iff some sampled point of the open segment projects within
    `radius` of the body center at height <= the body top. Interpolation
    uses P(g) = rx + g*(tx - rx) so lattice-built fixtures stay exact;
    the numpy evaluation applies the same elementwise arithmetic.
    """
    import numpy as np

    ex, ey, ez = tx[0] - rx[0], tx[1] - rx[1], tx[2] - rx[2]
    g = np.arange(1, samples) / samples
    dx = (rx[0] + g * ex) - center[0]
    dy = (rx[1] + g * ey) - center[1]
    pz = rx[2] + g * ez
    hit = (dx * dx + dy * dy <= radius * radius) & (pz <= height)
    return bool(hit.any())


def swept_los_clear(tx, rx, bodies, samples=10_000):
    return all(
        not swept_blocked(tx, rx, center, height, radius, samples)
        for center, height, radius in bodies
    )


# --- matching brute force -----------------------------------------------------


def best_matching_value(weights):
    """Max total weight over partial injective row->column matchings, by
    enumeration: a pair of weight <= 0 is left out."""
    m = len(weights)
    n = len(weights[0])
    rows_small = m <= n
    k = min(m, n)
    best = -math.inf
    small = range(m) if rows_small else range(n)
    large = range(n) if rows_small else range(m)
    for chosen in itertools.permutations(large, k):
        total = 0.0
        for a, b in zip(small, chosen):
            i, j = (a, b) if rows_small else (b, a)
            w = weights[i][j]
            total += max(w, 0.0)
        best = max(best, total)
    return max(best, 0.0)


# --- exhaustive period association --------------------------------------------


def _partial_assignments(users, num_sbs):
    """Every injective partial map from `users` to SBS indices."""
    out = [()]
    for k in range(1, min(len(users), num_sbs) + 1):
        for subset in itertools.combinations(users, k):
            for stations in itertools.permutations(range(num_sbs), k):
                out.append(tuple(zip(stations, subset)))
    return out


def best_period_service(servable, num_users, num_sbs, slots):
    """Exhaustive optimum of the period association problem.

    servable[t][i][j] is 1 when SBS i can deliver to user j at slot t (user
    localized and link feasible). Enumerates every combination of per-slot
    injective assignments honoring serve-at-most-once and returns the best
    count of distinct served users.
    """
    per_slot_options = []
    for t in range(slots):
        users_t = [j for j in range(num_users) if any(servable[t][i][j] for i in range(num_sbs))]
        options = [
            option
            for option in _partial_assignments(users_t, num_sbs)
            if all(servable[t][i][j] for i, j in option)
        ]
        per_slot_options.append(options)

    best = 0
    for combo in itertools.product(*per_slot_options):
        served = set()
        ok = True
        for option in combo:
            for _, j in option:
                if j in served:
                    ok = False
                    break
                served.add(j)
            if not ok:
                break
        if ok:
            best = max(best, len(served))
    return best


# --- priced period association ----------------------------------------------------


def dual_update(lambdas, served_counts, step):
    """Projected subgradient step on the once-per-period constraint: each
    user's multiplier moves by step * (count - 1) and is clipped at zero."""
    import numpy as np

    return np.maximum(0.0, lambdas - step * (1.0 - np.asarray(served_counts, dtype=float)))


def service_tables(vap_sequence, realization, scenario):
    """Per-slot localization flags and link-feasibility matrices h[t][i, j]."""
    from thzvlc import env

    blank = (False,) * scenario.num_users
    loc = []
    feas = []
    for t in range(scenario.slots_per_period):
        links = env.slot_links(env.state_at_slot(realization, t, blank), scenario)
        loc.append(links.localized(vap_sequence[t]).tolist())
        feas.append(links.h.astype(float))
    return loc, feas


def solve_period_association(vap_sequence, realization, scenario, dual_iters=50, step=0.1):
    """Offline period association given the full mobility outcome: the
    dual-priced form of the serve-once coupling that rollouts enforce by
    leaving served users out of each slot's matching.

    Alternates slot-wise Hungarian solves (the package's `hungarian_max`)
    with a dual step on lambda, the per-user multipliers (weights h -
    lambda). Each round's slot solutions are repaired into a feasible
    candidate: a user multiply served keeps only its earliest slot, then
    freed capacity is greedily rematched to still-unserved feasible users.
    The best candidate across rounds is returned.
    """
    import numpy as np

    from thzvlc.association import hungarian_max

    if len(vap_sequence) != scenario.slots_per_period:
        raise ValueError("need one VAP set per slot")
    if step <= 0:
        raise ValueError("step size must be positive")
    slots = scenario.slots_per_period
    loc, feas = service_tables(vap_sequence, realization, scenario)
    pools = [[j for j in range(scenario.num_users) if loc[t][j]] for t in range(slots)]

    lambdas = np.zeros(scenario.num_users)
    best = None
    best_count = -1

    for _ in range(dual_iters):
        round_slots = []
        counts = [0] * scenario.num_users
        for t in range(slots):
            pool = pools[t]
            if not pool:
                round_slots.append(())
                continue
            weights = feas[t][:, pool] - lambdas[pool]
            sol = hungarian_max(weights)
            matched = tuple((i, pool[col]) for i, col in sol.matching)
            round_slots.append(matched)
            for _, j in matched:
                counts[j] += 1

        seen = set()
        feasible = []
        for t in range(slots):
            kept = [(i, j) for i, j in round_slots[t] if j not in seen]
            seen.update(j for _, j in kept)
            used = {i for i, _ in kept}
            for i in range(scenario.num_sbs):
                if i in used:
                    continue
                for j in pools[t]:
                    if j not in seen and feas[t][i, j] > 0:
                        kept.append((i, j))
                        used.add(i)
                        seen.add(j)
                        break
            feasible.append(tuple(sorted(kept)))
        if len(seen) > best_count:
            best_count = len(seen)
            best = tuple(feasible)

        lambdas = dual_update(lambdas, counts, step)

    assert best is not None
    return best


# --- square-padded Hungarian ----------------------------------------------------


def square_min_cost_assignment(cost):
    """Exact square assignment minimizing total cost, O(n^3).

    The package's solver before it dropped the dummy rows, kept verbatim as
    the reference for its tie order.
    """
    n = cost.shape[0]
    table = cost.tolist()  # Python floats: a numpy scalar per read is slow
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: row matched to column j (1-based, 0 free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = table[i0 - 1]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [-1] * n
    for j in range(1, n + 1):
        if match[j]:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


def square_hungarian_max(w):
    """The maximum-weight matching, pairs of weight <= 0 left out, solved on
    the matrix padded with zeros to a square, as `hungarian_max` once did."""
    import numpy as np

    m, n = w.shape
    size = max(m, n)
    padded = np.zeros((size, size))
    padded[:m, :n] = np.maximum(w, 0.0)
    row_to_col = square_min_cost_assignment(padded.max() - padded)
    pairs = []
    for i in range(m):
        j = row_to_col[i]
        if j < 0 or j >= n:
            continue
        if w[i, j] <= 0.0:
            continue
        pairs.append((i, j))
    return tuple(pairs)


# --- dense policy network ---------------------------------------------------------


def dense_layers(flat, layer_shapes):
    """(W (out, in), b) slices of a flat vector, layer by layer."""
    layers = []
    ofs = 0
    for n_in, n_out in layer_shapes:
        w = flat[ofs : ofs + n_in * n_out].reshape(n_out, n_in)
        ofs += n_in * n_out
        layers.append((w, flat[ofs : ofs + n_out]))
        ofs += n_out
    return layers


def dense_logits(flat, layer_shapes, x):
    """Logits of one encoding through the dense weights."""
    import numpy as np

    layers = dense_layers(flat, layer_shapes)
    a = np.asarray(x, dtype=float)
    for w, b in layers[:-1]:
        a = np.tanh(w @ a + b)
    w, b = layers[-1]
    return w @ a + b


def dense_log_prob(flat, layer_shapes, x, action):
    import numpy as np

    z = dense_logits(flat, layer_shapes, x)
    z = z - z.max()
    return float(z[action] - np.log(np.exp(z).sum()))


def dense_grad(flat, layer_shapes, rows):
    """sum of c * grad log pi(a | x) over (x, a, c) rows, one row at a time,
    by reverse accumulation through the dense weights."""
    import numpy as np

    out = np.zeros(len(flat))
    layers = dense_layers(flat, layer_shapes)
    grads = dense_layers(out, layer_shapes)
    for x, a, c in rows:
        acts = [np.asarray(x, dtype=float)]
        for w, b in layers[:-1]:
            acts.append(np.tanh(w @ acts[-1] + b))
        w, b = layers[-1]
        z = w @ acts[-1] + b
        p = np.exp(z - z.max())
        delta = -p / p.sum()
        delta[a] += 1.0
        delta *= c
        for layer in range(len(layers) - 1, -1, -1):
            grads[layer][0][...] += np.outer(delta, acts[layer])
            grads[layer][1][...] += delta
            if layer > 0:
                delta = (layers[layer][0].T @ delta) * (1.0 - acts[layer] ** 2)
    return out


def score_rows(trajectories, reward_baseline, reward_to_go):
    """(encoding, action, coefficient) of every step in a REINFORCE estimate
    with the leave-one-out baseline, zero coefficients included, from
    trajectories whose steps carry their encodings (`Step`)."""
    k = len(trajectories)
    returns = [float(sum(len(s.newly_served) for s in t.steps)) for t in trajectories]
    rows = []
    for i, traj in enumerate(trajectories):
        base = (sum(returns) - returns[i]) / (k - 1) if reward_baseline and k > 1 else 0.0
        for s, step in enumerate(traj.steps):
            if reward_to_go:
                gain = float(sum(len(later.newly_served) for later in traj.steps[s:]))
            else:
                gain = returns[i]
            rows.append((step.encoding, step.action_index, (gain - base) / k))
    return rows


def dense_task_gradient(trajectories, flat, layer_shapes, reward_baseline=False, reward_to_go=False):
    return dense_grad(flat, layer_shapes, score_rows(trajectories, reward_baseline, reward_to_go))


def dense_meta_update(flat, layer_shapes, batches, cfg):
    """First-order meta step: each task's outer gradient at its dense adapted
    vector, averaged and applied to `flat`. batches: (inner, outer) trajectories."""
    grads = []
    for inner, outer in batches:
        g = dense_task_gradient(inner, flat, layer_shapes, cfg.reward_baseline, cfg.reward_to_go)
        adapted = flat + cfg.inner_lr * g
        grads.append(
            dense_task_gradient(outer, adapted, layer_shapes, cfg.reward_baseline, cfg.reward_to_go)
        )
    return flat + cfg.meta_lr * (sum(grads) / len(grads))


def fd_meta_update(flat, layer_shapes, tasks, cfg, eps=1e-5):
    """Second-order meta step by central finite differences: the reference
    the first-order meta update is compared against (small nets only; the
    cost is quadratic in the parameter count).

    The differentiated objective is each task's post-adaptation return
    estimate as a smooth function of the shared vector: re-adapt on the
    frozen inner trajectories, then weight each frozen outer trajectory by
    its probability under the re-adapted vector over that under the policy
    that sampled it, times its centered return. The centring is the
    leave-one-out baseline of the gradient estimator, so both steps estimate
    the same quantity on the same data; at `flat` every weight is 1.
    tasks: (sampling policy, inner, outer) triples. Whole-trajectory returns
    only.
    """
    import numpy as np

    def log_prob(vec, rows):
        return sum(dense_log_prob(vec, layer_shapes, x, a) for x, a, _ in rows)

    def objective(base, task):
        policy, inner, outer = task
        g = dense_task_gradient(inner, base, layer_shapes, cfg.reward_baseline)
        adapted = base + cfg.inner_lr * g
        sampled = policy.folded().flat
        rows = score_rows(outer, cfg.reward_baseline, False)
        total, at = 0.0, 0
        for traj in outer:
            mine = rows[at : at + len(traj.steps)]  # every row carries the centered return / k
            total += math.exp(log_prob(adapted, mine) - log_prob(sampled, mine)) * mine[0][2]
            at += len(traj.steps)
        return total

    if cfg.reward_to_go:
        raise ValueError("the finite-difference reference takes whole-trajectory returns only")
    grad = np.zeros(len(flat))
    for i in range(len(flat)):
        for sign in (1.0, -1.0):
            shifted = np.array(flat, dtype=float)
            shifted[i] += sign * eps
            grad[i] += sign * sum(objective(shifted, task) for task in tasks) / (2.0 * eps)
    return flat + cfg.meta_lr * (grad / len(tasks))


def dense_gradient(g):
    """The flat vector of a `policy_net.Gradient`: the factors folded into
    the head weight."""
    import numpy as np

    head = g.d.T @ g.h
    if g.head is not None:
        head += g.head
    return np.concatenate([g.body, head.ravel(), g.bias])


def flat_gradient(flat, layer_shapes):
    """A dense flat gradient vector as a `policy_net.Gradient`: hidden layers,
    head weight (as the dense `head`, no factors) and head bias."""
    import numpy as np

    from thzvlc.policy_net import Gradient

    width, actions = layer_shapes[-1]
    ofs = len(flat) - actions * (width + 1)
    head = np.asarray(flat[ofs : ofs + actions * width], dtype=float).reshape(actions, width)
    return Gradient(
        flat[:ofs], flat[ofs + actions * width :], np.empty((0, actions)), np.empty((0, width)), head
    )


# --- one-row policy helpers ---------------------------------------------------


def forward_one(params, encoding):
    """The package's action distribution of one encoding, as a batch of one row."""
    import numpy as np

    from thzvlc.policy_net import forward

    return forward(params, np.asarray(encoding, dtype=float)[None]).probs[0]


def log_prob(params, encoding, action_index):
    """log pi(action | encoding) of one encoding through the package's
    forward pass, adapted (low-rank pending) policies included."""
    import numpy as np

    from thzvlc.policy_net import _forward_rows, _layers

    _, (logits,) = _forward_rows(*_layers(params), np.asarray(encoding, dtype=float)[None])
    z = logits - logits.max()
    return float(z[action_index] - np.log(np.exp(z).sum()))


def grad_log_prob(params, encoding, action_index):
    """Exact gradient of log pi(action | encoding) w.r.t. the flat vector:
    the recomputing kernel on one row with coefficient 1."""
    return dense_gradient(recompute_grad_log_prob(params, [encoding], [action_index], [1.0]))


def recompute_grad_log_prob(params, encodings, action_indices, coeffs):
    """sum_s coeffs[s] * grad log pi(action_s | encoding_s), as one Gradient,
    with its own forward pass: the kernel before the gradient read the
    rollouts' kept forward values, one gradient row per step.

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
    import numpy as np

    from thzvlc.policy_net import Gradient, _forward_rows, _layers, _views, factors_fit

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
        # d log pi / d logits = one_hot(action) - probs, built in the logits' buffer
        activations, delta = _forward_rows(layers, pending, x[rows])
        w = layers[-1][0]
        last = activations[-1]
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


def kept_grad_log_prob(params, encodings, action_indices, coeffs):
    """The package kernel with every step its own kept row, the rows
    forwarded at `params` in one batch."""
    import numpy as np

    from thzvlc.policy_net import accumulate_grad_log_prob, forward

    x = np.asarray(encodings, dtype=float)
    return accumulate_grad_log_prob(params, forward(params, x), np.arange(len(x)), action_indices, coeffs)


def kept_rollouts(trajectories, params):
    """`meta_rl.Rollouts` at `params` of hand-built trajectories of equal
    length (`Traj`): every step its own kept row, forwarded from its
    `encoding` in one batch. Each step newly serves as many users as its
    `newly_served` holds, the next users of a room as large as the largest
    return; only the served flags and action indices are set."""
    import numpy as np

    from thzvlc import env, meta_rl, policy_net

    x = np.array([s.encoding for t in trajectories for s in t.steps], dtype=float)
    kept = policy_net.forward(params, x.reshape(len(x), params.layer_shapes[0][0]))
    count, slots = len(trajectories), len(trajectories[0].steps) if trajectories else 0
    users = max([t.total_reward for t in trajectories] + [1])
    served = np.zeros((count, slots + 1, users), dtype=bool)
    for b, traj in enumerate(trajectories):
        assert len(traj.steps) == slots, "trajectories of one batch have equal length"
        total = 0
        for t, step in enumerate(traj.steps):
            total += len(step.newly_served)
            served[b, t + 1, :total] = True
    action = np.array([[s.action_index for s in t.steps] for t in trajectories], dtype=np.intp).reshape(count, slots)
    periods = env.Periods(
        heights=np.ones((count, users)),
        cells=np.zeros((count, slots + 1, users), dtype=np.intp),
        served=served,
        action=action,
        vap_sets=np.zeros((count, slots, 3), dtype=np.intp),
        assigned=np.full((count, slots, users), -1, dtype=np.intp),
        localized=served[:, 1:],
        tx_ok=served[:, 1:],
    )
    return meta_rl.Rollouts(periods, kept, np.arange(len(x)))


# --- one period at a time and the object loop -----------------------------------


class Step:
    """One step of a reference rollout: what the package's `TrajectoryStep`
    holds, plus the encoding the policy saw."""

    def __init__(self, state, encoding, action_index, action, newly_served, localized, tx_ok):
        self.state = state
        self.encoding = encoding
        self.action_index = action_index
        self.action = action
        self.newly_served = newly_served
        self.localized = localized
        self.tx_ok = tx_ok


class Traj:
    """A reference rollout: its `Step`s and the state after them."""

    def __init__(self, steps, final_state):
        self.steps = tuple(steps)
        self.final_state = final_state

    @property
    def total_reward(self):
        return sum(len(s.newly_served) for s in self.steps)


def encoded(trajectories, scenario):
    """The package's trajectories as `Traj`s, each step with the
    `encode_state` of its state."""
    from thzvlc import policy_net

    return [
        Traj(
            [Step(s.state, policy_net.encode_state(s.state, scenario), s.action_index, s.action,
                  s.newly_served, s.localized, s.tx_ok) for s in t.steps],
            t.final_state,
        )
        for t in trajectories
    ]


def decoder(kind, scenario):
    """The one-state decoder of a head, `decode(idx, state, links)`: the
    joint action of the index, or its VAP subset with the slot matching
    `association.slot_assign`."""
    from thzvlc import association, env

    if kind == "mpg":
        space = env.enumerate_joint_actions(scenario)
        return lambda idx, state, links: space[idx]
    actions = env.enumerate_vap_actions(scenario.num_vaps)

    def decode(idx, state, links):
        solution = association.slot_assign(state, actions[idx], links)
        return env.JointAction(actions[idx], tuple(sorted((user, sbs) for sbs, user in solution.matching)))

    return decode


def move(pattern, cells, rng):
    """Every user's next cell, one uniform draw per user in user order: the
    first cell whose running row sum exceeds the draw, else the row's last
    cell with positive probability."""
    import numpy as np

    matrix = dense_transition(pattern)
    out = []
    for cell, u in zip(cells, rng.random(len(cells))):
        row = matrix[cell]
        running = np.cumsum(row)
        out.append(min(int(np.searchsorted(running, u, side="right")), int(np.flatnonzero(row)[-1])))
    return tuple(out)


def step(state, action, task, scenario, rng=None):
    """Evaluate service at the current positions, then move the users.

    The single-step transition the package once exported. With no rng the
    move draw is seeded by (task seed, slot), making the step a
    deterministic function of its arguments. Returns (next state, set of
    newly served users).
    """
    import numpy as np

    from thzvlc import env

    if state.slot_index >= scenario.slots_per_period:
        raise ValueError("cannot step past the end of the period")
    outcome = env.evaluate_service(state, action, scenario, env.slot_links(state, scenario))
    if rng is None:
        rng = np.random.default_rng([task.rng_seed, state.slot_index])
    next_state = env.EnvState(
        user_cells=move(task.pattern, state.user_cells, rng),
        user_heights=state.user_heights,
        served=outcome.served_after,
        slot_index=state.slot_index + 1,
    )
    return next_state, set(outcome.newly_served)


def rollout(task, params, decode, scenario, rng, realization=None):
    """One period, one slot after the other, as the package rolled a period
    before it advanced a batch in lockstep.

    Per slot: encode the state, one forward pass of that encoding, an
    inverse-CDF action draw from the rng, the slot's links, decode (a
    one-state `decoder`), serve, then the users' move draws from the rng,
    unless a fixed realization supplies the moves.
    """
    from thzvlc import env, policy_net

    state = env.reset(task, scenario)
    if realization is not None:
        state = env.state_at_slot(realization, 0, state.served)
    steps = []
    for t in range(scenario.slots_per_period):
        enc = policy_net.encode_state(state, scenario)
        idx = policy_net.sample_action(forward_one(params, enc), rng)
        links = env.slot_links(state, scenario)
        action = decode(idx, state, links)
        outcome = env.evaluate_service(state, action, scenario, links)
        if realization is not None:
            next_cells = realization.cells[t + 1]
        else:
            next_cells = move(task.pattern, state.user_cells, rng)
        steps.append(Step(state, enc, idx, action, outcome.newly_served, outcome.localized, outcome.tx_ok))
        state = env.EnvState(
            user_cells=next_cells,
            user_heights=state.user_heights,
            served=outcome.served_after,
            slot_index=t + 1,
        )
    return Traj(steps, state)


# Bytes of crossing-table entries one `dense_ceiling_links` block gathers:
# a state takes users**2 * units floats (45 KB at the reference room).
LINK_BLOCK_BYTES = 1 << 18


def dense_ceiling_links(cells, heights, free, scenario):
    """`env.ceiling_links` as the package ran it before it skipped the cell
    pairs that never meet: per block of states, one gather of the crossing
    table over every (state, user, other user, unit) and the z stage over
    all of it."""
    import numpy as np

    count, users, units = free.shape
    ok = np.empty(free.shape, dtype=bool)
    block = max(1, LINK_BLOCK_BYTES // (8 * users * users * units))
    others = np.arange(users)
    cross = scenario.tables[0]
    for lo in range(0, count, block):
        at = slice(lo, lo + block)
        cross.fill(cells[at])
        z = cross.lo[cells[at, :, None], cells[at, None, :]]
        rx = heights[at, :, None, None]
        z *= scenario.ceiling_z - rx
        z += rx
        hit = z <= heights[at, None, :, None]  # NaN, where the XY stage misses, is never
        hit[:, others, others] = False  # a receiver's own body
        np.logical_and(free[at], ~hit.any(axis=2), out=ok[at])
    return ok.transpose(0, 2, 1)


def reset_uncached(task, scenario):
    """`env.reset` as the package ran it before a scenario kept each task's
    start: a fresh rng of the task seed on every call."""
    import numpy as np

    from thzvlc import env

    rng = np.random.default_rng([task.rng_seed])
    cells = rng.integers(0, scenario.num_cells, scenario.num_users)
    lo, hi = scenario.user_height_range
    heights = rng.uniform(lo, hi, scenario.num_users)
    return env.EnvState(
        user_cells=tuple(int(c) for c in cells),
        user_heights=tuple(float(h) for h in heights),
        served=(False,) * scenario.num_users,
        slot_index=0,
    )


def inverse_cdf(cum, u):
    """Index of the first running sum above u: a categorical draw from the
    uniform u (the last index when rounding leaves the total below it).

    The sequential search the rollouts drew with before the two-level
    `policy_net.draw_actions`."""
    import numpy as np

    return int(min(np.searchsorted(cum, u, side="right"), len(cum) - 1))


def object_rollouts(tasks, params, decode, scenario, uniforms, keep):
    """`meta_rl.rollout_period` as the package ran it with one object per
    step: (trajectories as `Traj`s, kept forward values or None, each
    step's kept row or None).

    What rows share is worked out once: a reset per task, an encoding per
    distinct state (an `EnvState`, hashed), a forward pass per block of at
    most the head's input width of distinct encodings, an `env.slot_links`
    per distinct (cells, heights), and a one-state decode (`decoder`) and
    `env.evaluate_service` per distinct (state, index).
    """
    import numpy as np

    from thzvlc import env, policy_net

    u = np.asarray(uniforms, dtype=float)
    count, slots = len(tasks), scenario.slots_per_period
    kept = rows_of = None
    if keep:
        kept = policy_net.Forward(
            [np.empty((count * slots, n_in)) for n_in, _ in params.layer_shapes],
            np.empty((count * slots, params.action_count)),
        )
        rows_of = np.empty((count, slots), dtype=np.intp)
    filled = 0
    groups = {}
    for b, task in enumerate(tasks):
        groups.setdefault(id(task), []).append(b)
    states = [None] * len(tasks)
    for group in groups.values():
        start = env.reset(tasks[group[0]], scenario)
        for b in group:
            states[b] = start
    width = params.layer_shapes[-1][0]
    links = {}
    served = {}
    steps = [[] for _ in tasks]
    for t in range(slots):
        distinct = {state: i for i, state in enumerate(dict.fromkeys(states))}
        x = np.array([policy_net.encode_state(state, scenario) for state in distinct])
        rows = [distinct[state] for state in states]
        indices = [0] * len(states)
        for lo in range(0, len(x), width):
            fw = policy_net.forward(params, x[lo : lo + width])
            if keep:
                at = slice(filled + lo, filled + lo + len(fw.probs))
                for mine, block in zip(kept.inputs, fw.inputs):
                    mine[at] = block
                kept.probs[at] = fw.probs
            cum = np.cumsum(fw.probs, axis=1)
            for b, r in enumerate(rows):
                if lo <= r < lo + width:
                    indices[b] = inverse_cdf(cum[r - lo], u[b, t, 0])
        if keep:
            rows_of[:, t] = [filled + r for r in rows]
            filled += len(x)
        for b, (state, idx) in enumerate(zip(states, indices)):
            key = (state, idx)
            if key not in served:
                where = (state.user_cells, state.user_heights)
                if where not in links:
                    links[where] = env.slot_links(state, scenario)
                action = decode(idx, state, links[where])
                served[key] = action, env.evaluate_service(state, action, scenario, links[where])
            action, outcome = served[key]
            steps[b].append(Step(state, x[distinct[state]], idx, action, outcome.newly_served,
                                 outcome.localized, outcome.tx_ok))
        cells = np.array([state.user_cells for state in states])
        for group in groups.values():
            cells[group] = env.next_cells(tasks[group[0]].pattern, cells[group], u[group, t, 1:])
        states = [
            env.EnvState(tuple(moved), state.user_heights, served[(state, idx)][1].served_after, t + 1)
            for state, idx, moved in zip(states, indices, cells.tolist())
        ]
    trajectories = [Traj(row, state) for row, state in zip(steps, states)]
    if not keep:
        return trajectories, None, None
    kept = policy_net.Forward([a[:filled] for a in kept.inputs], kept.probs[:filled])
    return trajectories, kept, rows_of.ravel()


# --- movement patterns and the trajectory log -------------------------------------


def dense_transition(pattern):
    """The pattern as a dense (cells, cells) matrix: row c holds probs[c, i]
    in column to[c, i]. The 0.0 padding adds nothing to the column it names."""
    import numpy as np

    g = len(pattern.to)
    matrix = np.zeros((g, g))
    np.add.at(matrix, (np.arange(g)[:, None], pattern.to), pattern.probs)
    return matrix


def pattern_from_dense(matrix):
    """The neighbour rows of a dense row-stochastic matrix: each row's
    positive entries in column order, right-aligned and padded on the left
    with 0.0 entries that name cell 0."""
    import numpy as np

    from thzvlc import env

    matrix = np.asarray(matrix, dtype=float)
    support = matrix > 0
    counts = support.sum(axis=1)
    inside = np.arange(counts.max()) >= (counts.max() - counts)[:, None]
    to = np.zeros(inside.shape, dtype=np.intp)
    probs = np.zeros(inside.shape)
    to[inside] = np.nonzero(support)[1]
    probs[inside] = matrix[support]
    return env.MovementPattern(to, probs)


def sample_transition(cells_per_side, seed, concentration, locality_radius):
    """The movement pattern as the package drew it before its array pass:
    one `rng.dirichlet` call per cell over the cell's Chebyshev neighbours
    in row-major order; a cell with no other neighbour keeps its user."""
    import numpy as np

    n = cells_per_side
    g = n * n
    rng = np.random.default_rng(seed)
    matrix = np.zeros((g, g))
    for idx in range(g):
        ix, iy = idx % n, idx // n
        neighbors = [
            jy * n + jx
            for jy in range(max(0, iy - locality_radius), min(n, iy + locality_radius + 1))
            for jx in range(max(0, ix - locality_radius), min(n, ix + locality_radius + 1))
        ]
        if len(neighbors) == 1:
            matrix[idx, neighbors[0]] = 1.0
        else:
            matrix[idx, neighbors] = rng.dirichlet([concentration] * len(neighbors))
    return matrix


def trajectories_csv(trajectories, scenario):
    """The text of trajectories.csv, written one user row at a time."""
    import csv
    import io

    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(
        [
            "period", "slot", "user", "cell_x", "cell_y", "height",
            "localized", "assigned_sbs", "tx_ok", "newly_served",
        ]
    )
    for period, traj in enumerate(trajectories):
        for step in traj.steps:
            newly = set(step.newly_served)
            for j in range(scenario.num_users):
                cx, cy = scenario.cell_centers[step.state.user_cells[j]]
                sbs = next((s for u, s in step.action.assignments if u == j), -1)
                writer.writerow(
                    [
                        period,
                        step.state.slot_index,
                        j,
                        repr(cx),
                        repr(cy),
                        repr(step.state.user_heights[j]),
                        int(step.localized[j]),
                        sbs,
                        int(step.tx_ok[j]),
                        int(j in newly),
                    ]
                )
    return fh.getvalue()
