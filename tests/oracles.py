"""Independent reference computations used only by the tests.

Everything here is written directly from the model formulas with plain
math, deliberately separate from the package code paths it checks.
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


def best_matching_value(weights, allow_skip):
    """Max total weight over injective row->column matchings, by enumeration."""
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
            total += max(w, 0.0) if allow_skip else w
        best = max(best, total)
    if allow_skip:
        best = max(best, 0.0)
    return best


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


def square_hungarian_max(w, allow_skip):
    """(matching, value) of the maximum-weight matching, solved on the
    matrix padded with zeros to a square, as `hungarian_max` once did."""
    import numpy as np

    m, n = w.shape
    effective = np.maximum(w, 0.0) if allow_skip else w
    size = max(m, n)
    padded = np.zeros((size, size))
    padded[:m, :n] = effective
    row_to_col = square_min_cost_assignment(padded.max() - padded)
    pairs = []
    value = 0.0
    for i in range(m):
        j = row_to_col[i]
        if j < 0 or j >= n:
            continue
        if allow_skip and w[i, j] <= 0.0:
            continue
        pairs.append((i, j))
        value += float(w[i, j])
    return tuple(pairs), value


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
    with the leave-one-out baseline, zero coefficients included."""
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
