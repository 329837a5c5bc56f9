"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. The learning criteria use small frozen scenarios whose exhaustive
optima come from the in-repo brute-force oracle; trajectories produced
along the way are pooled and audited for structural invariants.
"""

import dataclasses
import math
import time

import numpy as np

import oracles
from conftest import make_toy_scenario
from thzvlc import env, harness, meta_rl
from thzvlc.association import check_period_feasible, hungarian_max, solve_period_association
from thzvlc.geometry import BodyOccupancy, Point3, distance, los_clear
from thzvlc.meta_rl import LearningConfig, adapt, meta_train
from thzvlc.policy_net import PolicyParams, forward, grad_log_prob, init_params, layer_shapes_for

# every trajectory the learning criteria produce is audited on arrival;
# criterion 9 asserts the tally and that no violation was recorded
AUDIT_COUNT = [0]
AUDIT_FAILURES: list[str] = []


def pool_sink(scenario, is_dual):
    def sink(traj):
        AUDIT_COUNT[0] += 1
        try:
            audit_trajectory(traj, scenario, is_dual)
        except AssertionError as exc:
            AUDIT_FAILURES.append(f"trajectory {AUDIT_COUNT[0]}: {exc}")
    return sink


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- frozen learning fixtures -------------------------------------------------

# criterion 6 toy: 4 VAPs, 2 SBSs, 2 users, 2 slots, users never move
TOY_FOV_DEG = 70.0
TOY_TASK_SEED = 10

# criterion 7 family: 6 VAPs so the VAP choice dominates the problem
ADAPT_VAP_XY = ((2, 2), (4, 2), (2, 4), (4, 4), (3, 2), (3, 4))
ADAPT_FOV_DEG = 68.0
ADAPT_TRAIN_SEEDS = range(100, 130)
ADAPT_UNSEEN_COUNT = 5


def convergence_toy():
    return make_toy_scenario(fov_deg=TOY_FOV_DEG)


def adaptation_toy():
    base = make_toy_scenario(fov_deg=ADAPT_FOV_DEG, vap_xy=ADAPT_VAP_XY)
    return dataclasses.replace(base, user_height_range=(1.55, 1.75))


def frozen_tasks(scenario, seeds):
    return [
        env.sample_task(scenario.grid, seed=s, locality_radius=0, task_id=s) for s in seeds
    ]


def unseen_hard_tasks(scenario, count=ADAPT_UNSEEN_COUNT):
    """First seeds from 300 whose task needs a deliberate policy: full
    service is achievable but the average action serves under 40% of it."""
    space = env.enumerate_joint_actions(scenario)
    chosen = []
    for seed in range(300, 1000):
        task = env.sample_task(scenario.grid, seed=seed, locality_radius=0, task_id=seed)
        best, _ = env.brute_force_oracle(task, scenario, 0)
        state = env.reset(task, scenario)
        mean_reward = np.mean(
            [len(env.evaluate_service(state, a, scenario).newly_served) for a in space]
        )
        if best == scenario.num_users and mean_reward <= 0.4 * best:
            chosen.append(task)
            if len(chosen) == count:
                return chosen
    raise RuntimeError("not enough hard unseen tasks")


def iterations_to_level(curve, frac=0.9, tail=10):
    c = np.array(curve)
    converged = c[-tail:].mean()
    if converged <= 0:
        return 1
    for i, v in enumerate(c):
        if v >= frac * converged:
            return i + 1
    return len(c)


def train_until(target, kind, cfg, scenario, tasks, max_iters, chunk=100, sink=None):
    """Chunked training; stops once a chunk's final mean reward hits target."""
    params = None
    means = []
    used = 0
    while used < max_iters:
        step_cfg = dataclasses.replace(cfg, meta_iterations=min(chunk, max_iters - used))
        params, metrics = meta_train(
            step_cfg, scenario, tasks, kind, master_seed=used, initial_params=params,
            trajectory_sink=sink,
        )
        means.extend(m.mean_reward for m in metrics)
        used += step_cfg.meta_iterations
        if means[-1] >= target:
            break
    return params, means, used


# -- criteria ------------------------------------------------------------------


def test_criterion_1_hungarian_exactness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        w = rng.uniform(-10, 10, (5, 5))
        for allow_skip in (True, False):
            got = hungarian_max(w, allow_skip=allow_skip)
            want = oracles.best_matching_value(w.tolist(), allow_skip)
            assert abs(got.objective_value - want) <= 1e-9
            rows = [i for i, _ in got.matching]
            cols = [j for _, j in got.matching]
            assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        checked += 1
    for _ in range(500):
        m, n = rng.integers(1, 7, 2)
        w = rng.uniform(-10, 10, (int(m), int(n)))
        for allow_skip in (True, False):
            got = hungarian_max(w, allow_skip=allow_skip)
            want = oracles.best_matching_value(w.tolist(), allow_skip)
            assert abs(got.objective_value - want) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0, f"hungarian exact on {checked} matrices in {elapsed:.2f}s (< 5s)")


def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n_in = int(rng.integers(2, 21))
        hidden = int(rng.integers(4, 41))
        n_out = int(rng.integers(2, 21))
        shapes = layer_shapes_for(n_in, (hidden,), n_out)
        params = init_params(shapes, seed=trial)
        assert params.size <= 2000
        x = rng.normal(size=n_in)
        action = int(rng.integers(n_out))
        analytic = grad_log_prob(params, x, action)
        eps = 1e-5
        numeric = np.empty(params.size)
        for i in range(params.size):
            plus, minus = params.flat.copy(), params.flat.copy()
            plus[i] += eps
            minus[i] -= eps
            lp = math.log(forward(PolicyParams(plus, shapes, n_out), x)[action])
            lm = math.log(forward(PolicyParams(minus, shapes, n_out), x)[action])
            numeric[i] = (lp - lm) / (2 * eps)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-4 and elapsed < 30.0,
        f"100 gradient checks, worst rel err {worst:.2e} (<= 1e-4) in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_channel_oracle(default_radio):
    from thzvlc import channel

    rng = np.random.default_rng(1003)
    worst = 0.0

    def rel(a, b):
        if a == b:
            return 0.0
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    for _ in range(1000):
        sbs = Point3(*rng.uniform(0, 6, 2), 3.0)
        user = Point3(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0))
        others = [Point3(*rng.uniform(0, 6, 2), 3.0) for _ in range(int(rng.integers(0, 7)))]
        r = distance(sbs, user)

        worst = max(worst, rel(
            channel.transmittance(r, default_radio),
            oracles.transmittance(r, default_radio.absorption_per_m)))
        worst = max(worst, rel(
            channel.path_loss(sbs, user, True, default_radio),
            oracles.path_loss(r, default_radio.carrier_freq_hz, default_radio.absorption_per_m)))
        all_sbs = [sbs, *others]
        want_noise = oracles.noise(
            [distance(s, user) for s in all_sbs],
            default_radio.tx_power_w,
            default_radio.carrier_freq_hz,
            default_radio.absorption_per_m,
            default_radio.noise_density_w_per_hz,
            default_radio.bandwidth_hz,
        )
        worst = max(worst, rel(channel.noise_power(user, all_sbs, default_radio), want_noise))
        budget = channel.link_budget(sbs, user, [], all_sbs, default_radio)
        g = oracles.path_loss(r, default_radio.carrier_freq_hz, default_radio.absorption_per_m)
        want_rate = oracles.rate(g, want_noise, default_radio.tx_power_w, default_radio.bandwidth_hz)
        want_delay = oracles.delay(default_radio.image_size_bits, want_rate)
        worst = max(worst, rel(budget.rate_bps, want_rate))
        worst = max(worst, rel(budget.delay_s, want_delay))
    report(3, worst <= 1e-9, f"channel vs scalar oracle, worst rel err {worst:.2e} (<= 1e-9)")


def test_criterion_4_blockage_oracle():
    rng = np.random.default_rng(1004)
    disagreements = 0
    for _ in range(1000):
        tx = Point3(*rng.uniform(0, 6, 2), 3.0)
        rx = Point3(*rng.uniform(0, 6, 2), rng.uniform(1.2, 2.0))
        if (tx.x, tx.y) == (rx.x, rx.y):
            continue
        bodies = [
            (tuple(rng.uniform(0, 6, 2)), rng.uniform(1.2, 2.2), rng.uniform(0.05, 0.4))
            for _ in range(int(rng.integers(1, 5)))
        ]
        blockers = [BodyOccupancy(c, h, r) for c, h, r in bodies]
        got = los_clear(tx, rx, blockers)
        want = oracles.swept_los_clear(
            (tx.x, tx.y, tx.z), (rx.x, rx.y, rx.z), bodies, samples=10_000
        )
        if got != want:
            disagreements += 1
    report(4, disagreements == 0, f"blockage vs 10^4-sample sweep, {disagreements} disagreements")


def test_criterion_5_assignment_optimality():
    scenario = make_toy_scenario(num_users=3, slots_per_period=2)
    rng = np.random.default_rng(1005)
    start = time.perf_counter()
    mismatches = 0
    for trial in range(200):
        task = env.sample_task(scenario.grid, seed=7000 + trial, locality_radius=1)
        real = env.sample_realization(task, scenario, 0)
        vaps = [tuple(sorted(rng.choice(4, 3, replace=False))) for _ in range(2)]
        per_slot = solve_period_association(vaps, real, scenario, dual_iters=40)
        assert check_period_feasible(per_slot, scenario.num_users, scenario.num_sbs)
        got = len({j for slot in per_slot for _, j in slot})

        blank = (False,) * scenario.num_users
        tables = []
        for t in range(2):
            state = env.state_at_slot(real, t, blank)
            table = [[0] * scenario.num_users for _ in range(scenario.num_sbs)]
            for i in range(scenario.num_sbs):
                for j in range(scenario.num_users):
                    joint = env.JointAction(vap_set=vaps[t], assignments=((j, i),))
                    out = env.evaluate_service(state, joint, scenario)
                    table[i][j] = int(out.localized[j] and out.tx_ok[j])
            tables.append(table)
        want = oracles.best_period_service(tables, scenario.num_users, scenario.num_sbs, 2)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        mismatches == 0 and elapsed < 60.0,
        f"dual association optimal on 200 fixtures ({mismatches} misses) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_small_instance_learning():
    scenario = convergence_toy()
    task = frozen_tasks(scenario, [TOY_TASK_SEED])[0]
    best, _ = env.brute_force_oracle(task, scenario, 0)
    assert best > 0
    cfg = LearningConfig(
        inner_lr=0.1, meta_lr=0.05, inner_rollouts=10, outer_rollouts=10,
        meta_iterations=100, tasks_per_batch=1, hidden_sizes=(32,),
    )

    start = time.perf_counter()
    _, mpg_means, mpg_iters = train_until(
        0.95 * best, "mpg", cfg, scenario, [task], max_iters=2000,
        sink=pool_sink(scenario, False),
    )
    mpg_time = time.perf_counter() - start
    mpg_ok = mpg_means[-1] >= 0.95 * best and mpg_time < 600

    start = time.perf_counter()
    _, dmpg_means, dmpg_iters = train_until(
        0.90 * best, "dmpg", cfg, scenario, [task], max_iters=2000,
        sink=pool_sink(scenario, True),
    )
    dmpg_time = time.perf_counter() - start
    dmpg_ok = dmpg_means[-1] >= 0.90 * best and dmpg_time < 600

    report(
        6,
        mpg_ok and dmpg_ok,
        f"oracle {best}; joint policy {mpg_means[-1]:.2f} (>= {0.95 * best:.2f}) after "
        f"{mpg_iters} iters in {mpg_time:.0f}s; dual policy {dmpg_means[-1]:.2f} "
        f"(>= {0.90 * best:.2f}) after {dmpg_iters} iters in {dmpg_time:.0f}s",
    )


def test_criterion_7_meta_adaptation():
    scenario = adaptation_toy()
    train_tasks = frozen_tasks(scenario, ADAPT_TRAIN_SEEDS)
    unseen = unseen_hard_tasks(scenario)
    medians = {}
    for kind, iters in (("mpg", 600), ("dmpg", 400)):
        cfg = LearningConfig(
            inner_lr=0.1, meta_lr=0.1, inner_rollouts=10, outer_rollouts=10,
            meta_iterations=iters, tasks_per_batch=10, hidden_sizes=(64,),
        )
        meta_params, _ = meta_train(cfg, scenario, train_tasks, kind, master_seed=0,
                                    trajectory_sink=pool_sink(scenario, kind == "dmpg"))
        ratios = []
        for task in unseen:
            _, meta_curve = adapt(meta_params, task, 100, cfg, scenario, kind=kind,
                                  master_seed=1, trajectory_sink=pool_sink(scenario, kind == "dmpg"))
            random_init = meta_rl.new_policy(kind, scenario, cfg, seed=task.id)
            _, random_curve = adapt(random_init, task, 100, cfg, scenario, kind=kind,
                                    master_seed=1)
            ratios.append(
                iterations_to_level(meta_curve) / iterations_to_level(random_curve)
            )
        medians[kind] = float(np.median(ratios))
    ok = all(m <= 0.5 for m in medians.values())
    report(
        7,
        ok,
        "median iterations-to-90% ratio meta/random: "
        f"joint {medians['mpg']:.3f}, dual {medians['dmpg']:.3f} (both <= 0.5)",
    )


def test_criterion_8_dmpg_scalability():
    # full-size dual-method run: 20 users, 7 VAPs, 7 SBSs, 3 slots
    big = env.default_scenario(num_users=20)
    tasks = [env.sample_task(big.grid, seed=s, locality_radius=1, task_id=s) for s in range(10)]
    cfg = LearningConfig(
        inner_lr=0.1, meta_lr=0.05, inner_rollouts=10, outer_rollouts=5,
        meta_iterations=200, tasks_per_batch=5, hidden_sizes=(64, 64),
    )
    start = time.perf_counter()
    _, metrics = meta_train(cfg, big, tasks, "dmpg", master_seed=0, trajectory_sink=pool_sink(big, True))
    big_time = time.perf_counter() - start
    big_ok = len(metrics) == 200 and big_time < 1800

    # paired per-iteration timing at 8 users on identical seeds and config
    mid = env.default_scenario(num_users=8)
    mid_tasks = [env.sample_task(mid.grid, seed=s, locality_radius=1, task_id=s) for s in range(2)]
    pair_cfg = LearningConfig(
        inner_lr=0.1, meta_lr=0.05, inner_rollouts=2, outer_rollouts=1,
        meta_iterations=2, tasks_per_batch=1, hidden_sizes=(16,),
    )
    _, mpg_metrics = meta_train(pair_cfg, mid, mid_tasks, "mpg", master_seed=0,
                               trajectory_sink=pool_sink(mid, False))
    _, dmpg_metrics = meta_train(pair_cfg, mid, mid_tasks, "dmpg", master_seed=0,
                                 trajectory_sink=pool_sink(mid, True))
    mpg_iter = float(np.mean([m.wall_clock_s for m in mpg_metrics]))
    dmpg_iter = float(np.mean([m.wall_clock_s for m in dmpg_metrics]))

    report(
        8,
        big_ok and dmpg_iter < mpg_iter,
        f"200-iteration 20-user dual run in {big_time / 60:.1f} min (< 30); "
        f"8-user per-iteration wall clock dual {dmpg_iter:.3f}s < joint {mpg_iter:.3f}s",
    )


def audit_trajectory(traj, scenario, is_dual):
    horizon_cap = min(scenario.num_users, scenario.num_sbs * scenario.slots_per_period)
    assert traj.total_reward <= horizon_cap

    served = traj.steps[0].state.served
    newly_total = 0
    per_slot_pairs = []
    for step in traj.steps:
        assert step.state.served == served or step.state.slot_index == 0
        # service requires localization and delivery in the same slot
        for j in step.newly_served:
            assert step.localized[j] and step.tx_ok[j]
        # association one-to-one
        users = [u for u, _ in step.action.assignments]
        stations = [s for _, s in step.action.assignments]
        assert len(set(users)) == len(users) and len(set(stations)) == len(stations)
        per_slot_pairs.append(tuple((s, u) for u, s in step.action.assignments))
        nxt = tuple(w or (j in step.newly_served) for j, w in enumerate(served))
        newly_total += len(step.newly_served)
        served = nxt
    assert served == traj.final_state.served
    assert newly_total == sum(traj.final_state.served)
    if is_dual:
        assert check_period_feasible(per_slot_pairs, scenario.num_users, scenario.num_sbs)


def test_criterion_9_structural_invariants(tmp_path):
    # everything the learning criteria produced has already been audited by
    # the sinks; add a fresh run of each algorithm so this test also stands
    # alone, then assert the tally
    cfg_text = (
        "[scenario]\nnum_users = 2\ncells_per_side = 3\nslots_per_period = 2\n"
        "vap_positions = 2,2; 4,2; 2,4; 4,4\nsbs_positions = 2,3; 4,3\n"
        "[learning]\ninner_rollouts = 3\nouter_rollouts = 2\nmeta_iterations = 2\n"
        "tasks_per_batch = 2\nhidden_sizes = 8\n[tasks]\ncount = 3\n"
    )
    for algo in ("mpg", "dmpg", "pg"):
        cfg_file = tmp_path / f"{algo}.cfg"
        cfg_file.write_text(cfg_text)
        spec = harness.load_spec(
            cfg_file, environ={},
            overrides={("run", "algorithm"): algo,
                       ("run", "output_dir"): str(tmp_path / algo)},
        )
        tasks = harness.build_task_stream(spec)
        sink = pool_sink(spec.scenario, algo == "dmpg")
        if algo == "pg":
            meta_rl.train_baseline_pg(spec.learning, spec.scenario, tasks, master_seed=0,
                                      trajectory_sink=sink)
        else:
            meta_train(spec.learning, spec.scenario, tasks, spec.kind, master_seed=0,
                       trajectory_sink=sink)
    assert AUDIT_COUNT[0] > 100
    report(
        9,
        not AUDIT_FAILURES,
        f"{AUDIT_COUNT[0]} trajectories audited, "
        f"{len(AUDIT_FAILURES)} invariant violations"
        + (f"; first: {AUDIT_FAILURES[0]}" if AUDIT_FAILURES else ""),
    )


def test_criterion_10_determinism(tmp_path):
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(
        "[scenario]\nnum_users = 2\ncells_per_side = 3\nslots_per_period = 2\n"
        "vap_positions = 2,2; 4,2; 2,4; 4,4\nsbs_positions = 2,3; 4,3\n"
        "[learning]\ninner_rollouts = 3\nouter_rollouts = 2\nmeta_iterations = 3\n"
        "tasks_per_batch = 2\nhidden_sizes = 8\n[tasks]\ncount = 3\n"
        "[run]\nalgorithm = mpg\nmaster_seed = 7\n"
    )
    outs = []
    for name in ("run_a", "run_b"):
        code = harness.main(
            ["train", "--config", str(cfg_file), "--out", str(tmp_path / name)]
        )
        assert code == 0
        outs.append((tmp_path / name / "metrics.csv").read_bytes())
    identical = outs[0] == outs[1]
    report(10, identical, f"repeated train runs give byte-identical metrics.csv ({len(outs[0])} bytes)")
