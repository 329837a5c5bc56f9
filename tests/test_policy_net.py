import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzvlc import policy_net
from thzvlc.env import EnvState
from thzvlc.policy_net import (
    PolicyParams,
    accumulate_grad_log_prob,
    encode_state,
    forward,
    grad_log_prob,
    init_params,
    layer_shapes_for,
    load_params,
    sample_action,
    save_params,
)
from conftest import make_toy_scenario


def small_net(seed=0, shapes=((3, 8), (8, 4))):
    return init_params(shapes, seed)


def fd_gradient(params, encoding, action, eps=1e-5):
    grad = np.empty(params.size)
    for i in range(params.size):
        plus = params.flat.copy()
        plus[i] += eps
        minus = params.flat.copy()
        minus[i] -= eps
        p_plus = PolicyParams(plus, params.layer_shapes, params.action_count)
        p_minus = PolicyParams(minus, params.layer_shapes, params.action_count)
        lp = math.log(forward(p_plus, encoding)[action])
        lm = math.log(forward(p_minus, encoding)[action])
        grad[i] = (lp - lm) / (2 * eps)
    return grad


class TestInit:
    def test_deterministic(self):
        a = small_net(seed=7)
        b = small_net(seed=7)
        assert np.array_equal(a.flat, b.flat)

    def test_biases_zero(self):
        params = small_net()
        ofs = 0
        for n_in, n_out in params.layer_shapes:
            w_end = ofs + n_in * n_out
            assert np.all(params.flat[w_end : w_end + n_out] == 0.0)
            ofs = w_end + n_out

    def test_weight_variance_scales_with_fan_in(self):
        fan_in = 50
        params = init_params(((fan_in, 200),), seed=3)
        weights = params.flat[: fan_in * 200]
        assert weights.var() == pytest.approx(1.0 / fan_in, rel=0.2)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            init_params(((3, 8), (9, 4)), seed=0)


class TestForward:
    def test_zero_weights_uniform(self):
        shapes = ((3, 5), (5, 4))
        size = sum(i * o + o for i, o in shapes)
        params = PolicyParams(np.zeros(size), shapes, 4)
        dist = forward(params, np.array([0.3, -1.0, 2.0]))
        assert np.allclose(dist, 0.25, atol=1e-12)

    def test_sums_to_one(self):
        params = small_net(seed=1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            dist = forward(params, rng.normal(size=3))
            assert abs(dist.sum() - 1.0) <= 1e-9
            assert (dist > 0).all()

    def test_single_layer_matches_hand_softmax(self):
        # W = [[1, 0], [0, 2]], b = [0.5, -0.5], x = [1, 1]
        flat = np.array([1.0, 0.0, 0.0, 2.0, 0.5, -0.5])
        params = PolicyParams(flat, ((2, 2),), 2)
        x = np.array([1.0, 1.0])
        logits = np.array([1.0 * 1 + 0 * 1 + 0.5, 0 * 1 + 2.0 * 1 - 0.5])
        want = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(forward(params, x), want, rtol=1e-12)

    def test_pure_function(self):
        params = small_net(seed=5)
        x = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(forward(params, x), forward(params, x))

    def test_rejects_nonfinite_params(self):
        flat = np.zeros(6)
        flat[2] = np.nan
        with pytest.raises(ValueError):
            PolicyParams(flat, ((2, 2),), 2)

    def test_rejects_wrong_input_size(self):
        params = small_net()
        with pytest.raises(ValueError):
            forward(params, np.zeros(5))


class TestGradLogProb:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 5)))
            shapes = layer_shapes_for(sizes[0], (sizes[1],), sizes[2])
            params = init_params(shapes, seed=trial)
            x = rng.normal(size=sizes[0])
            action = int(rng.integers(sizes[2]))
            analytic = grad_log_prob(params, x, action)
            numeric = fd_gradient(params, x, action)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-4

    def test_score_function_identity(self):
        params = small_net(seed=2)
        x = np.array([0.4, -0.2, 1.1])
        dist = forward(params, x)
        total = np.zeros(params.size)
        for a, p in enumerate(dist):
            total += p * grad_log_prob(params, x, a)
        assert np.abs(total).max() <= 1e-8

    def test_untaken_action_weights_receive_gradient(self):
        params = small_net(seed=3, shapes=((2, 3),))
        x = np.array([1.0, -0.5])
        g = grad_log_prob(params, x, 0)
        # rows of W for actions 1 and 2 are coupled through the softmax
        w_grad = g[: 2 * 3].reshape(3, 2)
        assert np.abs(w_grad[1]).max() > 0
        assert np.abs(w_grad[2]).max() > 0
        numeric = fd_gradient(params, x, 0)
        assert np.allclose(g, numeric, atol=1e-6)

    def test_bad_action_index(self):
        params = small_net()
        with pytest.raises(ValueError):
            grad_log_prob(params, np.zeros(3), 99)


PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def batches(draw):
    """A small net and S rows, sometimes more than one row block."""
    n_in = draw(st.integers(1, 4))
    hidden = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=2)))
    actions = draw(st.integers(1, 6))
    params = init_params(layer_shapes_for(n_in, hidden, actions), draw(st.integers(0, 99)))
    block = params.layer_shapes[-1][0]
    n_rows = draw(st.integers(1, 3 * block + 2))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    x = rng.normal(size=(n_rows, n_in))
    # few distinct actions, so rows repeat them
    a = draw(st.lists(st.integers(0, min(actions, 3) - 1), min_size=n_rows, max_size=n_rows))
    c = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.25, -2.5, 3.0]),
                      min_size=n_rows, max_size=n_rows))
    return params, x, a, c


def assert_matches_row_sum(params, x, a, c):
    """The batched kernel against the coefficient-weighted per-row gradients."""
    terms = np.array([ci * grad_log_prob(params, xi, ai) for xi, ai, ci in zip(x, a, c)])
    out = accumulate_grad_log_prob(params, x, a, c).dense()
    scale = np.abs(terms).sum(axis=0).max()
    assert np.abs(out - terms.sum(axis=0)).max() <= 1e-12 * scale


class TestBatchedGradient:
    @PROPERTY
    @given(batches())
    def test_equals_sum_of_rows(self, batch):
        assert_matches_row_sum(*batch)

    def test_single_row(self):
        params = small_net(seed=4)
        assert_matches_row_sum(params, np.array([[0.3, -0.7, 1.2]]), [2], [-1.5])

    def test_rows_span_several_blocks(self):
        params = small_net(seed=5)  # last hidden width 8: blocks of 8 rows
        rng = np.random.default_rng(6)
        n_rows = 2 * 8 + 3
        a = rng.integers(0, 4, n_rows)
        c = rng.normal(size=n_rows)
        c[::5] = 0.0
        assert_matches_row_sum(params, rng.normal(size=(n_rows, 3)), a, c)

    def test_factored_below_break_even_dense_above(self):
        # rank 4 factors of an 8 x 8 matrix hold as many entries as it
        assert policy_net.factors_fit(3, 8, 8) and not policy_net.factors_fit(4, 8, 8)
        # head 4 x 8: factors of rank S hold S * 12 entries against 32
        params = small_net(seed=7)
        rng = np.random.default_rng(8)
        for n_rows, factored in ((1, True), (2, True), (3, False), (9, False)):
            x = rng.normal(size=(n_rows, 3))
            g = accumulate_grad_log_prob(params, x, [1] * n_rows, [2.0] * n_rows)
            assert (g.head is None) == factored
            assert g.rank == (n_rows if factored else 0)
            want = sum(2.0 * grad_log_prob(params, xi, 1) for xi in x)
            assert np.allclose(g.dense(), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bad", [-1, 4, 99])
    def test_out_of_range_action_refused(self, bad):
        params = small_net()
        with pytest.raises(ValueError, match="action index"):
            accumulate_grad_log_prob(params, np.zeros((3, 3)), [0, bad, 1], [1.0, 1.0, 1.0])

    def test_mismatched_rows_refused(self):
        params = small_net()
        with pytest.raises(ValueError):
            accumulate_grad_log_prob(params, np.zeros((2, 3)), [0], [1.0, 1.0])
        with pytest.raises(ValueError):
            accumulate_grad_log_prob(params, np.zeros((2, 4)), [0, 1], [1.0, 1.0])


class TestSampleAction:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        dist = np.array([0.0, 1.0, 0.0])
        assert all(sample_action(dist, rng) == 1 for _ in range(20))

    def test_frequencies_match_within_3_sigma(self):
        rng = np.random.default_rng(123)
        dist = np.array([0.1, 0.25, 0.6, 0.05])
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[sample_action(dist, rng)] += 1
        for p, c in zip(dist, counts):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(c - n * p) <= 3 * sigma

    def test_reproducible(self):
        dist = np.array([0.3, 0.7])
        a = [sample_action(dist, np.random.default_rng(5)) for _ in range(10)]
        b = [sample_action(dist, np.random.default_rng(5)) for _ in range(10)]
        assert a == b


class TestEncodeState:
    def test_layout_and_normalization(self):
        sc = make_toy_scenario()
        state = EnvState(
            user_cells=(0, 8), user_heights=(1.5, 1.8), served=(False, True), slot_index=0
        )
        enc = encode_state(state, sc)
        assert enc.shape == (4 * sc.num_users,)
        assert np.all((enc >= 0) & (enc <= 1))
        assert enc[0] == pytest.approx(1.0 / 6.0)  # cell 0 center x
        assert enc[2] == pytest.approx(1.5 / 3.0)
        assert enc[-2:].tolist() == [0.0, 1.0]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = small_net(seed=9)
        path = tmp_path / "ckpt.bin"
        save_params(path, params, config_hash="abcd")
        loaded, header = load_params(path)
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded.layer_shapes == params.layer_shapes
        assert header["config_hash"] == "abcd"

    def test_adapted_policy_saves_its_folded_vector(self, tmp_path):
        params = small_net(seed=9)
        grad = accumulate_grad_log_prob(params, np.ones((1, 3)), [2], [1.5])
        adapted = policy_net.ascend(params, grad, 0.3)
        assert isinstance(adapted, policy_net.AdaptedParams)
        path = tmp_path / "ckpt.bin"
        save_params(path, adapted)
        loaded, _ = load_params(path)
        assert np.array_equal(loaded.flat, adapted.folded().flat)
        assert not np.array_equal(loaded.flat, params.flat)

    def test_corrupt_payload_rejected(self, tmp_path):
        params = small_net(seed=9)
        path = tmp_path / "ckpt.bin"
        save_params(path, params)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            load_params(path)

    def test_truncated_payload_named(self, tmp_path):
        params = small_net(seed=9)
        path = tmp_path / "ckpt.bin"
        save_params(path, params)
        data = path.read_bytes()
        for cut in (3, 8, len(data) - data.index(b"\n") - 1, len(data) - 5):
            path.write_bytes(data[:-cut])
            with pytest.raises(ValueError, match="is truncated"):
                load_params(path)

    def test_header_records_kind(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_params(path, small_net(seed=9), kind="dmpg", scenario_hash="0123abcd")
        _, header = load_params(path)
        assert header["kind"] == "dmpg"
        assert header["scenario_hash"] == "0123abcd"
