"""Contrastive framework mechanics: losses, queue, momentum, reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl.encoder import ConvEncoder, EncoderConfig, MLP
from hcl.frameworks import (
    FRAMEWORK_NAMES,
    FeatureQueue,
    FrameworkConfig,
    MoCoFramework,
    QueueEmptyError,
    SimCLRFramework,
    SimSiamFramework,
    build_framework,
    infonce_loss,
    negative_cosine,
    ntxent_loss,
)
from hcl.gradcheck import TOLERANCE, check_parameter_gradients
from hcl.hallucinator import ExtrapolationConfig, extrapolate, hallucinate
from hcl.rng import substream
from hcl.tensor import ShapeMismatchError, Tensor, concat, l2_normalize
from hcl.train import SGD

# -log(e / (e + 2)) for a unit positive against two orthogonal
# negatives at tau=1; hand-evaluated softmax.
LN_1P_2_OVER_E = 0.5514447139320511

ENC8 = EncoderConfig(channels=(4,), hidden_dim=16, feature_dim=8)


def _small(framework: str, seed: int = 0, **kw) -> object:
    cfg = FrameworkConfig(queue_size=16, **kw)
    return build_framework(framework, ENC8, 8, cfg, seed)


def _batch(rng, b=4, size=8):
    return rng.random((b, 3, size, size))


class TestInfoNCE:
    def test_hand_value_two_orthogonal_negatives(self):
        q = Tensor(np.array([[1.0, 0.0, 0.0]]))
        k = Tensor(np.array([[1.0, 0.0, 0.0]]))
        negs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        loss = infonce_loss(q, k, negs, tau=1.0)
        assert abs(float(loss.data) - LN_1P_2_OVER_E) < 1e-12
        assert abs(float(loss.data) - math.log(1.0 + 2.0 / math.e)) < 1e-12

    def test_empty_bank_raises(self):
        q = Tensor(np.ones((1, 3)))
        with pytest.raises(QueueEmptyError):
            infonce_loss(q, q, np.zeros((0, 3)), tau=1.0)

    def test_bad_tau(self):
        q = Tensor(np.ones((1, 3)))
        with pytest.raises(ValueError, match="tau"):
            infonce_loss(q, q, np.eye(3), tau=0.0)

    def test_scale_invariance_through_normalization(self):
        rng = np.random.default_rng(0)
        raw_q = rng.standard_normal((4, 8))
        raw_k = rng.standard_normal((4, 8))
        negs = rng.standard_normal((6, 8))
        negs /= np.linalg.norm(negs, axis=1, keepdims=True)

        def value(c):
            q = l2_normalize(Tensor(c * raw_q))
            k = l2_normalize(Tensor(c * raw_k))
            return float(infonce_loss(q, k, negs, tau=0.2).data)

        assert abs(value(1.0) - value(37.5)) < 1e-9
        assert abs(value(1.0) - value(1e-3)) < 1e-9


class TestNTXent:
    def test_batch2_orthogonal_hand_value(self):
        z1 = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        z2 = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        bank = Tensor(np.concatenate([z1.data, z2.data], axis=0))
        loss = ntxent_loss(z1, z2, bank, tau=1.0)
        assert abs(float(loss.data) - LN_1P_2_OVER_E) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        z1 = rng.standard_normal((5, 6))
        z2 = rng.standard_normal((5, 6))
        z1 /= np.linalg.norm(z1, axis=1, keepdims=True)
        z2 /= np.linalg.norm(z2, axis=1, keepdims=True)

        def value(a, b):
            bank = Tensor(np.concatenate([a, b], axis=0))
            return float(ntxent_loss(Tensor(a), Tensor(b), bank, tau=0.5).data)

        perm = rng.permutation(5)
        assert abs(value(z1, z2) - value(z1[perm], z2[perm])) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        raw1 = rng.standard_normal((4, 8))
        raw2 = rng.standard_normal((4, 8))

        def value(c):
            a = l2_normalize(Tensor(c * raw1))
            b = l2_normalize(Tensor(c * raw2))
            bank = Tensor(np.concatenate([a.data, b.data], axis=0))
            return float(ntxent_loss(a, b, bank, tau=0.2).data)

        assert abs(value(1.0) - value(250.0)) < 1e-9


class TestNegativeCosine:
    def test_aligned_rows_give_minus_one(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((3, 5))
        loss = negative_cosine(Tensor(p), Tensor(2.0 * p))
        assert abs(float(loss.data) + 1.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal((3, 5))
        t = rng.standard_normal((3, 5))
        a = float(negative_cosine(Tensor(p), Tensor(t)).data)
        b = float(negative_cosine(Tensor(0.01 * p), Tensor(500.0 * t)).data)
        assert abs(a - b) < 1e-9


class TestFeatureQueue:
    def test_fifo_through_three_wraparounds(self):
        q = FeatureQueue(capacity=4, dim=2)
        pushed = []
        for i in range(7):
            rows = np.array([[2 * i, 0.0], [2 * i + 1, 0.0]])
            q.push(rows)
            pushed.extend(rows.tolist())
            expect = np.array(pushed[-4:] if len(pushed) >= 4 else pushed)
            np.testing.assert_array_equal(q.entries(), expect)
        assert len(q) == q.capacity == 4

    def test_oversized_push_keeps_newest(self):
        q = FeatureQueue(capacity=3, dim=1)
        q.push(np.arange(5.0)[:, None])
        np.testing.assert_array_equal(q.entries(), [[2.0], [3.0], [4.0]])

    def test_push_shape_checked(self):
        q = FeatureQueue(capacity=3, dim=2)
        with pytest.raises(ShapeMismatchError):
            q.push(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(5, 2), (2, 3), (4,), (1, 2, 2)])
    def test_load_checks_shape_and_keeps_old_rows(self, shape):
        q = FeatureQueue(capacity=4, dim=2)
        q.push(np.ones((3, 2)))
        before = q.entries()
        with pytest.raises(ShapeMismatchError, match="queue of capacity 4"):
            q.load(np.zeros(shape))
        assert q.entries() is before

    def test_state_round_trip_preserves_order(self):
        src, dst = _small("moco", seed=1), _small("moco", seed=2)
        for i in range(10):  # 30 rows through 16 slots
            src.queue.push(np.full((3, 8), float(i)))
        dst.load_state_arrays(src.state_arrays())
        np.testing.assert_array_equal(dst.queue.entries()[:, 0],
                                      [4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9])
        np.testing.assert_array_equal(dst.queue.entries(), src.queue.entries())
        dst.queue.push(np.full((1, 8), 9.5))
        assert dst.queue.entries()[-1].tolist() == [9.5] * 8
        assert dst.queue.entries()[0].tolist() == [5.0] * 8


@settings(max_examples=80, deadline=None, database=None)
@given(capacity=st.integers(1, 8), dim=st.integers(1, 4),
       sizes=st.lists(st.integers(0, 12), max_size=8))
def test_queue_holds_the_last_capacity_rows(capacity, dim, sizes):
    """Whatever the push sizes, pushes larger than the queue included:
    ``entries()`` is the newest ``capacity`` rows pushed, oldest first,
    it is read-only and never changes after it is returned, and loading
    it into a fresh queue round-trips."""
    q = FeatureQueue(capacity, dim)
    pushed = np.zeros((0, dim))
    held = []
    for k in sizes:
        rows = len(pushed) + np.arange(k * dim, dtype=np.float64).reshape(k, dim) / dim
        q.push(rows)
        pushed = np.concatenate([pushed, rows])
        entries = q.entries()
        np.testing.assert_array_equal(entries, pushed[-capacity:])
        assert len(q) == len(entries) and not entries.flags.writeable
        with pytest.raises(ValueError):
            entries[...] = 0.0
        restored = FeatureQueue(capacity, dim)
        restored.load(entries)
        np.testing.assert_array_equal(restored.entries(), entries)
        held.append((entries, entries.copy()))
    assert all(np.array_equal(a, b) for a, b in held)


class TestEncode:
    def test_batch_of_one_shape(self):
        enc = ConvEncoder(ENC8, 8, np.random.default_rng(0))
        out = enc.forward(Tensor(np.random.default_rng(1).random((1, 3, 8, 8))))
        assert out.shape == (1, 8)

    def test_identical_images_identical_rows(self):
        enc = ConvEncoder(ENC8, 8, np.random.default_rng(2))
        img = np.random.default_rng(3).random((1, 3, 8, 8))
        x = np.concatenate([img, img], axis=0)
        out = enc.forward(Tensor(x)).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_zero_projector_surfaces_normalization_error(self):
        enc = ConvEncoder(ENC8, 8, np.random.default_rng(4))
        for p in enc.projector[-1]:
            p.data[...] = 0.0
        out = enc.forward(Tensor(np.random.default_rng(5).random((2, 3, 8, 8))))
        assert np.all(out.data == 0.0)
        with pytest.raises(ValueError, match="zero vector"):
            l2_normalize(out)


class TestMoCoMechanics:
    def _primed(self, seed=0, **kw):
        fw = _small("moco", seed=seed, **kw)
        rng = np.random.default_rng(100 + seed)
        x1, x2 = _batch(rng), _batch(rng)
        fw.queue.push(fw.encode_keys(x2))
        return fw, x1, x2

    def test_key_encoder_starts_as_exact_copy(self):
        fw = _small("moco")
        for pq, pk in zip(fw.query.parameters(), fw.key.parameters()):
            assert np.array_equal(pq.data, pk.data)

    def test_unprimed_queue_raises(self):
        fw = _small("moco", hallucinator=False)
        rng = np.random.default_rng(6)
        with pytest.raises(QueueEmptyError, match="prime"):
            fw.forward_loss(_batch(rng), _batch(rng), None)

    def _one_step(self, momentum):
        fw, x1, x2 = self._primed(momentum=momentum, hallucinator=False)
        key_before = [p.data.copy() for p in fw.key.parameters()]
        opt = SGD(fw.trainable_parameters(), momentum=0.9, weight_decay=0.0)
        loss, diag, aux = fw.forward_loss(x1, x2, None)
        opt.zero_grad()
        loss.backward()
        opt.step(lr=0.05)
        fw.after_update(aux)
        return fw, key_before

    def test_momentum_blend_elementwise_exact(self):
        m = 0.99
        fw, key_before = self._one_step(momentum=m)
        for pk, old, pq in zip(fw.key.parameters(), key_before, fw.query.parameters()):
            expected = m * old + (1.0 - m) * pq.data
            assert np.array_equal(pk.data, expected), pk.name

    def test_momentum_zero_copies_query(self):
        fw, _ = self._one_step(momentum=0.0)
        for pk, pq in zip(fw.key.parameters(), fw.query.parameters()):
            assert np.array_equal(pk.data, pq.data)

    def test_momentum_one_freezes_key(self):
        fw, key_before = self._one_step(momentum=1.0)
        for pk, old in zip(fw.key.parameters(), key_before):
            assert np.array_equal(pk.data, old)

    def test_key_encoder_never_sees_gradients(self):
        fw, x1, x2 = self._primed(hallucinator=False)
        loss, _, _ = fw.forward_loss(x1, x2, None)
        loss.backward()
        assert all(p.grad is None or not p.grad.any() for p in fw.key.parameters())

    def test_step_enqueues_normalized_keys_in_order(self):
        fw, x1, x2 = self._primed(hallucinator=False)
        _, _, aux = fw.forward_loss(x1, x2, None)
        fw.after_update(aux)
        entries = fw.queue.entries()
        np.testing.assert_array_equal(entries[-4:], aux["keys"])
        np.testing.assert_allclose(
            np.linalg.norm(entries, axis=1), 1.0, atol=1e-10
        )

    def test_queue_length_constant_once_full(self):
        fw, x1, x2 = self._primed(hallucinator=False)
        for _ in range(6):
            _, _, aux = fw.forward_loss(x1, x2, None)
            fw.after_update(aux)
        assert len(fw.queue) == fw.queue.capacity == 16

    def test_hallucinator_off_equals_manual_infonce(self):
        fw, x1, x2 = self._primed(hallucinator=False)
        negatives = fw.queue.entries()
        loss, _, _ = fw.forward_loss(x1, x2, None)
        q = l2_normalize(fw.query.forward(Tensor(np.asarray(x1, dtype=np.float64))))
        k = Tensor(l2_normalize(fw.key.forward(Tensor(np.asarray(x2, dtype=np.float64)))).data)
        manual = infonce_loss(q, k, negatives, fw.cfg.temperature)
        assert float(loss.data) == float(manual.data)


class TestExactReductions:
    """Identity hallucinator (lambda == 0, n = 0) must reproduce the
    plain loss to the last bit, not approximately."""

    IDENT = dict(
        hallucinator_layers=0, extrapolation=ExtrapolationConfig(0.0, 0.0)
    )

    def _loss_pair(self, name, seed=3):
        rng = np.random.default_rng(50)
        x1, x2 = _batch(rng), _batch(rng)
        on = _small(name, seed=seed, hallucinator=True, **self.IDENT)
        off = _small(name, seed=seed, hallucinator=False)
        if name == "moco":
            keys = on.encode_keys(x2)
            on.queue.push(keys)
            off.queue.push(keys)
        lams = np.zeros(on.lambda_shape(4))
        loss_on, _, _ = on.forward_loss(x1, x2, lams)
        loss_off, _, _ = off.forward_loss(x1, x2, None)
        return float(loss_on.data), float(loss_off.data)

    @pytest.mark.parametrize("name", ["moco", "simclr", "simsiam"])
    def test_reduction_is_bitwise(self, name):
        a, b = self._loss_pair(name)
        assert a == b, f"{name}: {a!r} != {b!r}"


class TestHallucinatedPositive:
    """MoCo's and SimCLR's shared hallucinated-positive path, rebuilt from
    its parts: the loss mixes the plain head with the head applied to the
    normalized hallucination of q pushed away from k."""

    @pytest.mark.parametrize("name", ["moco", "simclr"])
    def test_loss_and_diagnostics_from_parts(self, name):
        rng = np.random.default_rng(70)
        x1, x2 = _batch(rng), _batch(rng)
        fw = _small(name, seed=5, hallucinator_layers=2, pair_weight=0.3)
        lams = rng.uniform(0.0, 1.0, 4)
        q = l2_normalize(fw.encoder.forward(Tensor(x1)))
        tau = fw.cfg.temperature
        if name == "moco":
            fw.prime(x2)
            k = Tensor(fw.encode_keys(x2))
            negatives = fw.queue.entries()
            head = lambda a: float(infonce_loss(a, k, negatives, tau).data)
        else:
            k = l2_normalize(fw.encoder.forward(Tensor(x2)))
            bank = concat([q, k], axis=0)
            head = lambda a: float(ntxent_loss(a, k, bank, tau).data)
        q_hat = l2_normalize(hallucinate(q, extrapolate(q, k, lams), fw.hall))
        loss, diag, _ = fw.forward_loss(x1, x2, lams)
        assert float(loss.data) == head(q) * (1.0 - 0.3) + head(q_hat) * 0.3

        def cos(a, b):
            return float(np.mean(np.sum(a.data * b.data, axis=1)))

        assert diag == {"sim_qk": cos(q, k), "sim_qhat_k": cos(q_hat, k),
                        "lambda_mean": float(np.mean(lams))}
        assert diag["sim_qhat_k"] != diag["sim_qk"]


class TestSimCLR:
    def test_batch_one_rejected(self):
        fw = _small("simclr", hallucinator=False)
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="batch size >= 2"):
            fw.forward_loss(_batch(rng, b=1), _batch(rng, b=1), None)

    def test_loss_decreases_under_training(self):
        fw = _small("simclr", seed=1)
        rng = np.random.default_rng(8)
        x1, x2 = _batch(rng), _batch(rng)
        opt = SGD(fw.trainable_parameters(), momentum=0.9, weight_decay=0.0)
        losses = []
        for step in range(25):
            lams = fw.draw_lambdas(np.random.default_rng(step), 4)
            loss, _, _ = fw.forward_loss(x1, x2, lams)
            losses.append(float(loss.data))
            opt.zero_grad()
            loss.backward()
            opt.step(lr=0.1)
        assert losses[-1] < losses[0]


class TestSimSiam:
    def test_identity_predictor_perfect_alignment(self):
        # relu(x) - relu(-x) == x, so a crafted 2-layer MLP is exactly
        # the identity and equal views give loss -1.
        fw = _small("simsiam", hallucinator=False)
        d = ENC8.feature_dim
        pred = MLP(d, 2 * d, d, np.random.default_rng(0), prefix="pred")
        (w1, b1), (w2, b2) = pred.layers
        w1.data[...] = np.hstack([np.eye(d), -np.eye(d)])
        b1.data[...] = 0.0
        w2.data[...] = np.vstack([np.eye(d), -np.eye(d)])
        b2.data[...] = 0.0
        fw.predictor = pred
        x = _batch(np.random.default_rng(9))
        loss, diag, _ = fw.forward_loss(x, x, None)
        assert abs(float(loss.data) + 1.0) < 1e-12
        assert abs(diag["sim_qk"] - 1.0) < 1e-12

    def test_target_branch_receives_no_gradient(self):
        fw = _small("simsiam", hallucinator=False)
        rng = np.random.default_rng(10)
        x1, x2 = _batch(rng), _batch(rng)
        z1 = fw.encoder.forward(Tensor(x1))
        z2 = fw.encoder.forward(Tensor(x2))
        half = negative_cosine(fw.predictor.forward(z1), Tensor(z2.data))
        half.backward()
        assert z2.grad is None
        assert z1.grad is not None and np.any(z1.grad)

    def test_full_step_gradients_exact_zero_through_targets(self):
        # The symmetrized loss updates the encoder only through the live
        # branches; gradient equality against a frozen-target evaluation
        # proves the detached path contributes nothing.
        fw = _small("simsiam", seed=4)
        rng = np.random.default_rng(11)
        x1, x2 = _batch(rng), _batch(rng)
        lams = np.linspace(0.1, 0.9, 8).reshape(2, 4)
        params = fw.trainable_parameters()

        loss, _, _ = fw.forward_loss(x1, x2, lams)
        loss.backward()
        live_grads = [p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()

        frozen = fw.target_features(x1, x2)
        loss2, _, _ = fw.forward_loss(x1, x2, lams, frozen_targets=frozen)
        loss2.backward()
        for p, g in zip(params, live_grads):
            assert np.array_equal(p.grad, g), p.name

    def test_lambda_shape_two_directions(self):
        fw = _small("simsiam")
        assert fw.lambda_shape(6) == (2, 6)
        draws = fw.draw_lambdas(np.random.default_rng(12), 6)
        assert draws.shape == (2, 6)

    def test_post_predictor_placement_changes_loss(self):
        rng = np.random.default_rng(13)
        x1, x2 = _batch(rng), _batch(rng)
        lams = np.full((2, 4), 0.5)
        pre = _small("simsiam", seed=5, hallucinate_after_predictor=False)
        post = _small("simsiam", seed=5, hallucinate_after_predictor=True)
        a, _, _ = pre.forward_loss(x1, x2, lams)
        b, _, _ = post.forward_loss(x1, x2, lams)
        assert float(a.data) != float(b.data)

    def test_post_predictor_placement_gradcheck(self):
        # The predictor output feeds both the plain and the hallucinated
        # term; differenced with its targets frozen, as its analytic
        # gradient treats them.
        rng = np.random.default_rng(14)
        x1, x2 = _batch(rng), _batch(rng)
        lams = np.linspace(0.1, 0.9, 8).reshape(2, 4)
        fw = _small("simsiam", seed=6, hallucinator_layers=2,
                    extrapolation=ExtrapolationConfig(0.0, 1.0),
                    hallucinate_after_predictor=True)
        frozen = fw.target_features(x1, x2)
        err = check_parameter_gradients(
            lambda: fw.forward_loss(x1, x2, lams, frozen_targets=frozen)[0],
            fw.trainable_parameters())
        assert err < TOLERANCE


class TestBuildFramework:
    def test_names(self):
        assert FRAMEWORK_NAMES == ("moco", "simclr", "simsiam")
        for name in FRAMEWORK_NAMES:
            fw = _small(name)
            assert fw.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown framework"):
            build_framework("byol", ENC8, 8, FrameworkConfig(), 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            FrameworkConfig(temperature=0.0).validate()
        with pytest.raises(ValueError, match="momentum"):
            FrameworkConfig(momentum=1.5).validate()
        with pytest.raises(ValueError, match="pair_weight"):
            FrameworkConfig(pair_weight=2.0).validate()

    def test_draw_lambdas_none_when_disabled(self):
        fw = _small("moco", hallucinator=False)
        assert fw.draw_lambdas(np.random.default_rng(0), 4) is None

    def test_same_seed_same_initial_weights(self):
        a = _small("simclr", seed=21)
        b = _small("simclr", seed=21)
        for pa, pb in zip(a.trainable_parameters(), b.trainable_parameters()):
            assert np.array_equal(pa.data, pb.data)


class TestFrameworkInterface:
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_prime_fills_only_the_moco_queue(self, name):
        fw = _small(name)
        x2 = _batch(np.random.default_rng(3))
        before = {k: v.copy() for k, v in fw.state_arrays().items()}
        fw.prime(x2)
        after = fw.state_arrays()
        if name == "moco":
            assert np.array_equal(after.pop("queue.entries"), fw.encode_keys(x2))
            before.pop("queue.entries")
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k]) for k in before)

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_state_round_trip(self, name):
        src, dst = _small(name, seed=1), _small(name, seed=2)
        src.prime(_batch(np.random.default_rng(4)))
        dst.load_state_arrays(src.state_arrays())
        saved, restored = src.state_arrays(), dst.state_arrays()
        assert restored.keys() == saved.keys()
        assert all(np.array_equal(restored[k], saved[k]) for k in saved)

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_rejected_load_writes_nothing(self, name):
        src, dst = _small(name, seed=1), _small(name, seed=2)
        before = {k: v.copy() for k, v in dst.state_arrays().items()}
        arrays = src.state_arrays()
        last = sorted(dst.named_tensors())[-1]
        arrays[last] = np.zeros(3)
        with pytest.raises(ValueError, match=f"tensor {last} has wrong shape"):
            dst.load_state_arrays(arrays)
        del arrays[last]
        with pytest.raises(KeyError, match=f"missing tensor {last}"):
            dst.load_state_arrays(arrays)
        assert all(np.array_equal(v, before[k]) for k, v in dst.state_arrays().items())

    @pytest.mark.parametrize("shape", [(17, 8), (4, 7)])
    def test_bad_queue_entries_write_nothing(self, shape):
        src, dst = _small("moco", seed=1), _small("moco", seed=2)
        dst.prime(_batch(np.random.default_rng(5)))
        before = {k: v.copy() for k, v in dst.state_arrays().items()}
        arrays = src.state_arrays()
        arrays["queue.entries"] = np.zeros(shape)
        with pytest.raises(ShapeMismatchError, match="queue of capacity 16"):
            dst.load_state_arrays(arrays)
        del arrays["queue.entries"]
        with pytest.raises(KeyError, match="checkpoint is missing queue.entries"):
            dst.load_state_arrays(arrays)
        after = dst.state_arrays()
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_moco_named_tensors_hold_both_encoders(self):
        fw = _small("moco")
        names = set(fw.named_tensors())
        assert {p.name for p in fw.trainable_parameters()} < names
        assert {p.name for p in fw.key.parameters()} == {
            n for n in names if n.startswith("key.")}
