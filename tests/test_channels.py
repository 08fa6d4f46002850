"""Separable channels: closure diagnostics, outcome ensembles, the decay
factor and the outcome-by-outcome evolution identity."""

import math

import numpy as np
import pytest

from entlab.channels import (SeparableChannel, SeparableKrausOperator, apply,
                             apply_kraus, channel_from_json, channel_to_json,
                             decay_factor, embed_one_sided, is_random_unitary,
                             outcomes, tensor_channels, validate,
                             verify_evolution)
from entlab.linalg import DensityMatrix, LocalDims, PureState
from entlab.measures import concurrence, sqrt_three_tangle, wootters_concurrence
from entlab.families import (amplitude_damping_kraus, bell_state,
                             bit_flip_correlated, ghz_state, identity_channel,
                             random_local_kraus, random_separable_channel,
                             random_unitary_separable)
from entlab.sampling import (RandomStream, random_density, random_haar_unitary,
                             random_pure_state)

RNG = RandomStream(60221)


class TestValidation:
    def test_identity_singleton_closes_exactly(self):
        diag = validate(identity_channel((2, 2)))
        assert diag.ok and diag.closure_residual == 0.0

    def test_bit_flip_closes(self):
        diag = validate(bit_flip_correlated(0.3))
        assert diag.ok and diag.closure_residual < 1e-15

    def test_dropping_an_operator_is_detected(self):
        ch = bit_flip_correlated(0.3)
        broken = SeparableChannel(ch.dims, ch.ops[:1])
        diag = validate(broken)
        # the missing term was 0.7 * (X^dag X x X^dag X) = 0.7 * I_4
        assert not diag.ok
        assert abs(diag.closure_residual - 0.7 * 2.0) < 1e-12
        assert diag.issues

    def test_factor_dimension_mismatch_rejected(self):
        eye = np.eye(2, dtype=complex)
        op = SeparableKrausOperator((eye, np.eye(3, dtype=complex)))
        with pytest.raises(ValueError, match="dimensions"):
            SeparableChannel(LocalDims((2, 2)), (op,))


class TestApply:
    def test_identity_channel_is_identity(self):
        rho = random_density((2, 2), 3, RNG.child(0))
        out = apply(identity_channel((2, 2)), rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-14

    def test_bit_flip_leaves_bell_state_invariant(self):
        rho = bell_state().density()
        out = apply(bit_flip_correlated(0.3), rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-14

    def test_trace_preserved_on_random_channels(self):
        for i in range(10):
            g = RNG.child(1, i).generator()
            ch = random_separable_channel((2, 2), int(g.integers(2, 7)), g)
            rho = random_density((2, 2), 4, g)
            assert abs(apply(ch, rho).trace - 1.0) < 1e-10

    def test_joint_ops_is_one_read_only_stack(self):
        ch = random_separable_channel((2, 3), 3, RNG.child(4).generator())
        ks = ch.joint_ops
        assert ks.shape == (3, 6, 6) and not ks.flags.writeable
        for k, op in zip(ks, ch.ops):
            assert np.array_equal(k, op.joint())

    def test_stacked_apply_kraus_equals_one_loop_per_slice(self):
        g = RNG.child(5).generator()
        stack = np.stack([np.stack(random_local_kraus(4, 3, g)) for _ in range(5)])
        rho = random_density((2, 2), 3, g).mat
        out = apply_kraus(stack, rho)
        assert out.shape == (5, 4, 4)
        for r in range(5):
            loop = np.zeros((4, 4), dtype=complex)
            for k in stack[r]:
                loop += k @ rho @ k.conj().T
            assert out[r].tobytes() == loop.tobytes()
            assert apply_kraus(list(stack[r]), rho).tobytes() == loop.tobytes()

    def test_closure_residual_equals_the_operator_loop(self):
        ch = random_separable_channel((2, 3), 4, RNG.child(6).generator())
        acc = np.zeros((6, 6), dtype=complex)
        for k in ch.joint_ops:
            acc += k.conj().T @ k
        assert validate(ch).closure_residual == float(np.linalg.norm(acc - np.eye(6)))

    def test_dims_mismatch_rejected(self):
        rho = random_density((2, 3), 2, RNG.child(2))
        with pytest.raises(ValueError, match="dims"):
            apply(identity_channel((2, 2)), rho)


class TestOutcomes:
    def test_unitary_channel_has_single_sure_outcome(self):
        ens = outcomes(identity_channel((2, 2)), bell_state().density())
        assert len(ens.outcomes) == 1
        assert abs(ens.outcomes[0].probability - 1.0) < 1e-14

    def test_bit_flip_branches_on_bell_state(self):
        ens = outcomes(bit_flip_correlated(0.3), bell_state().density())
        probs = [o.probability for o in ens.outcomes]
        assert np.allclose(probs, [0.3, 0.7], atol=1e-14)
        phi = bell_state().density().mat
        for o in ens.outcomes:
            assert np.max(np.abs(o.state.mat - phi)) < 1e-12

    def test_probabilities_sum_to_one(self):
        for i in range(10):
            g = RNG.child(3, i).generator()
            ch = random_separable_channel((2, 2), int(g.integers(2, 7)), g)
            rho = random_density((2, 2), int(g.integers(1, 5)), g)
            assert abs(outcomes(ch, rho).total_probability - 1.0) < 1e-10

    def test_impossible_branch_kept_as_null_outcome(self):
        # full damping on |0><0|: the jump branch has probability zero
        ch = embed_one_sided(amplitude_damping_kraus(1.0), 0, (2, 2))
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        ens = outcomes(ch, DensityMatrix(ground, LocalDims((2, 2))))
        assert len(ens.outcomes) == 2
        assert ens.outcomes[1].probability <= 1e-12
        assert ens.outcomes[1].state is None
        assert abs(ens.total_probability - 1.0) < 1e-12


class TestDecayFactor:
    def test_bit_flip_has_unit_decay(self):
        assert abs(decay_factor(bit_flip_correlated(0.3)) - 1.0) < 1e-15

    def test_one_sided_amplitude_damping(self):
        ch = embed_one_sided(amplitude_damping_kraus(0.36), 0, (2, 2))
        assert abs(decay_factor(ch) - 0.8) < 1e-12

    def test_random_unitary_channels_have_unit_decay(self):
        for i in range(10):
            ch = random_unitary_separable((2, 2), 3, RNG.child(4, i))
            assert abs(decay_factor(ch) - 1.0) < 1e-12

    def test_bounded_by_one_on_random_channels(self):
        for i in range(50):
            g = RNG.child(5, i).generator()
            ch = random_separable_channel((2, 2), int(g.integers(2, 7)), g)
            assert decay_factor(ch) <= 1.0 + 1e-10

    def test_weights_are_added_left_to_right(self):
        # weights 0.1, 0.2, 0.3: left to right gives 0.6000000000000001,
        # a compensated or exact sum gives 0.6
        ops = tuple(SeparableKrausOperator((np.diag([w, 1.0]), np.eye(2)))
                    for w in (0.1, 0.2, 0.3))
        weights = [op.det_weight() for op in ops]
        running = 0.0
        for w in weights:
            running += w
        assert running != math.fsum(weights)
        assert decay_factor(SeparableChannel((2, 2), ops)) == running


class TestRandomSeparableChannel:
    def test_builds_exactly_one_channel_per_call(self, monkeypatch):
        import entlab.families as families
        built = []

        def counting(*args, **kwargs):
            built.append(SeparableChannel(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(families, "SeparableChannel", counting)
        g = RNG.child(40).generator()
        for i in range(30):
            ch = random_separable_channel((2, 2), 4, g)
            assert len(built) == i + 1 and built[-1] is ch
            assert len(ch) == 4 and validate(ch).ok


class TestVerifyEvolution:
    def test_random_channels_on_pure_inputs(self):
        for i in range(25):
            g = RNG.child(6, i).generator()
            ch = random_separable_channel((2, 2), int(g.integers(2, 7)), g)
            while True:
                psi = random_pure_state((2, 2), g)
                if wootters_concurrence(psi.density()) > 1e-3:
                    break
            rep = verify_evolution(ch, psi, concurrence())
            assert max(rep.per_outcome_residuals) < 1e-9
            assert rep.aggregate_residual < 1e-9
            assert rep.exact

    def test_bit_flip_ratio_is_exactly_one(self):
        rep = verify_evolution(bit_flip_correlated(0.3), bell_state(), concurrence())
        ratio = rep.average_output_entanglement / rep.input_entanglement
        assert abs(ratio - 1.0) < 1e-12

    def test_ghz_under_one_sided_noise_with_the_tangle(self):
        for i in range(10):
            g = RNG.child(7, i).generator()
            local = random_local_kraus(2, 2, g)
            ch = embed_one_sided(local, int(g.integers(3)), (2, 2, 2))
            rep = verify_evolution(ch, ghz_state(), sqrt_three_tangle())
            assert max(rep.per_outcome_residuals) < 1e-8

    def test_mixed_input_with_wootters_oracle(self):
        for i in range(10):
            g = RNG.child(8, i).generator()
            ch = random_separable_channel((2, 2), int(g.integers(2, 5)), g)
            while True:
                rho = random_density((2, 2), int(g.integers(1, 5)), g)
                if wootters_concurrence(rho) > 1e-3:
                    break
            rep = verify_evolution(ch, rho, concurrence())
            assert rep.aggregate_residual < 1e-8
            assert rep.exact

    def test_vanishing_input_entanglement_rejected(self):
        prod = PureState(np.array([1, 0, 0, 0], dtype=complex), LocalDims((2, 2)))
        with pytest.raises(ValueError, match="entanglement"):
            verify_evolution(bit_flip_correlated(0.3), prod, concurrence())

    def test_mixed_input_without_exact_oracle_is_flagged(self):
        ch = embed_one_sided([np.eye(2, dtype=complex)], 0, (2, 2, 2))
        rep = verify_evolution(ch, ghz_state().density(), sqrt_three_tangle())
        assert not rep.exact
        assert rep.aggregate_residual < 1e-4

    def test_decay_within_unit_interval(self):
        rep = verify_evolution(bit_flip_correlated(0.5), bell_state(), concurrence())
        assert 0.0 <= rep.decay <= 1.0 + 1e-10


class TestRandomUnitaryDetection:
    def test_bit_flip_is_random_unitary(self):
        assert is_random_unitary(bit_flip_correlated(0.3))

    def test_amplitude_damping_is_not(self):
        ch = embed_one_sided(amplitude_damping_kraus(0.4), 0, (2, 2))
        assert not is_random_unitary(ch)

    def test_identity_is(self):
        assert is_random_unitary(identity_channel((2, 2)))

    def test_equivalence_with_unit_decay_on_families(self):
        # random-unitary construction: decay 1 and detected; damping: neither
        for i in range(10):
            ch = random_unitary_separable((2, 2), 2, RNG.child(9, i))
            assert is_random_unitary(ch)
            assert abs(decay_factor(ch) - 1.0) < 1e-10
        for gamma in (0.1, 0.5, 0.9):
            ch = embed_one_sided(amplitude_damping_kraus(gamma), 0, (2, 2))
            assert not is_random_unitary(ch)
            assert decay_factor(ch) < 1.0 - 1e-3


class TestEmbedAndTensor:
    def test_identity_local_channel_embeds_to_identity(self):
        ch = embed_one_sided([np.eye(2, dtype=complex)], 0, (2, 2))
        assert len(ch) == 1
        assert np.allclose(ch.joint_ops[0], np.eye(4))

    def test_embedded_channel_inherits_closure(self):
        ch = embed_one_sided(amplitude_damping_kraus(0.3), 1, (2, 2))
        assert validate(ch).closure_residual < 1e-12

    def test_embed_decay_equals_local_determinant_sum(self):
        local = random_local_kraus(2, 3, RNG.child(10))
        ch = embed_one_sided(local, 0, (2, 2))
        expected = sum(abs(np.linalg.det(k)) for k in local)
        assert abs(decay_factor(ch) - expected) < 1e-12

    def test_embed_rejects_non_closing_list(self):
        with pytest.raises(ValueError, match="close"):
            embed_one_sided([np.eye(2, dtype=complex) * 0.9], 0, (2, 2))

    def test_tensor_of_identities_is_identity(self):
        joint = tensor_channels([identity_channel((2,)), identity_channel((2,))])
        assert len(joint) == 1
        assert np.allclose(joint.joint_ops[0], np.eye(4))

    def test_tensor_operator_count_is_product(self):
        g = RNG.child(11).generator()
        a = SeparableChannel(LocalDims((2,)), tuple(
            SeparableKrausOperator((k,)) for k in random_local_kraus(2, 3, g)))
        b = SeparableChannel(LocalDims((2,)), tuple(
            SeparableKrausOperator((k,)) for k in random_local_kraus(2, 2, g)))
        joint = tensor_channels([a, b])
        assert len(joint) == 6
        assert validate(joint).ok

    def test_tensor_decay_factorizes_for_this_representation(self):
        g = RNG.child(12).generator()
        chans = []
        for _ in range(2):
            ops = tuple(SeparableKrausOperator((k,))
                        for k in random_local_kraus(2, 2, g))
            chans.append(SeparableChannel(LocalDims((2,)), ops))
        joint = tensor_channels(chans)
        expected = decay_factor(chans[0]) * decay_factor(chans[1])
        assert abs(decay_factor(joint) - expected) < 1e-12


class TestRepresentationInvariance:
    def test_unitary_mixing_preserves_the_map_but_not_the_decay(self):
        g = RNG.child(13).generator()
        ch = random_separable_channel((2, 2), 3, g)
        u = random_haar_unitary(3, g)
        mixed = [sum(u[j, m] * ch.joint_ops[m] for m in range(3)) for j in range(3)]
        rho = random_density((2, 2), 4, g)
        out_a = apply(ch, rho).mat
        out_b = apply_kraus(mixed, rho.mat)
        assert np.max(np.abs(out_a - out_b)) < 1e-10

    def test_monotone_under_separable_operations(self):
        for i in range(10):
            g = RNG.child(14, i).generator()
            ch = random_separable_channel((2, 2), int(g.integers(2, 5)), g)
            while True:
                rho = random_density((2, 2), int(g.integers(1, 5)), g)
                e_in = wootters_concurrence(rho)
                if e_in > 1e-3:
                    break
            e_out = wootters_concurrence(apply(ch, rho))
            avg = sum(o.probability * wootters_concurrence(o.state)
                      for o in outcomes(ch, rho).outcomes if o.state is not None)
            assert e_out <= avg + 1e-8
            assert avg <= e_in + 1e-8


class TestChannelJson:
    def test_round_trip(self):
        ch = bit_flip_correlated(0.3)
        back = channel_from_json(channel_to_json(ch))
        assert back.dims.dims == ch.dims.dims
        for a, b in zip(back.joint_ops, ch.joint_ops):
            assert np.max(np.abs(a - b)) < 1e-15
        assert back.ops[0].label == "keep"

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            channel_from_json({"ops": []})
        with pytest.raises(ValueError, match="factors"):
            channel_from_json({"dims": [2, 2], "ops": [{}]})
        bad = channel_to_json(bit_flip_correlated(0.3))
        bad["ops"][0]["factors"] = bad["ops"][0]["factors"][:1]
        with pytest.raises(ValueError, match="parties"):
            channel_from_json(bad)
