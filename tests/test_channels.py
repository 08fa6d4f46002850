"""Separable channels: closure diagnostics, outcome ensembles, the decay
factor and the outcome-by-outcome evolution identity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from entlab.channels import (SeparableChannel, SeparableKrausOperator, apply,
                             apply_kraus, channel_from_json, channel_to_json,
                             decay_factor, det_weights, embed_one_sided,
                             is_random_unitary, outcomes, state_from_json,
                             state_to_json, tensor_channels, validate,
                             verify_evolution)
from entlab.erf import erf_bounds
from entlab.linalg import DensityMatrix, LocalDims, PureState, kron_all
from entlab.measures import (concurrence, g_concurrence, measure_pure,
                             measure_unnormalized, sqrt_three_tangle,
                             wootters_concurrence)
from entlab.families import (CHANNEL_FAMILIES, amplitude_damping_kraus,
                             bell_state, bit_flip_correlated, ghz_state,
                             identity_channel, phase_damping_kraus,
                             random_local_kraus, random_separable_channel,
                             random_unitary_separable, werner_state)
from entlab.roof import convex_roof
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

    def test_mixed_input_with_a_null_branch(self):
        # amplitude damping at gamma = 0 keeps a zero Kraus operator, whose
        # branch has probability 0, no state and value 0
        ch = embed_one_sided(amplitude_damping_kraus(0.0), 0, (2, 2))
        rho = werner_state(0.8)
        assert outcomes(ch, rho).outcomes[1].state is None
        rep = verify_evolution(ch, rho, concurrence())
        assert rep.exact
        assert rep.decay == 1.0
        assert rep.per_outcome_residuals[1] == 0.0
        assert abs(rep.average_output_entanglement - rep.input_entanglement) < 1e-12
        assert rep.aggregate_residual < 1e-12

    def test_decay_within_unit_interval(self):
        rep = verify_evolution(bit_flip_correlated(0.5), bell_state(), concurrence())
        assert 0.0 <= rep.decay <= 1.0 + 1e-10


def hexes(values):
    return [float(v).hex() for v in values]


def loop_verify(channel, psi, measure):
    """verify_evolution on a pure input, one branch and one operator at a
    time: the reference its stacked evaluation must reproduce bitwise."""
    e_in = measure_pure(measure, psi)
    values = []
    for joint in channel.joint_ops:
        branch = PureState(joint @ psi.amps, psi.dims)
        values.append(measure_unnormalized(measure, branch)
                      if branch.weight > 1e-12 else 0.0)
    weights = [op.det_weight() for op in channel.ops]
    total = decay = 0.0
    for v, w in zip(values, weights):
        total += v
        decay += w
    residuals = [abs(v - w * e_in) for w, v in zip(weights, values)]
    return decay, residuals, abs(total - decay * e_in), total


class TestStackedEvaluation:
    """Joint operators, det weights and pure branches are evaluated as one
    stack per party or per call, bitwise equal to the per-operator loops."""

    KINDS = ((concurrence, (2, 2)), (sqrt_three_tangle, (2, 2, 2)),
             (lambda: g_concurrence(3), (3, 3)))

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (3, 2), (2, 2, 2), (2, 3, 2)])
    def test_joint_ops_equal_the_kron_all_stack(self, dims):
        for i in range(20):
            g = RNG.child(20, len(dims), i).generator()
            ch = random_separable_channel(dims, int(g.integers(1, 7)), g)
            loop = np.stack([kron_all(op.factors) for op in ch.ops])
            assert np.array_equal(ch.joint_ops, loop)
            assert ch.joint_ops.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)])
    def test_bystander_unitaries_equal_one_draw_each(self, dims):
        # random_separable_channel draws every bystander unitary from one
        # block of normals; each equals its own random_haar_unitary draw in
        # branch-then-party order, and the generator ends where those would
        from entlab.families import _correlated_factors
        for i in range(12):
            g_block = RNG.child(27, len(dims), i).generator()
            g_loop = RNG.child(27, len(dims), i).generator()
            count, singular = 1 + i % 5, i % 2 == 1
            block = _correlated_factors(LocalDims(dims), count, g_block, singular)
            party = int(g_loop.integers(len(dims)))
            d = dims[party]
            if singular and d == 2 and count >= 2:
                local = amplitude_damping_kraus(float(g_loop.uniform(0.2, 0.8)))
                while len(local) < count:
                    a = local.pop(0)
                    local = [a / math.sqrt(2.0),
                             random_haar_unitary(d, g_loop) @ a / math.sqrt(2.0)] + local
            else:
                local = random_local_kraus(d, count, g_loop)
            loop = [[random_haar_unitary(dims[j], g_loop) if j != party else k
                     for j in range(len(dims))] for k in local]
            assert [[f.tobytes() for f in row] for row in block] == \
                [[f.tobytes() for f in row] for row in loop]
            assert g_block.random() == g_loop.random()

    def test_singular_factors_keep_the_kron_all_stack(self):
        g = RNG.child(21).generator()
        factors = [(random_haar_unitary(2, g), np.zeros((2, 2))),
                   (np.outer([1.0, 2.0j], [0.5, -1.0]), random_haar_unitary(2, g)),
                   (np.diag([1e-7, 0.0]), np.diag([3.0, 1e-9]))]
        ch = SeparableChannel((2, 2), tuple(SeparableKrausOperator(f) for f in factors))
        loop = np.stack([kron_all(f) for f in factors])
        assert ch.joint_ops.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 2, 2), (3, 3)])
    def test_decay_factor_equals_the_operator_loop(self, dims):
        for i in range(20):
            g = RNG.child(22, len(dims), i).generator()
            ch = random_separable_channel(dims, int(g.integers(1, 7)), g)
            weights = [op.det_weight() for op in ch.ops]
            assert hexes(det_weights(ch)) == hexes(weights)
            loop = 0.0
            for w in weights:
                loop += w
            assert decay_factor(ch).hex() == loop.hex()

    @pytest.mark.parametrize("kind", range(3), ids=["concurrence", "tangle", "gconc3"])
    def test_pure_verify_equals_the_branch_loop(self, kind):
        factory, dims = self.KINDS[kind]
        measure = factory()
        for i in range(20):
            g = RNG.child(23, kind, i).generator()
            ch = random_separable_channel(dims, int(g.integers(1, 7)), g)
            if i % 4 == 0:
                # a zero branch and one of weight 1e-14, both valued 0
                ops = list(ch.ops)
                ops[0] = SeparableKrausOperator(
                    (np.zeros((dims[0], dims[0])),) + ops[0].factors[1:])
                ops.append(SeparableKrausOperator(
                    tuple(1e-7 ** (1.0 / len(dims)) * np.eye(d) for d in dims)))
                ch = SeparableChannel(dims, tuple(ops))
            while True:
                psi = random_pure_state(dims, g)
                if measure_pure(measure, psi) > 1e-3:
                    break
            rep = verify_evolution(ch, psi, measure)
            decay, residuals, aggregate, total = loop_verify(ch, psi, measure)
            assert rep.decay.hex() == decay.hex()
            assert hexes(rep.per_outcome_residuals) == hexes(residuals)
            assert rep.aggregate_residual.hex() == aggregate.hex()
            assert rep.average_output_entanglement.hex() == total.hex()

    def test_non_finite_branch_still_raises(self):
        huge = 1e200 * np.eye(2)
        with np.errstate(over="ignore", invalid="ignore"):
            ch = SeparableChannel((2, 2), (SeparableKrausOperator((huge, huge)),))
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                verify_evolution(ch, bell_state(), concurrence())


def composed_mixed(channel, rho, measure=None):
    """verify_evolution and erf_bounds on a mixed input, composed outcome by
    outcome from outcomes(), apply() and the single-state oracle (or roof):
    the reference their one stacked pass must reproduce bitwise."""
    def value(state):
        if measure is None:
            return wootters_concurrence(state)
        return convex_roof(measure, state).value
    e_in = value(rho)
    values = [o.probability * value(o.state) if o.state is not None else 0.0
              for o in outcomes(channel, rho).outcomes]
    weights = [op.det_weight() for op in channel.ops]
    total = decay = 0.0
    for v, w in zip(values, weights):
        total += v
        decay += w
    residuals = [abs(v - w * e_in) for w, v in zip(weights, values)]
    lower = value(apply(channel, rho)) / e_in
    return (decay, residuals, abs(total - decay * e_in), total, e_in), (lower, total / e_in)


def composed_pure(channel, psi, measure):
    """The pure-input twin of composed_mixed: erf_bounds' witnesses composed
    from apply() on psi psi^dag, valued by the single-state oracle (or
    roof), and from verify_evolution's average ratio."""
    out = apply(channel, psi.density())
    if measure.exact_mixed is not None:
        e_out = wootters_concurrence(out)
    else:
        e_out = convex_roof(measure, out).value
    rep = verify_evolution(channel, psi, measure)
    ratio = rep.average_output_entanglement / rep.input_entanglement
    return e_out / measure_pure(measure, psi), ratio


class TestMixedStack:
    """A mixed input runs as one branch stack: one density check, one oracle
    call, L(rho) as the branch sum; results equal the per-outcome
    composition bitwise."""

    @staticmethod
    def cases(i):
        g = RNG.child(24, i).generator()
        ch = random_separable_channel((2, 2), int(g.integers(1, 7)), g)
        if i % 3 == 0:
            # a zero branch and one of weight 1e-14, both valued 0
            ops = list(ch.ops) + [
                SeparableKrausOperator((np.zeros((2, 2)), np.eye(2))),
                SeparableKrausOperator((1e-7 * np.eye(2), np.eye(2)))]
            ch = SeparableChannel((2, 2), tuple(ops))
        while True:
            rho = random_density((2, 2), int(g.integers(1, 5)), g)
            if wootters_concurrence(rho) > 1e-3:
                break
        if i % 4 == 1:
            rho = DensityMatrix(0.625 * rho.mat, (2, 2), unit_trace=False)
        return ch, rho

    def test_mixed_verify_and_bounds_equal_the_outcome_composition(self):
        from entlab.erf import erf_bounds
        for i in range(24):
            ch, rho = self.cases(i)
            (decay, residuals, aggregate, total, e_in), (lower, upper) = \
                composed_mixed(ch, rho)
            rep = verify_evolution(ch, rho, concurrence())
            assert rep.exact
            assert rep.input_entanglement.hex() == e_in.hex()
            assert rep.decay.hex() == decay.hex()
            assert hexes(rep.per_outcome_residuals) == hexes(residuals)
            assert rep.aggregate_residual.hex() == aggregate.hex()
            assert rep.average_output_entanglement.hex() == total.hex()
            b = erf_bounds(ch, rho, concurrence())
            assert b.exact
            assert (b.lower.hex(), b.upper.hex()) == (lower.hex(), upper.hex())

    def test_two_qubit_g_concurrence_is_exact_and_equals_the_concurrence(self):
        from entlab.erf import erf_bounds
        for i in range(24):
            ch, rho = self.cases(i)
            rep = verify_evolution(ch, rho, g_concurrence(2))
            ref = verify_evolution(ch, rho, concurrence())
            assert rep.exact
            assert rep.input_entanglement.hex() == ref.input_entanglement.hex()
            assert hexes(rep.per_outcome_residuals) == hexes(ref.per_outcome_residuals)
            assert rep.aggregate_residual.hex() == ref.aggregate_residual.hex()
            assert rep.average_output_entanglement.hex() == \
                ref.average_output_entanglement.hex()
            b = erf_bounds(ch, rho, g_concurrence(2))
            c = erf_bounds(ch, rho, concurrence())
            assert b.exact
            assert (b.lower.hex(), b.upper.hex()) == (c.lower.hex(), c.upper.hex())

    def test_null_branches_are_zero(self):
        ch, rho = self.cases(0)
        rep = verify_evolution(ch, rho, concurrence())
        # residual |0 - w e_in|: the zero operator has w = 0, the tiny one 1e-14
        w = det_weights(ch)[-2:]
        assert w[0] == 0.0 and w[1] > 0.0
        assert rep.per_outcome_residuals[-2:] == (0.0, w[1] * rep.input_entanglement)

    def test_output_keeps_the_input_trace(self):
        ch, rho = self.cases(1)
        assert not rho.unit_trace
        assert abs(apply(ch, rho).trace - 0.625) < 1e-12

    def test_measure_without_oracle_equals_the_roof_composition(self):
        from entlab.erf import erf_bounds
        measure = replace(g_concurrence(2), exact_mixed=None)
        assert measure.exact_mixed is None
        ch = bit_flip_correlated(0.3)
        rho = werner_state(0.9)
        (_, residuals, aggregate, total, e_in), (lower, upper) = \
            composed_mixed(ch, rho, measure)
        rep = verify_evolution(ch, rho, measure)
        assert not rep.exact
        assert rep.input_entanglement.hex() == e_in.hex()
        assert hexes(rep.per_outcome_residuals) == hexes(residuals)
        assert rep.average_output_entanglement.hex() == total.hex()
        b = erf_bounds(ch, rho, measure)
        assert not b.exact
        assert (b.lower.hex(), b.upper.hex()) == (lower.hex(), upper.hex())

    @pytest.mark.parametrize("rho", [werner_state(0.3), werner_state(1.0 / 3.0),
                                     DensityMatrix(np.eye(4) / 8, (2, 2), unit_trace=False)],
                             ids=["werner0.3", "werner1/3", "subnormalized"])
    def test_separable_mixed_input_is_rejected(self, rho):
        from entlab.erf import erf_bounds
        ch = random_separable_channel((2, 2), 3, RNG.child(25).generator())
        with pytest.raises(ValueError, match="input entanglement vanishes"):
            verify_evolution(ch, rho, concurrence())
        with pytest.raises(ValueError, match="input entanglement vanishes"):
            erf_bounds(ch, rho, concurrence())

    @pytest.mark.parametrize("measure_name", ["concurrence", "sqrt_three_tangle"])
    def test_pure_bounds_equal_the_output_composition(self, measure_name):
        """A pure input's bounds come from the same pass: L(psi psi^dag)
        valued as apply() gives it, the upper witness equal to
        verify_evolution's ratio, both bitwise."""
        if measure_name == "concurrence":
            g = RNG.child(27).generator()
            ch = random_separable_channel((2, 2), 3, g)
            psi, measure = random_pure_state((2, 2), g), concurrence()
            assert measure_pure(measure, psi) > 1e-3
        else:
            ch = embed_one_sided(amplitude_damping_kraus(0.3), 0, (2, 2, 2))
            psi, measure = ghz_state(), sqrt_three_tangle()
        lower, upper = composed_pure(ch, psi, measure)
        b = erf_bounds(ch, psi, measure)
        assert b.exact == (measure.exact_mixed is not None)
        assert (b.lower.hex(), b.upper.hex()) == (lower.hex(), upper.hex())

    @pytest.mark.parametrize("call, pure", [
        (lambda ch, s: verify_evolution(ch, s, concurrence()), False),
        (lambda ch, s: verify_evolution(ch, s, concurrence()), True),
        (apply, False),
        (outcomes, False),
        (lambda ch, s: erf_bounds(ch, s, concurrence()), False),
        (lambda ch, s: erf_bounds(ch, s, concurrence()), True),
    ], ids=["verify_evolution-mixed", "verify_evolution-pure", "apply", "outcomes",
            "erf_bounds-mixed", "erf_bounds-pure"])
    def test_state_dims_must_match(self, call, pure):
        g = RNG.child(26).generator()
        rho = random_pure_state((4,), g) if pure else random_density((4,), 2, g)
        with pytest.raises(ValueError, match="state dims do not match channel dims"):
            call(identity_channel((2, 2)), rho)


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


def loop_random_unitary(channel):
    """is_random_unitary's condition checked operator by operator, factor by
    factor."""
    for op in channel.ops:
        for f in op.factors:
            d = f.shape[0]
            a = f.conj().T @ f
            c = float(np.trace(a).real) / d
            if c <= 0.0:
                return False
            if np.linalg.norm(a - c * np.eye(d)) > 1e-10 * max(1.0, c):
                return False
    return True


class TestRandomUnitaryStacks:
    """is_random_unitary checks each party's stack at once, with the verdict
    of the per-factor loop."""

    def channels(self):
        g = RNG.child(40).generator()
        for dims in ((2, 2), (3, 2), (2, 2, 2)):
            for _ in range(5):
                ch = random_unitary_separable(dims, int(g.integers(1, 5)), g)
                yield ch
                # one factor scaled, so its operator is c U with c != 1
                ops = list(ch.ops)
                ops[-1] = SeparableKrausOperator(
                    ops[-1].factors[:-1] + (3.0 * ops[-1].factors[-1],))
                yield SeparableChannel(dims, tuple(ops))
                yield random_separable_channel(dims, int(g.integers(1, 5)), g)
        # singular factors: a zero factor, a rank-one factor, a tiny unitary
        u = random_haar_unitary(2, g)
        for f in (np.zeros((2, 2)), np.outer([1.0, 1j], [1.0, 0.0]), 1e-9 * u):
            yield SeparableChannel((2, 2), (SeparableKrausOperator((u, u)),
                                            SeparableKrausOperator((u, f))))
        yield embed_one_sided(amplitude_damping_kraus(0.0), 0, (2, 2))

    def test_verdict_equals_the_per_factor_loop(self):
        verdicts = []
        for ch in self.channels():
            verdict = is_random_unitary(ch)
            assert verdict == loop_random_unitary(ch)
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    def test_scaled_unitaries_are_random_unitary(self):
        u = random_haar_unitary(3, RNG.child(41))
        ch = SeparableChannel((3, 3), (SeparableKrausOperator((0.6 * u, u)),
                                       SeparableKrausOperator((0.8 * u, u.conj()))))
        assert is_random_unitary(ch) and loop_random_unitary(ch)


class TestPhaseDamping:
    def test_local_list_closes(self):
        for p in (0.0, 0.36, 1.0):
            ks = np.stack(phase_damping_kraus(p))
            closure = np.sum(ks.conj().swapaxes(-1, -2) @ ks, axis=0)
            assert np.max(np.abs(closure - np.eye(2))) < 1e-15

    def test_family_decay(self):
        ch = CHANNEL_FAMILIES["phase-damping"](0.36, dims=(2, 2))
        assert validate(ch).ok
        assert abs(decay_factor(ch) - 0.8) < 1e-12


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

    def test_embed_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            embed_one_sided([], 0, (2, 2))

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

    @pytest.mark.parametrize("dims", ["22", [2.9, 2.2], [True, 2], [2, "2"],
                                      [2, None], 2, {"a": 2}])
    def test_loose_dims_are_refused(self, dims):
        data = channel_to_json(bit_flip_correlated(0.3))
        data["dims"] = dims
        with pytest.raises(ValueError, match="list of integers"):
            channel_from_json(data)
        state = state_to_json(bell_state())
        state["dims"] = dims
        with pytest.raises(ValueError, match="list of integers"):
            state_from_json(state)

    def test_whole_number_dims_are_accepted(self):
        data = channel_to_json(bit_flip_correlated(0.3))
        data["dims"] = [2.0, 2]
        assert channel_from_json(data).dims.dims == (2, 2)
        state = state_to_json(bell_state())
        state["dims"] = [2, 2.0]
        assert state_from_json(state).dims.dims == (2, 2)

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            channel_from_json({"ops": []})
        with pytest.raises(ValueError, match="factors"):
            channel_from_json({"dims": [2, 2], "ops": [{}]})
        bad = channel_to_json(bit_flip_correlated(0.3))
        bad["ops"][0]["factors"] = bad["ops"][0]["factors"][:1]
        with pytest.raises(ValueError, match="parties"):
            channel_from_json(bad)
