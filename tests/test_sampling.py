"""Seeded sampling: determinism, distribution properties, conditioning guards."""

import numpy as np
import pytest

from entlab.families import random_local_kraus
from entlab.sampling import (RandomStream, ginibre, random_density,
                             random_haar_unitary, random_isometry,
                             random_pure_state, random_sl)


def test_stream_reproducibility_is_bit_exact():
    a = random_haar_unitary(4, RandomStream(123, (5,)))
    b = random_haar_unitary(4, RandomStream(123, (5,)))
    assert np.array_equal(a, b)


def test_child_streams_differ():
    s = RandomStream(123)
    a = random_pure_state((2, 2), s.child(0))
    b = random_pure_state((2, 2), s.child(1))
    assert not np.allclose(a.amps, b.amps)


def test_haar_unitary_is_unitary():
    for d in (1, 2, 5):
        u = random_haar_unitary(d, RandomStream(9, (d,)))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12


def test_haar_scalar_case_has_unit_modulus():
    u = random_haar_unitary(1, RandomStream(4))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_left_invariance_statistic():
    # |<0|U|0>|^2 averages to 1/d, with or without a fixed left rotation
    d, n = 2, 4000
    g = RandomStream(77).generator()
    v = random_haar_unitary(d, RandomStream(78))
    plain = np.mean([abs(random_haar_unitary(d, g)[0, 0]) ** 2 for _ in range(n)])
    rotated = np.mean([abs((v @ random_haar_unitary(d, g))[0, 0]) ** 2 for _ in range(n)])
    assert abs(plain - 1.0 / d) < 0.05
    assert abs(rotated - 1.0 / d) < 0.05


def test_sl_determinant_is_one():
    for d in (2, 3, 4):
        m = random_sl(d, RandomStream(11, (d,)))
        assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_sl_group_closure():
    s = RandomStream(12)
    a = random_sl(2, s.child(0))
    b = random_sl(2, s.child(1))
    assert abs(np.linalg.det(a @ b) - 1.0) < 1e-9


def test_sl_conditioning_guard():
    for i in range(50):
        m = random_sl(2, RandomStream(13, (i,)))
        assert np.linalg.svd(m, compute_uv=False)[-1] > 1e-6


def test_random_pure_state_is_normalized():
    psi = random_pure_state((2, 3), RandomStream(14))
    assert abs(psi.weight - 1.0) < 1e-12


def test_random_density_is_valid_and_has_requested_rank():
    for rank in (1, 2, 4):
        rho = random_density((2, 2), rank, RandomStream(15, (rank,)))
        ev = np.linalg.eigvalsh(rho.mat)
        assert ev.min() > -1e-12
        assert abs(rho.trace - 1.0) < 1e-12
        assert int(np.sum(ev > 1e-10)) == rank


def test_random_density_rank_out_of_range():
    with pytest.raises(ValueError, match="rank"):
        random_density((2, 2), 5, RandomStream(16))
    with pytest.raises(ValueError, match="rank"):
        random_density((2, 2), 0, RandomStream(16))


def test_random_isometry_has_orthonormal_columns():
    v = random_isometry(6, 3, RandomStream(17))
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-12


@pytest.mark.parametrize("draw,rows,cols", [
    (lambda rows, cols, s: random_haar_unitary(rows, s), 1, 1),
    (lambda rows, cols, s: random_haar_unitary(rows, s), 4, 4),
    (random_isometry, 3, 3),
    (random_isometry, 6, 3),
    (random_isometry, 9, 2),
    # a Kraus list stacks into the isometry it was cut from
    (lambda rows, cols, s: np.vstack(random_local_kraus(cols, rows // cols, s)), 8, 2),
])
def test_haar_draws_fix_the_qr_phases(draw, rows, cols):
    # Q^dag G is the R factor of the Ginibre draw G behind Q: upper triangular
    # with a positive real diagonal, which fixes Q uniquely
    for i in range(20):
        stream = RandomStream(31, (rows, cols, i))
        r = draw(rows, cols, stream).conj().T @ ginibre(rows, cols, stream)
        assert np.max(np.abs(np.tril(r, -1))) < 1e-12
        diag = np.diagonal(r)
        assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) < 1e-12


def test_stacked_haar_unitaries_equal_one_draw_each():
    # one block of normals and one stacked QR give each unitary bitwise as
    # its own draw does, and leave the generator where the draws would
    from entlab.sampling import _haar_q, _haar_unitaries
    for d in (1, 2, 3, 4):
        g_one = RandomStream(32, (d,)).generator()
        g_block = RandomStream(32, (d,)).generator()
        one = [random_haar_unitary(d, g_one) for _ in range(5)]
        block = _haar_unitaries(g_block.standard_normal((5, 2, d, d)))
        assert block.tobytes() == np.stack(one).tobytes()
        assert g_one.standard_normal(3).tobytes() == g_block.standard_normal(3).tobytes()
        # a unitary is the phase-fixed QR of a Ginibre draw
        ref = _haar_q(ginibre(d, d, RandomStream(33, (d,))))
        assert random_haar_unitary(d, RandomStream(33, (d,))).tobytes() == ref.tobytes()
