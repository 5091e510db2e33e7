import numpy as np
import pytest
import scipy.linalg

from hermiton import hermitian_algebra
from hermiton.errors import NonFinite, NotHermitian, SingularForm
from hermiton.hermitian_algebra import (
    COND_TOL,
    HERM_TOL_FACTOR,
    _checked_inverse,
    complex_vector,
    hermitian_basis,
    hermitian_form,
    hermitian_part,
    hermitian_to_real,
    hermiticity_drift,
    invert_form,
    matrix_exp,
    real_decompose,
    real_to_hermitian,
)

from conftest import rand_herm, rand_pd


class TestHermiticityVerdict:
    """One relative rule: hermitian_form refuses a form whose
    hermiticity_drift exceeds HERM_TOL_FACTOR."""

    def test_identity(self):
        assert hermiticity_drift(np.eye(3)) == 0.0
        assert np.array_equal(hermitian_form(np.eye(3)), np.eye(3))

    def test_antihermitian(self):
        f = np.array([[0, 1j], [1j, 0]])
        assert hermiticity_drift(f) == 2.0         # F^dag = -F
        assert hermiticity_drift(1j * f) == 0.0
        with pytest.raises(NotHermitian, match="^form deviates from hermiticity by 2.000e"):
            hermitian_form(f, require_invertible=False)

    def test_pauli_like(self):
        f = np.array([[1, 1j], [-1j, 2]])
        assert hermiticity_drift(f) == 0.0
        assert np.array_equal(hermitian_form(f), f)

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_scaled_form_gets_the_verdict_of_the_form(self, rng, scale):
        # relative defects just inside and just outside the tolerance: s * F
        # is accepted or refused with F, whatever the scale s
        for rel, accepted in ((0.5 * HERM_TOL_FACTOR, True), (2.0 * HERM_TOL_FACTOR, False)):
            base = rand_pd(rng, 3)
            skew = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            skew = skew - skew.conj().T
            # F - F^dag = 2 c skew, so the drift is about rel
            form = base + 0.5 * rel * np.linalg.norm(base) / np.linalg.norm(skew) * skew
            assert hermiticity_drift(form) == pytest.approx(rel, rel=1e-6)
            for f in (form, scale * form):
                if accepted:
                    hermitian_form(f)
                else:
                    with pytest.raises(NotHermitian):
                        hermitian_form(f)


class TestHermitianForm:
    def test_resymmetrizes(self):
        f = np.array([[1.0, 0.1 + 1e-12j], [0.1 - 2e-12j, 2.0]])
        g = hermitian_form(f)
        assert np.allclose(g, g.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_form(np.array([[0, 1j], [1j, 0]]))

    def test_rejects_singular(self):
        with pytest.raises(SingularForm):
            hermitian_form(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_stack_gives_each_member_the_verdict_and_bits_of_the_2d_call(self, rng):
        for n in (1, 2, 4, 8):
            stack = np.array([rand_herm(rng, n) + 1e-12 * rng.normal(size=(n, n))
                              for _ in range(4)])
            forms = hermitian_form(stack, require_invertible=False)
            for member, form in zip(stack, forms):
                assert form.tobytes() == hermitian_form(member, False).tobytes()
            assert hermitian_form(stack[:2].reshape(1, 2, n, n), False).tobytes() \
                == forms[:2].tobytes()

    def test_stack_names_the_refused_member(self, rng):
        good = rand_pd(rng, 2)
        cases = [(np.array([[0, 1j], [1j, 0]]), NotHermitian, "form deviates"),
                 (np.array([[1.0, np.inf], [np.inf, 1.0]]), NonFinite, "form has non-finite"),
                 (np.array([[1.0, 1.0], [1.0, 1.0]]), SingularForm, "zero pivot")]
        for bad, error, message in cases:
            with pytest.raises(error, match=f"^form 2 of 3: {message}"):
                hermitian_form(np.array([good, good, bad]))


class TestComplexVector:
    def test_stack_names_the_refused_member(self):
        stack = np.ones((2, 3, 4), dtype=complex)
        assert complex_vector(stack) is stack
        stack[1, 0, 2] = np.nan
        with pytest.raises(NonFinite, match="^vector 3 of 6: state vector has non-finite"):
            complex_vector(stack)
        with pytest.raises(NonFinite, match="^state vector has non-finite"):
            complex_vector(stack[1, 0])

    def test_empty_or_scalar_rejected(self):
        for bad in (np.zeros(0), np.zeros((3, 0)), 1.0):
            with pytest.raises(ValueError):
                complex_vector(bad)


class TestHermiticityDrift:
    def test_stack_matches_each_matrix_bitwise(self, rng):
        for n in range(1, 9):
            stack = np.array([rand_herm(rng, n) + 1e-9 * rng.normal(size=(n, n))
                              for _ in range(5)] + [np.zeros((n, n))])
            drifts = hermiticity_drift(stack)
            assert drifts.shape == (6,)
            for member, drift in zip(stack, drifts):
                assert np.float64(hermiticity_drift(member)).tobytes() == drift.tobytes()
            assert drifts[-1] == 0.0


class TestInvertForm:
    def test_diagonal(self):
        assert np.allclose(invert_form(np.diag([2.0, 1.0])), np.diag([0.5, 1.0]))

    def test_identity(self):
        assert np.allclose(invert_form(np.eye(4)), np.eye(4))

    def test_hand_2x2(self):
        gamma = np.array([[1, 1j], [-1j, 2]])
        expected = np.array([[2, -1j], [1j, 1]])
        assert np.allclose(invert_form(gamma), expected, atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularForm):
            invert_form(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_inverse_identity_bound(self, rng):
        for n in range(1, 7):
            g = rand_pd(rng, n)
            cond = np.linalg.cond(g)
            defect = np.max(np.abs(invert_form(g) @ g - np.eye(n)))
            assert defect <= 1e-12 * cond

    def test_stack_members_bit_identical_to_2d_call(self, rng):
        for n in range(1, 9):
            stack = np.array([rand_pd(rng, n) * 10.0 ** k for k in range(-3, 4)]
                             + [rand_herm(rng, n) for _ in range(3)])
            inverses = invert_form(stack)
            assert inverses.shape == stack.shape
            for member, inverse in zip(stack, inverses):
                assert invert_form(member).tobytes() == inverse.tobytes()
            nested = invert_form(stack[:6].reshape(2, 3, n, n))
            assert nested.tobytes() == inverses[:6].tobytes()

    def test_stack_with_one_singular_member_raises(self, rng):
        # an exactly singular member makes inv raise; a near-singular one fails
        # the condition test
        for singular in (np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 1e-14])):
            stack = np.array([rand_pd(rng, 2), singular, rand_pd(rng, 2)])
            with pytest.raises(SingularForm, match="form 1 of 3"):
                invert_form(stack)

    def test_non_square_input_rejected(self):
        for bad in (np.ones((2, 3)), np.ones(3), np.ones((4, 2, 3))):
            with pytest.raises(ValueError):
                invert_form(bad)

    def test_double_inversion(self, rng):
        for n in range(1, 7):
            for _ in range(10):
                g = rand_pd(rng, n)
                if np.linalg.cond(g) >= 1e3:
                    continue
                assert np.max(np.abs(invert_form(invert_form(g)) - g)) < 1e-10


def form_with_condition(rng, n, cond):
    """Random positive definite Hermitian form with spectral condition number cond."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return hermitian_part((q * np.geomspace(1.0, 1.0 / cond, n)) @ q.conj().T)


def accepted(validate, form) -> bool:
    try:
        validate(form)
    except SingularForm:
        return False
    return True


class TestConditionPolicy:
    @pytest.mark.parametrize("n", [19, 20, 32])
    def test_well_conditioned_forms_accepted_at_large_n(self, rng, n):
        for form in (np.eye(n), form_with_condition(rng, n, 10.0)):
            assert np.array_equal(hermitian_form(form), form)
            assert np.max(np.abs(invert_form(form) @ form - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 32])
    @pytest.mark.parametrize("cond, verdict", [(1e4, True), (1e14, False)])
    def test_verdict_is_scale_invariant(self, rng, n, cond, verdict):
        """kappa_2 = 1e14 is refused with SingularForm at every scale, kappa_2 = 1e4
        accepted at every scale."""
        form = form_with_condition(rng, n, cond)
        for scale in (1e-150, 1.0, 1e150):
            assert accepted(hermitian_form, scale * form) == verdict
            assert accepted(invert_form, scale * form) == verdict


def reference_rc(f) -> float:
    """The one-matrix condition estimate as two separate passes, each
    maximum a Python float: 1 / (n max|F_ij| max|(F^-1)_ij|)."""
    inv = np.linalg.inv(f)
    return 1.0 / (f.shape[0] * float(np.abs(f).max()) * float(np.abs(inv).max()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_checked_inverse_keeps_the_reference_estimate(rng, monkeypatch, n):
    # forms on either side of COND_TOL, and at scales 2^-300 and 2^300: the
    # verdict, the message and (by moving the threshold onto the reference
    # estimate and one ulp below it) the estimate's bits are the reference's,
    # from exactly one np.linalg.inv call, looked up when the call is made
    cases = [(scale, form_with_condition(rng, n, cond))
             for cond in np.geomspace(1e10, 1e14, 9) if n > 1 or cond == 1e10
             for scale in (2.0 ** -300, 1.0, 2.0 ** 300)]
    if n == 1:
        cases += [(2.0 ** -300, np.array([[3.0 + 0.0j]])), (2.0 ** 300, np.array([[-0.5j]]))]
    expected = [reference_rc(scale * form) for scale, form in cases]
    assert {rc > COND_TOL for rc in expected} == ({True, False} if n > 1 else {True})
    calls = []
    real_inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    for (scale, form), rc in zip(cases, expected):
        f = scale * form
        for tol, refused in ((COND_TOL, not rc > COND_TOL), (rc, True),
                             (np.nextafter(rc, -np.inf), False)):
            monkeypatch.setattr(hermitian_algebra, "COND_TOL", tol)
            del calls[:]
            if refused:
                with pytest.raises(SingularForm) as info:
                    _checked_inverse(f)
                assert str(info.value) == (f"reciprocal condition estimate {rc:.3e} "
                                           f"<= {tol:.0e}")
            else:
                assert np.array_equal(_checked_inverse(f), real_inv(f))
            assert calls == [(n, n)]


class TestMatrixExp:
    def test_zero_is_identity_exact(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        m = np.diag([0.3, -1.2])
        assert np.allclose(matrix_exp(m), np.diag(np.exp([0.3, -1.2])), atol=1e-14)

    def test_rotation_quarter_turn(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(matrix_exp(m, np.pi / 2.0),
                           np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-13)

    def test_inverse_pairing(self, rng):
        for _ in range(10):
            m = rand_herm(rng, 3) + 1j * rand_herm(rng, 3)
            norm = np.linalg.norm(m)
            if norm > 5.0:
                m = m * (5.0 / norm)
            prod = matrix_exp(m) @ matrix_exp(-m)
            assert np.max(np.abs(prod - np.eye(3))) < 1e-10

    def test_commuting_additivity(self, rng):
        d = np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))
        lhs = matrix_exp(d, 0.7 + 1.1)
        rhs = matrix_exp(d, 0.7) @ matrix_exp(d, 1.1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_against_scipy(self, rng):
        for _ in range(5):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.allclose(matrix_exp(m), scipy.linalg.expm(m),
                               rtol=1e-11, atol=1e-11)

    def test_overflow_reported(self):
        from hermiton.errors import NonFinite

        with pytest.raises(NonFinite):
            matrix_exp(np.array([[2000.0]]))
        with pytest.raises(NonFinite):
            matrix_exp(np.array([[np.nan]]))


class TestRealDecompose:
    def test_identity(self):
        s, a = real_decompose(np.eye(2))
        assert np.array_equal(s, np.eye(2)) and np.array_equal(a, np.zeros((2, 2)))

    def test_hand_case(self):
        s, a = real_decompose(np.array([[1, 1j], [-1j, 1]]))
        assert np.allclose(s, np.eye(2))
        assert np.allclose(a, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_real_diagonal(self):
        s, a = real_decompose(np.diag([2.0, 3.0]))
        assert np.allclose(s, np.diag([2.0, 3.0])) and np.allclose(a, 0.0)

    def test_reconstruction_and_symmetry(self, rng):
        g = rand_herm(rng, 4)
        s, a = real_decompose(g)
        assert np.allclose(s, s.T) and np.allclose(a, -a.T)
        assert np.allclose(s + 1j * a, g)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            real_decompose(np.array([[0, 1j], [1j, 0]]))


class TestHermitianPacking:
    def test_basis_orthonormal(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                assert abs(np.trace(p @ q).real - (1.0 if i == j else 0.0)) < 1e-14

    def test_round_trip(self, rng):
        for n in (1, 2, 3, 4, 8, 16):
            x = rand_herm(rng, n)
            coords = hermitian_to_real(x)
            assert coords.shape == (n * n,)
            assert np.allclose(real_to_hermitian(coords, n), x, atol=1e-14)

    def test_coordinates_follow_basis_order(self, rng):
        # x = sum_k coords[k] * conj(B_k): the imaginary coordinates carry the
        # opposite sign of the ones hermitian_basis itself would give
        for n in (1, 2, 3, 8, 16):
            x = rand_herm(rng, n)
            expected = [np.trace(b.conj() @ x).real for b in hermitian_basis(n)]
            assert np.max(np.abs(hermitian_to_real(x) - expected)) <= 1e-14


def _loop_hermitian_to_real(x):
    n = x.shape[0]
    coords = [x[a, a].real for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            coords += [np.sqrt(2.0) * x[a, b].real, -np.sqrt(2.0) * x[a, b].imag]
    return np.array(coords)


def _loop_real_to_hermitian(coords, n):
    x = np.zeros((n, n), dtype=complex)
    for a in range(n):
        x[a, a] = coords[a]
    k = n
    for a in range(n):
        for b in range(a + 1, n):
            re = coords[k] * (1.0 / np.sqrt(2.0))
            im = -coords[k + 1] * (1.0 / np.sqrt(2.0))
            x[a, b] = re + 1j * im
            x[b, a] = re - 1j * im
            k += 2
    return x


def test_codec_bit_identical_to_loop_reference(rng):
    # same arithmetic as the entry-by-entry loops, signed zeros included
    for n in (1, 2, 3, 5, 8):
        x = rand_herm(rng, n)
        x[rng.random((n, n)) < 0.3] = -0.0
        coords = rng.normal(size=n * n)
        coords[rng.random(n * n) < 0.3] = -0.0
        assert hermitian_to_real(x).tobytes() == _loop_hermitian_to_real(x).tobytes()
        assert hermitian_to_real(x.T).tobytes() == _loop_hermitian_to_real(x.T).tobytes()
        assert (real_to_hermitian(coords, n).tobytes()
                == _loop_real_to_hermitian(coords, n).tobytes())


def test_codec_decodes_non_finite_coordinates_as_the_loop_reference(rng):
    # the gather adds the signed zeros of re + 1j * im as 0 * im, so an
    # infinite coordinate gives the loop's NaN and inf in the same places
    for n in (1, 2, 3, 5):
        coords = rng.normal(size=n * n)
        coords[rng.permutation(n * n)[:2]] = (np.inf, -np.inf)[: min(2, n * n)]
        with np.errstate(invalid="ignore"):
            got, want = real_to_hermitian(coords, n), _loop_real_to_hermitian(coords, n)
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)


def test_real_to_hermitian_stack_matches_each_row_bitwise(rng):
    for n in (1, 2, 3, 8):
        coords = rng.normal(size=(5, n * n))
        coords[rng.random(coords.shape) < 0.3] = -0.0
        matrices = real_to_hermitian(coords, n)
        assert matrices.shape == (5, n, n) and matrices.flags.c_contiguous
        for row, matrix in zip(coords, matrices):
            assert real_to_hermitian(row, n).tobytes() == matrix.tobytes()
        assert real_to_hermitian(coords.reshape(5, 1, n * n), n).tobytes() == matrices.tobytes()
        with pytest.raises(ValueError):
            real_to_hermitian(coords[:, 1:], n)
