"""Complex linear algebra for Hermitian forms.

Index conventions used throughout the package (all arrays are plain numpy
``complex128`` matrices; the tensor character lives in the documentation):

* covariant sesquilinear forms (the scalar product ``gamma``, the Hamiltonian
  form ``chi``, velocities ``gamma_dot``) are stored as ``F[a, b]`` meaning
  the component with first (row) index conjugated; Hermitian means
  ``F == F.conj().T``;
* contravariant objects (inverse forms, momenta conjugate to ``gamma``,
  conserved tensors) are stored as ``K[b, a]`` with the row index
  unconjugated, so that ``K @ F`` and ``F @ K`` are the natural
  contractions;
* mixed tensors (operators on the state space, e.g. the Hamilton operator)
  are stored as ``M[a, b]``.

With these conventions ordinary matrix multiplication implements every
index contraction in the package, and conjugate-transposition implements
hermiticity for all three kinds of object.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonFinite, NotHermitian, SingularForm

__all__ = [
    "hermitian_part",
    "hermiticity_drift",
    "complex_vector",
    "hermitian_form",
    "invert_form",
    "matrix_exp",
    "real_decompose",
    "hermitian_basis",
    "hermitian_to_real",
    "real_to_hermitian",
]

#: default relative tolerance for hermiticity validation
HERM_TOL_FACTOR = 1e-9
#: a form is refused when its reciprocal condition estimate is not above this
COND_TOL = 1e-12


def _as_complex_matrix(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {f.shape}")
    return f


def _as_complex_stack(f) -> np.ndarray:
    """A square matrix (n, n) or a stack of them (..., n, n)."""
    f = np.asarray(f, dtype=complex)
    if f.ndim < 2 or f.shape[-2] != f.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {f.shape}")
    return f


def _dagger(f: np.ndarray) -> np.ndarray:
    return f.conj().swapaxes(-1, -2)


def _frobenius(f: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack (..., n, n).

    A stack sums the squares in the order ``np.linalg.norm`` uses for a
    C-ordered matrix, so each value has the bits of that 2-D call.
    """
    if f.ndim == 2:
        return np.linalg.norm(f)   # faster for one matrix, in any memory layout
    x = f.reshape(*f.shape[:-2], -1)
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def hermitian_part(f) -> np.ndarray:
    """(F + F^dag) / 2, of each matrix of a stack (..., n, n)."""
    f = _as_complex_stack(f)
    return (f + _dagger(f)) / 2.0


def hermiticity_drift(f):
    """Relative hermiticity defect ||F - F^dag|| / max(||F||, tiny), the
    package's one hermiticity test; of 1j * F, F's antihermiticity defect.

    A float for one matrix; for a stack (..., n, n), the array of each
    matrix's defect.
    """
    f = _as_complex_stack(f)
    drift = _frobenius(f - _dagger(f)) / np.maximum(_frobenius(f), 1e-300)
    return float(drift) if f.ndim == 2 else drift


def complex_vector(entries) -> np.ndarray:
    """Validate a state vector: n >= 1 finite entries.

    A stack of vectors (..., n) is validated member by member; a member with
    a non-finite entry is named by its index in the flattened stack.
    """
    v = np.asarray(entries, dtype=complex)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ValueError(f"expected a vector of length >= 1, got shape {v.shape}")
    _require_finite(v, 1, "state vector")
    return v


def hermitian_form(entries, require_invertible: bool = True) -> np.ndarray:
    """Validate and re-symmetrize a Hermitian form.

    The matrix is accepted if hermiticity_drift(F) <= HERM_TOL_FACTOR and, when
    ``require_invertible``, if it passes the condition test of
    :func:`invert_form` (SingularForm otherwise).  The returned matrix is the
    Hermitian part of the input, so integrator round-off cannot silently
    break the type invariant while the drift stays measurable beforehand.
    A stack of forms (..., n, n) is validated member by member, each with
    the verdict of the 2-D call, and a refused member is named.
    """
    f = _as_complex_stack(entries)
    _require_finite(f, 2, "form")
    drift = np.ravel(hermiticity_drift(f))
    refused = drift > HERM_TOL_FACTOR
    if refused.any():
        k = int(np.argmax(refused))
        raise NotHermitian(f"{_member(f, k)}form deviates from hermiticity by "
                           f"{drift[k]:.3e} of its norm (tolerance {HERM_TOL_FACTOR:.0e})")
    f = hermitian_part(f)
    if require_invertible:
        _checked_inverse(f)
    return f


def invert_form(gamma) -> np.ndarray:
    """Contravariant inverse of a nondegenerate Hermitian form.

    Satisfies inverse @ gamma == identity and is itself Hermitian.  The form
    is refused with SingularForm when its reciprocal condition estimate
    1 / (n max|F_ij| max|(F^-1)_ij|) is not above ``COND_TOL``; the test
    squares nothing, so it gives the same verdict for s * F at any scale s.
    A stack of forms (..., n, n) gives the stack of their inverses, from one
    ``inv`` call; each member has the bits of the 2-D call and is tested on
    its own.
    """
    return hermitian_part(_checked_inverse(_as_complex_stack(gamma)))


def _checked_inverse(f: np.ndarray) -> np.ndarray:
    """Raw inverse of the complex square matrix f, or of each matrix of a
    stack (..., n, n), under the condition test of :func:`invert_form`.

    n max|F_ij| max|(F^-1)_ij| lies within a factor n of the spectral
    condition number.  A refused stack member is named by its index in the
    flattened stack.  One matrix takes the same test in Python floats, its
    two maxima from one ``abs`` of the (2, n, n) stack (F, F^-1) and one
    reduce.
    """
    try:
        inv = np.linalg.inv(f)
    except np.linalg.LinAlgError:
        members = f.reshape(-1, *f.shape[-2:])
        for k, member in enumerate(members):
            try:
                np.linalg.inv(member)
            except np.linalg.LinAlgError:
                raise SingularForm(f"{_member(f, k)}zero pivot: the form is singular") from None
        raise
    n = f.shape[-1]
    if f.ndim == 2:
        f_max, inv_max = np.abs((f, inv)).max(axis=(1, 2)).tolist()
        rc = 1.0 / (n * f_max * inv_max)
        if not rc > COND_TOL:
            raise SingularForm(f"reciprocal condition estimate {rc:.3e} <= {COND_TOL:.0e}")
        return inv
    rc = 1.0 / (n * np.abs(f).max(axis=(-2, -1)) * np.abs(inv).max(axis=(-2, -1)))
    accepted = rc > COND_TOL
    if not accepted.all():
        k = int(np.argmin(accepted))
        raise SingularForm(f"{_member(f, k)}reciprocal condition estimate "
                           f"{rc.flat[k]:.3e} <= {COND_TOL:.0e}")
    return inv


def _member(f: np.ndarray, k: int, core: int = 2) -> str:
    """'form k of S: ' for a stack of S forms, '' for one matrix; with
    ``core`` = 1, 'vector k of S: ' for a stack of vectors."""
    if f.ndim == core:
        return ""
    return f"{'form' if core == 2 else 'vector'} {k} of {f.size // f.shape[-1] ** core}: "


def _require_finite(x: np.ndarray, core: int, what: str) -> None:
    """NonFinite unless every entry of x is finite; in a stack whose members
    have ``core`` trailing axes the first refused member is named."""
    finite = np.isfinite(x)
    if finite.all():
        return
    member_ok = finite.reshape(*x.shape[:x.ndim - core], -1).all(axis=-1)
    k = int(np.argmin(member_ok))
    raise NonFinite(f"{_member(x, k, core)}{what} has non-finite entries")


# Pade-13 numerator/denominator coefficients for the exponential kernel.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def matrix_exp(m, t: float = 1.0) -> np.ndarray:
    """exp(M t) by scaling-and-squaring with a fixed-order Pade kernel.

    The argument is halved until its 1-norm is <= 0.5, the Pade-13
    approximant is evaluated, and the result is squared back up.
    exp(0) == I exactly.
    """
    a = _as_complex_matrix(m) * t
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix exponential of a non-finite argument")
    n = a.shape[0]
    ident = np.eye(n, dtype=complex)
    norm = float(np.linalg.norm(a, 1))
    if norm == 0.0:
        return ident
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))))
    a = a / (2.0 ** squarings)

    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # no condition test: at ||A||_1 <= 0.5 the Pade denominator v - u is
    # well conditioned
    result = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise NonFinite("matrix exponential overflowed")
    return result


def real_decompose(gamma) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian form into real symmetric + i * real antisymmetric.

    Returns (S, A) with gamma == S + i A exactly (after re-symmetrization).
    """
    g = hermitian_form(gamma, require_invertible=False)
    s = g.real.copy()
    a = g.imag.copy()
    return s, a


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal real basis of the n^2-dimensional space of Hermitian
    n x n matrices under the inner product <P, Q> = Tr(P Q)."""
    basis = []
    for a in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = inv_sqrt2
            e[b, a] = inv_sqrt2
            basis.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[a, b] = 1j * inv_sqrt2
            f[b, a] = -1j * inv_sqrt2
            basis.append(f)
    return basis


_SQRT2 = np.sqrt(2.0)
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _codec_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables of the Hermitian codec for n x n matrices.

    ``hermitian_to_real(x) == x.ravel().view(float)[to_real] * scale``.
    ``to_matrix`` and ``decode_scale`` hold two gathers of the coordinates
    (index n^2 is an appended zero) with a factor for each, each of the size
    of the decoded matrix's real view.  The first gives the values: the
    diagonal (c, 0), and (Re, Im) = c / sqrt(2) times (1, -1) above the
    diagonal and (1, 1) below it.  The second gives the signed zero added to
    each, as the complex arithmetic of re + 1j * im adds it: 0 * im to a
    real part (-0.0 on the diagonal, which keeps its sign) and +0.0 to an
    imaginary part.
    """
    rows, cols = np.triu_indices(n, k=1)
    diag, upper = np.arange(n) * (n + 1), rows * n + cols
    to_real = np.concatenate([2 * diag, np.column_stack([2 * upper, 2 * upper + 1]).ravel()])
    scale = np.concatenate([np.ones(n), np.tile([_SQRT2, -_SQRT2], upper.size)])
    zero, d, k = n * n, np.arange(n), n + 2 * np.arange(upper.size)
    to_matrix = np.empty((2, n, n, 2), dtype=np.intp)
    decode_scale = np.empty((2, n, n, 2))
    to_matrix[0, d, d, 0], to_matrix[0, d, d, 1] = d, zero
    to_matrix[1, d, d] = zero
    for i, j in ((rows, cols), (cols, rows)):
        to_matrix[0, i, j, 0], to_matrix[0, i, j, 1] = k, k + 1
        to_matrix[1, i, j, 0], to_matrix[1, i, j, 1] = k + 1, zero
    decode_scale[0, d, d], decode_scale[1, d, d] = (1.0, 1.0), (-0.0, 0.0)
    decode_scale[0, rows, cols], decode_scale[0, cols, rows] = (_INV_SQRT2, -_INV_SQRT2), \
        (_INV_SQRT2, _INV_SQRT2)
    decode_scale[1, rows, cols], decode_scale[1, cols, rows] = (-0.0, 0.0), (0.0, 0.0)
    tables = to_real, scale, to_matrix.ravel(), decode_scale.ravel()
    for table in tables:
        table.setflags(write=False)
    return tables


def hermitian_to_real(x) -> np.ndarray:
    """Real coordinates c of a Hermitian matrix x, in the ``hermitian_basis``
    order: x == sum_k c[k] * conj(hermitian_basis(n)[k]).  That is the
    diagonal, then sqrt(2) * Re and -sqrt(2) * Im of each upper entry."""
    x = _as_complex_matrix(x)
    to_real, scale, _, _ = _codec_tables(x.shape[0])
    return x.ravel().view(float)[to_real] * scale


def real_to_hermitian(coords, n: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_real`; coordinates (..., n^2) with
    leading stack axes give the stack of matrices (..., n, n).

    One gather of the coordinates (and a zero) into twice the matrices' real
    view, times each real's factor, gives the entries (re, im) above and
    (re, -im) below the diagonal and the signed zeros that make them the bits
    of re + 1j * im and re - 1j * im in complex arithmetic: one addition.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (n * n,):
        raise ValueError(f"expected {n * n} coordinates, got shape {coords.shape}")
    lead = coords.shape[:-1]
    _, _, to_matrix, decode_scale = _codec_tables(n)
    parts = np.concatenate((coords, np.zeros(lead + (1,))), -1).take(to_matrix, -1)
    parts *= decode_scale
    size = 2 * n * n
    return (parts[..., :size] + parts[..., size:]).view(complex).reshape(*lead, n, n)
