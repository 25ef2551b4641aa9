"""Eigenchannel (singular value) layer of a multiple-input transmission matrix.

The Fourier-domain transmittance matrix F of a K_in-transmitter, K_out-receiver
arrangement factors as F = U2 * diag(lambda) * F1inv with the K_out x K_in U2
and the K_in x K_in F1inv of orthonormal columns (thin: no eigenchannel meets
the K_out - K_in further columns of a full U2); the lambda_i are the
non-negative singular values ("eigenchannels") in descending order, and
lambda_i^2 are the eigenvalues of F^dagger F.  :func:`eigenchannels` computes
what ``svd`` prints with numpy's BLAS on one thread, so its bytes do not
depend on ``OPENBLAS_NUM_THREADS``; with a BLAS that exports no known
thread-count call, they hold at a fixed thread count only.

Matrix CSV format accepted by :func:`load_matrix_csv`: row-major, one row per
line, entries comma-separated, each entry ``re:im`` of two finite numbers
(a bad or non-finite entry is reported at its ``path:line``); ``#`` starts
a comment and blank lines are skipped:

    0.5:0.0,0.1:-0.2
    0.0:1.0,0.3:0.0
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import input_lines

_ORTHONORMAL_TOL = 1e-10  # largest |m^dagger m - I| entry of orthonormal columns
# the (get, set) thread-count calls of the BLAS builds numpy links: the
# OpenBLAS of numpy's wheels, then a system OpenBLAS (ILP64 and LP64)
_BLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class TransmittanceMatrix:
    """Complex K_out x K_in transmittance matrix with K_in <= K_out."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2:
            raise ValueError("entries must be a two-dimensional matrix")
        k_out, k_in = m.shape
        if k_in < 1 or k_out < 1:
            raise ValueError(f"matrix must be non-empty, got shape {m.shape}")
        if k_in > k_out:
            raise ValueError(
                f"inputs must not exceed outputs, got {k_in} inputs and {k_out} outputs"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", m)

    @property
    def k_out(self) -> int:
        return self.entries.shape[0]

    @property
    def k_in(self) -> int:
        return self.entries.shape[1]


def _check_orthonormal_columns(m: np.ndarray, name: str) -> None:
    # m^dagger m through BLAS: on the CLI path this runs under eigenchannels'
    # one-thread pin, so no second OpenBLAS thread can keep it waiting
    gram = m.conj().T @ m
    err = np.max(np.abs(gram - np.eye(m.shape[1])))
    if not err <= _ORTHONORMAL_TOL:  # NaN fails too
        raise ValueError(f"{name} does not have orthonormal columns (max deviation {err:.3e})")


@dataclass(frozen=True)
class EigenDecomposition:
    """Thin factorisation F = u2 * diag(lambdas) * f1_inv of a transmittance
    matrix; the lambdas are finite and u2 and f1_inv have orthonormal
    columns."""

    u2: np.ndarray
    lambdas: np.ndarray
    f1_inv: np.ndarray

    def __post_init__(self):
        u2 = np.asarray(self.u2, dtype=complex)
        f1_inv = np.asarray(self.f1_inv, dtype=complex)
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or not lam.size == u2.shape[1] == f1_inv.shape[0]:
            raise ValueError("lambdas must hold one value per eigenchannel")
        if not np.all(np.isfinite(lam)):
            raise ValueError("singular values must be finite")
        if np.any(lam < 0):
            raise ValueError("singular values must be non-negative")
        if np.any(np.diff(lam) > 0):
            raise ValueError("singular values must be sorted in descending order")
        _check_orthonormal_columns(u2, "u2")
        _check_orthonormal_columns(f1_inv, "f1_inv")
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "f1_inv", f1_inv)
        object.__setattr__(self, "lambdas", lam)


def svd_decompose(m: TransmittanceMatrix) -> EigenDecomposition:
    """Thin singular value decomposition of the transmittance matrix."""
    u, s, vh = np.linalg.svd(m.entries, full_matrices=False)
    return EigenDecomposition(u, s, vh)


def reconstruct(d: EigenDecomposition) -> TransmittanceMatrix:
    """Rebuild the matrix as the sum of rank-one terms
    sum_i lambda_i * u2[:, i] * f1_inv[i, :]."""
    k_out = d.u2.shape[0]
    k_in = d.f1_inv.shape[1]
    m = np.zeros((k_out, k_in), dtype=complex)
    for i, lam in enumerate(d.lambdas):
        m += lam * np.outer(d.u2[:, i], d.f1_inv[i, :])
    return TransmittanceMatrix(m)


@functools.cache
def _blas_thread_calls():
    """The first pair of ``_BLAS_THREAD_CALLS`` that numpy's linalg module
    can reach, looked up once per process, or None."""
    from numpy.linalg import _umath_linalg

    try:
        # a handle's symbol lookup also searches the libraries it links
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in _BLAS_THREAD_CALLS:
        get_threads, set_threads = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get_threads and set_threads:
            get_threads.argtypes, get_threads.restype = (), ctypes.c_int
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            return get_threads, set_threads
    return None


def eigenchannels(matrix: TransmittanceMatrix) -> tuple[np.ndarray, float]:
    """The eigenchannels of ``matrix`` and the Frobenius norm of its
    reconstruction error relative to the matrix's (the absolute error for a
    zero matrix).  The norms, decomposition and reconstruction sum through
    BLAS on one thread, and the process's thread count is restored after."""
    # with no known call, getting and setting the count do nothing
    get_threads, set_threads = _blas_thread_calls() or (lambda: None, lambda threads: None)
    threads = get_threads()
    set_threads(1)
    try:
        # numpy sums the squares unscaled, so finite entries can still overflow
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(matrix.entries))
        if not math.isfinite(norm):
            raise ValueError("matrix Frobenius norm must fit a double")
        decomp = svd_decompose(matrix)
        err = float(np.linalg.norm(matrix.entries - reconstruct(decomp).entries))
    finally:
        set_threads(threads)
    return decomp.lambdas, err / norm if norm > 0 else err


def load_matrix_csv(path) -> TransmittanceMatrix:
    """Read a complex matrix from the row-major ``re:im`` CSV format."""
    rows: list[list[complex]] = []
    for lineno, line in input_lines(path):
        row = []
        for cell in line.split(","):
            # float() strips the whitespace around each part
            re_part, sep, im_part = cell.partition(":")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected re:im, got {cell!r}")
            try:
                value = complex(float(re_part), float(im_part))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad entry {cell!r}") from None
            if not cmath.isfinite(value):
                raise ValueError(f"{path}:{lineno}: matrix entries must be finite, got {cell!r}")
            row.append(value)
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have inconsistent lengths {sorted(widths)}")
    try:
        return TransmittanceMatrix(np.array(rows, dtype=complex))
    except ValueError as exc:  # the cells are checked: only a too-wide matrix is left
        raise ValueError(f"{path}: {exc}") from None
