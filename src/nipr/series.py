"""Matrix power series and eigenvalue-branch analysis.

Given exact Taylor coefficients of a Hermitian matrix family H(x) as x -> 0+,
every eigenvalue branch behaves like c * x**k for some integer k >= 0 and
c != 0 (or is identically zero through the available terms).  The branch
orders and leading coefficients are extracted by recursive Schur-complement
reduction onto the kernel of the leading coefficient.  This decides limit
conditions of the form ``liminf x**-k * lambda_min(H(x)) > 0`` without any
sampling.  ``matrix_taylor`` expands all entries of a matrix at once, bitwise
as each entry's own ``RationalScalar.taylor``.
"""

from __future__ import annotations

import numpy as np

from .boundary import herm
from .ratmat import RationalMatrix


def matrix_taylor(R: RationalMatrix, p, nterms):
    """Taylor coefficients of R at the point p, as a list of complex arrays, each entry bitwise its
    ``RationalScalar.taylor``, for all entries at once from ``R._coefficient_stacks``: one Horner pass
    over the stacks per synthetic division of ``poly.shift_poly``, then the series division of
    ``poly._series_div``, in real arithmetic, as in ``ratmat._values_at``.  The zero padding above an
    entry's leading coefficient stays +0 and adds nothing to it, as it is not zero unless the entry is a
    constant, whose remainder is taken as it is."""
    num, den = R._coefficient_stacks
    W = np.zeros((max(len(num), len(den), nterms), 2, 2) + num.shape[1:])  # axes: (re, im), (num, den), entry
    W[:len(num), 0, 0], W[:len(den), 0, 1] = num, den
    top = np.array([[e.num.size, e.den.size] for row in R.entries for e in row]).T.reshape(W.shape[2:]) - 1
    dsize, p, shifted = top[1] + 1, complex(p), []
    flip = np.array([-p.imag, p.imag]).reshape(2, 1, 1, 1)  # acc * p = acc * p.real + acc[::-1] * flip
    for _ in range(nterms):
        acc = np.zeros(W.shape[1:])
        for t in range(top.max(), 0, -1):  # the quotient overwrites the work from its top
            acc = W[t] = W[t] + (acc * p.real + acc[::-1] * flip)
        shifted.append(np.where(top == 0, W[0], W[0] + (acc * p.real + acc[::-1] * flip)))
        W, top = W[1:], top - 1
    d0, out = np.stack(shifted[0][:, 1], axis=-1).view(complex)[..., 0], []  # (re, im) -> complex, bitwise
    if not (d0 != 0.0).all():
        raise ZeroDivisionError("series division at a pole")
    for k in range(nterms):
        acc = shifted[k][:, 0]
        for j in range(1, k + 1):  # minus d_j out_{k-j}, for j below the entry's den size
            d, o = shifted[j][:, 1], out[k - j]
            acc = np.where(j < dsize, acc - (d * o.real + d[::-1] * (o.imag * [[[-1.0]], [[1.0]]])), acc)
        out.append(np.stack(acc, axis=-1).view(complex)[..., 0] / d0)
    return out


def matrix_laurent_inf(R: RationalMatrix, nterms):
    """Coefficients c_k of R(w) = sum_k c_k w**-k for large |w| (proper R), as an (nterms, m, m) array, each entry
    bitwise its ``RationalScalar.laurent_at_inf``, for all entries at once: the series division of num(1/t) t**n
    by den(1/t) t**n, n the entry's den degree.  Division by the monic den's 1 + 0i keeps every imaginary part
    +0.0, so it is written out in real arithmetic: each term is a real product, and the division adds 0.0."""
    if not R.is_proper():
        raise ValueError("laurent_at_inf requires a proper rational")
    num, den = R._coefficient_stacks
    n = np.array([e.den.size for row in R.entries for e in row]) - 1
    C = np.zeros((len(den) + 1, 2, n.size))  # (coefficient, (num, den), entry), its last row the zero padding
    C[:len(num), 0], C[:-1, 1] = num.reshape(len(num), -1), den.reshape(len(den), -1)
    k = n - np.arange(max(len(den), nterms))[:, None]  # the ascending index of each reversed coefficient
    N, D = np.moveaxis(C[np.where(k >= 0, k, -1), :, np.arange(n.size)], -1, 0)
    out, upto = [], [j <= n for j in range(n.max() + 1)]
    for i, acc in enumerate(N[:nterms].copy()):
        for j in range(1, min(i, n.max()) + 1):  # minus d_j c_(i-j), for j up to the entry's den degree
            np.subtract(acc, D[j] * out[i - j], out=acc, where=upto[j])
        out.append(acc + 0.0)
    return np.array(out).reshape(nterms, *num.shape[1:])


def _inv_series(A, nterms):
    """Coefficients of A(x)**-1 given coefficients of A(x), A[0] invertible."""
    T0 = np.linalg.inv(A[0])
    out = [T0]
    for k in range(1, nterms):
        acc = np.zeros_like(T0)
        for j in range(1, min(k, len(A) - 1) + 1):
            acc = acc + A[j] @ out[k - j]
        out.append(-T0 @ acc)
    return out


def branch_orders(coeffs, tol):
    """Orders and leading coefficients of the eigenvalue branches of H(x).

    Parameters
    ----------
    coeffs : list of Hermitian arrays
        Taylor coefficients H_0, H_1, ... of H(x) = sum H_k x**k.
    tol : float
        Absolute cutoff below which an eigenvalue of a reduced coefficient
        counts as zero.

    Returns
    -------
    list of (order, leading) pairs, one per eigenvalue branch.  Branches that
    stay in the kernel through all supplied coefficients come out with
    ``order = len(coeffs)`` and ``leading = 0.0``.
    """
    coeffs = [herm(np.asarray(M, dtype=complex)) for M in coeffs]
    return _reduce_branches(coeffs, 0, tol)


def _reduce_branches(coeffs, depth, tol):
    H0 = coeffs[0]
    n = H0.shape[0]
    if n == 0:
        return []
    lam, vec = np.linalg.eigh(H0)
    out = [(depth, float(v)) for v in lam if abs(v) > tol]
    kdim = int(np.sum(np.abs(lam) <= tol))
    if kdim == 0:
        return out
    if len(coeffs) == 1:
        return out + [(depth + 1, 0.0)] * kdim
    kmask = np.abs(lam) <= tol
    V = vec[:, kmask]     # kernel basis
    U = vec[:, ~kmask]    # range basis
    nterms = len(coeffs)
    if U.shape[1] == 0:
        S = [V.conj().T @ coeffs[k] @ V for k in range(1, nterms)]
    else:
        A = [U.conj().T @ coeffs[k] @ U for k in range(nterms)]
        B = [U.conj().T @ coeffs[k] @ V for k in range(nterms)]
        C = [V.conj().T @ coeffs[k] @ V for k in range(nterms)]
        Ainv = _inv_series(A, nterms)
        # Schur complement C - B* A^-1 B; B starts at order 1 so the product
        # starts at order 2 and the complement itself at order 1.
        S = []
        for k in range(1, nterms):
            acc = C[k].astype(complex)
            for a in range(1, k):
                for b in range(k - a + 1):
                    cidx = k - a - b
                    if cidx >= 1:
                        acc = acc - B[a].conj().T @ Ainv[b] @ B[cidx]
            S.append(herm(acc))
    if not S:
        return out + [(depth + 1, 0.0)] * kdim
    return out + _reduce_branches(S, depth + 1, tol)


def decay_condition(coeffs, max_order, tol):
    """Decide liminf x**max_order * lambda_min(H(x)) > 0 as x -> 0+.

    Every eigenvalue branch must have a positive leading coefficient and
    vanishing order at most ``max_order``.

    Returns
    -------
    ok : bool
    margin : float
        The limit value: +inf when every branch has order below ``max_order``,
        otherwise the smallest leading coefficient among branches sitting at
        exactly ``max_order``; 0 or negative on failure.
    worst : int
        Largest branch order encountered.
    """
    branches = branch_orders(coeffs, tol)
    if not branches:
        return False, 0.0, 0
    worst = max(o for o, _ in branches)
    neg = [c for _, c in branches if c <= 0.0]
    if neg or worst > max_order:
        bad = min(neg) if neg else 0.0
        return False, float(bad), worst
    at_max = [c for o, c in branches if o == max_order]
    margin = float(min(at_max)) if at_max else np.inf
    return True, margin, worst
