"""Floating-point polynomials and reduced rational scalars.

Coefficients are stored in ascending degree order as numpy arrays.  Public
rational scalars keep real coefficients; internal helpers accept complex
arrays (deflation at complex poles).  Every root and pole match in nipr is
``close``: |a - b| <= root_cluster (1 + |b|), b the point already decided;
``join`` is the one loop that groups points by it (root clusters, matrix
poles, boundary points).
Reduction of a rational scalar cancels the numerator roots ``close`` to a
denominator root and leaves the denominator monic; its pairing loop runs only
when one array ``close`` test finds such a pair.  A rational scalar keeps its
denominator roots (``den_roots``): the ones reduction found when it cancelled
nothing, otherwise found on first use; so num and den must not change after
construction.  Roots are found by ``roots_many``, bitwise ``np.roots``;
``reduced_scalars`` builds a whole document's scalars from one such call, one
array test per denominator.  ``RationalScalar.equals`` finds scalars with the same
coefficient bytes equal, as twins shared by ``docio.parse_document``, unsubtracted.
A constant operand cancels nothing: a sum with a polynomial, or a product with or
a quotient by a constant, is built unreduced over the other operand's
denominator and roots.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from .config import DEFAULT, Config
from .errors import CancellationFailure, DegenerateMap, RootFindingFailure


# ---------------------------------------------------------------------------
# raw coefficient helpers


def trim(c, rel=0.0):
    """Drop trailing (leading-degree) coefficients that are zero.

    With rel > 0 coefficients below rel*max|c| count as zero.  Returns a copy.
    """
    c = np.atleast_1d(np.asarray(c))
    if rel == 0.0 and c.size and c[-1] != 0:
        return np.array(c)  # nothing to drop, so no max|c| to find
    if c.size == 0:
        return np.zeros(1, dtype=c.dtype if c.dtype.kind == "c" else float)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=float)
    cut = rel * scale
    k = c.size
    while k > 1 and abs(c[k - 1]) <= cut:
        k -= 1
    return np.array(c[:k])


def degree(c) -> int:
    c = np.atleast_1d(np.asarray(c))
    if c.size and c[-1] != 0:
        return c.size - 1
    c = trim(c)
    if c.size == 1 and c[0] == 0:
        return -1  # the zero polynomial
    return c.size - 1


def polydivmod(n, d):
    """Quotient and remainder of n/d (ascending coefficients)."""
    n = trim(n)
    d = trim(d)
    if degree(d) < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    if degree(n) < degree(d):
        return np.zeros(1), n
    q, r = npp.polydiv(n, d)
    return trim(q), trim(r, rel=1e-13)


def roots(c):
    """Roots via the companion-matrix eigensolve (ascending input)."""
    return roots_many([c])[0]


def roots_many(polys):
    """[roots(c) for c in polys], with one stacked eigensolve per degree and one companion matrix per
    distinct polynomial.

    Each polynomial is rooted as ``np.roots`` roots it: its exactly-zero
    low-order coefficients become roots at 0, appended last, and the rest
    goes through the companion matrix np.roots builds.  Polynomials whose rest
    has the same degree, dtype and coefficient bytes share one companion
    matrix, and each gets its own array of roots; a trimmed 1-d array is read
    as it is, without a copy.  numpy's eigvals runs the same LAPACK
    geev on every matrix of a stack, so the roots are bitwise np.roots', as
    complex arrays.  (eigvals returns a real array when all the stack's
    eigenvalues are real, np.roots when all of one matrix's are; geev gives a
    real eigenvalue a +0.0 imaginary part, so both read the same as complex.)
    A failed eigensolve raises RootFindingFailure for the whole batch.
    """
    out = [None] * len(polys)
    groups = {}  # (degree, dtype) -> {coefficient bytes: (descending coefficients, [(index, roots at 0)])}
    for k, c in enumerate(polys):
        c = np.asarray(c)
        if c.ndim != 1 or c.size == 0 or c[-1] == 0:  # a trimmed array is used as it is
            c = trim(c)
        z = 0 if c[0] != 0 or c.size == 1 else int(np.flatnonzero(c)[0])
        p = c[z:][::-1]
        if p.size == 1:  # a constant, the zero polynomial or a monomial
            out[k] = np.zeros(z, dtype=complex)
            continue
        if p.dtype.kind not in "fc":
            p = p.astype(float)
        group = groups.setdefault((p.size - 1, p.dtype), {})
        group.setdefault(p.tobytes(), (p, []))[1].append((k, z))
    for (n, dtype), distinct in groups.items():
        P = np.array([p for p, _ in distinct.values()])
        A = np.zeros((len(P), n, n), dtype=dtype)
        A.reshape(len(P), n * n)[:, n::n + 1] = 1.0  # the subdiagonal
        A[:, 0, :] = -P[:, 1:] / P[:, :1]
        try:
            w = np.linalg.eigvals(A)
        except np.linalg.LinAlgError as exc:
            raise RootFindingFailure(str(exc)) from exc
        for row, (_, members) in enumerate(distinct.values()):
            for k, z in members:
                out[k] = np.concatenate((w[row], np.zeros(z, dtype=complex))) if z else w[row].astype(complex)
    return out


def close(a, b, tol):
    """|a - b| <= tol (1 + |b|), b the point already decided: a is the point b.  Over arrays, the scalar rule
    elementwise: np.hypot takes both sizes, as it is bitwise abs(complex) (np.abs of complex arrays is not)."""
    d = a - b
    if isinstance(d, np.ndarray):
        return np.hypot(d.real, d.imag) <= tol * (1.0 + np.hypot(b.real, b.imag))
    return abs(d) <= tol * (1.0 + abs(b))


def nearest(p, points, tol):
    """The point of ``points`` nearest p (the first of equals) that p is ``close`` to, or None."""
    return min((z for z in points if close(p, z, tol)), key=lambda z: abs(p - z), default=None)


def join(points, order, tol):
    """The one grouping loop: taken in ``order`` (indexes into points), each point joins the first group
    whose first point, its anchor, it is ``close`` to, or else starts a group.  Returns the groups as lists
    of indexes in the order they joined, each led by its anchor."""
    groups = []
    for k in order:
        group = next((g for g in groups if close(points[k], points[g[0]], tol)), None)
        if group is None:
            groups.append([k])
        else:
            group.append(k)
    return groups


def cluster_roots(rts, tol=DEFAULT.root_cluster):
    """Merge nearby roots into (location, multiplicity) pairs.

    The roots ``join`` in |r| order, each group at its mean.  Near-real
    clusters are snapped onto the real axis and conjugate pairs symmetrized,
    so the clusters of a real polynomial come out in exact conjugate pairs.
    """
    rts = np.asarray(rts, dtype=complex)
    # np.mean of one root is the root with -0.0 parts made +0.0
    out = [[np.mean(rts[g]) if len(g) > 1 else rts[g[0]] + 0.0, len(g)]
           for g in join(rts.tolist(), np.argsort(np.abs(rts)), tol)]
    # a multiplicity-m root scatters by ~eps**(1/m) under rounding, which for
    # m >= 3 exceeds tol.  Merge connected groups of clusters that fall within
    # the scatter radius of a root of their combined multiplicity, but only
    # when that combined multiplicity is at least 3: an isolated close pair is
    # either genuinely distinct or a double root, and doubles stay within tol.
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            group = [i]
            total = out[i][1]
            for j in range(len(out)):
                if j == i or j in group:
                    continue
                radius = max(tol, 1e-13 ** (1.0 / max(3, total + out[j][1])))
                if any(close(out[j][0], out[g][0], radius) for g in group):
                    group.append(j)
                    total += out[j][1]
            if len(group) > 1 and total >= 3:
                loc = sum(out[g][1] * out[g][0] for g in group) / total
                out = [c for g, c in enumerate(out) if g not in group]
                out.append([loc, total])
                changed = True
                break
    # snap near-real roots
    for item in out:
        loc = item[0]
        if close(loc.real, loc, tol):
            item[0] = complex(loc.real, 0.0)
    # symmetrize conjugate pairs
    done = [False] * len(out)
    for i, (loc, mult) in enumerate(out):
        if done[i] or loc.imag == 0.0:
            continue
        for j, (loc2, mult2) in enumerate(out):
            if j != i and not done[j] and close(loc2, loc.conjugate(), tol) and mult2 == mult:
                mid = 0.5 * (loc + np.conj(loc2))
                out[i][0] = mid
                out[j][0] = np.conj(mid)
                done[i] = done[j] = True
                break
    return [(complex(l), int(m)) for l, m in out]


def poly_from_roots_real(rts, tol, lead=1.0):
    """lead prod (x - r) as a real polynomial.  A root ``close`` to its real part at tol, or with no root
    of the rest ``close`` to its conjugate, gives the factor of its real part; otherwise it and the
    ``nearest`` such root give a quadratic."""
    remaining = np.asarray(rts, dtype=complex).tolist()
    c = np.array([float(np.real(lead))])
    while remaining:
        r = remaining.pop(0)
        q = None if close(r.real, r, tol) else nearest(r.conjugate(), remaining, tol)
        if q is None:
            c = npp.polymul(c, [-r.real, 1.0])
        else:
            remaining.remove(q)
            c = npp.polymul(c, [abs(r) ** 2, -2.0 * r.real, 1.0])
    return np.real_if_close(c).astype(float)


def _synth_div(c, p):
    """Synthetic division of c by (x - p): returns (quotient, remainder)."""
    c = np.asarray(c, dtype=complex)
    n = c.size
    if n == 1:
        return np.zeros(0, dtype=complex), complex(c[0])
    q = np.zeros(n - 1, dtype=complex)
    acc = c[n - 1]
    for j in range(n - 2, -1, -1):
        q[j] = acc
        acc = c[j] + acc * p
    return q, complex(acc)


def deflate(c, r):
    """Divide c by (x - r), dropping the remainder."""
    q, _ = _synth_div(c, r)
    return q


def shift_poly(c, p):
    """Coefficients of c(p + x) in powers of x (Taylor recentering)."""
    c = np.asarray(c, dtype=complex)
    out = np.zeros(c.size, dtype=complex)
    work = c.copy()
    for k in range(c.size):
        work, rem = _synth_div(work, p)
        out[k] = rem
        if work.size == 0:
            break
    return out


# ---------------------------------------------------------------------------
# rational scalars


class RationalScalar:
    """A reduced real-coefficient rational function num/den with monic den.

    The constructor is the one public way to build a scalar; the library builds its unreduced results
    (``+`` with a polynomial, ``*`` and ``/`` with a constant, ``times_factors``, a document's cells that
    cancel nothing) from trimmed arrays by ``_scalar``.
    Reduction clusters roots at ``DEFAULT.root_cluster``, whatever Config an analysis is given.
    """

    __slots__ = ("num", "den", "_den_roots", "_num_degree")

    def __init__(self, num, den=(1.0,), reduce=True):
        num = trim(np.asarray(num, dtype=float))
        den = trim(np.asarray(den, dtype=float))
        if degree(den) < 0:
            raise ZeroDivisionError("denominator is identically zero")
        self._over(*(_reduce(num, den, DEFAULT) if reduce else (num, den, None)))

    def _over(self, num, den, den_roots):
        """Set num/den divided by den's lead; num and den trimmed float arrays, den_roots ``roots`` of den or None."""
        lead = den[-1]
        self.num, self.den = num / lead, den / lead
        self._den_roots = _NO_ROOTS if den.size == 1 else den_roots
        return self

    # construction helpers -------------------------------------------------
    @staticmethod
    def constant(c) -> "RationalScalar":
        return RationalScalar([float(c)], [1.0], reduce=False)

    @staticmethod
    def zero() -> "RationalScalar":
        return RationalScalar.constant(0.0)

    # queries --------------------------------------------------------------
    @property
    def num_degree(self) -> int:
        try:
            return self._num_degree
        except AttributeError:  # the first read: num and den do not change after construction
            self._num_degree = degree(self.num)
            return self._num_degree

    @property
    def den_degree(self) -> int:
        return self.den.size - 1  # degree(den), as den is monic

    def is_proper(self) -> bool:
        return self.num_degree <= self.den_degree

    def is_strictly_proper(self) -> bool:
        return self.num_degree < self.den_degree

    def relative_degree(self) -> int:
        return self.den_degree - self.num_degree

    @property
    def den_roots(self) -> np.ndarray:
        """``roots(self.den)``, read-only, found at most once."""
        if self._den_roots is None:
            self._den_roots = _read_only(roots(self.den))
        return self._den_roots

    def value_at_inf(self) -> float:
        """Limit at infinity; requires properness."""
        if self.num_degree < self.den_degree:
            return 0.0
        if self.num_degree == self.den_degree:
            return float(self.num[-1] / self.den[-1])
        raise ValueError("not proper; no finite value at infinity")

    def __call__(self, x):
        return npp.polyval(x, self.num) / npp.polyval(x, self.den)

    def scale(self) -> float:
        return float(max(np.max(np.abs(self.num)), np.max(np.abs(self.den))))

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        num = npp.polyadd(npp.polymul(self.num, other.den), npp.polymul(other.num, self.den))
        if self.den.size == 1 or other.den.size == 1:  # n/d + p: gcd(n + p d, d) = gcd(n, d)
            return (other if self.den.size == 1 else self)._over_den(num)
        return RationalScalar(num, npp.polymul(self.den, other.den))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _scalar(trim(-self.num), self.den, self._den_roots)  # trim makes -0 the zero polynomial

    def __sub__(self, other):
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _coerce(other)
        num = npp.polymul(self.num, other.num)
        if self.den.size == self.num.size == 1 or other.den.size == other.num.size == 1:  # gcd(c n, d) = gcd(n, d)
            return (other if self.den.size == self.num.size == 1 else self)._over_den(num)
        return RationalScalar(num, npp.polymul(self.den, other.den))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = _coerce(other)
        if other.den.size == other.num.size == 1:  # gcd(n / c, d) = gcd(n, d)
            if other.num[0] == 0.0:
                raise ZeroDivisionError("denominator is identically zero")
            return self._over_den(self.num / other.num[0])
        return RationalScalar(npp.polymul(self.num, other.den), npp.polymul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def _over_den(self, num) -> "RationalScalar":
        """num/self.den unreduced, with self's den_roots (a constant operand cancels nothing); a zero num is 0/1."""
        return _scalar(trim(num), self.den, self._den_roots) if num.any() else self.zero()

    def times_factors(self, zero=None, pole=None, cfg: Config = DEFAULT) -> "RationalScalar":
        """self (x - zero) / (x - pole) for real zero and pole (None: no such factor), reduced without root finding.

        Only the new factors can cancel in a reduced scalar.  x - pole must
        cancel a numerator root, which holds when num(pole) = 0 within
        coeff_rel of sum_k |n_k| |pole|^k; otherwise CancellationFailure is
        raised.  x - zero cancels a kept denominator root that zero is
        ``close`` to at root_cluster; the denominator roots are kept unless
        it did.
        """
        num, den, den_roots = self.num, self.den, self._den_roots
        if degree(num) < 0:
            return self
        if pole is not None:
            q, rem = _synth_div(num, pole)
            if abs(rem) > cfg.coeff_rel * npp.polyval(abs(pole), np.abs(num)):
                raise CancellationFailure(f"no numerator root at {pole} cancels the new pole there")
            num = np.real(q)
        if zero is not None:
            if close(zero, self.den_roots, cfg.root_cluster).any():
                den, den_roots = np.real(_synth_div(den, zero)[0]), None
            else:
                num = npp.polymul(num, [-zero, 1.0])
        return _scalar(num, den, den_roots)  # the factors keep both leads: num and den stay trimmed

    def derivative(self) -> "RationalScalar":
        num = npp.polysub(npp.polymul(npp.polyder(self.num), self.den), npp.polymul(self.num, npp.polyder(self.den)))
        return RationalScalar(num, npp.polymul(self.den, self.den))

    def equals(self, other, rel=1e-7) -> bool:
        """self - other == 0 within tolerance; the same num and den bytes are, as n d - n d == 0, unsubtracted."""
        other = _coerce(other)
        if other is self or (self.num.tobytes() == other.num.tobytes() and self.den.tobytes() == other.den.tobytes()):
            return True
        diff = self - other
        scale = max(self.scale(), other.scale(), 1.0)
        return bool(np.max(np.abs(diff.num)) <= rel * scale * max(1.0, np.max(np.abs(diff.den))))

    def substitute_mobius(self, a, b, c, d) -> "RationalScalar":
        """Compose with w -> (a*w + b)/(c*w + d) and clear denominators."""
        if abs(a * d - b * c) <= 1e-12 * (1.0 + abs(a * d) + abs(b * c)):
            raise DegenerateMap(f"ad - bc ~ 0 for map ({a},{b},{c},{d})")
        up = np.array([b, a], dtype=float)     # a*w + b
        dn = np.array([d, c], dtype=float)     # c*w + d
        n_deg, d_deg = degree(self.num), degree(self.den)
        big = max(n_deg, d_deg)
        pw_up = [np.array([1.0])]
        pw_dn = [np.array([1.0])]
        for _ in range(big):
            pw_up.append(npp.polymul(pw_up[-1], up))
            pw_dn.append(npp.polymul(pw_dn[-1], dn))
        new_num = np.zeros(1)
        for k in range(n_deg + 1):
            new_num = npp.polyadd(new_num, self.num[k] * npp.polymul(pw_up[k], pw_dn[big - k]))
        new_den = np.zeros(1)
        for k in range(d_deg + 1):
            new_den = npp.polyadd(new_den, self.den[k] * npp.polymul(pw_up[k], pw_dn[big - k]))
        return RationalScalar(new_num, new_den)

    def taylor(self, p, nterms) -> np.ndarray:
        """Taylor coefficients of self at p (p must not be a pole)."""
        n = shift_poly(self.num, p)
        d = shift_poly(self.den, p)
        return _series_div(n, d, nterms)

    def laurent_at_inf(self, nterms) -> np.ndarray:
        """Coefficients c_k of sum_k c_k x^-k, k = 0..nterms-1 (proper input)."""
        if not self.is_proper():
            raise ValueError("laurent_at_inf requires a proper rational")
        dd = degree(self.den)
        # num(1/t) * t^dd and den(1/t) * t^dd are the zero-padded reversals
        num_pad = np.zeros(dd + 1)
        num_pad[: self.num.size] = self.num
        rnum = num_pad[::-1]
        rden = self.den[::-1]
        return np.real(_series_div(rnum.astype(complex), rden.astype(complex), nterms))

    def __repr__(self):
        return f"RationalScalar(num={list(self.num)}, den={list(self.den)})"


def _scalar(num, den, den_roots) -> RationalScalar:
    """num/den unreduced, by ``RationalScalar._over``: the one builder besides the constructor."""
    return RationalScalar.__new__(RationalScalar)._over(num, den, den_roots)


def _coerce(x) -> RationalScalar:
    if isinstance(x, RationalScalar):
        return x
    if np.isscalar(x):
        return RationalScalar.constant(float(x))
    raise TypeError(f"cannot coerce {type(x)!r} to RationalScalar")


def _series_div(n, d, nterms):
    """Power-series coefficients of n/d up to nterms (d[0] != 0)."""
    n = np.asarray(n, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if abs(d[0]) == 0.0:
        raise ZeroDivisionError("series division at a pole")
    out = np.zeros(nterms, dtype=complex)
    for k in range(nterms):
        acc = n[k] if k < n.size else 0.0
        for j in range(1, min(k, d.size - 1) + 1):
            acc -= d[j] * out[k - j]
        out[k] = acc / d[0]
    return out


_NO_ROOTS = np.zeros(0, dtype=complex)
_NO_ROOTS.flags.writeable = False


def _read_only(a):
    a.flags.writeable = False
    return a


def reduced_scalars(pairs):
    """[RationalScalar(num, den) for num, den in pairs], with one ``roots_many`` call for all their roots.

    Each distinct den is rooted once, its cells share its read-only roots, and one array ``close`` test of
    all their numerator roots against its roots finds the cells with a close pair: ``_reduce`` cancels
    exactly when some pair is close before any is cancelled.  Only those cells, and zero cells, go
    through ``_reduce``; every cell is built from its trimmed arrays by ``_scalar``.
    No den may be identically zero.  Pass a repeated pair once and share its scalar (``docio.parse_document``).
    """
    pairs = [(trim(np.asarray(n, dtype=float)), trim(np.asarray(d, dtype=float))) for n, d in pairs]
    over = {}  # den bytes -> (den, the indexes of the pairs over it)
    for k, (_, d) in enumerate(pairs):
        over.setdefault(d.tobytes(), (d, []))[1].append(k)
    rts = roots_many([_to_root(n, d)[0] for n, d in pairs] + [_to_root(d, d)[1] for d, _ in over.values()])
    out = [None] * len(pairs)
    for den_roots, (_, cells) in zip(map(_read_only, rts[len(pairs):]), over.values()):
        hit = close(np.concatenate([rts[k] for k in cells])[:, None], den_roots, DEFAULT.root_cluster).any(axis=1)
        cancels = np.bincount(np.repeat(np.arange(len(cells)), [rts[k].size for k in cells]), hit, len(cells)) > 0
        for k, c in zip(cells, cancels):
            n, d = pairs[k]
            parts = _reduce(n, d, DEFAULT, rts[k], den_roots) if c or not n.any() else (n, d, den_roots)
            out[k] = _scalar(*parts)
    return out


def _to_root(num, den):
    """The two polynomials whose roots ``_reduce`` matches: num and the monic den (which np.roots also builds).

    den must be trimmed.  Over a constant den nothing cancels, so den stands in for both.
    """
    if den.size == 1:
        return den, den
    return num, den / den[-1]


def _reduce(num, den, cfg: Config, num_roots=None, den_roots=None):
    """(num, den, den_roots): matched numerator/denominator roots cancelled (float-safe GCD).

    num_roots and den_roots, if given, are ``roots_many(_to_root(num, den))``.  The pairing loop runs only when
    a pair of them is ``close``, exactly when it cancels; den_roots are returned if it cancels nothing, else None.
    """
    if degree(num) < 0:
        return np.zeros(1), np.ones(1), None
    if num_roots is None:
        num_roots, den_roots = roots_many(_to_root(num, den))
    den_roots = _read_only(den_roots)
    if not (num_roots.size and den_roots.size and close(num_roots[:, None], den_roots, cfg.root_cluster).any()):
        return num, den, den_roots
    rn = num_roots.tolist()  # Python complex: plain scalar arithmetic in the loop, bitwise numpy's
    rd = den_roots.tolist()
    keep_n = []
    for r in rn:
        hit = next((k for k, q in enumerate(rd) if close(r, q, cfg.root_cluster)), None)
        if hit is None:
            keep_n.append(r)
        else:
            rd.pop(hit)
    new_num = poly_from_roots_real(keep_n, cfg.root_cluster, lead=num[-1])
    new_den = poly_from_roots_real(rd, cfg.root_cluster, lead=den[-1])
    return new_num, new_den, None
