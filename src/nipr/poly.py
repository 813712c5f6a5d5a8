"""Floating-point polynomials and reduced rational scalars.

Coefficients are stored in ascending degree order as numpy arrays.  Public
rational scalars keep real coefficients; internal helpers accept complex
arrays (deflation at complex poles).  Every root and pole match in nipr is
``close``: |a - b| <= root_cluster (1 + |b|), b the point already decided.
Reduction of a rational scalar cancels the numerator roots ``close`` to a
denominator root and leaves the denominator monic.  A rational scalar keeps
its denominator roots (``den_roots``): the ones reduction found when it
cancelled nothing, otherwise found on first use; so num and den must not
change after construction.  Roots are found by ``roots_many``, one stacked companion
eigensolve per degree and one companion matrix per distinct polynomial,
bitwise ``np.roots``; ``reduced_scalars`` builds a whole document's scalars
from one such call.  ``RationalScalar.equals`` finds scalars with the same
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


def polyval(c, x):
    return npp.polyval(x, np.asarray(c))


def polymul(a, b):
    return npp.polymul(np.asarray(a), np.asarray(b))


def polyadd(a, b):
    return npp.polyadd(np.asarray(a), np.asarray(b))


def polysub(a, b):
    return npp.polysub(np.asarray(a), np.asarray(b))


def polyder(c):
    return npp.polyder(np.asarray(c))


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
    matrix (a document's cells over one denominator share its monic copy), and
    each gets its own array of roots.  numpy's eigvals runs the same LAPACK
    geev on every matrix of a stack, so the roots are bitwise np.roots', as
    complex arrays.  (eigvals returns a real array when all the stack's
    eigenvalues are real, np.roots when all of one matrix's are; geev gives a
    real eigenvalue a +0.0 imaginary part, so both read the same as complex.)
    A failed eigensolve raises RootFindingFailure for the whole batch.
    """
    out = [None] * len(polys)
    groups = {}  # (degree, dtype) -> {coefficient bytes: (descending coefficients, [(index, roots at 0)])}
    for k, c in enumerate(polys):
        c = trim(c)
        z = int(np.flatnonzero(c)[0]) if c.size > 1 else 0
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
                out[k] = np.concatenate((w[row], np.zeros(z, dtype=complex)))
    return out


def close(a, b, tol):
    """|a - b| <= tol (1 + |b|), b the point already decided: a is the point b.  Elementwise over arrays, with
    np.hypot, which is bitwise the scalar abs(complex) (np.abs of a complex array is not)."""
    d = a - b
    return (np.hypot(d.real, d.imag) if isinstance(d, np.ndarray) else abs(d)) <= tol * (1.0 + abs(b))


def nearest(p, points, tol):
    """The point of ``points`` nearest p (the first of equals) that p is ``close`` to, or None."""
    return min((z for z in points if close(p, z, tol)), key=lambda z: abs(p - z), default=None)


def cluster_roots(rts, tol=DEFAULT.root_cluster):
    """Merge nearby roots into (location, multiplicity) pairs.

    Conjugate pairs are symmetrized so they come out exactly conjugate, and
    near-real roots are snapped onto the real axis.
    """
    rts = np.asarray(rts, dtype=complex)
    out = []
    used = np.zeros(rts.size, dtype=bool)
    order = np.argsort(np.abs(rts))
    for i in order:
        if used[i]:
            continue
        used[i] = True
        near = ~used & close(rts, rts[i], tol)
        if not near.any():
            out.append([rts[i] + 0.0, 1])  # np.mean of one root: the root, with -0.0 parts made +0.0
            continue
        group = [i, *order[near[order]]]
        used[near] = True
        out.append([np.mean(rts[group]), len(group)])
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


def poly_from_roots_real(rts, lead=1.0):
    """Real polynomial with the given roots; conjugate pairs give quadratics."""
    rts = list(np.asarray(rts, dtype=complex))
    c = np.array([float(np.real(lead))])
    remaining = rts[:]
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r)):
            c = polymul(c, np.array([-r.real, 1.0]))
            continue
        # find the conjugate partner; an unmatched near-real root falls back
        # to its real part instead of stealing an unrelated root
        best, bestd = None, np.inf
        for k, q in enumerate(remaining):
            d = abs(np.conj(r) - q)
            if d < bestd:
                best, bestd = k, d
        if best is None or bestd > 1e-6 * (1.0 + abs(r)):
            c = polymul(c, np.array([-r.real, 1.0]))
            continue
        remaining.pop(best)
        c = polymul(c, np.array([abs(r) ** 2, -2.0 * r.real, 1.0]))
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

    A ``den_roots`` given must be ``roots`` of the monic den.  With reduce=True
    a ``num_roots`` given with it must be the first of ``roots_many(_to_root(num,
    den))``; the reduction then finds no roots itself (``reduced_scalars``).
    ``+`` with a polynomial, and ``*`` and ``/`` with a constant, cancel nothing and do not reduce.
    Reduction clusters roots at ``DEFAULT.root_cluster``, whatever Config an analysis is given.
    """

    __slots__ = ("num", "den", "_den_roots", "_num_degree")

    def __init__(self, num, den=(1.0,), reduce=True, den_roots=None, num_roots=None):
        num = trim(np.asarray(num, dtype=float))
        den = trim(np.asarray(den, dtype=float))
        if degree(den) < 0:
            raise ZeroDivisionError("denominator is identically zero")
        if reduce:
            num, den, den_roots = _reduce(num, den, DEFAULT, num_roots, den_roots)
        lead = den[-1]
        self.num = num / lead
        self.den = den / lead
        self._den_roots = _NO_ROOTS if den.size == 1 else den_roots

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
        return polyval(self.num, x) / polyval(self.den, x)

    def scale(self) -> float:
        return float(max(np.max(np.abs(self.num)), np.max(np.abs(self.den))))

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        num = polyadd(polymul(self.num, other.den), polymul(other.num, self.den))
        if self.den.size == 1 or other.den.size == 1:  # n/d + p: gcd(n + p d, d) = gcd(n, d)
            return (other if self.den.size == 1 else self)._over_den(num)
        return RationalScalar(num, polymul(self.den, other.den))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RationalScalar(-self.num, self.den, reduce=False, den_roots=self._den_roots)

    def __sub__(self, other):
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _coerce(other)
        num = polymul(self.num, other.num)
        if self.den.size == self.num.size == 1 or other.den.size == other.num.size == 1:  # gcd(c n, d) = gcd(n, d)
            return (other if self.den.size == self.num.size == 1 else self)._over_den(num)
        return RationalScalar(num, polymul(self.den, other.den))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = _coerce(other)
        if other.den.size == other.num.size == 1:  # gcd(n / c, d) = gcd(n, d)
            if other.num[0] == 0.0:
                raise ZeroDivisionError("denominator is identically zero")
            return self._over_den(self.num / other.num[0])
        return RationalScalar(polymul(self.num, other.den), polymul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def _over_den(self, num) -> "RationalScalar":
        """num/self.den unreduced, with self's den_roots (a constant operand cancels nothing); a zero num is 0/1."""
        return RationalScalar(num, self.den, reduce=False, den_roots=self._den_roots) if num.any() else self.zero()

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
            if abs(rem) > cfg.coeff_rel * polyval(np.abs(num), abs(pole)):
                raise CancellationFailure(f"no numerator root at {pole} cancels the new pole there")
            num = np.real(q)
        if zero is not None:
            if close(zero, self.den_roots, cfg.root_cluster).any():
                den, den_roots = np.real(_synth_div(den, zero)[0]), None
            else:
                num = polymul(num, [-zero, 1.0])
        return RationalScalar(num, den, reduce=False, den_roots=den_roots)

    def derivative(self) -> "RationalScalar":
        num = polysub(polymul(polyder(self.num), self.den), polymul(self.num, polyder(self.den)))
        return RationalScalar(num, polymul(self.den, self.den))

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
            pw_up.append(polymul(pw_up[-1], up))
            pw_dn.append(polymul(pw_dn[-1], dn))
        new_num = np.zeros(1)
        for k in range(n_deg + 1):
            new_num = polyadd(new_num, self.num[k] * polymul(pw_up[k], pw_dn[big - k]))
        new_den = np.zeros(1)
        for k in range(d_deg + 1):
            new_den = polyadd(new_den, self.den[k] * polymul(pw_up[k], pw_dn[big - k]))
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

    No den may be identically zero.  Pass a repeated pair once and share its scalar (``docio.parse_document``).
    """
    pairs = [(n, trim(np.asarray(d, dtype=float))) for n, d in pairs]
    rts = roots_many([p for n, d in pairs for p in _to_root(n, d)])
    return [RationalScalar(n, d, num_roots=rts[2 * k], den_roots=rts[2 * k + 1]) for k, (n, d) in enumerate(pairs)]


def _to_root(num, den):
    """The two polynomials whose roots ``_reduce`` matches: num and the monic den (which np.roots also builds).

    den must be trimmed.  Over a constant den nothing cancels, so den stands in for both.
    """
    if den.size == 1:
        return den, den
    return num, den / den[-1]


def _reduce(num, den, cfg: Config, num_roots=None, den_roots=None):
    """(num, den, den_roots): matched numerator/denominator roots cancelled (float-safe GCD).

    num_roots and den_roots, if given, are ``roots_many(_to_root(num, den))``.
    The den_roots returned are those when nothing was cancelled; None otherwise.
    """
    if degree(num) < 0:
        return np.zeros(1), np.ones(1), None
    if num_roots is None:
        num_roots, den_roots = roots_many(_to_root(num, den))
    rn = num_roots.tolist()  # Python complex: plain scalar arithmetic in the loop, bitwise numpy's
    den_roots = _read_only(den_roots)
    rd = den_roots.tolist()
    keep_n, cancelled = [], 0
    for r in rn:
        hit = next((k for k, q in enumerate(rd) if close(r, q, cfg.root_cluster)), None)
        if hit is None:
            keep_n.append(r)
        else:
            rd.pop(hit)
            cancelled += 1
    if cancelled == 0:
        return num, den, den_roots
    new_num = poly_from_roots_real(keep_n, lead=num[-1])
    new_den = poly_from_roots_real(rd, lead=den[-1])
    return new_num, new_den, None
