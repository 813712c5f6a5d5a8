"""Square rational transfer-function matrices and their pole/residue data.

One place decides which entries have each matrix pole: the pole table of ``_pole_clusters``, made once per
matrix as the clusters merge into poles.  ``rm_residues_at`` and ``rm_split_boundary`` read it.  The clusters
group into poles by ``poly.join``, and a query finds one by ``poly.close``, the one test of point identity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import numpy.polynomial.polynomial as npp

from .config import DEFAULT, Config
from .errors import MultiplicityTooHigh, PoleProximity
from .poly import RationalScalar, cluster_roots, deflate, degree, join, nearest, polydivmod

CT = "ct"
DT = "dt"


@dataclass
class PoleDatum:
    """Laurent data of a matrix pole of multiplicity <= 2.

    ``normalized_K0`` uses the domain convention: i*A1 for continuous-time
    boundary poles, (i/p)*A1 for discrete-time unit-circle poles.
    """

    location: complex
    multiplicity: int
    residue_A1: np.ndarray
    quad_residue_A2: np.ndarray
    normalized_K0: np.ndarray


@dataclass
class InfinityExpansion:
    """G = (a proper part) + sum_i poly_coeffs[i-1] * s**i."""

    poly_coeffs: list  # list of real m x m arrays, index k holds A_{k+1}


class RationalMatrix:
    """m x m grid of reduced rational scalars with a CT/DT domain tag."""

    def __init__(self, entries, domain):
        if domain not in (CT, DT):
            raise ValueError(f"unknown domain tag {domain!r}")
        m = len(entries)
        for row in entries:
            if len(row) != m:
                raise ValueError("rational matrix must be square")
        self.entries = [
            [e if isinstance(e, RationalScalar) else RationalScalar.constant(e) for e in row]
            for row in entries
        ]
        self.domain = domain
        self._clusters_by_tol = {}  # root_cluster -> _pole_clusters

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.entries)

    @staticmethod
    def constant(M, domain) -> "RationalMatrix":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return RationalMatrix(
            [[RationalScalar.constant(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])],
            domain,
        )

    def transpose(self) -> "RationalMatrix":
        m = self.size
        return RationalMatrix([[self.entries[j][i] for j in range(m)] for i in range(m)], self.domain)

    def __add__(self, other):
        other = self._coerce(other)
        m = self.size
        return RationalMatrix(
            [[self.entries[i][j] + other.entries[i][j] for j in range(m)] for i in range(m)],
            self.domain,
        )

    def __sub__(self, other):
        other = self._coerce(other)
        m = self.size
        return RationalMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(m)] for i in range(m)],
            self.domain,
        )

    def __neg__(self):
        return RationalMatrix([[-e for e in row] for row in self.entries], self.domain)

    def __matmul__(self, other):
        other = self._coerce(other)
        m = self.size
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = RationalScalar.zero()
                for k in range(m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RationalMatrix(out, self.domain)

    def scalar_mul(self, r) -> "RationalMatrix":
        r = r if isinstance(r, RationalScalar) else RationalScalar.constant(r)
        return RationalMatrix([[r * e for e in row] for row in self.entries], self.domain)

    def _coerce(self, other) -> "RationalMatrix":
        if isinstance(other, RationalMatrix):
            if other.size != self.size:
                raise ValueError("size mismatch")
            return other
        return RationalMatrix.constant(np.asarray(other), self.domain)

    # ------------------------------------------------------------------
    def is_proper(self) -> bool:
        return all(e.is_proper() for row in self.entries for e in row)

    def value_at_inf(self) -> np.ndarray:
        m = self.size
        return np.array([[self.entries[i][j].value_at_inf() for j in range(m)] for i in range(m)])

    @cached_property
    def _coefficient_stacks(self):
        """(num, den): the entries' ascending coefficients zero-padded to (deg + 1, m, m) stacks, each
        filled into one preallocated array; built on first use, so entries must not change after."""
        m = self.size

        def stack(coeffs):
            out = np.zeros((max(c.size for c in coeffs), m * m))
            for k, c in enumerate(coeffs):
                out[:c.size, k] = c
            return out.reshape(-1, m, m)

        flat = [e for row in self.entries for e in row]
        return stack([e.num for e in flat]), stack([e.den for e in flat])

    def coeff_scale(self) -> float:
        return max(e.scale() for row in self.entries for e in row)

    def equals(self, other, rel=1e-7) -> bool:
        other = self._coerce(other)
        m = self.size
        return all(
            self.entries[i][j].equals(other.entries[i][j], rel=rel) for i in range(m) for j in range(m)
        )

    def __repr__(self):
        return f"RationalMatrix({self.size}x{self.size}, domain={self.domain})"


# ---------------------------------------------------------------------------
# operations


def _horner(C, X):
    """Horner's scheme over the (deg + 1, m, m) stack C at the (npts, 1, 1) points X: ``npp.polyval``'s
    steps, so each value is bitwise polyval's on an array of points of any length.  The multiply is out
    of place (numpy's in-place complex multiply of a one-element array rounds differently); the add is
    in place, which rounds the same and keeps one (npts, m, m) temporary fewer alive."""
    v = C[-1] + X * 0
    for c in C[-2::-1]:
        v = v * X
        v += c
    return v


def _eval_entries(R: RationalMatrix, points):
    """(values, near_pole), both (npts, m, m): all entries at once; where near_pole flags a
    denominator that is zero within its rounding the value is the numerator.

    With S(x) = sum_k |c_k| |x|^k, n the degree of the stacked denominators and u = eps / 2, Horner's
    value of den at a complex x rounds by at most (2 sqrt 2 + 1) n u S(x), and x rounded by up to
    4 u |x| moves it by at most 4 n u S(x) more; the mask is the sum rounded up, 4 (n + 1) eps S(x)."""
    num, den = R._coefficient_stacks
    X = np.asarray(points, dtype=complex).reshape(-1, 1, 1)
    dv = _horner(den, X)
    near_pole = np.abs(dv) <= 4 * den.shape[0] * np.finfo(float).eps * _horner(np.abs(den), np.abs(X))
    return _horner(num, X) / np.where(near_pole, 1.0, dv), near_pole


def rm_eval(R: RationalMatrix, p) -> np.ndarray:
    """Evaluate R at a point; raises PoleProximity at entry poles."""
    vals, near_pole = _eval_entries(R, [p])
    if near_pole.any():
        i, j = np.argwhere(near_pole[0])[0]
        raise PoleProximity(f"evaluation at {p} is too close to a pole of entry ({i},{j})")
    return vals[0]


def rm_eval_many(R: RationalMatrix, points):
    """Vectorized evaluation: returns (values, ok_mask).

    values has shape (npts, m, m); points at a pole are flagged False in
    ok_mask instead of raising.
    """
    vals, near_pole = _eval_entries(R, points)
    return vals, ~near_pole.any(axis=(1, 2))


def _pole_order(p):
    return abs(p), p.real, p.imag


def _merge_poles(cluster_sets, cfg: Config):
    """(``rm_poles``, joins): the clusters of all sets ``join`` into poles in ``rm_poles`` order, so which
    clusters are one pole does not depend on the order of the sets.  A pole is at the cluster of the first
    set in it, the first of that set's to join, and joins[n] maps the position of each set with clusters in
    pole n to their multiplicities.  The order and the join commute with conjugation, so exact conjugate
    pairs of clusters in each set give exact conjugate pairs of poles."""
    clusters = [(loc, mult, s) for s, cl in enumerate(cluster_sets) for loc, mult in cl]
    order = sorted(range(len(clusters)), key=lambda k: _pole_order(clusters[k][0]))
    found = []
    for group in join([loc for loc, _, _ in clusters], order, cfg.root_cluster):
        group.sort(key=lambda k: clusters[k][2])  # stable: in each set, in the order they joined
        joins = {}
        for k in group:
            joins.setdefault(clusters[k][2], []).append(clusters[k][1])
        found.append((clusters[group[0]][0], max(clusters[k][1] for k in group), joins))
    found.sort(key=lambda t: _pole_order(t[0]))
    return [(l, m) for l, m, _ in found], [j for _, _, j in found]


def _pole_clusters(R: RationalMatrix, cfg: Config):
    """(poles, table): ``rm_poles`` and the pole table.  table[n] lists (den, the row-major indexes of the
    entries over it, ks) for each distinct denominator with clusters that ``_merge_poles`` joined into
    poles[n], ks their multiplicities (one in all but a degenerate case).  Entries are over the same
    denominator when their den and den_roots have the same bytes.  Each distinct den_roots is clustered
    once, and all this is done once per root_cluster value, so entries must not change after."""
    tol = cfg.root_cluster
    if tol not in R._clusters_by_tol:
        clusters = {}  # (dtype, bytes) of den_roots -> their clusters
        dens = {}  # (den bytes, den_roots key) -> (den, clusters, [entry indexes]), in the order the entries have them
        for n, e in enumerate(e for row in R.entries for e in row):
            key = (e.den_roots.dtype.str, e.den_roots.tobytes())
            if key not in clusters:
                clusters[key] = tuple(cluster_roots(e.den_roots, tol=tol))
            dens.setdefault((e.den.tobytes(), key), (e.den, clusters[key], []))[2].append(n)
        poles, joins = _merge_poles([cl for _, cl, _ in dens.values()], cfg)
        dens = [(den, np.array(idx)) for den, _, idx in dens.values()]
        R._clusters_by_tol[tol] = tuple(poles), tuple(tuple((*dens[d], tuple(ks)) for d, ks in js.items())
                                                      for js in joins)
    return R._clusters_by_tol[tol]


def rm_poles(R: RationalMatrix, cfg: Config = DEFAULT):
    """Union of entry poles with matrix multiplicity = max entry multiplicity, by |p|, Re p and Im p.  Which
    entry poles are one does not depend on the order of the entries.  An imaginary part is exactly 0.0 or
    above root_cluster (1 + |p|) in size, and complex poles come in exact conjugate pairs."""
    return list(_pole_clusters(R, cfg)[0])


def _values_at(C, p):
    """The (m, m) values at the complex point p of the real (deg + 1, m, m) stack C, each bitwise
    ``npp.polyval(p, c)`` on the entry's coefficients cast to complex, whatever the zero padding.

    polyval takes a scalar p through numpy's scalar complex multiply, which rounds each of its four
    products; numpy's complex array multiply may fuse a product into the sum and round differently,
    so the steps are written out in real arithmetic.  Adding 0.0 to an imaginary part is the add of a
    real coefficient's +0.0 imaginary part: it makes -0.0 +0.0, as polyval's complex add does."""
    xr, xi = p.real, p.imag
    z = p * 0  # polyval's first step, c[-1] + p * 0
    re, im = C[-1] + z.real, 0.0 + z.imag
    for c in C[-2::-1]:
        re, im = c + (re * xr - im * xi), (re * xi + im * xr) + 0.0
    out = np.empty(C.shape[1:], dtype=complex)
    out.real, out.imag = re, im
    return out


def rm_residues_at(R: RationalMatrix, p, cfg: Config = DEFAULT) -> PoleDatum:
    """Matrix residue data at the pole of ``rm_poles`` nearest p that p is ``close`` to, of multiplicity <= 2,
    by deflation of the denominators that have it.

    The pole table of ``_pole_clusters`` lists those denominators and their multiplicities, decided once
    per matrix.  Each listed den is deflated and evaluated once, and all numerators (and, at a double
    pole, their derivatives) are evaluated at p as one stack; each residue entry is bitwise what
    deflating and evaluating that entry alone gives.  A den with two clusters at p keeps a root there
    after any deflation, so its entries have no finite residue.
    """
    p = complex(p)
    m = R.size
    poles, table = _pole_clusters(R, cfg)
    locs = [loc for loc, _ in poles]
    loc = nearest(p, locs, cfg.root_cluster)
    if loc is None:
        raise ValueError(f"{p} is not a pole of the matrix")
    pole, p = locs.index(loc), loc
    mult = poles[pole][1]
    if mult > 2:
        raise MultiplicityTooHigh(f"pole at {p} has multiplicity {mult}")
    num = R._coefficient_stacks[0]
    nv = _values_at(num, p).ravel()
    A1, A2 = A = np.zeros((2, m * m), dtype=complex)  # row-major, as the table's entry indexes
    ndv = None
    with np.errstate(all="ignore"):  # a zero or tiny q(p) is reported below
        for den, idx, ks in table[pole]:
            if len(ks) > 1:
                A[:, idx] = np.nan
                continue
            k = ks[0]
            q = np.asarray(den, dtype=complex)
            for _ in range(k):
                q = deflate(q, p)
            qv = npp.polyval(p, q)
            if k == 1:
                A1[idx] = nv[idx] / qv  # numpy divides an array by a scalar as it divides two scalars
            else:
                A2[idx] = nv[idx] / qv
                qdv = npp.polyval(p, npp.polyder(q))
                if ndv is None:  # the numerators' derivatives, npp.polyder's j * c_j
                    dnum = num[1:] * np.arange(1, len(num))[:, None, None] if len(num) > 1 else np.zeros_like(num)
                    ndv = _values_at(dnum, p).ravel()
                for n in idx:  # one by one: numpy's complex array multiply may round apart from its scalar one
                    A1[n] = (ndv[n] * qv - nv[n] * qdv) / (qv * qv)
    if not np.isfinite(A).all():
        i, j = divmod(int(np.flatnonzero(~np.isfinite(A).all(axis=0))[0]), m)
        raise PoleProximity(f"entry ({i}, {j}): no finite residue at the pole {p}: "
                            "another of the entry's poles is too close to it")
    A1, A2 = A.reshape(2, m, m)
    if R.domain == CT:
        K0 = 1j * A1
    else:
        K0 = (1j / p) * A1 if p != 0 else 1j * A1
    return PoleDatum(p, mult, A1, A2, K0)


def rm_infinity_expansion(R: RationalMatrix) -> InfinityExpansion:
    """The polynomial part at infinity, without its constant term."""
    m = R.size
    k = 0
    quot = [[np.zeros(1) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            e = R.entries[i][j]
            if e.num_degree > e.den_degree:
                quot[i][j] = polydivmod(e.num, e.den)[0]
                k = max(k, degree(quot[i][j]))
    coeffs = []
    for d in range(1, k + 1):
        A = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                q = quot[i][j]
                if degree(q) >= d:
                    A[i, j] = q[d]
        coeffs.append(A)
    return InfinityExpansion(coeffs)


def _entry_multiplicities(R: RationalMatrix, at, cfg: Config):
    """Each entry's pole-table multiplicity summed over the poles at the indexes ``at``, as an m x m list."""
    table = _pole_clusters(R, cfg)[1]
    mult = np.zeros(R.size * R.size, dtype=int)
    for n in at:
        for _, idx, ks in table[n]:
            mult[idx] += sum(ks)
    return mult.reshape(R.size, R.size).tolist()


def rm_split_boundary(R: RationalMatrix, points, infinity=(), cfg: Config = DEFAULT):
    """(rest, parts): R without its principal parts at the boundary points b, and those parts.

    ``points`` lists (b, the indexes in ``rm_poles`` of the poles at b), and
    an entry's multiplicity e at b is the pole table's total at those poles
    (``_entry_multiplicities``).  With f the real factor with roots b and
    conj(b), the entry n/d splits as c/f**e + h/q, where q = d / f**e,
    c = n/q mod f**e and h = (n - c q) / f**e.  Both divisions drop their
    remainders, the rounding that moved the poles off b.  Simple poles and
    real poles of any multiplicity split; complex ones of multiplicity two or
    more stay in rest.  ``parts`` lists (b, [A1, A2, ...]) for b and conj(b),
    A_j the coefficient of (x - b)**-j.  A nonempty ``infinity`` lists the
    coefficients A_j of x**j of an improper CT R; they go to parts as
    (inf, infinity), the constant stays.
    """
    if not points and not infinity:
        return R, []
    m = R.size
    num = [[e.num for e in row] for row in R.entries]
    den = [[e.den for e in row] for row in R.entries]
    parts = []
    if infinity:
        parts.append((np.inf, infinity))
        for i in range(m):
            for j in range(m):
                q, r = polydivmod(num[i][j], den[i][j])
                num[i][j] = npp.polyadd(r, q[0] * den[i][j])
    for b, at in points:
        mult = _entry_multiplicities(R, at, cfg)
        k = max(max(row) for row in mult)
        if k > 1 and b.imag != 0:
            continue
        f = np.array([-b.real, 1.0]) if b.imag == 0 else np.array([abs(b) ** 2, -2.0 * b.real, 1.0])
        A = np.zeros((k, m, m), dtype=complex)
        for i, j in ((i, j) for i in range(m) for j in range(m) if mult[i][j]):
            e = mult[i][j]
            fe = npp.polypow(f, e)
            q = npp.polydiv(den[i][j], fe)[0]
            t = RationalScalar(num[i][j], q, reduce=False).taylor(b, e)
            if b.imag == 0:  # c = sum_l t_l (x - b)**l
                A[e - 1::-1, i, j] = t
                c = [t[0].real]
                for ell in range(1, e):
                    c = npp.polyadd(c, t[ell].real * npp.polypow([-b.real, 1.0], ell))
            else:  # c real and linear with c(b) = t0; f'(b) = 2i Im b
                A[0, i, j] = t[0] / (2j * b.imag)
                c = [t[0].real - t[0].imag * b.real / b.imag, t[0].imag / b.imag]
            num[i][j] = npp.polydiv(npp.polysub(num[i][j], npp.polymul(c, q)), fe)[0]
            den[i][j] = q
        parts += [(b, list(A))] + ([(np.conj(b), list(A.conj()))] if b.imag != 0 else [])
    rest = [[RationalScalar(num[i][j], den[i][j], reduce=False) for j in range(m)] for i in range(m)]
    return RationalMatrix(rest, R.domain), parts


def rm_mobius(R: RationalMatrix, a, b, c, d, flip_domain=False) -> RationalMatrix:
    """Entrywise composition with w -> (a*w + b)/(c*w + d)."""
    new_domain = R.domain
    if flip_domain:
        new_domain = DT if R.domain == CT else CT
    return RationalMatrix(
        [[e.substitute_mobius(a, b, c, d) for e in row] for row in R.entries], new_domain
    )


def rm_cayley(R: RationalMatrix) -> RationalMatrix:
    """Bilinear domain swap.

    DT -> CT substitutes z = (1+s)/(1-s); CT -> DT substitutes s = (z-1)/(z+1).
    The two maps are mutual inverses, so applying this twice is the identity.
    """
    if R.domain == DT:
        return rm_mobius(R, 1.0, 1.0, -1.0, 1.0, flip_domain=True)
    return rm_mobius(R, 1.0, -1.0, 1.0, 1.0, flip_domain=True)


def rm_is_symmetric(R: RationalMatrix, rel=DEFAULT.coeff_rel) -> bool:
    """Each entry ``equals`` its transpose twin at rel times the matrix's coefficient scale, which is found
    only for a pair that is not one shared scalar (as ``parse_document`` shares a symmetric document's)."""
    m, scale = R.size, None
    for i in range(m):
        for j in range(i + 1, m):
            if R.entries[i][j] is not R.entries[j][i]:
                scale = scale or max(1.0, R.coeff_scale())
                if not R.entries[i][j].equals(R.entries[j][i], rel=rel * scale):
                    return False
    return True


@cache
def generic_points():
    """Six seeded points, off the imaginary axis, the real line and the unit circle (read-only).

    Made on first use, so that importing nipr does not import ``numpy.random``.
    """
    re_im = np.random.default_rng(20240817).uniform(0.5, 3.0, (6, 2))
    points = re_im[:, 0] + 1j * re_im[:, 1]
    points.flags.writeable = False
    return points


def rm_full_normal_rank(M: RationalMatrix, cfg: Config = DEFAULT) -> bool:
    """True iff det M is not identically zero: at one of the ``generic_points()`` the smallest singular
    value of M exceeds rank_rel times the largest.  No classifier calls it: a class reads the full normal
    rank of its boundary form from the crossing pencil (``boundary.boundary_det_zeros``)."""
    vals, ok = rm_eval_many(M, generic_points())
    sv = np.linalg.svd(vals[ok], compute_uv=False)
    return bool(np.any(sv[:, -1] > cfg.rank_rel * sv[:, 0]))
