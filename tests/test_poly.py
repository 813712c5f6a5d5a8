import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from nipr import poly
from nipr.config import DEFAULT
from nipr.errors import RootFindingFailure
from nipr.poly import (
    RationalScalar,
    cluster_roots,
    degree,
    deflate,
    join,
    poly_from_roots_real,
    polydivmod,
    roots,
    shift_poly,
    trim,
)


def test_trim_and_degree():
    assert degree(trim([1.0, 2.0, 0.0, 0.0])) == 1
    assert degree([0.0]) == -1
    assert degree([3.0]) == 0


def test_polydivmod_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.standard_normal(rng.integers(1, 7))
        d = rng.standard_normal(rng.integers(1, 5))
        if degree(d) < 0:
            continue
        q, r = polydivmod(n, d)
        back = npp.polyadd(npp.polymul(q, d), r)
        assert np.allclose(trim(back, 1e-12), trim(n, 1e-12), atol=1e-9)
        assert degree(r) < degree(d) or degree(r) < 0


def test_roots_and_cluster():
    # (x - 1)^2 (x + 2), ascending coefficients
    c = npp.polymul(npp.polymul([-1.0, 1.0], [-1.0, 1.0]), [2.0, 1.0])
    rts = roots(c)
    cl = cluster_roots(rts, tol=1e-6)
    got = sorted((complex(p).real, m) for p, m in cl)
    assert got[0] == pytest.approx((-2.0, 1))
    assert got[1][0] == pytest.approx(1.0, abs=1e-6)
    assert got[1][1] == 2


def test_deflate():
    c = npp.polymul([-3.0, 1.0], [5.0, 2.0])  # (x - 3)(2x + 5)
    q = deflate(c, 3.0)
    assert np.allclose(trim(q), [5.0, 2.0])


def test_shift_poly():
    c = [1.0, 0.0, 1.0]  # 1 + x^2
    s = shift_poly(c, 2.0)  # 1 + (x + 2)^2 = 5 + 4x + x^2
    assert np.allclose(trim(s), [5.0, 4.0, 1.0])


def test_rational_arithmetic():
    a = RationalScalar([1.0], [1.0, 1.0])       # 1/(1 + x)
    b = RationalScalar([0.0, 1.0], [2.0, 1.0])  # x/(2 + x)
    x = 0.7
    assert (a + b)(x) == pytest.approx(a(x) + b(x))
    assert (a * b)(x) == pytest.approx(a(x) * b(x))
    assert (a - b)(x) == pytest.approx(a(x) - b(x))
    assert (a / b)(x) == pytest.approx(a(x) / b(x))
    assert (2.0 * a)(x) == pytest.approx(2.0 * a(x))


def test_rational_reduction_cancels_common_roots():
    # (x - 1)(x + 2) / (x - 1)(x + 3) reduces to (x + 2)/(x + 3)
    num = npp.polymul([-1.0, 1.0], [2.0, 1.0])
    den = npp.polymul([-1.0, 1.0], [3.0, 1.0])
    r = RationalScalar(num, den)
    assert r.den_degree == 1
    assert r(0.5) == pytest.approx(2.5 / 3.5)


def test_rational_equals_and_derivative():
    a = RationalScalar([1.0], [1.0, 1.0])
    b = RationalScalar([2.0], [2.0, 2.0])
    assert a.equals(b)
    d = a.derivative()
    h = 1e-6
    assert d(0.3) == pytest.approx((a(0.3 + h) - a(0.3 - h)) / (2 * h), rel=1e-5)


def test_mobius_substitution():
    r = RationalScalar([1.0, 2.0], [3.0, 0.0, 1.0])
    m = r.substitute_mobius(1.0, 1.0, -1.0, 1.0)
    for x in (0.3, -0.8, 2.5):
        assert m(x) == pytest.approx(r((x + 1.0) / (1.0 - x)))
    # w -> 1/w is an involution
    twice = r.substitute_mobius(0.0, 1.0, 1.0, 0.0).substitute_mobius(0.0, 1.0, 1.0, 0.0)
    assert r.equals(twice)


def test_taylor_and_laurent():
    r = RationalScalar([1.0], [1.0, 1.0])  # 1/(1 + x)
    t = r.taylor(0.0, 4)
    assert np.allclose(t, [1.0, -1.0, 1.0, -1.0], atol=1e-10)
    # 1/(1 + x) = x^-1 - x^-2 + ... at infinity
    l = r.laurent_at_inf(4)
    assert np.allclose(l[:4], [0.0, 1.0, -1.0, 1.0], atol=1e-10)


def test_laurent_rejects_improper():
    r = RationalScalar([0.0, 0.0, 1.0], [1.0, 1.0])  # x^2/(1 + x)
    with pytest.raises(ValueError):
        r.laurent_at_inf(3)
    assert npp.polyval(2.0, r.num) == 4.0


# ---------------------------------------------------------------------------
# the kernels against the per-call code they replaced, which the tests keep as the reference


def reference_trim(c, rel=0.0):
    c = np.atleast_1d(np.asarray(c))
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


def reference_degree(c):
    c = reference_trim(c)
    if c.size == 1 and c[0] == 0:
        return -1
    return c.size - 1


def reference_roots(c):
    c = reference_trim(c)
    if reference_degree(c) <= 0:
        return np.zeros(0, dtype=complex)
    return np.asarray(np.roots(c[::-1]), dtype=complex)


def reference_cluster_roots(rts, tol=1e-7):
    rts = np.asarray(rts, dtype=complex)
    out = []
    used = np.zeros(rts.size, dtype=bool)
    order = np.argsort(np.abs(rts))
    for i in order:
        if used[i]:
            continue
        group = [i]
        used[i] = True
        for j in order:
            if used[j]:
                continue
            if abs(rts[j] - rts[i]) <= tol * (1.0 + abs(rts[i])):
                group.append(j)
                used[j] = True
        loc = np.mean(rts[group])
        out.append([loc, len(group)])
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
                if any(abs(out[j][0] - out[g][0]) <= radius * (1.0 + abs(out[j][0])) for g in group):
                    group.append(j)
                    total += out[j][1]
            if len(group) > 1 and total >= 3:
                loc = sum(out[g][1] * out[g][0] for g in group) / total
                out = [c for g, c in enumerate(out) if g not in group]
                out.append([loc, total])
                changed = True
                break
    for item in out:
        loc = item[0]
        if abs(loc.imag) <= tol * (1.0 + abs(loc)):
            item[0] = complex(loc.real, 0.0)
    done = [False] * len(out)
    for i, (loc, mult) in enumerate(out):
        if done[i] or loc.imag == 0.0:
            continue
        for j, (loc2, mult2) in enumerate(out):
            if j == i or done[j]:
                continue
            if abs(np.conj(loc) - loc2) <= tol * (1.0 + abs(loc)) and mult2 == mult:
                mid = 0.5 * (loc + np.conj(loc2))
                out[i][0] = mid
                out[j][0] = np.conj(mid)
                done[i] = done[j] = True
                break
    return [(complex(l), int(m)) for l, m in out]


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_clusters(a, b):
    return [m for _, m in a] == [m for _, m in b] and bitwise([l for l, _ in a], [l for l, _ in b])


def root_cases():
    rng = np.random.default_rng(13)
    fixed = [
        [1.0, 0.0, 1.0],                                  # x^2 + 1: a conjugate pair
        npp.polypow([-1.0, 1.0], 2),                      # a double root
        npp.polypow([-2.0, 1.0], 3),                      # a triple root, scattered by rounding
        npp.polypow([5.0, 2.0, 1.0], 2),                  # a repeated conjugate pair
        [0.0, 0.0, 2.0, 1.0],                             # roots at 0 (np.roots' trailing zeros)
        [0.0, 0.0, 0.0, 3.0],                             # a monomial: roots at 0 only
        [0.0, 1.0],
        [1.0, 0.0, 0.0, 1.0],                             # zero coefficients inside
        [1.0, 2.0, 0.0, -0.0],                            # zero leading coefficients, -0.0 among them
        [4.0],                                            # degree 0
        [0.0], [-0.0], [], [0.0, 0.0],                    # the zero polynomial
        [1, 3, 2],                                        # integer coefficients
        np.array([1.0 + 2.0j, 0.5j, 1.0]),                # complex coefficients
        np.array([0.0, 1.0 - 1.0j, 2.0 + 0.0j, 1.0j]),
        np.array([2.0, -3.0, 1.0], dtype=complex),       # real roots of a complex polynomial stay complex
        np.array([-1.0, 0.0, 1.0], dtype=complex),
    ]
    drawn = [rng.standard_normal(rng.integers(1, 9)) for _ in range(40)]
    return fixed + drawn


def test_roots_many_is_bitwise_np_roots_in_one_batch_and_one_by_one():
    cases = root_cases()
    want = [reference_roots(c) for c in cases]
    for got, ref in zip(poly.roots_many(cases), want):
        assert bitwise(got, ref)
    for c, ref in zip(cases, want):
        assert bitwise(poly.roots_many([c])[0], ref)
        assert bitwise(roots(c), ref)
    assert poly.roots_many([]) == []


def test_roots_many_stacks_one_eigensolve_per_degree(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    cases = root_cases()
    poly.roots_many(cases)
    sizes = {(np.trim_zeros(np.asarray(c)).size - 1, np.asarray(c).dtype.kind == "c") for c in cases}
    assert len(calls) == len({s for s in sizes if s[0] > 0})


def test_a_failed_batch_raises_root_finding_failure():
    with pytest.raises(RootFindingFailure):
        poly.roots_many([[1.0, 2.0, 1.0], [1.0, float("nan"), 1.0]])
    with pytest.raises(RootFindingFailure):  # a NaN polynomial is rooted once however often it repeats
        poly.roots_many([[1.0, float("nan"), 1.0], [1.0, 2.0, 1.0], [1.0, float("nan"), 1.0]])


def repeated_cases():
    """A batch in which polynomials repeat, exactly or in part."""
    quad = [6.0, 5.0, 1.0]
    return [
        quad, np.array(quad), list(quad), [6, 5, 1],                      # equal coefficients: float and integer
        np.array(quad, dtype=complex), np.array(quad, dtype=complex),   # and complex
        [0.0, *quad], [0.0, 0.0, *quad], [0.0, *quad],                    # the same rest with 1, 2, 1 roots at 0
        [-0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0],                      # -0.0 against +0.0 as a root at 0
        [1.0, -0.0, 1.0], [1.0, 0.0, 1.0], [1.0, -0.0, 1.0],              # and as an interior coefficient
        [2.0, 3.0, 1.0, 0.0], quad, [2.0, 3.0, 1.0],                      # zero-padded, and interleaved
        [0.5, 2.0], [0.5, 2.0], [7.0], [7.0], [0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
    ]


def test_repeated_polynomials_are_rooted_once_and_each_gets_its_own_roots(monkeypatch):
    cases = repeated_cases()
    want = [reference_roots(c) for c in cases]
    solved = []
    eigvals = np.linalg.eigvals

    def counted(a):
        solved.extend(m.tobytes() for m in a)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    got = poly.roots_many(cases)
    assert all(bitwise(g, w) for g, w in zip(got, want))
    # each distinct companion matrix once: x^2 + 5x + 6 as float and as complex, x^2 + 1 with +0.0 and -0.0
    # coefficients, x^2 + 3x + 2, and 2x + 0.5
    assert len(solved) == len(set(solved)) == 6
    # every member has its own array
    assert len({id(g) for g in got}) == len(got)
    got[0][:] = 0.0
    assert bitwise(got[1], want[1]) and bitwise(got[6][:2], want[0])


TRIM_CASES = [
    ([], 0.0), ([0.0], 0.0), ([0.0, 0.0, 0.0], 0.0), ([-0.0], 0.0), ([1.0, -0.0], 0.0), ([1.0, 2.0, 0.0, 0.0], 0.0),
    ([1.0, 2.0, 3.0], 0.0), ([1.0 + 1.0j, 0.0j], 0.0), ([1.0j], 0.0), (np.zeros(0, dtype=complex), 0.0),
    ([float("nan")], 0.0), ([1.0, float("nan")], 0.0), ([float("nan"), 0.0], 0.0), ([1.0, float("inf")], 0.0),
    ([1.0, 1e-15], 1e-13), ([1.0, 2.0, 1e-20, 1e-30], 1e-13), ([1.0, 2.0, 3.0], 0.5), ([0.0, 0.0], 1e-13),
    ([1, 2, 0], 0.0), ([3, 4], 0.0), (7.0, 0.0), (np.array([1.0, 2.0, 3.0])[::-1], 0.0),
]


@pytest.mark.parametrize("c,rel", TRIM_CASES)
def test_trim_and_degree_match_the_loop(c, rel):
    with np.errstate(invalid="ignore"):  # the loop's rel * max|c| is 0 * inf on [1, inf]
        want, want_degree = reference_trim(c, rel), reference_degree(c)
    got = trim(c, rel)
    assert bitwise(got, want)
    assert not np.shares_memory(got, np.atleast_1d(np.asarray(c)))
    if rel == 0.0:
        assert degree(c) == want_degree


def cluster_cases():
    rng = np.random.default_rng(29)
    triple = [np.roots(np.poly([r] * 3)) for r in (1.0, -2.0, 0.5 + 1.0j, 7.0)]
    cases = [
        roots(npp.polypow([-1.0, 1.0], 3)),                                          # scattered triple root
        roots(npp.polymul(npp.polypow([-2.0, 1.0], 3), [1.0, 1.0])),
        roots(npp.polypow([5.0, 2.0, 1.0], 2)),                                      # repeated conjugate pair
        roots([1.0, 0.0, 1.0]), roots([2.0, 0.0, 0.0, 1.0]),                         # conjugate pairs
        np.array([1.0 + 1e-9j, 1.0 - 1e-9j, 3.0 + 5e-8j, -2.0 - 1e-12j]),           # near-real roots
        np.array([complex(-0.0, 1.0), complex(-0.0, -1.0), complex(2.0, -0.0), 0.0]),  # signed zeros
        np.array([1.0, 1.0 + 1e-8, 1.0 + 3e-7, 5.0]),                                # a chain of near roots
        np.zeros(0, dtype=complex),
    ] + triple
    cases += [rng.standard_normal(k) + 1j * rng.standard_normal(k) * (rng.uniform() < 0.5)
              for k in rng.integers(1, 9, size=30)]
    return cases


def test_cluster_roots_matches_the_loop():
    for rts in cluster_cases():
        for tol in (1e-7, 1e-6, 1e-3):
            assert same_clusters(cluster_roots(rts, tol=tol), reference_cluster_roots(rts, tol=tol))


def test_join_groups_each_point_with_the_first_anchor_it_is_close_to():
    # 0.34 is close to both anchors, 0.0 and the nearer 0.6, and joins the first group
    assert join([0.0, 0.6, 0.34, 3.0], range(4), 0.35) == [[0, 2], [1], [3]]
    # 0.6 is close to 0.3 but not to the anchor 0.0, so groups do not chain; the groups and anchors follow the order
    assert join([0.0, 0.3, 0.6], range(3), 0.35) == [[0, 1], [2]]
    assert join([0.0, 0.3, 0.6], [2, 1, 0], 0.35) == [[2, 1], [0]]
    # complex points, and anchored at the point decided first: 1 is close to 1.5 but 1.5 not to 1
    assert join([1j, -1j, 1.5, 1.0], range(4), 0.22) == [[0], [1], [2, 3]]
    assert join([1j, -1j, 1.5, 1.0], [3, 2, 1, 0], 0.22) == [[3], [2], [1], [0]]
    assert join([], [], 0.35) == []


def test_poly_from_roots_real_decides_real_and_partner_by_close():
    tol = DEFAULT.root_cluster
    # a near-real pair within root_cluster of its real part, which cluster_roots snaps to the axis, is (x - 1)^2
    assert cluster_roots([1.0 + 5e-8j, 1.0 - 5e-8j], tol=tol) == [(1.0 + 0j, 2)]
    assert poly_from_roots_real([1.0 + 5e-8j, 1.0 - 5e-8j], tol).tolist() == [1.0, -2.0, 1.0]
    # a conjugate pair gives its quadratic, the partner being the nearest root close to conj(r); the root left
    # over gives the factor of its real part; the factors multiply in the order of the roots, after the lead
    r = -0.2 + 2.0j
    got = poly_from_roots_real([r, 3.0, r.conjugate() + 1e-7, r.conjugate()], tol, lead=2.0)
    want = [2.0]
    for factor in ([abs(r) ** 2, -2.0 * r.real, 1.0], [-3.0, 1.0], [-(r.real + 1e-7), 1.0]):
        want = npp.polymul(want, factor)
    assert got.tolist() == want.tolist()
    # a complex root with no partner gives the factor of its real part
    got = poly_from_roots_real([r, r.conjugate() + 1e-3], tol)
    assert got.tolist() == npp.polymul([-r.real, 1.0], [-(r.real + 1e-3), 1.0]).tolist()


@pytest.mark.parametrize("num, den", [
    ([2.0], [1.0, 3.0, 1.0]),  # constant numerator
    ([1.0, 2.0, 1.0], [4.0]),  # constant denominator
    ([0.0], [1.0, 1.0]),  # zero numerator
    ([2.0, 3.0, 1.0], [0.0, 2.0, 3.0, 1.0, 0.0]),  # (s + 1)(s + 2) over s(s + 1)(s + 2), zero-padded: cancels
    ([1.0, 0.0, 1.0], [6.0, 5.0, 1.0]),  # nothing cancels
])
def test_reduced_scalars_equal_one_scalar_at_a_time(num, den):
    (batched,) = poly.reduced_scalars([(np.array(num), np.array(den))])
    single = RationalScalar(num, den)
    assert np.array_equal(batched.num, single.num) and np.array_equal(batched.den, single.den)
    assert (batched._den_roots is None) == (single._den_roots is None) == (len(den) == 5)
    assert np.array_equal(batched.den_roots, single.den_roots) and batched.den_roots.dtype == single.den_roots.dtype
