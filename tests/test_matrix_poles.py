"""Pole data per matrix: each distinct denominator is clustered and deflated once, the numerators evaluated as one stack.

The per-entry functions they replace are kept below as references, verbatim
but for their names and for the clusters cache, which the reference does not
share with the matrix.  Every location, multiplicity, residue and coefficient
stack must be byte-equal to the reference's, on the corpus generators (as
built and as parsed from a document), on the lemma corpus and on hand-built
matrices with distinct, partly cancelled, double, complex and zero entries.

Which entries have each pole is decided once per matrix, in the pole table of
``ratmat._pole_clusters``.  The two rules it replaces are kept as references
too: the residue's (an entry's cluster within root_cluster (1 + |p|) of the
pole) and the boundary split's (an entry's clusters within 2 root_cluster
(1 + |b|) of the boundary point, not taken by an earlier point).  On the
corpora the table gives the multiplicities both rules give.

Every root and pole match is ``poly.close``, anchored at the point already
decided.  The inline rules it replaces, each anchored where it was, are kept
as references (``reference_cluster_roots``, ``reference_merge_poles``, the
lookup of ``reference_residues_at``, ``reference_pole_split`` and
``reference_boundary_points``).  On the corpora ``rm_poles``, the pole table,
``Analysis.pole_split``, the boundary points and strict stability are theirs,
bit for bit; only a query between two poles (the nearer now answers) and a
discrete-time pole within 2 root_cluster of the circle (no longer stable)
differ.

The matrix poles do not depend on the order of the entries: the clusters of
all denominators ``poly.join`` in ``rm_poles`` order, and a pole is at the
cluster of the first denominator in it.  On the corpora that is the
reference's merge in entry order, bit for bit.  Three diagonal matrices of
poles a few root_cluster apart are checked in every order of their entries.
"""

import itertools

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import corpus
from nipr import analysis, ratmat
from nipr.analysis import analysis_of
from nipr.config import DEFAULT
from nipr.docio import document_of, jsonable, parse_document
from nipr.errors import MultiplicityTooHigh, PoleProximity
from nipr.poly import RationalScalar, close, deflate, reduced_scalars
from nipr.ratmat import (CT, PoleDatum, RationalMatrix, _entry_multiplicities, _horner, _pole_clusters, rm_eval_many,
                         rm_poles, rm_residues_at)
from test_sign_source import CASES, lossy

GENERATORS = corpus.GENERATORS


# ---------------------------------------------------------------------------
# the per-entry references


def reference_stacks(R):
    flat = [e for row in R.entries for e in row]
    shape = (R.size, R.size)

    def stack(coeffs):
        n = max(c.size for c in coeffs)
        return np.array([np.pad(c, (0, n - c.size)) for c in coeffs]).T.reshape(n, *shape)

    return stack([e.num for e in flat]), stack([e.den for e in flat])


def reference_cluster_roots(rts, tol=DEFAULT.root_cluster):
    rts = np.asarray(rts, dtype=complex)
    out = []
    used = np.zeros(rts.size, dtype=bool)
    order = np.argsort(np.abs(rts))
    for i in order:
        if used[i]:
            continue
        used[i] = True
        # np.hypot is bitwise the scalar abs(complex); np.abs of a complex array is not
        d = rts - rts[i]
        near = ~used & (np.hypot(d.real, d.imag) <= tol * (1.0 + abs(rts[i])))
        if not near.any():
            out.append([rts[i] + 0.0, 1])  # np.mean of one root: the root, with -0.0 parts made +0.0
            continue
        group = [i, *order[near[order]]]
        used[near] = True
        out.append([np.mean(rts[group]), len(group)])
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


def reference_merge_poles(entry_poles, cfg):
    found = []  # list of [location, mult]
    for row in entry_poles:
        for clusters in row:
            for loc, mult in clusters:
                hit = None
                for item in found:
                    if abs(item[0] - loc) <= cfg.root_cluster * (1.0 + abs(loc)):
                        hit = item
                        break
                if hit is None:
                    found.append([loc, mult])
                else:
                    hit[1] = max(hit[1], mult)
    # exact conjugate pairing
    for item in found:
        loc = item[0]
        if loc.imag > 0:
            for other in found:
                if other is item:
                    continue
                if abs(np.conj(loc) - other[0]) <= cfg.root_cluster * (1.0 + abs(loc)):
                    mid = 0.5 * (loc + np.conj(other[0]))
                    item[0] = mid
                    other[0] = np.conj(mid)
    return sorted(((complex(l), int(m)) for l, m in found), key=lambda t: (abs(t[0]), t[0].real, t[0].imag))


def reference_pole_clusters(R, cfg):
    tol = cfg.root_cluster
    entry_poles = tuple(tuple(tuple(reference_cluster_roots(e.den_roots, tol=tol)) for e in row) for row in R.entries)
    return entry_poles, tuple(reference_merge_poles(entry_poles, cfg))


def reference_entry_multiplicity(clusters, p, cfg):
    mult = 0
    for loc, m in clusters:
        if abs(loc - p) <= cfg.root_cluster * (1.0 + abs(p)):
            mult = m
    return mult


def reference_split_multiplicities(entry_poles, points, cfg):
    """The boundary split's old rule: at each point b, an entry's total multiplicity over its clusters within
    2 root_cluster (1 + |b|) of b that no earlier point took."""
    m = len(entry_poles)
    left = entry_poles  # each entry's pole clusters not yet taken by a point
    out = []
    for b in points:
        near = 2.0 * cfg.root_cluster * (1.0 + abs(b))
        out.append([[sum(k for loc, k in left[i][j] if abs(loc - b) <= near) for j in range(m)] for i in range(m)])
        left = [[[(loc, k) for loc, k in cl if min(abs(loc - b), abs(loc - np.conj(b))) > near] for cl in row]
                for row in left]
    return out


def reference_pole_split(domain, poles, cfg):
    """``Analysis.pole_split`` over the poles, and ``strictly_stable``, with the CT or DT ``Domain``'s
    ``on_boundary``, ``outside`` and the ``inside`` it had as a field written out."""
    tol, ct = cfg.root_cluster, domain == CT
    unstable, upper, at = [], [], []
    for n, (p, mult) in enumerate(poles):
        if abs(p.real) <= tol * (1.0 + abs(p)) if ct else abs(abs(p) - 1.0) <= tol * 2.0:
            if p.imag >= 0.0:
                upper.append((p, mult))
                at.append(n)
        elif p.real > 0 if ct else abs(p) > 1.0:
            unstable.append((p, mult))
    stable = all(p.real < -tol * (1.0 + abs(p)) if ct else abs(p) < 1.0 - tol for p, _ in poles)
    return unstable, upper, at, stable


def reference_boundary_points(domain, upper, at, cfg):
    """``Analysis.boundary_parts``' (b, pole indexes): each boundary pole's projection b joins the first point
    within root_cluster (1 + |b|) of it, or makes a new one."""
    points = {}
    for (p, _), n in zip(upper, at):
        b = 1j * p.imag if domain == CT else p / abs(p)
        b = next((c for c in points if abs(b - c) <= cfg.root_cluster * (1.0 + abs(b))), b)
        points.setdefault(b, []).append(n)
    return list(points.items())


def reference_residues_at(R, p, cfg=DEFAULT):
    p = complex(p)
    m = R.size
    entry_poles, poles = reference_pole_clusters(R, cfg)
    mult = 0
    for loc, k in poles:
        if abs(loc - p) <= cfg.root_cluster * (1.0 + abs(p)):
            mult = k
            p = loc  # snap to the clustered location
    if mult == 0:
        raise ValueError(f"{p} is not a pole of the matrix")
    if mult > 2:
        raise MultiplicityTooHigh(f"pole at {p} has multiplicity {mult}")
    A1 = np.zeros((m, m), dtype=complex)
    A2 = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            e = R.entries[i][j]
            k = reference_entry_multiplicity(entry_poles[i][j], p, cfg)
            if k == 0:
                continue
            q = np.asarray(e.den, dtype=complex)
            for _ in range(k):
                q = deflate(q, p)
            nv = npp.polyval(p, np.asarray(e.num, dtype=complex))
            qv = npp.polyval(p, q)
            with np.errstate(all="ignore"):  # a zero or tiny qv is reported below
                if k == 1:
                    A1[i, j] = nv / qv
                else:
                    A2[i, j] = nv / qv
                    ndv = npp.polyval(p, np.polynomial.polynomial.polyder(np.asarray(e.num, dtype=complex)))
                    qdv = npp.polyval(p, np.polynomial.polynomial.polyder(q))
                    A1[i, j] = (ndv * qv - nv * qdv) / (qv * qv)
            if not (np.isfinite(A1[i, j]) and np.isfinite(A2[i, j])):
                raise PoleProximity(f"entry ({i}, {j}): no finite residue at the pole {p}: "
                                    "another of the entry's poles is too close to it")
    if R.domain == CT:
        K0 = 1j * A1
    else:
        K0 = (1j / p) * A1 if p != 0 else 1j * A1
    return PoleDatum(p, mult, A1, A2, K0)


# ---------------------------------------------------------------------------
# comparison


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_poles(a, b):
    return [k for _, k in a] == [k for _, k in b] and bitwise([p for p, _ in a], [p for p, _ in b])


def outcome(fn, R, p):
    """fn(R, p)'s PoleDatum, or the type of the error it raised."""
    try:
        return fn(R, p)
    except (MultiplicityTooHigh, PoleProximity) as exc:
        return type(exc)


def assert_matches_the_reference(R, cfg=DEFAULT):
    for got, want in zip(R._coefficient_stacks, reference_stacks(R)):
        assert bitwise(got, want)
    poles = reference_pole_clusters(R, cfg)[1]
    assert same_poles(_pole_clusters(R, cfg)[0], poles)
    for p, _ in poles:
        got, want = outcome(rm_residues_at, R, p), outcome(reference_residues_at, R, p)
        if isinstance(want, type):
            assert got is want
            continue
        assert bitwise(got.location, want.location) and got.multiplicity == want.multiplicity
        for name in ("residue_A1", "quad_residue_A2", "normalized_K0"):
            assert bitwise(getattr(got, name), getattr(want, name)), name
    # the preallocated stacks evaluate as the padded ones did
    points = np.array([0.3 + 0.7j, -1.1 + 0.2j, 2.0, 0.9j, np.exp(0.4j)])
    vals, ok = rm_eval_many(R, points)
    num, den = reference_stacks(R)
    X = points.reshape(-1, 1, 1)
    dv = _horner(den, X)
    near = np.abs(dv) <= 4 * den.shape[0] * np.finfo(float).eps * _horner(np.abs(den), np.abs(X))
    assert bitwise(vals, _horner(num, X) / np.where(near, 1.0, dv)) and bitwise(ok, ~near.any(axis=(1, 2)))
    return poles


def parsed(G):
    return parse_document(jsonable(document_of(G)))


# ---------------------------------------------------------------------------
# corpora


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_pole_data_is_byte_equal_to_the_per_entry_reference(gen, seed):
    for m in range(1, 7):
        G, doc = corpus.generated(gen, seed, m)
        assert_matches_the_reference(G)
        assert_matches_the_reference(parse_document(doc))


def test_lemma_corpus_pole_data_is_byte_equal_to_the_per_entry_reference():
    for G in corpus.dt_lemma_corpus(7, 100):
        assert_matches_the_reference(G)
        assert_matches_the_reference(parsed(G))


def assert_exactly_paired(G):
    """rm_poles' pairing: each imaginary part is 0.0 or above root_cluster (1 + |p|), and each complex
    pole's conjugate is a pole too, bit for bit; so the pole tests compare p.imag with 0.0."""
    poles = [p for p, _ in rm_poles(G)]
    for p in poles:
        assert p.imag == 0.0 or abs(p.imag) > DEFAULT.root_cluster * (1.0 + abs(p)), p
        assert p.imag == 0.0 or sum(q == p.conjugate() for q in poles) == 1, p
    return len(poles)


@pytest.mark.parametrize("gen", GENERATORS)
def test_the_corpus_poles_are_real_or_exactly_paired(gen):
    for seed in (0, 1, 2):
        for m in range(1, 7):
            G, doc = corpus.generated(gen, seed, m)
            assert assert_exactly_paired(G) == assert_exactly_paired(parse_document(doc)) > 0


def test_the_lemma_corpus_and_resonant_poles_are_real_or_exactly_paired():
    for G in corpus.dt_lemma_corpus(7, 100):
        assert_exactly_paired(G)
        assert_exactly_paired(parsed(G))
    for seed in (0, 1, 2):
        for m in range(1, 7):
            G = corpus.ct_ni(np.random.default_rng([seed, m]), m=m, nterms=3, resonant=True)
            poles = [p for p, _ in rm_poles(G)]
            assert any(p.imag != 0.0 for p in poles)  # the resonant mode is a complex pair
            assert_exactly_paired(G)
            assert_exactly_paired(parsed(G))


def test_another_root_cluster_is_byte_equal_too():
    other = DEFAULT.with_overrides(root_cluster=1e-9)
    for gen in GENERATORS:
        assert_matches_the_reference(parsed(getattr(corpus, gen)(np.random.default_rng(5), m=4, nterms=3)), other)


# ---------------------------------------------------------------------------
# hand-built matrices


def poly_of(*roots):
    """Ascending real coefficients of prod (x - r), conjugate roots paired."""
    return np.real(npp.polyfromroots(roots))


def shared(nums, den, domain):
    """A matrix whose cells are nums[i][j] over one den, reduced as a parsed document's are."""
    m = len(nums)
    cells = iter(reduced_scalars([(np.asarray(n, dtype=float), np.asarray(den, dtype=float))
                                  for row in nums for n in row]))
    return RationalMatrix([[next(cells) for _ in range(m)] for _ in range(m)], domain)


def hand_built():
    r = RationalScalar
    out = {}
    # every entry has its own denominator
    out["distinct"] = RationalMatrix([[r([1.0], [1.0, 1.0]), r([1.0], [2.0, 1.0])],
                                      [r([2.0], [3.0, 1.0]), r([1.0, 1.0], poly_of(-2.0, -4.0))]], "ct")
    # one shared denominator, and in cell (0, 1) the numerator cancels its root at -2
    den = poly_of(-1.0, -2.0, -3.0)
    out["cancelled"] = shared([[[1.0, 2.0], poly_of(-2.0) * 3.0, [2.0]],
                               [poly_of(-2.0) * 3.0, [0.5, 1.0, 1.0], [1.0]],
                               [[2.0], [1.0], [4.0, 1.0]]], den, "ct")
    assert out["cancelled"].entries[0][1].den.size == 3 and out["cancelled"].entries[0][0].den.size == 4
    # a double pole at -1 in (0, 0) and (1, 1) only: multiplicities 0, 1 and 2 at -1
    out["double"] = RationalMatrix([[r([1.0, 2.0], poly_of(-1.0, -1.0, -3.0)), r([1.0], [2.0, 1.0])],
                                    [r([3.0], [1.0, 1.0]), r([0.5], poly_of(-1.0, -1.0))]], "ct")
    # complex pole pairs, shared and not, one of them double
    pair = poly_of(-0.2 + 2.0j, -0.2 - 2.0j)
    out["complex"] = RationalMatrix([[r([1.0, 1.0], pair), r([2.0], pair)],
                                     [r([2.0], pair), r([0.3, -1.7, 0.9], npp.polymul(pair, [1.0, 1.0]))]], "ct")
    out["complex double"] = RationalMatrix([[r([1.0, 0.3, -2.1, 0.7], npp.polymul(pair, pair)), r([1.0], pair)],
                                            [r([1.0], pair), r([0.0, 1.0], poly_of(-1.0 + 1.0j, -1.0 - 1.0j))]],
                                           "ct")
    # two shared complex pairs under numerators of degree up to 4: a Horner step through numpy's complex
    # array multiply, which may fuse a product into the sum, gives other bits than polyval's here
    rng = np.random.default_rng(11)
    pairs = poly_of(-0.3 + 1.7j, -0.3 - 1.7j, -1.2 + 0.4j, -1.2 - 0.4j, -2.0)
    out["complex shared"] = shared([[rng.standard_normal(rng.integers(1, 6)) for _ in range(3)] for _ in range(3)],
                                   pairs, "ct")
    ring = poly_of(*(0.9 * np.exp(1j * t) for t in (0.7, -0.7)), 0.5)
    out["dt complex"] = shared([[[0.0, 1.0], [1.0, 0.2, 0.1]], [[1.0, 0.2, 0.1], [2.0]]], ring, "dt")
    boundary = poly_of(np.exp(1.1j), np.exp(-1.1j))
    out["dt boundary"] = RationalMatrix([[r([0.0, 1.0], boundary), r([1.0], [-0.5, 1.0])],
                                         [r([1.0], [-0.5, 1.0]), r([1.0, 1.0], boundary)]], "dt")
    # zero entries next to shared and distinct denominators
    z = r.zero()
    out["zeros"] = RationalMatrix([[r([1.0], [1.0, 1.0]), z, r([2.0], poly_of(-1.0, -5.0))],
                                   [z, z, r([1.0], [1.0, 1.0])],
                                   [r([2.0], poly_of(-1.0, -5.0)), r([1.0], [1.0, 1.0]), z]], "ct")
    out["all zero"] = RationalMatrix([[z, z], [z, z]], "ct")
    return out


HAND_BUILT = hand_built()


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_pole_data_is_byte_equal_to_the_per_entry_reference(name):
    R = HAND_BUILT[name]
    poles = assert_matches_the_reference(R)
    assert bool(poles) == (name != "all zero")


def test_the_hand_built_matrices_cover_what_they_claim():
    assert [k for p, k in rm_poles_of("double") if abs(p + 1.0) < 1e-6] == [2]
    R = HAND_BUILT["double"]
    at = [n for n, (p, _) in enumerate(rm_poles(R)) if abs(p + 1.0) < 1e-6]
    assert sorted({k for row in _entry_multiplicities(R, at, DEFAULT) for k in row}) == [0, 1, 2]
    assert any(p.imag != 0 and k == 2 for p, k in rm_poles_of("complex double"))
    assert any(p.imag != 0 for p, _ in rm_poles_of("dt complex"))
    assert any(abs(abs(p) - 1.0) < 1e-12 and p.imag != 0 for p, _ in rm_poles_of("dt boundary"))
    # and a residue there is the residue: 2 / (s^2 + 0.4 s + 4.04) at p is 2 / (p - conj(p))
    R = HAND_BUILT["complex"]
    p = next(p for p, _ in rm_poles_of("complex") if p.imag > 0)
    datum = rm_residues_at(R, p)
    assert np.allclose(datum.residue_A1[0, 1], 2.0 / (2 * p.imag * 1j))


def rm_poles_of(name):
    return _pole_clusters(HAND_BUILT[name], DEFAULT)[0]


def test_a_double_pole_with_a_constant_numerator_everywhere():
    # every numerator is constant, so the numerator stack has one coefficient and no derivative terms
    R = RationalMatrix([[RationalScalar([2.0], poly_of(-1.0, -1.0)), RationalScalar([1.0], [1.0, 1.0])],
                        [RationalScalar([-3.0], [1.0, 1.0]), RationalScalar([-1.0], poly_of(-1.0, -1.0))]], "ct")
    assert R._coefficient_stacks[0].shape[0] == 1
    assert_matches_the_reference(R)
    datum = rm_residues_at(R, -1.0)
    assert datum.multiplicity == 2 and datum.quad_residue_A2[0, 0] == 2.0 and datum.quad_residue_A2[1, 1] == -1.0


def test_each_distinct_denominator_is_deflated_once_per_pole(monkeypatch):
    from nipr import ratmat

    seen = []

    def counted(c, r):
        seen.append(np.asarray(c).tobytes())
        return deflate(c, r)

    monkeypatch.setattr(ratmat, "deflate", counted)
    G = parsed(corpus.dt_mixed(np.random.default_rng(3), m=4, nterms=3))
    assert len({e.den.tobytes() for row in G.entries for e in row}) == 1
    for p, _ in ratmat.rm_poles(G):
        seen.clear()
        rm_residues_at(G, p)
        assert len(seen) == 1  # one shared denominator, one simple pole: one deflation for 16 entries


# ---------------------------------------------------------------------------
# the pole table against the rules it replaces


def table_multiplicities(R, cfg=DEFAULT):
    """(poles, m * m) array: each entry's multiplicity at each pole, from the pole table, in which each
    denominator listed at a pole has one cluster there."""
    poles, table = _pole_clusters(R, cfg)
    out = np.zeros((len(poles), R.size * R.size), dtype=int)
    for n, listed in enumerate(table):
        for _, idx, ks in listed:
            assert len(ks) == 1
            out[n, idx] = ks[0]
    return out


def split_points(R, cfg=DEFAULT):
    """The (b, pole indexes) that a fresh ``Analysis.boundary_parts`` hands ``rm_split_boundary``."""
    seen = []

    def recording(R, points, *args):
        seen.extend(points)
        return ratmat.rm_split_boundary(R, points, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "rm_split_boundary", recording)
        analysis.Analysis(R, cfg).boundary_parts()
    return seen


def assert_the_table_gives_the_old_multiplicities(R, cfg=DEFAULT):
    """rm_poles, ``Analysis.pole_split``, the boundary points and strict stability are the references', and
    the residue's and the split's multiplicities the old rules'; returns the number of split points."""
    entry_poles, poles = reference_pole_clusters(R, cfg)
    assert same_poles(rm_poles(R, cfg), poles)
    a = analysis.Analysis(R, cfg)
    unstable, upper, at, stable = reference_pole_split(R.domain, poles, cfg)
    got = a.pole_split()
    assert same_poles(got[0], unstable) and same_poles(got[1], upper) and got[2] == at
    assert a.strictly_stable() == stable
    points = split_points(R, cfg)
    want = reference_boundary_points(R.domain, upper, at, cfg)
    assert bitwise([b for b, _ in points], [b for b, _ in want]) and [n for _, n in points] == [n for _, n in want]
    want = [[reference_entry_multiplicity(cl, p, cfg) for row in entry_poles for cl in row] for p, _ in poles]
    assert np.array_equal(table_multiplicities(R, cfg), np.array(want, dtype=int).reshape(len(poles), R.size * R.size))
    for (b, at), old in zip(points, reference_split_multiplicities(entry_poles, [b for b, _ in points], cfg)):
        assert _entry_multiplicities(R, at, cfg) == old
    return len(points)


@pytest.mark.parametrize("gen", GENERATORS)
def test_the_pole_table_keeps_the_old_multiplicities_on_the_corpus(gen):
    for seed in range(6):
        for m in range(1, 7):
            G, doc = corpus.generated(gen, seed, m)
            assert_the_table_gives_the_old_multiplicities(G)
            assert_the_table_gives_the_old_multiplicities(parse_document(doc))


def test_the_pole_table_keeps_the_old_multiplicities_on_the_lemma_corpus():
    for G in corpus.dt_lemma_corpus(7, 100):
        assert_the_table_gives_the_old_multiplicities(G)


@pytest.mark.parametrize("domain", ["ct", "dt"])
def test_the_pole_table_keeps_the_old_multiplicities_on_lossless_sums(domain):
    split = 0
    for form in ("pr", "ni"):
        for m in (1, 2, 3):
            for seed in range(20):
                G = CASES[domain](seed, m, form)
                split += assert_the_table_gives_the_old_multiplicities(G)
                split += assert_the_table_gives_the_old_multiplicities(lossy(G, form))
    assert split >= 2 * 2 * 3 * 20 * 3  # three boundary modes, at least, in each lossless sum and its control


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_the_pole_table_keeps_the_old_multiplicities_on_the_hand_built_matrices(name):
    assert_the_table_gives_the_old_multiplicities(HAND_BUILT[name])


def test_a_residue_deflates_only_the_denominators_the_table_lists(monkeypatch):
    # 1/(s - x) joins the pole at 10, x being within root_cluster (1 + |x|) of it, and z makes a pole of its
    # own; x also lies within root_cluster (1 + |z|) of z, which the old per-call rule read as a pole there
    x, z = 10.0 + 0.9e-6, 10.0 + 1.5e-6
    tol = DEFAULT.root_cluster
    assert abs(x - 10.0) <= tol * (1.0 + x) < abs(z - 10.0) and abs(z - x) <= tol * (1.0 + z)
    r = RationalScalar
    R = RationalMatrix([[r([1.0], [-10.0, 1.0]), r.zero(), r.zero()],
                        [r.zero(), r([1.0], [-x, 1.0]), r.zero()],
                        [r.zero(), r.zero(), r([1.0], [-z, 1.0])]], "ct")
    assert rm_poles(R) == [(10.0, 1), (z, 1)]
    seen = []

    def counted(c, p):
        seen.append(np.asarray(c).tobytes())
        return deflate(c, p)

    monkeypatch.setattr(ratmat, "deflate", counted)
    datum = rm_residues_at(R, z)
    assert len(seen) == 1 and bitwise(datum.residue_A1, np.diag([0.0, 0.0, 1.0]).astype(complex))
    seen.clear()
    datum = rm_residues_at(R, 10.0)
    assert len(seen) == 2 and bitwise(datum.residue_A1, np.diag([1.0, 1.0, 0.0]).astype(complex))


# ---------------------------------------------------------------------------
# a query reads the pole it is ``close`` to, the nearer of two


def diagonal(*poles):
    r = RationalScalar
    m = len(poles)
    return RationalMatrix([[r([1.0], [-poles[i], 1.0]) if i == j else r.zero() for j in range(m)] for i in range(m)],
                          "ct")


def test_a_query_at_a_pole_reads_that_pole_and_not_a_neighbour():
    # c lies within root_cluster (1 + 10) of 10 but 10 not within root_cluster (1 + |c|) of c: a lookup that
    # re-snapped the query to each pole it matched went on from 10 to c and read diag(0, 1) there
    c = 10.0 - 1.1e-6 + 5e-14
    datum = rm_residues_at(diagonal(10.0, c), 10.0)
    assert datum.location == 10.0 and datum.residue_A1[0, 0] == 1.0


def test_a_query_that_two_poles_admit_reads_the_nearer():
    z = 10.0 + 1.5e-6
    R = diagonal(10.0, z)
    assert rm_poles(R) == [(10.0, 1), (z, 1)]
    for q, k in ((10.0 + 0.7e-6, 0), (10.0 + 0.8e-6, 1)):
        assert close(q, 10.0, DEFAULT.root_cluster) and close(q, z, DEFAULT.root_cluster)
        datum = rm_residues_at(R, q)
        assert datum.location == (10.0, z)[k] and datum.residue_A1[k, k] == 1.0


def test_the_matrix_poles_do_not_depend_on_the_order_of_the_entries():
    # c lies within root_cluster (1 + 10) of 10 but 10 not within root_cluster (1 + |c|) of c
    c = 10.0 - 1.1e-6 + 5e-14
    forward, backward = rm_poles(diagonal(10.0, c)), rm_poles(diagonal(c, 10.0))
    assert len(forward) == len(backward)
    assert [p for p, _ in forward] == pytest.approx([p for p, _ in backward], abs=DEFAULT.root_cluster * 11.0)


def conjugate_pair(p):
    return poly_of(p, np.conj(p))


# each case's diagonal scalars: poles of different denominators within a few root_cluster of each other
TOL = DEFAULT.root_cluster
PAIR = -0.2 + 2.0j
ORDER_CASES = {
    # c is within root_cluster (1 + 10) of 10 but 10 not within root_cluster (1 + |c|) of c
    "found pair": [RationalScalar([1.0], [-10.0, 1.0]), RationalScalar([1.0], [-(10.0 - 1.1e-6 + 5e-14), 1.0])],
    # 8 root_cluster apart, with a root_cluster (1 + 10) of 11: the first two are one pole, the third another
    "three close": [RationalScalar([1.0], [-(10.0 + k * 8e-7), 1.0]) for k in range(3)],
    # conjugate pairs about PAIR, one of them double, over different denominators, and real poles at -3
    "conjugate pairs": [RationalScalar([1.0], conjugate_pair(PAIR)),
                        RationalScalar([1.0, 0.5], npp.polymul(conjugate_pair(PAIR + 1e-7), [3.0, 1.0])),
                        RationalScalar([2.0], npp.polymul(conjugate_pair(PAIR + 1e-7j), conjugate_pair(PAIR + 1e-7j))),
                        RationalScalar([1.0], [3.0 + 2e-7, 1.0])],
}


def diagonal_of(scalars):
    m = len(scalars)
    return RationalMatrix([[scalars[i] if i == j else RationalScalar.zero() for j in range(m)] for i in range(m)], "ct")


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_the_matrix_poles_do_not_depend_on_the_order_of_the_entries(name):
    scalars = ORDER_CASES[name]
    m = len(scalars)
    first = None
    for perm in itertools.permutations(range(m)):
        R = diagonal_of([scalars[k] for k in perm])
        poles = rm_poles(R)
        assert_exactly_paired(R)
        # the pole table's multiplicities, by the scalar on the diagonal
        table = table_multiplicities(R)[:, [perm.index(k) * (m + 1) for k in range(m)]]
        if first is None:
            first = poles, table
            continue
        assert len(poles) == len(first[0]) and [k for _, k in poles] == [k for _, k in first[0]]
        assert np.array_equal(table, first[1])
        assert all(close(p, q, TOL) for (p, _), (q, _) in zip(poles, first[0]))


def test_the_order_cases_cover_what_they_claim():
    poles = {name: rm_poles(diagonal_of(scalars)) for name, scalars in ORDER_CASES.items()}
    assert len(poles["found pair"]) == 2
    assert [k for _, k in poles["three close"]] == [1, 1]
    # a conjugate pair of multiplicity 2 that all three pair denominators have, and a real pole two have
    assert [k for _, k in poles["conjugate pairs"]] == [2, 2, 1]
    table = table_multiplicities(diagonal_of(ORDER_CASES["conjugate pairs"]))
    assert table[:, [0, 5, 10, 15]].tolist() == [[1, 1, 2, 0], [1, 1, 2, 0], [0, 1, 0, 1]]
