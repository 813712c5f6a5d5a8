"""Seeded random transfer-matrix generators shared across the test suite.

Everything here is deterministic given the numpy Generator passed in, so
failures reproduce.  The "labeled" generators build systems from atoms whose
class membership is known in closed form (weighted sums of first-order modes
with PSD weights); the "mixed" generators use indefinite weights and carry no
label, which is what the oracle-equivalence tests want.
"""

import functools

import numpy as np

from nipr.docio import document_of, jsonable
from nipr.poly import RationalScalar
from nipr.ratmat import RationalMatrix

GENERATORS = ("ct_ni", "ct_pr", "ct_mixed", "dt_ni", "dt_pr", "dt_mixed")


def psd(rng, m, scale=1.0):
    A = rng.standard_normal((m, m))
    return scale * (A @ A.T) / m


def sym(rng, m, scale=1.0):
    A = rng.standard_normal((m, m))
    return scale * 0.5 * (A + A.T)


def weighted_modes(weights, scalars, D, domain):
    """sum_k weights[k] * scalars[k] + D as a RationalMatrix."""
    m = D.shape[0]
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            e = RationalScalar([float(D[i, j])])
            for Rk, sk in zip(weights, scalars):
                e = e + float(Rk[i, j]) * sk
            row.append(e)
        entries.append(row)
    return RationalMatrix(entries, domain)


# ---------------------------------------------------------------------------
# continuous time


def ct_mode(a):
    """1/(s + a), negative imaginary and positive real for a > 0."""
    return RationalScalar([1.0], [float(a), 1.0])


def ct_resonant_mode(wn, zeta):
    """1/(s^2 + 2 zeta wn s + wn^2), negative imaginary for zeta, wn > 0."""
    return RationalScalar([1.0], [float(wn) ** 2, 2.0 * float(zeta) * float(wn), 1.0])


def ct_ni(rng, m=2, nterms=2, strictly_proper=True, resonant=False):
    """A known C-NI matrix: PSD-weighted sum of NI modes plus symmetric D."""
    scalars = [ct_mode(rng.uniform(0.2, 3.0)) for _ in range(nterms)]
    if resonant:
        scalars.append(ct_resonant_mode(rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.0)))
    weights = [psd(rng, m) for _ in range(len(scalars))]
    D = np.zeros((m, m)) if strictly_proper else sym(rng, m, 0.5)
    return weighted_modes(weights, scalars, D, "ct")


def ct_pr(rng, m=2, nterms=2):
    """A known C-PR matrix: PSD-weighted modes plus PSD symmetric D."""
    scalars = [ct_mode(rng.uniform(0.2, 3.0)) for _ in range(nterms)]
    weights = [psd(rng, m) for _ in range(nterms)]
    return weighted_modes(weights, scalars, psd(rng, m, 0.5), "ct")


def ct_mixed(rng, m=2, nterms=2):
    """Symmetric, Hurwitz, but with indefinite weights: unlabeled."""
    scalars = [ct_mode(rng.uniform(0.2, 3.0)) for _ in range(nterms)]
    weights = [sym(rng, m) for _ in range(nterms)]
    return weighted_modes(weights, scalars, sym(rng, m, 0.3), "ct")


# ---------------------------------------------------------------------------
# discrete time


def dt_mode(a):
    """1/(z - a), negative imaginary for real a in (-1, 1)."""
    return RationalScalar([1.0], [-float(a), 1.0])


def dt_pr_mode(a):
    """z/(z - a), positive real for |a| < 1."""
    return RationalScalar([0.0, 1.0], [-float(a), 1.0])


def dt_ni(rng, m=2, nterms=2, with_d=True, pole_at_one=False):
    """A known D-NI matrix: PSD-weighted sum of 1/(z - a_k) modes."""
    scalars = [dt_mode(rng.uniform(-0.85, 0.85)) for _ in range(nterms)]
    weights = [psd(rng, m) for _ in range(nterms)]
    if pole_at_one:
        scalars.append(dt_mode(1.0))
        weights.append(psd(rng, m))
    D = sym(rng, m, 0.5) if with_d else np.zeros((m, m))
    return weighted_modes(weights, scalars, D, "dt")


def dt_pr(rng, m=2, nterms=2):
    """A known D-PR matrix: PSD-weighted z/(z - a_k) modes plus PSD D."""
    scalars = [dt_pr_mode(rng.uniform(-0.85, 0.85)) for _ in range(nterms)]
    weights = [psd(rng, m) for _ in range(nterms)]
    return weighted_modes(weights, scalars, psd(rng, m, 0.5), "dt")


def dt_mixed(rng, m=2, nterms=2):
    """Symmetric, Schur, indefinite weights: unlabeled."""
    scalars = [dt_mode(rng.uniform(-0.85, 0.85)) for _ in range(nterms)]
    weights = [sym(rng, m) for _ in range(nterms)]
    return weighted_modes(weights, scalars, sym(rng, m, 0.3), "dt")


def dt_lemma_corpus(seed, count):
    """Minimal symmetric Schur DT systems with spectrum off +-1, n<=4, m<=2.

    Roughly half are PSD-weighted (NI by construction), half indefinite, so
    both lemma verdicts are exercised.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = int(rng.integers(1, 3))
        nterms = int(rng.integers(1, 3 if m == 2 else 5))
        if rng.uniform() < 0.5:
            G = dt_ni(rng, m=m, nterms=nterms, with_d=bool(rng.uniform() < 0.5))
        else:
            G = dt_mixed(rng, m=m, nterms=nterms)
        out.append(G)
    return out


@functools.cache
def generated(gen, seed, m):
    """(G, doc): the generator ``gen``'s m x m matrix with three modes from np.random.default_rng([seed, m]),
    and its document, each made once per process, so once per test session.

    Both are shared: read them, never change them.  G keeps the pole data it finds, so a test that counts
    work parses doc (``docio.parse_document``) for objects of its own.
    """
    G = globals()[gen](np.random.default_rng([seed, m]), m=m, nterms=3)
    return G, jsonable(document_of(G))
