"""The classifier core: one domain description and one shared analysis per matrix.

The paper defines PR and NI systems by a domain of analyticity and a sign
condition on its boundary; continuous and discrete time differ only in that
domain, the open right half-plane or the outside of the unit disc.  A
``Domain`` holds everything the choice decides.  An ``Analysis`` computes the
ingredients of the conditions (poles, boundary grid scans, a state-space
realization and the boundary crossings, residues) lazily and at most once per
matrix and ``Config``, so that classifiers run on one matrix share their
work, and builds the conditions the classifiers of both domains share.

A sign form is "pr" or "ni".  The "pr" form is the Hermitian part
F(x) + F(mirror(x))^T, whose boundary values must be PSD; the "ni" form is the
defect G(x) - G(mirror(x))^T, which times i must be PSD on the upper boundary.
The mirror map is s -> -s in continuous and z -> 1/z in discrete time.  On the
boundary mirror(x) = conj(x), and a real-rational G has G(conj x) = conj G(x),
so the forms there are 2 herm(G(x)) and 2 herm(i G(x)), and the scans and
``nipr sweep`` read them from G on the boundary itself.  A pole on the
boundary sits about 1e-16 off it once the coefficients are rounded, and near
it the rounded form keeps a spike that only an exact split removes.  So the
principal parts at the boundary poles (and the polynomial part of an improper
CT G) are split off by deflation (``ratmat.rm_split_boundary``), which puts
each such pole exactly on the boundary; the rest is read from its
coefficients, and the share of each split-off term in the form is added in
closed form (``Domain.expand``).  A term whose share is zero within the
Hermitian tolerance of the residue checks is dropped, so a residue those
checks accept adds exactly nothing.  No sign form is built as a rational
matrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import boundary
from .boundary import herm, is_psd
from .config import DEFAULT, Config
from .errors import ImproperInput
from .ratmat import (CT, DT, RationalMatrix, rm_infinity_expansion, rm_is_symmetric, rm_poles, rm_residues_at,
                     rm_split_boundary)
from .realization import cayley_ss, minimal_realization
from .report import Condition

PREMUL = {"pr": 1.0, "ni": 1j}          # the boundary form is herm(PREMUL * R(point))
SIGN_ID = {"pr": "boundary-psd", "ni": "boundary-sign"}


@dataclass(frozen=True)
class Domain:
    """Everything that separates continuous from discrete time.

    The dict fields are keyed by sign form.  The grids and ``to_ct`` look the
    ``boundary`` and ``realization`` functions up when they run, so that a
    wrapper put on one of those module attributes sees every call.
    ``expand(b, j)`` writes (x - b)**-j (x**j for b = inf in continuous time)
    at the boundary point x of parameter t as a sum of complex constants c
    times real functions r(t), so that a principal part's share of the form
    that is zero comes out exactly zero.
    """

    param: str                # witness key of a boundary parameter
    point: Callable           # boundary parameters -> boundary points
    project: Callable         # boundary pole -> the boundary point it is taken to lie on
    expand: Callable          # (boundary point b, j) -> [(r, c)]: (x - b)**-j = sum c * r(t)
    on_boundary: Callable     # (pole, tol) -> the pole lies on the boundary
    outside: Callable         # pole off the boundary -> it lies in the unstable region
    inside: Callable          # (pole, margin) -> it lies in the stable region, margin away
    grid: dict                # form -> builder of the boundary parameter grid from a Config
    to_ct: Callable           # realization -> a continuous-time realization of the same boundary forms
    unstable_id: dict         # form -> id of the no-unstable-poles condition
    stable_id: str            # id of the strictly-stable-poles condition


def _ct_expand(b, j):
    """(i t - i w0)**-j = (-i)**j (t - w0)**-j, and (i t)**j at b = inf."""
    if b == np.inf:
        return [(lambda t: t ** j, 1j ** j)]
    return [(lambda t: (t - b.imag) ** -j, (-1j) ** j)]


def _dt_expand(b, j):
    """On z = e^{it}, b/(z - b) = -(1 - i k)/2 with k = cot((arg b - t)/2), so (z - b)**-j = (-(1 - i k)/2)**j / b**j."""
    def k(t):
        return 1.0 / np.tan((np.angle(b) - t) / 2.0)
    if j == 1:
        return [(np.ones_like, -0.5 / b), (k, 0.5j / b)]
    return [(np.ones_like, 0.25 / b ** 2), (lambda t: k(t) ** 2, -0.25 / b ** 2), (k, -0.5j / b ** 2)]


CT_DOMAIN = Domain(
    param="omega",
    point=lambda t: 1j * t,
    project=lambda p: 1j * p.imag,
    expand=_ct_expand,
    on_boundary=lambda p, tol: abs(p.real) <= tol * (1.0 + abs(p)),
    outside=lambda p: p.real > 0,
    inside=lambda p, margin: p.real < -margin * (1.0 + abs(p)),
    grid={"pr": lambda cfg: np.concatenate([[0.0], boundary.ct_grid(cfg)]),
          "ni": lambda cfg: boundary.ct_grid(cfg)},
    to_ct=lambda ss: ss,
    unstable_id={"pr": "no-rhp-poles", "ni": "no-rhp-poles"},
    stable_id="hurwitz-poles",
)

DT_DOMAIN = Domain(
    param="theta",
    point=lambda t: np.exp(1j * t),
    project=lambda p: p / abs(p),
    expand=_dt_expand,
    on_boundary=lambda p, tol: abs(abs(p) - 1.0) <= tol * 2.0,
    outside=lambda p: abs(p) > 1.0,
    inside=lambda p, margin: abs(p) < 1.0 - margin,
    grid={"pr": lambda cfg: boundary.dt_grid_full(cfg), "ni": lambda cfg: boundary.dt_grid_half(cfg)},
    to_ct=lambda ss: cayley_ss(ss),
    unstable_id={"pr": "analytic-outside-disc", "ni": "no-outside-poles"},
    stable_id="schur-poles",
)

DOMAINS = {CT: CT_DOMAIN, DT: DT_DOMAIN}


def hermitian_enough(M, rel=1e-7):
    M = np.asarray(M)
    return np.linalg.norm(M - M.conj().T, 2) <= rel * (1.0 + np.linalg.norm(M, 2))


def hermitian_psd(M, cfg: Config):
    return hermitian_enough(M) and is_psd(M, cfg.psd_rel)


def near(p, points, cfg: Config):
    """The first of the points within 2 * root_cluster of p, or None."""
    for z0 in points:
        if abs(p - z0) <= cfg.root_cluster * 2.0:
            return z0
    return None


class Analysis:
    """One matrix under one Config: each ingredient computed once, and the conditions built from them."""

    def __init__(self, G: RationalMatrix, cfg: Config):
        self._G = weakref.ref(G)  # the cache holding this analysis must not keep G alive
        self.cfg = cfg
        self.domain = DOMAINS[G.domain]
        self._memo = {}

    @property
    def G(self) -> RationalMatrix:
        return self._G()

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- ingredients ---------------------------------------------------------
    def poles(self):
        return self._once("poles", lambda: rm_poles(self.G, self.cfg))

    def infinity(self):
        return self._once("infinity", lambda: rm_infinity_expansion(self.G))

    def residue(self, p):
        return self._once(("residue", complex(p)), lambda: rm_residues_at(self.G, p, self.cfg))

    def boundary_parts(self):
        """rm_split_boundary of G at its boundary poles and, for an improper CT G, at infinity."""
        def compute():
            points = []  # poles that scatter about one boundary point split there together
            for p, _ in self.pole_split()[1]:
                b = self.domain.project(p)
                if all(abs(b - c) > self.cfg.root_cluster * (1.0 + abs(b)) for c in points):
                    points.append(b)
            improper = self.G.domain == CT and not self.G.is_proper()
            rest, parts = rm_split_boundary(self.G, points, self.infinity().poly_coeffs if improper else (), self.cfg)
            return None if rest is self.G else rest, parts  # the memo must not keep G alive
        return self._once("parts", compute)

    def sign_terms(self, form):
        """(R, extra): the form at boundary parameters t is herm(2 PREMUL[form] R(point(t))) + extra(t).

        R is G without the parts of ``boundary_parts``, and extra(t) gives
        (their share of the form, where it is finite), or extra is None when
        that share is zero.  A part's coefficient enters per term c r(t) of
        ``Domain.expand`` and is dropped where its share herm(2 PREMUL c A)
        vanishes within ``hermitian_enough``, the tolerance of the residue checks.
        """
        def compute():
            premul = 2.0 * PREMUL[form]
            terms = [(r, herm(premul * c * A)) for b, coeffs in self.boundary_parts()[1]
                     for j, A in enumerate(coeffs, 1)
                     for r, c in self.domain.expand(b, j)
                     if not hermitian_enough(1j * PREMUL[form] * (c / abs(c)) * A)]
            if not terms:
                return None

            def extra(ts):
                with np.errstate(divide="ignore", invalid="ignore"):
                    H = sum(r(ts)[:, None, None] * M for r, M in terms)
                return H, np.isfinite(H).all(axis=(1, 2))
            return extra
        rest = self.boundary_parts()[0]
        return self.G if rest is None else rest, self._once(("terms", form), compute)

    def scan(self, form):
        """grid_psd_scan of the form on its boundary grid, from ``sign_terms``: (worst margin, its parameter, points)."""
        def compute():
            R, extra = self.sign_terms(form)
            return boundary.grid_psd_scan(R, self.domain.grid[form](self.cfg), self.domain.point,
                                          2.0 * PREMUL[form], self.cfg, extra)
        return self._once(("scan", form), compute)

    def realization(self):
        """A minimal realization of G, moved to continuous time by the domain's ``to_ct``."""
        return self._once("realization", lambda: self.domain.to_ct(minimal_realization(self.G, self.cfg)))

    def det_zeros(self, form):
        """boundary_det_zeros of the form, realizing G only when it is strictly stable (else the class fails)."""
        def compute():
            ss = self.realization() if self.strictly_stable(self.cfg.root_cluster) else None
            return boundary.boundary_det_zeros(self.G, ss, form, self.cfg)
        return self._once(("det", form), compute)

    def pole_split(self):
        """(unstable poles, boundary poles in the closed upper half-plane) as (pole, multiplicity) lists."""
        def split():
            tol = self.cfg.root_cluster
            unstable, upper = [], []
            for p, mult in self.poles():
                if self.domain.on_boundary(p, tol):
                    if p.imag >= -tol * (1.0 + abs(p)):
                        upper.append((p, mult))
                elif self.domain.outside(p):
                    unstable.append((p, mult))
            return unstable, upper
        return self._once("split", split)

    def strictly_stable(self, margin):
        return all(self.domain.inside(p, margin) for p, _ in self.poles())

    # -- conditions ----------------------------------------------------------
    def require_proper(self, class_id):
        if not self.G.is_proper():
            raise ImproperInput(f"{class_id} classification requires a proper matrix")

    def symmetry(self):
        """The symmetry condition of the NI classes, as a list: empty when the config waives it."""
        if not self.cfg.require_symmetry:
            return []
        ok = self._once("symmetric", lambda: rm_is_symmetric(self.G, self.cfg.coeff_rel))
        return [Condition("symmetry", ok, {} if ok else {"note": "G != G^T as rational identity"})]

    def no_unstable_poles(self, form):
        unstable, _ = self.pole_split()
        return Condition(self.domain.unstable_id[form], not unstable, {"poles": unstable} if unstable else {})

    def boundary_sign(self, form):
        """The form is PSD on the boundary grid, within psd_rel."""
        worst, tworst, _n = self.scan(form)
        return Condition(SIGN_ID[form], worst >= 0.0, {"worst_margin": worst, self.domain.param: tworst})

    def simple_pole_witness(self, p, mult, pole_data, residue=lambda pd, p: pd.normalized_K0, key="K0"):
        """None when the boundary pole p is simple with a Hermitian PSD residue(datum, p), else a witness."""
        if mult > 1:
            return {"pole": p, "multiplicity": mult}
        pd = self.residue(p)
        pole_data.append(pd)
        K = residue(pd, p)
        return None if hermitian_psd(K, self.cfg) else {"pole": p, key: K}

    def pr_boundary_poles(self, cid, residue, key, pole_data):
        """PR boundary poles: simple with a Hermitian PSD residue(datum, p); stops at the first failure."""
        for p, mult in self.pole_split()[1]:
            wit = self.simple_pole_witness(p, mult, pole_data, residue, key)
            if wit:
                return Condition(cid, False, wit)
        return Condition(cid, True, {})

    def strict_conditions(self, form, class_id):
        """The weakly strict class: proper, symmetric for NI, strictly stable, strict boundary sign.

        The sign is strict when the grid scan passes and the boundary form is
        nowhere singular on the boundary: the crossing test finds no point
        and det R is not identically zero.
        """
        self.require_proper(class_id)
        conds = self.symmetry() if form == "ni" else []
        stable = self.strictly_stable(self.cfg.root_cluster)
        conds.append(Condition(self.domain.stable_id, stable, {} if stable else {"poles": self.poles()}))
        worst, tworst, _n = self.scan(form)
        zeros, ident_zero = self.det_zeros(form)
        wit = {"worst_margin": worst, self.domain.param: tworst, "det_zeros": zeros,
               "identically_zero": ident_zero}
        conds.append(Condition("strict-boundary-sign", worst >= 0.0 and not zeros and not ident_zero, wit))
        return conds

    def full_normal_rank(self, form):
        """det of the boundary matrix is not identically zero."""
        _zeros, ident_zero = self.det_zeros(form)
        return Condition("full-normal-rank", not ident_zero, {"identically_zero": ident_zero})


_ANALYSES = weakref.WeakKeyDictionary()


def analysis_of(G: RationalMatrix, cfg: Config = DEFAULT) -> Analysis:
    """The shared analysis of G under cfg, made on first use.

    Analyses are kept per matrix object, never per matrix content, and die
    with it: a freshly built or parsed matrix always starts cold.  Reports of
    one matrix share the analysis's values (pole lists, residue data), which
    callers must not mutate.
    """
    per_cfg = _ANALYSES.setdefault(G, {})
    if cfg not in per_cfg:
        per_cfg[cfg] = Analysis(G, cfg)
    return per_cfg[cfg]


def pole_at(G: RationalMatrix, points, cfg: Config = DEFAULT):
    """The first pole of G within 2 * root_cluster of one of the points, or None."""
    for p, _ in analysis_of(G, cfg).poles():
        if near(p, points, cfg) is not None:
            return p
    return None
