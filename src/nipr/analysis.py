"""The classifier core: one domain description, one shared analysis per matrix, one ``classify``.

The paper defines PR and NI systems by a domain of analyticity and a sign
condition on its boundary; continuous and discrete time differ only in that
domain, the open right half-plane or the outside of the unit disc.  A
``Domain`` holds everything the choice decides, as data: the boundary; the
condition ids; the normalization of a PR boundary residue; the real boundary
points (s = 0; z = 1, -1) where an NI pole may be double, with its rule
there, and where the strong strict classes take their slopes; the rule for a
pole at infinity and the decay order there (continuous time only); the
report's limits type; and the two real boundary points the loop test reads.
An ``Analysis`` computes the ingredients of the conditions (poles, a
realization, the boundary crossings and sign samples, residues, expansions)
lazily and at most once per matrix and ``Config``, so that classifiers run
on one matrix share their work, and writes the conditions once for both
domains (``pr_conditions``, ``ni_conditions``, ``pole_at_infinity``,
``strict_conditions``, ``decay``, ``slopes``), which ``classify`` lists for
all eleven classes.

A sign form is "pr" or "ni".  The "pr" form is the Hermitian part
F(x) + F(mirror(x))^T, whose boundary values must be PSD; the "ni" form is the
defect G(x) - G(mirror(x))^T, which times i must be PSD on the upper boundary.
The mirror map is s -> -s in continuous and z -> 1/z in discrete time.  On the
boundary mirror(x) = conj(x), and a real-rational G has G(conj x) = conj G(x),
so the forms there are 2 herm(G(x)) and 2 herm(i G(x)), and the samples and
``nipr sweep`` read them from G on the boundary itself.  A pole on the
boundary sits about 1e-16 off it once the coefficients are rounded, and near
it the rounded form keeps a spike that only an exact split removes.  So the
principal parts at the boundary poles (and the polynomial part of an improper
CT G) are split off by deflation (``ratmat.rm_split_boundary``), which puts
each such pole exactly on the boundary; the rest is read from its
coefficients.  The poles whose projections are one boundary point by
``poly.close`` split there together; the pole table of ``ratmat`` says
which entries have them.  Each split-off term is written once, as partial
fractions in the continuous-time frequency w (``Domain.expand``; w =
tan(t/2) in discrete time, ``Domain.to_freq``), and its share of the form
is one (w0, k, M) row of one table (``Analysis.shares``).  A term whose
share is zero within the Hermitian tolerance of the residue checks is
dropped, so a residue those checks accept adds exactly nothing.  No sign
form is built as a rational matrix.

The sign samples and ``nipr sweep`` sum that table at the frequencies of
their parameters.  The sign comes from the crossings: the rest is realized
once, the same table joins that realization (moved to continuous time in
discrete time), and ``boundary.boundary_det_zeros`` finds where the form is
singular on the boundary, and whether it is singular everywhere
(``Analysis.singular``).  The limits at infinity and at the endpoints read
expansions of all entries at once (``series``), and the norm tests take their
2-norms from one SVD per stack of matrices of one dtype (``boundary.norm2``).
The crossings and the boundary poles cut the upper half of the boundary
into intervals, and ``boundary.crossing_scan`` reads the form at one sample
in each (``Analysis.sign_scan``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import boundary
from .boundary import herm, is_nsd, is_pd, is_psd, norm2
from .config import DEFAULT, Config
from .errors import ImproperInput
from .poly import close, join, nearest
from .ratmat import (CT, DT, RationalMatrix, rm_infinity_expansion, rm_is_symmetric, rm_poles, rm_residues_at,
                     rm_split_boundary)
from .realization import minimal_realization
from .report import CircleLimits, ClassificationReport, Condition, StrictnessLimits, finish_report
from .series import decay_condition, matrix_laurent_inf, matrix_taylor

PREMUL = {"pr": 1.0, "ni": 1j}          # the boundary form is herm(PREMUL * R(point))
SIGN_ID = {"pr": "boundary-psd", "ni": "boundary-sign"}


@dataclass(frozen=True)
class Domain:
    """Everything that separates continuous from discrete time.

    The dict fields are keyed by sign form.  The sweep grids look the
    ``boundary`` functions up when they run, so that a wrapper put on one of
    those module attributes sees every call.
    ``expand(b, j)`` writes (x - b)**-j (x**j for b = inf in continuous time)
    at the boundary point x of frequency w = ``to_freq(t)`` as partial
    fractions in w, a list of (c, w0, k, a) for c a (w - w0)**-k (c a w**k
    when w0 = inf, c a when k = 0) with complex c and real a, so that a
    principal part's share of the form that is zero comes out exactly zero.
    """

    param: str                # witness key of a boundary parameter
    point: Callable           # boundary parameters -> boundary points
    freq: Callable            # boundary point -> its frequency w >= 0 on the upper half of the boundary
    to_freq: Callable         # boundary parameters -> their frequencies w (t in CT, tan(t/2) in DT, inf at t = pi)
    from_freq: Callable       # frequencies w -> boundary parameters on the upper half
    ends: dict                # form -> the boundary parameters that end the closed boundary the form is read on
    project: Callable         # boundary pole -> the boundary point it is taken to lie on
    expand: Callable          # (boundary point b, j) -> [(c, w0, k, a)]: (x - b)**-j = sum c a (w - w0)**-k
    on_boundary: Callable     # (pole, tol) -> the pole lies on the boundary
    outside: Callable         # pole off the boundary -> it lies in the unstable region
    grid: dict                # form -> builder of the ``nipr sweep`` parameter grid from a Config
    unstable_id: dict         # form -> id of the no-unstable-poles condition
    stable_id: str            # id of the strictly-stable-poles condition
    pole_id: dict             # form -> id of the condition on the boundary poles (off the endpoints for "ni")
    pr_residue: Callable      # (pole datum, pole) -> the residue a PR boundary pole must have Hermitian PSD
    pr_residue_key: str       # its witness key
    endpoints: dict           # real boundary point -> (id of its NI pole condition, id of its slope, slope key)
    endpoint_psd: Callable    # (endpoint, A1, A2) -> the two matrices an NI pole there must have PSD
    infinity: dict            # form -> (top degree, cone test) of a pole at infinity; no entry: G must be proper
    decay: dict               # form -> the order w**-order the form may vanish no faster than at infinity
    limits: type              # the report's limits
    loop_points: tuple        # (x0, x_inf): the real boundary points the loop stability test reads
    var: str                  # the name of the complex variable

    def inside(self, p, margin):
        """p lies strictly inside the stable region: neither ``outside`` nor ``on_boundary`` at the margin."""
        return not (self.outside(p) or self.on_boundary(p, margin))


def _ct_expand(b, j):
    """(i w - i w0)**-j = (-i)**j (w - w0)**-j, and (i w)**j at b = inf."""
    return [(1j ** j, np.inf, j, 1.0)] if b == np.inf else [((-1j) ** j, b.imag, j, 1.0)]


def _dt_expand(b, j):
    """On z = e^{it}, b/(z - b) = -(1 - i k)/2 with k = cot((arg b - t)/2), so (z - b)**-j = (-(1 - i k)/2)**j / b**j.

    With w = tan(t/2) and wb = tan(arg b / 2), k = -wb - (1 + wb**2)/(w - wb):
    -1/w at b = 1 and w at b = -1.  j > 1 only at the real b = 1, -1.
    """
    if j == 1 and b != -1.0 and b != 1.0:
        wb = np.tan(np.angle(b) / 2.0)
        return [(-0.5 / b, 0.0, 0, 1.0), (0.5j / b, 0.0, 0, -wb), (0.5j / b, wb, 1, -(1.0 + wb * wb))]
    return [(math.comb(j, ell) * (-0.5) ** j * (-1j) ** ell / b ** j,  # times k**ell
             np.inf if b == -1.0 and ell else 0.0, ell, 1.0 if b == -1.0 else (-1.0) ** ell) for ell in range(j + 1)]


CT_DOMAIN = Domain(
    param="omega",
    point=lambda t: 1j * t,
    freq=lambda p: abs(p.imag),
    to_freq=lambda t: t,
    from_freq=lambda w: w,
    ends={"pr": [0.0], "ni": []},
    project=lambda p: 1j * p.imag,
    expand=_ct_expand,
    on_boundary=lambda p, tol: abs(p.real) <= tol * (1.0 + abs(p)),
    outside=lambda p: p.real > 0,
    grid={"pr": lambda cfg: np.concatenate([[0.0], boundary.ct_grid(cfg)]),
          "ni": lambda cfg: boundary.ct_grid(cfg)},
    unstable_id={"pr": "no-rhp-poles", "ni": "no-rhp-poles"},
    stable_id="hurwitz-poles",
    pole_id={"pr": "imaginary-axis-poles", "ni": "imaginary-axis-poles"},
    pr_residue=lambda pd, p: pd.residue_A1,
    pr_residue_key="residue",
    endpoints={0.0: ("pole-at-origin", "slope-at-origin", "Q")},
    endpoint_psd=lambda z0, A1, A2: (A2, A1),
    infinity={"pr": (1, is_psd), "ni": (2, is_nsd)},
    decay={"pr": 2, "ni": 3},
    limits=StrictnessLimits,
    loop_points=(0.0, np.inf),
    var="s",
)

DT_DOMAIN = Domain(
    param="theta",
    point=lambda t: np.exp(1j * t),
    freq=lambda p: abs(p.imag) / (1.0 + p.real) if p.real > -1.0 else np.inf,  # tan(t/2) = sin t / (1 + cos t)
    to_freq=lambda t: np.where(t == np.pi, np.inf, np.tan(t / 2.0)),
    from_freq=lambda w: 2.0 * np.arctan(w),
    ends={"pr": [0.0, np.pi], "ni": []},
    project=lambda p: p / abs(p),
    expand=_dt_expand,
    on_boundary=lambda p, tol: abs(abs(p) - 1.0) <= tol * 2.0,
    outside=lambda p: abs(p) > 1.0,
    grid={"pr": lambda cfg: boundary.dt_grid_full(cfg), "ni": lambda cfg: boundary.dt_grid_half(cfg)},
    unstable_id={"pr": "analytic-outside-disc", "ni": "no-outside-poles"},
    stable_id="schur-poles",
    pole_id={"pr": "circle-poles", "ni": "arc-poles"},
    pr_residue=lambda pd, p: pd.residue_A1 / p,
    pr_residue_key="K0",
    endpoints={1.0: ("pole-at-plus-one", "slope-at-one", "Q0"),
               -1.0: ("pole-at-minus-one", "slope-at-minus-one", "Qpi")},
    endpoint_psd=lambda z0, A1, A2: (z0 * A2, A1 - z0 * A2),  # CT's (A2, A1) through z = (1 + s)/(1 - s) at z0 = 1
    infinity={},
    decay={},
    limits=CircleLimits,
    loop_points=(1.0, -1.0),
    var="z",
)

DOMAINS = {CT: CT_DOMAIN, DT: DT_DOMAIN}

# domain letter, strength ("" plain, "ws" weakly strict, "ss" strongly strict) and form; the CLI's order
CLASSES = ("cpr", "csspr", "cwspr", "cni", "cssni", "cwsni", "dpr", "dsspr", "dni", "dssni", "dwsni")


def hermitian_enough(M, rel=1e-7):
    """||M - M^H||_2 <= rel (1 + ||M||_2), both norms from one stacked SVD (``boundary.norm2``)."""
    M = np.asarray(M)
    skew, size = norm2(np.stack([M - M.conj().T, M]))
    return skew <= rel * (1.0 + size)


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
        """rm_split_boundary of G at its boundary poles and, for an improper CT G, at infinity.

        The projections b of the upper boundary poles ``join`` in pole order: each group is one boundary
        point, its first b, with the indexes in ``poles`` of the poles that scatter about it, split together.
        """
        def compute():
            _, upper, at = self.pole_split()
            bs = [self.domain.project(p) for p, _ in upper]
            points = [(bs[g[0]], [at[k] for k in g]) for g in join(bs, range(len(bs)), self.cfg.root_cluster)]
            infinity = self.infinity().poly_coeffs if self.G.domain == CT and not self.G.is_proper() else ()
            rest, parts = rm_split_boundary(self.G, points, infinity, self.cfg)
            return None if rest is self.G else rest, parts  # the memo must not keep G alive
        return self._once("parts", compute)

    def shares(self, form):
        """[(w0, k, M)]: the split-off terms' shares M (w - w0)**-k of the form that are not zero.

        The share is M w**k at w0 = inf and M at k = 0.  A part's coefficient A
        enters per term (c, w0, k, a) of ``Domain.expand`` as M = a herm(2
        PREMUL[form] c A), and is dropped where c A's share vanishes within
        ``hermitian_enough``, the tolerance of the residue checks.
        """
        def compute():
            premul = 2.0 * PREMUL[form]
            return [(w0, k, a * herm(premul * c * A)) for b, coeffs in self.boundary_parts()[1]
                    for j, A in enumerate(coeffs, 1)
                    for c, w0, k, a in self.domain.expand(b, j)
                    if not hermitian_enough(1j * PREMUL[form] * (c / abs(c)) * A)]
        return self._once(("shares", form), compute)

    def sign_terms(self, form):
        """(R, extra): the form at boundary parameters t is herm(2 PREMUL[form] R(point(t))) + extra(t).

        R is G without the parts of ``boundary_parts``, and extra(t) gives
        (the sum of their ``shares`` at w = ``Domain.to_freq(t)``, where it is
        finite), or extra is None when no share is left.
        """
        shares, to_freq = self.shares(form), self.domain.to_freq

        def extra(ts):
            w = to_freq(ts)
            with np.errstate(divide="ignore", invalid="ignore"):
                H = sum((w ** k if w0 == np.inf else (w - w0) ** -k)[:, None, None] * M for w0, k, M in shares)
            return H, np.isfinite(H).all(axis=(1, 2))
        rest = self.boundary_parts()[0]
        return self.G if rest is None else rest, extra if shares else None

    def realization(self):
        """A minimal realization of G without its ``boundary_parts``."""
        def compute():
            rest = self.boundary_parts()[0]
            return minimal_realization(self.G if rest is None else rest, self.cfg)
        return self._once("realization", compute)

    def singular(self, form):
        """det of the form vanishes everywhere: the flag of ``det_zeros``, from the crossing pencil's rank."""
        return self.det_zeros(form)[1]

    def det_zeros(self, form):
        """boundary_det_zeros of the form: one crossing search per form, on ``realization`` and the ``shares``."""
        return self._once(("det", form), lambda: boundary.boundary_det_zeros(
            self.realization(), form, self.cfg, self.shares(form)))

    def sign_scan(self, form):
        """crossing_scan of the form: (worst margin, its parameter, samples, crossing parameters).

        The boundary poles cut the boundary too: the form may change sign
        across a pole without becoming singular.
        """
        def compute():
            points, _ = self.det_zeros(form)
            d = self.domain
            crossings = [w for w in (d.freq(p) for p in points) if 0.0 < w < np.inf]
            poles = [d.freq(d.project(p)) for p, _ in self.pole_split()[1]]
            R, extra = self.sign_terms(form)
            worst, tworst, n = boundary.crossing_scan(R, crossings + poles, d.ends[form], d.from_freq, d.point,
                                                      2.0 * PREMUL[form], self.cfg, extra)
            return worst, tworst, n, sorted({float(t) for t in d.from_freq(np.array(crossings))})
        return self._once(("scan", form), compute)

    def pole_split(self):
        """(unstable poles, boundary poles in the closed upper half-plane) as (pole, multiplicity) lists, and
        the boundary poles' indexes in ``poles``."""
        def split():
            unstable, upper, at = [], [], []
            for n, (p, mult) in enumerate(self.poles()):
                if self.domain.on_boundary(p, self.cfg.root_cluster):
                    if p.imag >= 0.0:
                        upper.append((p, mult))
                        at.append(n)
                elif self.domain.outside(p):
                    unstable.append((p, mult))
            return unstable, upper, at
        return self._once("split", split)

    def laurent(self):
        """The first eight coefficients of G at infinity (``series.matrix_laurent_inf``; G proper)."""
        return self._once("laurent", lambda: matrix_laurent_inf(self.G, 8))

    def slope(self, z0):
        """(Q, vanishes) at the endpoint z0: Q = -(G'(z0) + G'(z0)^T) is the limit of i(G - G*) on the
        boundary over w (over sin theta in discrete time), from the Taylor expansion of G, and it
        exists when the defect G(z0) - G(z0)^T vanishes."""
        def compute():
            g = matrix_taylor(self.G, z0, 2)
            Q = -np.real(herm(g[1] + g[1].T))
            return Q, norm2(g[0] - g[0].T) <= 1e-7 * (1.0 + norm2(Q))  # complex and real: two SVDs
        return self._once(("slope", z0), compute)

    def strictly_stable(self):
        """Every pole is ``Domain.inside`` at root_cluster, off the boundary of ``pole_split``: in continuous
        time Re p < -root_cluster (1 + |p|), in discrete time |p| < 1 - 2 root_cluster."""
        return all(self.domain.inside(p, self.cfg.root_cluster) for p, _ in self.poles())

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
        unstable = self.pole_split()[0]
        return Condition(self.domain.unstable_id[form], not unstable, {"poles": unstable} if unstable else {})

    def sign_witness(self, form):
        """The witness of the sign read from the crossings: the worst sample and how it was found."""
        worst, tworst, n, params = self.sign_scan(form)
        return {"worst_margin": worst, self.domain.param: tworst, "path": "crossing", "crossings": params,
                "samples": n}

    def boundary_sign(self, form):
        """The form is PSD on the boundary within psd_rel: at one sample between each pair of crossings."""
        wit = self.sign_witness(form)
        return Condition(SIGN_ID[form], wit["worst_margin"] >= 0.0, wit)

    def pole_witness(self, p, mult, pole_data, end=None, residue=lambda pd, p: pd.normalized_K0, key="K0"):
        """None when the boundary pole p meets its rule, else a witness: off the endpoints, simple with
        a Hermitian PSD residue(datum, p); at the endpoint ``end``, at most double with Hermitian A1
        and A2 and both matrices of ``Domain.endpoint_psd(end, A1, A2)`` PSD."""
        if mult > (1 if end is None else 2):
            return {"pole": p, "multiplicity": mult} if end is None else {"multiplicity": mult}
        pd = self.residue(p)
        pole_data.append(pd)
        if end is None:
            K = residue(pd, p)
            return None if hermitian_enough(K) and is_psd(K, self.cfg.psd_rel) else {"pole": p, key: K}
        A1, A2 = np.real(pd.residue_A1), np.real(pd.quad_residue_A2)
        ok = hermitian_enough(pd.residue_A1) and hermitian_enough(pd.quad_residue_A2) and all(
            is_psd(M, self.cfg.psd_rel) for M in self.domain.endpoint_psd(end, A1, A2))
        return None if ok else {"A1": A1, "A2": A2}

    def pr_conditions(self, pole_data):
        """No unstable poles, the boundary sign, and the boundary poles simple with a Hermitian PSD
        ``Domain.pr_residue`` (up to the first failing pole)."""
        d = self.domain
        conds = [self.no_unstable_poles("pr"), self.boundary_sign("pr")]
        wit = next(filter(None, (self.pole_witness(p, mult, pole_data, None, d.pr_residue, d.pr_residue_key)
                                 for p, mult in self.pole_split()[1])), None)
        return conds + [Condition(d.pole_id["pr"], wit is None, wit or {})]

    def ni_conditions(self, pole_data):
        """Symmetry, no unstable poles, the boundary sign, and the boundary poles: one condition for the
        poles off the endpoints and one per endpoint (the nearest a pole is ``close`` to), each with the
        witness of its last failing pole."""
        d = self.domain
        conds = self.symmetry() + [self.no_unstable_poles("ni"), self.boundary_sign("ni")]
        wit = dict.fromkeys([None, *d.endpoints])
        for p, mult in self.pole_split()[1]:
            end = nearest(p, d.endpoints, self.cfg.root_cluster)
            wit[end] = self.pole_witness(p, mult, pole_data, end) or wit[end]
        ids = [d.pole_id["ni"]] + [pole_id for pole_id, _, _ in d.endpoints.values()]
        return conds + [Condition(cid, w is None, w or {}) for cid, w in zip(ids, wit.values())]

    def pole_at_infinity(self, form, class_id):
        """(conditions, limits) of the pole at infinity: in continuous time of at most the top degree of
        ``Domain.infinity[form]``, with coefficients that pass its cone test; in discrete time G is proper."""
        if form not in self.domain.infinity:
            self.require_proper(class_id)
            return [], {}
        top, cone = self.domain.infinity[form]
        coeffs = self.infinity().poly_coeffs
        limits = {"K_inf": coeffs[0] if len(coeffs) == 1 else None} if top == 1 else {}  # a PR pole is simple
        if not coeffs:
            return [Condition("pole-at-infinity", True, {})], limits
        if len(coeffs) > top:
            return [Condition("pole-at-infinity", False, {"degree": len(coeffs)})], limits
        ok = all(hermitian_enough(A) and cone(A, self.cfg.psd_rel) for A in coeffs)
        return [Condition("pole-at-infinity", ok, {"K_inf": coeffs[0]} if top == 1 else {"coeffs": coeffs})], limits

    def strict_conditions(self, form, class_id):
        """The weakly strict class: proper, symmetric for NI, strictly stable, strict boundary sign.

        The sign is strict when the form has no crossing on the boundary, its
        det is not identically zero, and its one sample (and each end of a
        closed boundary) is positive.  It is searched only for a strictly
        stable G: otherwise the class fails on its poles, and the report
        holds no sign condition that was not evaluated.
        """
        self.require_proper(class_id)
        conds = self.symmetry() if form == "ni" else []
        stable = self.strictly_stable()
        conds.append(Condition(self.domain.stable_id, stable, {} if stable else {"poles": self.poles()}))
        if not stable:
            return conds
        zeros, ident_zero = self.det_zeros(form)
        wit = self.sign_witness(form)
        wit.update(det_zeros=[] if ident_zero else zeros, identically_zero=ident_zero)
        conds.append(Condition("strict-boundary-sign", wit["worst_margin"] >= 0.0 and not zeros and not ident_zero,
                               wit))
        return conds

    def decay(self, form):
        """(conditions, limits): in continuous time the form's boundary value herm(PREMUL * R(i w))
        vanishes no faster than w**-order (order ``Domain.decay[form]``), in every eigenvalue direction
        positively, and limits holds its sigma0 margin; discrete time has no such condition.

        G(s) = sum_k c_k s**-k at infinity (G proper, ``laurent``), so G(-s)^T has the coefficients
        (-1)**k c_k^T and R the coefficients c_k +- (-1)**k c_k^T.
        """
        order = self.domain.decay.get(form)
        if order is None:
            return [], {}
        sign = 1.0 if form == "pr" else -1.0
        c = self.laurent()  # (8, m, m): the eight coefficient transforms are one stack, with one SVD for their norms
        k = np.arange(len(c)).reshape(-1, 1, 1)
        unit = np.array([PREMUL[form] * (1j) ** -j for j in range(len(c))]).reshape(-1, 1, 1)
        coeffs = np.real(herm(unit * (c + sign * (-1.0) ** k * c.swapaxes(1, 2)).astype(complex)))
        scale = 1.0 + norm2(coeffs).max()
        ok, margin, worst_order = decay_condition(coeffs, order, 1e-11 * scale)
        wit = {"sigma0_margin": margin, "worst_order": worst_order}
        if order == 2 and not ok and worst_order > 2:
            wit["omega2_limit"] = 0.0
        return [Condition("decay-at-infinity", ok, wit)], {"sigma0_margin": margin}

    def slopes(self):
        """(conditions, limits): at each endpoint the defect vanishes and the ``slope`` Q is positive
        definite; limits maps each slope's witness key to its Q.  As in ``strict_conditions``, a G that
        is not strictly stable fails them all: a boundary pole prevents the limits."""
        ends = self.domain.endpoints
        if not self.strictly_stable():
            note = "boundary pole prevents the limit"
            return [Condition(cid, False, {"note": note}) for _, cid, _ in ends.values()], {}
        conds, limits = [], {}
        for z0, (_, cid, key) in ends.items():
            Q, vanishes = self.slope(z0)
            conds.append(Condition(cid, vanishes and is_pd(Q, self.cfg.strict_rel), {key: Q}))
            limits[key] = Q
        return conds, limits

    def full_normal_rank(self, form):
        """det of the boundary form is not identically zero (``singular``)."""
        ident_zero = self.singular(form)
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


def classify(G: RationalMatrix, class_id: str, cfg: Config = DEFAULT) -> ClassificationReport:
    """The report of G in the class ``class_id`` of ``CLASSES``, whose domain letter must be G's.

    A plain class has its form's conditions and those of the pole at infinity; a weakly strict one the
    ``strict_conditions``; a strongly strict one adds the decay at infinity, the endpoint slopes for
    "ni", and full normal rank.  The limits on the way make the report's ``Domain.limits``, if any.
    """
    if class_id not in CLASSES or class_id[0] != G.domain[0]:
        raise ValueError(f"no class {class_id!r} for a {G.domain} matrix")
    strength, form = class_id[1:-2], class_id[-2:]
    a = analysis_of(G, cfg)
    pole_data = []
    if not strength:
        at_inf, limits = a.pole_at_infinity(form, class_id)
        conds = (a.pr_conditions if form == "pr" else a.ni_conditions)(pole_data) + at_inf
    else:
        conds, limits = a.strict_conditions(form, class_id), {}
        if strength == "ss":
            decay, limits = a.decay(form)
            slopes, slope_limits = a.slopes() if form == "ni" else ([], {})
            conds += [*decay, *slopes, a.full_normal_rank(form)]
            limits.update(slope_limits)
    return finish_report(class_id, conds, cfg, limits=a.domain.limits(**limits) if limits else None,
                         pole_data=pole_data)


def pole_at(G: RationalMatrix, points, cfg: Config = DEFAULT):
    """The first pole of G ``close`` to one of the points at root_cluster, or None."""
    return next((p for p, _ in analysis_of(G, cfg).poles() if any(close(p, x, cfg.root_cluster) for x in points)), None)
