"""Tolerance and grid configuration shared by all classifiers.

Every verdict-producing function accepts an optional ``Config``; reports embed
the effective configuration so that verdicts are reproducible.  What the code
can compute is not a field: a point is at a pole of a rational matrix when a
denominator is zero within the rounding bound of its Horner value
(``ratmat.rm_eval_many``).
"""

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Config:
    # polynomial / rational arithmetic
    root_cluster: float = 1e-7      # poly.close: a is b iff |a-b| <= root_cluster*(1+|b|), b decided first
    coeff_rel: float = 1e-9         # coefficient comparisons after normalization

    # cone checks
    psd_rel: float = 1e-8           # non-strict: lambda_min >= -psd_rel*(1+||M||)
    strict_rel: float = 1e-9        # strict: lambda_min >= strict_rel*||M|| and ||M|| > 0

    # rank decisions
    rank_rel: float = 1e-8

    # frequency grids of ``nipr sweep`` (no verdict reads them)
    grid_points_ct: int = 2000      # log grid on [omega_min, omega_max]
    grid_points_dt: int = 4096      # uniform on the relevant arc
    omega_min: float = 1e-6
    omega_max: float = 1e6

    # classification policy
    require_symmetry: bool = True   # enforce symmetric transfer matrices for NI

    def with_overrides(self, **kw) -> "Config":
        return replace(self, **kw)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT = Config()
