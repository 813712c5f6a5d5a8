"""Verdict containers shared by the classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Condition:
    """One checked condition with a pass flag and a concrete witness."""

    cid: str
    passed: bool
    witness: dict = field(default_factory=dict)


@dataclass
class StrictnessLimits:
    """Endpoint limits backing strict verdicts (continuous time)."""

    Q: np.ndarray | None = None            # lim (1/w) i[G - G*] as w -> 0+
    sigma0_margin: float | None = None     # liminf of the scaled boundary defect
    K_inf: np.ndarray | None = None        # coefficient of s at infinity


@dataclass
class CircleLimits:
    """Endpoint limits at z = 1 and z = -1 (discrete time)."""

    Q0: np.ndarray | None = None
    Qpi: np.ndarray | None = None


@dataclass
class ClassificationReport:
    """Verdict for one class with per-condition evidence."""

    class_id: str
    verdict: bool
    conditions: list = field(default_factory=list)
    limits: object = None                  # StrictnessLimits or CircleLimits
    pole_data: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def condition(self, cid):
        for c in self.conditions:
            if c.cid == cid:
                return c
        return None

    def failed(self):
        return [c for c in self.conditions if not c.passed]


def finish_report(class_id, conditions, cfg, limits=None, pole_data=None):
    """Assemble a report; the verdict is the AND of the condition passes."""
    return ClassificationReport(
        class_id=class_id,
        verdict=all(c.passed for c in conditions),
        conditions=list(conditions),
        limits=limits,
        pole_data=list(pole_data or []),
        config=cfg.as_dict(),
    )
