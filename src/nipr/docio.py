"""System documents: a JSON description of a transfer matrix or realization."""

from __future__ import annotations

import json
import math

import numpy as np

from .poly import reduced_scalars, trim
from .ratmat import RationalMatrix
from .realization import StateSpace


def jsonable(x):
    """Recursively convert numpy/complex values into JSON-safe structures."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.complexfloating, complex)):
        if x.imag == 0:
            return float(x.real)
        return {"re": float(x.real), "im": float(x.imag)}
    return x


def document_of(obj, name="system", meta=None) -> dict:
    """Build a SystemDocument dict from a RationalMatrix or StateSpace."""
    doc = {"name": name, "meta": dict(meta or {})}
    if isinstance(obj, RationalMatrix):
        doc["domain"] = obj.domain
        doc["form"] = "tfm"
        doc["entries"] = [
            [{"num": [float(c) for c in e.num], "den": [float(c) for c in e.den]} for e in row]
            for row in obj.entries
        ]
    elif isinstance(obj, StateSpace):
        doc["domain"] = obj.domain
        doc["form"] = "ss"
        doc["A"] = obj.A.tolist()
        doc["B"] = obj.B.tolist()
        doc["C"] = obj.C.tolist()
        doc["D"] = obj.D.tolist()
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return doc


def parse_document(doc: dict):
    """Turn a SystemDocument dict into a RationalMatrix or StateSpace.

    A tfm cell below the diagonal equal (``==``) to its twin above shares the twin's scalar; the twin is read first.
    """
    domain = doc.get("domain")
    if domain not in ("ct", "dt"):
        raise ValueError(f"document domain must be 'ct' or 'dt', got {domain!r}")
    form = doc.get("form")
    if form == "tfm":
        entries = doc.get("entries")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ValueError(f"document entries must be a list of rows, got {entries!r}")
        pairs, slot = [], {}  # slot[i, j]: the index in pairs of entry (i, j)'s (num, den)
        for i, row in enumerate(entries):
            for j, cell in enumerate(row):
                try:  # a twin (j, i) came first and parsed; == on numpy arrays in a cell has no truth value
                    twin = j < i and i < len(entries[j]) and bool(cell == entries[j][i])
                except ValueError:
                    twin = False
                if not twin:
                    pairs.append(_cell(cell, i, j))
                slot[i, j] = slot[j, i] if twin else len(pairs) - 1
        scalars = reduced_scalars(pairs)
        return RationalMatrix([[scalars[slot[i, j]] for j in range(len(row))] for i, row in enumerate(entries)], domain)
    if form == "ss":
        try:
            A, B, C, D = (np.array(doc[k], dtype=float) for k in "ABCD")
        except KeyError as exc:
            raise ValueError(f"an 'ss' document needs {exc}") from exc
        except (TypeError, OverflowError) as exc:  # an integer beyond the float range overflows
            raise ValueError(f"'ss' document arrays must hold numbers: {exc}") from exc
        if not all(np.isfinite(M).all() for M in (A, B, C, D)):
            raise ValueError("'ss' document coefficients must be finite")
        return StateSpace(A, B, C, D, domain)
    raise ValueError(f"document form must be 'tfm' or 'ss', got {form!r}")


def _cell(cell, i, j):
    """(num, den) of entry (i, j) of a tfm document; a malformed cell raises ValueError naming it."""
    try:
        if not isinstance(cell, dict):
            raise ValueError("a cell must be an object with 'num' and 'den'")
        num = np.asarray(cell["num"], dtype=float)
        den = np.asarray(cell["den"], dtype=float)
        if num.ndim != 1 or den.ndim != 1:
            raise ValueError("'num' and 'den' must be lists of numbers")
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("coefficients must be finite")
        lead = abs(float(trim(den)[-1]))
        if lead == 0:
            raise ValueError("denominator is identically zero")
        # the largest |coefficient| / lead overflows if any quotient does, and a float / float gives inf, not a warning
        if math.isinf(max(map(abs, num.tolist() + den.tolist())) / lead):
            raise ValueError("coefficients over the leading denominator coefficient must be finite")
        return num, den
    except KeyError as exc:
        raise ValueError(f"entry ({i}, {j}): missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"entry ({i}, {j}): {exc}") from exc


def save_document(doc: dict, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=jsonable)
        fh.write("\n")


def load_document(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
