"""System documents: a JSON description of a transfer matrix or realization."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .poly import reduced_scalars
from .ratmat import RationalMatrix
from .realization import StateSpace


def jsonable(x):
    """Recursively convert numpy/complex values into JSON-safe structures."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist() if x.dtype.kind in "biuf" else jsonable(x.tolist())
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
        coeffs = den.tolist()
        lead = next((abs(c) for c in reversed(coeffs) if c), 0.0)  # the leading coefficient, found without trimming
        if lead == 0:
            raise ValueError("denominator is identically zero")
        # the largest |coefficient| / lead overflows if any quotient does, and a float / float gives inf, not a warning
        if math.isinf(max(map(abs, num.tolist() + coeffs)) / lead):
            raise ValueError("coefficients over the leading denominator coefficient must be finite")
        return num, den
    except KeyError as exc:
        raise ValueError(f"entry ({i}, {j}): missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"entry ({i}, {j}): {exc}") from exc


def _json_key(k):
    """The text of a dict key that is not a str, as json converts it."""
    if k is None or isinstance(k, (int, float)):
        return json_text(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def json_text(x, pad="\n"):
    """``json.dumps(x, indent=2, default=jsonable)``, nested at pad (a newline and x's indent), without json's
    indenting encoder, which is pure Python: scalars and their subclasses, and dict keys, as json writes
    them, and what json cannot write as ``jsonable`` converts it."""
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, int):
        return "null" if x is None else "true" if x is True else "false" if x is False else int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [inner + encode_basestring_ascii(k if isinstance(k, str) else _json_key(k)) + ": " + json_text(v, inner)
                 for k, v in x.items()]
        return "{" + ",".join(items) + pad + "}" if x else "{}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join([inner + json_text(v, inner) for v in x]) + pad + "]" if x else "[]"
    if (y := jsonable(x)) is x:
        raise ValueError(f"cannot write a {type(x).__name__} as JSON")
    return json_text(y, pad)


def save_document(doc: dict, path):
    with open(path, "w") as fh:
        fh.write(json_text(doc) + "\n")


def load_document(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
