"""On-disk formats: polynomial matrices, point sets, generator lists.

Polynomial matrix: JSON {"d": n, "entries": [[row...]...]} with each entry
an ascending list of integer coefficients, row-major.

Point set: one point per line, comma-separated coordinates, each either an
exact rational "p/q" (bare integers count as exact) or a decimal literal;
mixing exact and decimal coordinates in one file is an error.

Generator list: JSON array of square integer matrices (row-major arrays).

In both JSON formats, true and false are not integers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List

from .errors import FormatError
from .intmat import IntMat
from .polymat import IntPoly, PolyMat
from .torus import EXACT, FLOAT, TorusPointSet


def parse_polymat(text: str) -> PolyMat:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "d" not in obj or "entries" not in obj:
        raise FormatError('expected an object with keys "d" and "entries"')
    d = obj["d"]
    entries = obj["entries"]
    if type(d) is not int or d < 1:
        raise FormatError('"d" must be a positive integer')
    if not isinstance(entries, list) or len(entries) != d:
        raise FormatError(f'"entries" must be a {d}x{d} array')
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != d:
            raise FormatError(f'"entries" must be a {d}x{d} array')
        out = []
        for coeffs in row:
            if not isinstance(coeffs, list) or not all(
                type(c) is int for c in coeffs
            ):
                raise FormatError("each entry must be a list of integer coefficients")
            out.append(IntPoly(coeffs))
        rows.append(out)
    return PolyMat(rows)


def load_polymat(path: str) -> PolyMat:
    with open(path) as fh:
        return parse_polymat(fh.read())


def dump_polymat(A: PolyMat) -> str:
    entries = []
    for row in A.entries:
        out = []
        for e in row:
            coeffs = []
            for c in e.coeffs:
                if c.denominator != 1:
                    raise FormatError(
                        "polynomial matrix file format requires integer coefficients"
                    )
                coeffs.append(c.numerator)
            out.append(coeffs)
        entries.append(out)
    return json.dumps({"d": A.dim, "entries": entries})


def save_polymat(A: PolyMat, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dump_polymat(A) + "\n")


def _classify(token: str) -> str:
    if "/" in token:
        return EXACT
    if any(ch in token for ch in ".eE"):
        return FLOAT
    return "neutral"


def parse_points(text: str) -> TorusPointSet:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty point file")
    tokens = [[t.strip() for t in ln.split(",")] for ln in lines]
    dim = len(tokens[0])
    if any(len(row) != dim for row in tokens):
        raise FormatError("inconsistent point dimensions")
    kinds = {_classify(t) for row in tokens for t in row} - {"neutral"}
    if len(kinds) > 1:
        raise FormatError("mixing exact and float coordinates is not allowed")
    kind = kinds.pop() if kinds else EXACT
    try:
        if kind == EXACT:
            pts = [tuple(Fraction(t) for t in row) for row in tokens]
        else:
            pts = [tuple(float(t) for t in row) for row in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad coordinate: {exc}") from exc
    try:
        return TorusPointSet(dim, pts, kind)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_points(path: str) -> TorusPointSet:
    with open(path) as fh:
        return parse_points(fh.read())


def dump_points(Y: TorusPointSet) -> str:
    lines = []
    for p in Y.points:
        if Y.kind == EXACT:
            lines.append(",".join(f"{x.numerator}/{x.denominator}" for x in p))
        else:
            lines.append(",".join(repr(float(x)) for x in p))
    return "\n".join(lines) + "\n"


def parse_generators(text: str) -> List[IntMat]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, list) or not obj:
        raise FormatError("expected a nonempty JSON array of matrices")
    mats = []
    for m in obj:
        if (
            not isinstance(m, list)
            or not all(isinstance(row, list) for row in m)
            or not all(type(x) is int for row in m for x in row)
        ):
            raise FormatError("each generator must be a row-major integer matrix")
        try:
            mats.append(IntMat(m))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return mats


def load_generators(path: str) -> List[IntMat]:
    with open(path) as fh:
        return parse_generators(fh.read())
