"""JSON serialization for matrices, bipartite operators, maps, states, and
Schmidt ensembles.

Matrix object: {"rows": R, "cols": C, "re": [[...]], "im": [[...]]},
row-major; "im" may be omitted for real matrices.  Bipartite operators add
"m" and "n"; map files are the Choi matrix object plus "in_dim"/"out_dim".
Ensembles: {"m": m, "n": n, "k": k, "terms": [{"weight": w, "re": [...],
"im": [...]}]} with flat amplitude lists; states are {"m", "n", "re", "im"}.

Loaders raise :class:`FormatError` naming the offending field; every loader
reads its fields through one helper, which also rejects input that is not a
JSON object.
"""

from __future__ import annotations

import json

import numpy as np

from .cones import SchmidtEnsemble
from .linalg import BipartiteOperator, PureState
from .maps import MapRepr

__all__ = [
    "FormatError",
    "load_matrix",
    "load_bipartite",
    "load_map",
    "load_ensemble",
    "load_state",
    "dump_matrix",
    "dump_bipartite",
    "dump_map",
    "dump_ensemble",
    "dump_state",
    "read_json",
    "write_json",
]


class FormatError(ValueError):
    """Malformed or non-finite input; the message names the offending field."""


def _need(obj: dict, field: str, kind=None):
    if not isinstance(obj, dict):
        raise FormatError("input must be a JSON object with field %r" % field)
    if field not in obj:
        raise FormatError("missing field %r" % field)
    val = obj[field]
    if kind is int and not (isinstance(val, int) and not isinstance(val, bool)):
        raise FormatError("field %r must be an integer" % field)
    return val


def _numbers(raw: list, field: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise FormatError("field %r must contain numbers" % field)
    if not np.all(np.isfinite(arr)):
        raise FormatError("field %r must contain finite numbers" % field)
    return arr


def _grid(obj: dict, field: str, rows: int, cols: int) -> np.ndarray:
    raw = _need(obj, field)
    if not isinstance(raw, list) or len(raw) != rows:
        raise FormatError("field %r must be a list of %d rows" % (field, rows))
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError("field %r rows must have %d entries" % (field, cols))
    return _numbers(raw, field)


def _dims(obj: dict, first: str, second: str) -> tuple[int, int]:
    """The positive integer fields ``first`` and ``second``."""
    a, b = _need(obj, first, int), _need(obj, second, int)
    if a < 1 or b < 1:
        raise FormatError("field %r/%r must be positive" % (first, second))
    return a, b


def load_matrix(obj: dict) -> np.ndarray:
    rows = _need(obj, "rows", int)
    cols = _need(obj, "cols", int)
    if rows < 1 or cols < 1:
        raise FormatError("field 'rows'/'cols' must be positive")
    re = _grid(obj, "re", rows, cols)
    if "im" in obj:
        im = _grid(obj, "im", rows, cols)
    else:
        im = np.zeros((rows, cols))
    return re + 1j * im


def load_bipartite(obj: dict) -> BipartiteOperator:
    mat = load_matrix(obj)
    m, n = _dims(obj, "m", "n")
    if mat.shape != (m * n, m * n):
        raise FormatError("field 'm'/'n': product %d does not match matrix size %d"
                          % (m * n, mat.shape[0]))
    return BipartiteOperator((m, n), mat)


def load_map(obj: dict) -> MapRepr:
    r, n = _dims(obj, "in_dim", "out_dim")
    if "m" in obj or "n" in obj:
        if obj.get("m", r) != r or obj.get("n", n) != n:
            raise FormatError("field 'm'/'n' must match 'in_dim'/'out_dim'")
    mat = load_matrix(obj)
    if mat.shape != (r * n, r * n):
        raise FormatError("field 'in_dim'/'out_dim': Choi matrix size %d expected %d"
                          % (mat.shape[0], r * n))
    return MapRepr(r, n, BipartiteOperator((r, n), mat))


def _vector(obj: dict, field: str, length: int) -> np.ndarray:
    raw = _need(obj, field)
    if not isinstance(raw, list) or len(raw) != length:
        raise FormatError("field %r must be a list of %d numbers" % (field, length))
    return _numbers(raw, field)


def _state(obj: dict, m: int, n: int) -> PureState:
    re = _vector(obj, "re", m * n)
    im = _vector(obj, "im", m * n) if "im" in obj else np.zeros(m * n)
    try:
        return PureState((m, n), re + 1j * im)
    except ValueError as exc:
        raise FormatError("field 're'/'im': %s" % exc)


def load_state(obj: dict) -> PureState:
    return _state(obj, *_dims(obj, "m", "n"))


def load_ensemble(obj: dict) -> SchmidtEnsemble:
    m, n = _dims(obj, "m", "n")
    k = _need(obj, "k", int)
    if k < 1:
        raise FormatError("field 'k' must be >= 1")
    terms = _need(obj, "terms")
    if not isinstance(terms, list) or not terms:
        raise FormatError("field 'terms' must be a nonempty list")
    built = []
    for idx, term in enumerate(terms):
        if not isinstance(term, dict):
            raise FormatError("field 'terms[%d]' must be an object" % idx)
        w = term.get("weight")
        if not isinstance(w, (int, float)) or isinstance(w, bool) \
                or not np.isfinite(w):
            raise FormatError("field 'terms[%d].weight' must be a number" % idx)
        try:
            state = _state(term, m, n)
        except FormatError as exc:
            raise FormatError("field 'terms[%d]': %s" % (idx, exc))
        built.append((float(w), state))
    try:
        return SchmidtEnsemble(terms=tuple(built), k=k)
    except ValueError as exc:
        raise FormatError("field 'terms': %s" % exc)


def _parts(a: np.ndarray) -> dict:
    """The "re" and "im" fields of a complex array, as nested lists."""
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def dump_matrix(mat: np.ndarray) -> dict:
    mat = np.asarray(mat)
    return {"rows": int(mat.shape[0]), "cols": int(mat.shape[1]), **_parts(mat)}


def dump_bipartite(op: BipartiteOperator) -> dict:
    obj = dump_matrix(op.mat)
    obj["m"], obj["n"] = int(op.m), int(op.n)
    return obj


def dump_map(phi) -> dict:
    obj = dump_bipartite(phi.choi)
    obj["in_dim"], obj["out_dim"] = int(phi.in_dim), int(phi.out_dim)
    return obj


def dump_state(state: PureState) -> dict:
    return {"m": int(state.m), "n": int(state.n), **_parts(state.amplitudes)}


def dump_ensemble(ens: SchmidtEnsemble) -> dict:
    m, n = ens.dims
    terms = [{"weight": float(w), **_parts(s.amplitudes)} for w, s in ens.terms]
    return {"m": int(m), "n": int(n), "k": int(ens.k), "terms": terms}


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FormatError("cannot open %r" % path)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON in %r: %s" % (path, exc))


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
