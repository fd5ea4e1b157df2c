"""File formats: JSON problem/solution documents and CSV series/spectra.

JSON documents are validated against the schemas shipped in
``covext/schemas`` before any computation: a check compiled once per schema
accepts the valid ones, and jsonschema judges the rest and words the
error.  Complex numbers are stored as
[re, im] pairs (JSON has no complex type); matrices are stored flattened
row-major next to their dimension.  CSV files are comma-separated with
'.' decimals and LF line endings; a single header row is optional on
input and always written on output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .covdata import CovarianceSequence
from .errors import DataError
from .nevpick import InterpolationData
from .polyalg import SchurPolynomial


def _schema(name: str) -> dict:
    with resources.files("covext.schemas").joinpath(name).open("rb") as fh:
        return json.load(fh)


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


class _Foreign(Exception):
    """A value of a type json.load does not produce reached a check."""


_JSON_TYPES = frozenset({dict, list, str, int, float, bool, type(None)})


def _json_type(x) -> type:
    t = type(x)
    if t not in _JSON_TYPES:
        raise _Foreign
    return t


# draft 2020-12 on plain JSON: bool is no number, an integral float is an integer
_TYPES = {
    "object": lambda x: _json_type(x) is dict,
    "array": lambda x: _json_type(x) is list,
    "string": lambda x: _json_type(x) is str,
    "boolean": lambda x: _json_type(x) is bool,
    "number": lambda x: _json_type(x) in (int, float),
    "integer": lambda x: (t := _json_type(x)) is int or (t is float and x.is_integer()),
}


def _keyword_check(key: str, value, node: dict, sub):
    """The check of one schema keyword, which passes wherever draft 2020-12
    does not apply the keyword (``required`` on a list, say)."""
    if key == "type":
        if type(value) is not str or value not in _TYPES:
            raise ValueError(f"compiled type takes one type name: {value!r}")
        return _TYPES[value]
    if key == "required":
        return lambda x: _json_type(x) is not dict or all(k in x for k in value)
    if key == "properties":
        props = [(k, sub(s)) for k, s in value.items()]
        return lambda x: (_json_type(x) is not dict
                          or all(k not in x or check(x[k]) for k, check in props))
    if key == "items":
        item = sub(value)
        return lambda x: _json_type(x) is not list or all(map(item, x))
    if key == "minItems":
        return lambda x: _json_type(x) is not list or len(x) >= value
    if key == "maxItems":
        return lambda x: _json_type(x) is not list or len(x) <= value
    # jsonschema fails x < m and x <= m, so NaN passes both
    if key == "minimum":
        return lambda x: _json_type(x) not in (int, float) or not x < value
    if key == "exclusiveMinimum":
        return lambda x: _json_type(x) not in (int, float) or not x <= value
    if key in ("enum", "const"):
        allowed = value if key == "enum" else [value]
        if not all(type(v) is str for v in allowed):
            raise ValueError(f"compiled {key} takes strings only: {value!r}")
        allowed = frozenset(allowed)
        return lambda x: _json_type(x) is str and x in allowed
    if key == "allOf":
        checks = [sub(s) for s in value]
        return lambda x: all(check(x) for check in checks)
    if key == "oneOf":
        checks = [sub(s) for s in value]
        return lambda x: sum(check(x) for check in checks) == 1
    if key == "if":
        if_, then = sub(value), sub(node.get("then", {}))
        return lambda x: not if_(x) or then(x)
    raise ValueError(f"cannot compile schema keyword {key!r}")


_ANNOTATIONS = frozenset({"title", "description"})


def _compile_schema(schema: dict):
    """An exact acceptance predicate for ``schema``: True only for a
    document that draft 2020-12 accepts, and on plain JSON (dict, list,
    str, int, float, bool, None) exactly then.  A document holding any
    other type where a keyword looks is not accepted.  Only the keywords of
    :func:`_keyword_check`, ``$ref`` to ``#/$defs/...`` and annotations
    compile; any other keyword raises ValueError here."""
    defs = schema.get("$defs", {})

    def sub(node):
        if type(node) is not dict:
            raise ValueError(f"cannot compile schema {node!r}")
        checks = []
        for key, value in node.items():
            if key == "$ref":
                if not value.startswith("#/$defs/"):
                    raise ValueError(f"cannot compile $ref {value!r}")
                checks.append(sub(defs[value[len("#/$defs/"):]]))
            elif key not in _ANNOTATIONS and key != "then":  # "if" reads "then"
                checks.append(_keyword_check(key, value, node, sub))
        if len(checks) == 1:
            return checks[0]
        return lambda x: all(check(x) for check in checks)

    check = sub({k: v for k, v in schema.items() if k not in ("$schema", "$id", "$defs")})

    def accepts(doc) -> bool:
        try:
            return check(doc)
        except _Foreign:
            return False

    return accepts


@lru_cache(maxsize=None)
def _validator(schema_name: str):
    """(validator, accepts) of a shipped schema, built on first use and kept
    for the process.  Building them checks the schema against its
    metaschema (``jsonschema.SchemaError`` if that fails), once per schema,
    then compiles ``accepts`` (see :func:`_compile_schema`)."""
    schema = _schema(schema_name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema), _compile_schema(schema)


def _validate(doc: dict, schema_name: str, path) -> None:
    validator, accepts = _validator(schema_name)
    if accepts(doc):
        return
    # best_match picks the same error that jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise DataError(f"{path} violates {schema_name}: {error.message}") from error


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _complex_array(pairs, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError(f"{what} must be an array of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _pairs(z: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(z, dtype=complex)]


@dataclass(frozen=True, eq=False)
class CovarianceProblem:
    c: CovarianceSequence
    sigma: SchurPolynomial
    options: dict = field(default_factory=dict)

    kind = "covariance"


@dataclass(frozen=True, eq=False)
class InterpolationProblem:
    data: InterpolationData
    sigma: SchurPolynomial
    options: dict = field(default_factory=dict)

    kind = "interpolation"


def load_problem(path):
    """Parse and validate a problem file; returns CovarianceProblem or
    InterpolationProblem."""
    doc = _load_json(path)
    _validate(doc, "problem.schema.json", path)
    sigma_tail = np.asarray(doc["sigma"], dtype=float)
    sigma = SchurPolynomial(sigma_tail)
    options = doc.get("options", {})
    if doc["kind"] == "covariance":
        c_arr = np.asarray(doc["c"], dtype=float)
        if c_arr.size != sigma_tail.size + 1:
            raise DataError(
                f"length mismatch: c has {c_arr.size} entries, sigma needs "
                f"{sigma_tail.size + 1}"
            )
        return CovarianceProblem(
            c=CovarianceSequence.from_raw(c_arr), sigma=sigma, options=options
        )
    nodes = _complex_array(doc["nodes"], "nodes")
    values = _complex_array(doc["values"], "values")
    if nodes.size != values.size:
        raise DataError("nodes and values must have equal length")
    if nodes.size != sigma_tail.size + 1:
        raise DataError(
            f"length mismatch: {nodes.size} nodes need sigma of degree "
            f"{nodes.size - 1}"
        )
    return InterpolationProblem(
        data=InterpolationData(nodes=nodes, values=values),
        sigma=sigma,
        options=options,
    )


def dump_problem(doc: dict, path) -> None:
    _validate(doc, "problem.schema.json", path)
    _write_json(doc, path)


def _write_json(doc: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # one write: json.dump writes once per encoder chunk
        fh.write(json.dumps(doc, indent=2) + "\n")


def covariance_problem_doc(c_raw, sigma_tail, diagnostics=None, options=None) -> dict:
    doc = {
        "kind": "covariance",
        "c": [float(v) for v in np.asarray(c_raw, dtype=float)],
        "sigma": [float(v) for v in np.asarray(sigma_tail, dtype=float)],
    }
    if diagnostics:
        doc["diagnostics"] = diagnostics
    if options:
        doc["options"] = options
    return doc


def interpolation_problem_doc(nodes, values, sigma_tail, options=None) -> dict:
    doc = {
        "kind": "interpolation",
        "nodes": _pairs(nodes),
        "values": _pairs(values),
        "sigma": [float(v) for v in np.asarray(sigma_tail, dtype=float)],
    }
    if options:
        doc["options"] = options
    return doc


@dataclass(frozen=True, eq=False)
class SolutionRecord:
    """In-memory image of a solution file."""

    a: np.ndarray
    b: np.ndarray
    rho: float
    P: np.ndarray
    rank: int
    residual: float
    positive_real_min: float
    match: float
    match_kind: str  # "covariance_match" | "interp_residual"
    provenance: dict


def solution_doc(record: SolutionRecord) -> dict:
    n = record.a.size
    doc = {
        "a": [float(v) for v in record.a],
        "b": [float(v) for v in record.b],
        "rho": float(record.rho),
        "P": [float(v) for v in record.P.reshape(-1)],
        "n": int(n),
        "rank": int(record.rank),
        "residual": float(record.residual),
        record.match_kind: float(record.match),
        "positive_real_min": float(record.positive_real_min),
        "provenance": record.provenance,
    }
    return doc


def dump_solution(record: SolutionRecord, path) -> None:
    doc = solution_doc(record)
    _validate(doc, "solution.schema.json", path)
    _write_json(doc, path)


def load_solution(path) -> SolutionRecord:
    doc = _load_json(path)
    _validate(doc, "solution.schema.json", path)
    n = int(doc["n"])
    P = np.asarray(doc["P"], dtype=float)
    if P.size != n * n:
        raise DataError(f"P has {P.size} entries, expected {n * n}")
    a = np.asarray(doc["a"], dtype=float)
    b = np.asarray(doc["b"], dtype=float)
    if a.size != n or b.size != n:
        raise DataError("a and b must have n entries each")
    match_kind = "covariance_match" if "covariance_match" in doc else "interp_residual"
    return SolutionRecord(
        a=a,
        b=b,
        rho=float(doc["rho"]),
        P=P.reshape(n, n),
        rank=int(doc["rank"]),
        residual=float(doc["residual"]),
        positive_real_min=float(doc["positive_real_min"]),
        match=float(doc[match_kind]),
        match_kind=match_kind,
        provenance=doc["provenance"],
    )


def read_series_csv(path) -> np.ndarray:
    """One numeric column, optional single header row, blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [ln for ln in lines if ln]
    if not rows:
        raise DataError(f"{path} is empty")
    start = 0
    try:
        float(rows[0].split(",")[0])
    except ValueError:
        start = 1  # header row
    values = []
    for ln in rows[start:]:
        token = ln.split(",")[0].strip()
        try:
            values.append(float(token))
        except ValueError as exc:
            raise DataError(f"non-numeric value {token!r} in {path}") from exc
    if not values:
        raise DataError(f"{path} contains no numeric data")
    return np.asarray(values, dtype=float)


def write_spectrum_csv(path, rows: np.ndarray) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,spectral_density,re_f\n")
        for theta, phi, re_f in rows:
            fh.write(f"{float(theta)!r},{float(phi)!r},{float(re_f)!r}\n")