"""Instance JSON format.

An instance file is a JSON object with keys ``m``, ``n``, ``A``
(row-major array of arrays), ``b``, ``c``, and optionally ``optimal``
and ``interior`` (each ``{"x": [...], "y": [...], "s": [...]}``),
``basis`` (index list) and ``partition`` (``{"B": [...], "N": [...]}``).
Doubles are serialized by Python's shortest round-trip representation,
so values survive a save/load cycle bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import errors
from .generator import GeneratedInstance
from .problem import Iterate, LinearProgram

__all__ = ["LoadedInstance", "load_instance", "save_instance"]


@dataclass(frozen=True, eq=False)
class LoadedInstance:
    lp: LinearProgram
    interior: Optional[Iterate] = None
    optimal: Optional[Iterate] = None
    partition: Optional[tuple] = None
    basis: Optional[tuple] = None


def _point_payload(it: Iterate) -> dict:
    return {"x": it.x.tolist(), "y": it.y.tolist(), "s": it.s.tolist()}


def _point_from(payload, name: str) -> Iterate:
    try:
        return Iterate(np.asarray(payload["x"], dtype=float),
                       np.asarray(payload["y"], dtype=float),
                       np.asarray(payload["s"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.InputError(f"malformed {name!r} block: {exc}") from exc


def save_instance(path, inst: GeneratedInstance) -> None:
    """Write a generated instance, its start and certificate fields included."""
    payload = {
        "m": inst.lp.m,
        "n": inst.lp.n,
        "A": inst.lp.A.tolist(),
        "b": inst.lp.b.tolist(),
        "c": inst.lp.c.tolist(),
        "interior": _point_payload(inst.start),
    }
    if inst.optimal is not None:
        payload["optimal"] = _point_payload(inst.optimal)
    if inst.partition is not None:
        payload["partition"] = {"B": list(inst.partition[0]), "N": list(inst.partition[1])}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_instance(path) -> LoadedInstance:
    """Read and check an instance file; raises InputError on bad data."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise errors.InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise errors.InputError(f"{path}: expected a JSON object at top level")
    try:
        A = np.asarray(payload["A"], dtype=float)
        b = np.asarray(payload["b"], dtype=float)
        c = np.asarray(payload["c"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.InputError(f"{path}: missing or malformed A/b/c: {exc}") from exc
    if A.ndim != 2:
        raise errors.InputError(f"{path}: A must be a 2-d array")
    if "m" in payload and payload["m"] != A.shape[0]:
        raise errors.InputError(f"{path}: declared m={payload['m']} but A has "
                                f"{A.shape[0]} rows")
    if "n" in payload and payload["n"] != A.shape[1]:
        raise errors.InputError(f"{path}: declared n={payload['n']} but A has "
                                f"{A.shape[1]} columns")
    lp = LinearProgram(A, b, c)
    interior = _point_from(payload["interior"], "interior") if "interior" in payload else None
    optimal = _point_from(payload["optimal"], "optimal") if "optimal" in payload else None
    partition = None
    if "partition" in payload:
        try:
            partition = (tuple(payload["partition"]["B"]),
                         tuple(payload["partition"]["N"]))
        except (KeyError, TypeError) as exc:
            raise errors.InputError(f"{path}: malformed partition block") from exc
    basis = payload.get("basis")
    if basis is not None:
        if not (isinstance(basis, list) and all(
                isinstance(j, int) and not isinstance(j, bool) for j in basis)):
            raise errors.InputError(f"{path}: 'basis' must be a list of integers")
        basis = tuple(basis)
    return LoadedInstance(lp=lp, interior=interior, optimal=optimal,
                          partition=partition, basis=basis)
