"""Curve files, report serialization and deterministic formatting.

Curve files are JSON with either an analytic block (three expression
strings plus a domain) or a sampled block (parameter and point arrays).
All reals are rendered with 17 significant digits so that repeated runs
produce byte-identical artifacts.  A file is read once: its bytes are
decoded as UTF-8 JSON text and, for a command's report, hashed
(``read_inputs``), so the recorded sha256 is that of the bytes parsed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import expr as ex
from .curves import AnalyticCurve, Curve, JetBackedCurve, SampledCurve, _base_block
from .errors import BertrandKitError, ParameterError

# Schema 2 stores a generated Bertrand curve, and a mate built on one, in
# the seed's parameter u; schema 1 stored them in the curve's arc length.
SCHEMA_VERSION = 2
TOOL_VERSION = "bertrand-kit 1.0.0"

# A curve rebuilt from file metadata replaces the stored samples only if
# its nodes match them to this tolerance, relative to the largest stored
# magnitude (at least 1).  Untouched generate/mate files match exactly.
REBUILD_TOL = 1e-12


class CurveFileError(BertrandKitError):
    """Malformed curve file."""


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal rendering of a real."""
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Minimal deterministic JSON text; floats go through ``fmt``."""
    # a plain float first: curve files and reports are mostly floats
    if type(obj) is float:
        return fmt(obj) if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(dumps, obj.tolist() if isinstance(obj, np.ndarray) else obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# curve files


def curve_to_dict(curve: Curve) -> dict:
    d = {"schema_version": SCHEMA_VERSION, "label": curve.label or ""}
    if isinstance(curve, AnalyticCurve):
        d["type"] = "analytic"
        d["analytic"] = {
            "x": ex.to_text(curve.x),
            "y": ex.to_text(curve.y),
            "z": ex.to_text(curve.z),
            "domain": [curve.domain[0], curve.domain[1]],
        }
    elif isinstance(curve, (SampledCurve, JetBackedCurve)):
        d["type"] = "sampled"
        d["sampled"] = {"t": curve.params.tolist(), "points": curve.points.tolist()}
        meta = getattr(curve, "metadata", None)
        if meta:
            d["metadata"] = {
                k: v for k, v in meta.items() if isinstance(v, (str, int, float))
            }
    else:
        raise CurveFileError(f"cannot serialize curve type {type(curve).__name__}")
    return d


def _rebuild_from_metadata(meta, nodes, loaded_base=None):
    """Exact jet-backed curve from a recorded recipe, or None.

    Sampled files written by the generator, and mates that record their
    base's ``_base_block`` (of a generated or an analytic base), carry
    enough metadata to rebuild the curve: a round trip keeps exact
    differentiation instead of falling back to finite-difference
    stencils.  A mate whose block, coerced as for a rebuild, is
    ``_base_block(loaded_base)`` is rebuilt on that curve, so the pair
    shares one base.  A recipe that cannot be rebuilt or evaluated at its
    nodes, whose ``n`` is not ``nodes`` (the stored sample count less
    one), or whose ``base_n`` is not a positive integer gives None.  The
    caller checks the rebuilt nodes against the stored samples.
    """
    if not isinstance(meta, dict) or meta.get("n") != nodes:
        return None
    from . import bertrand as bt

    def generated(n):
        return bt.generate_bertrand_curve(bt.sphere_preset(meta["seed_label"]),
                                          float(meta["a"]), float(meta["omega"]), n=n)

    try:
        gen = meta.get("generator")
        if gen == "bertrand":
            return generated(nodes)
        kind = meta.get("base_generator") if gen == "normal-offset" else None
        if kind == "bertrand":
            # a generator size is a positive JSON integer (not a bool)
            if type(meta.get("base_n")) is not int or meta["base_n"] < 1:
                return None
            recorded = {"a": float(meta["a"]), "omega": float(meta["omega"]),
                        "seed_label": meta.get("seed_label"), "base_n": meta["base_n"]}
        elif kind == "analytic":
            recorded = {**{f"base_{c}": str(meta[f"base_{c}"]) for c in "xyz"},
                        "base_lo": float(meta["base_lo"]), "base_hi": float(meta["base_hi"])}
        else:
            return None
        if {"base_generator": kind, **recorded} == _base_block(loaded_base):
            base = loaded_base
        elif kind == "bertrand":
            base = generated(meta["base_n"])
        else:
            base = AnalyticCurve(recorded["base_x"], recorded["base_y"], recorded["base_z"],
                                 (recorded["base_lo"], recorded["base_hi"]))
        mate = bt.construct_mate(base, float(meta["lambda"]), n=nodes)
        # the node table is computed at its first read: read it here,
        # where an evaluation error means no rebuild
        mate.points
        return mate
    except (KeyError, TypeError, ValueError, BertrandKitError):
        return None


def _matches_stored(rebuilt, stored) -> bool:
    if rebuilt.shape != stored.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(stored))))
    return bool(np.all(np.abs(rebuilt - stored) <= REBUILD_TOL * scale))


def curve_from_dict(d: dict) -> Curve:
    return _curve_from_dict(d, None)


def _curve_from_dict(d, loaded_base) -> Curve:
    if not isinstance(d, dict) or "type" not in d:
        raise CurveFileError("curve file must be an object with a 'type' field")
    label = d.get("label", "")
    kind = d["type"]
    if kind == "analytic":
        block = d.get("analytic")
        if not block:
            raise CurveFileError("analytic curve file missing 'analytic' block")
        try:
            dom, xyz = block["domain"], [block[c] for c in "xyz"]
            if not all(isinstance(c, str) for c in xyz):
                raise CurveFileError("bad analytic block: x, y and z must be strings")
            return AnalyticCurve(*xyz, (float(dom[0]), float(dom[1])), label=label)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise CurveFileError(f"bad analytic block: {e}")
    if kind == "sampled":
        block = d.get("sampled")
        if not block:
            raise CurveFileError("sampled curve file missing 'sampled' block")
        try:
            t = np.asarray(block["t"], dtype=float)
            pts = np.asarray(block["points"], dtype=float)
        except (KeyError, TypeError, ValueError) as e:
            raise CurveFileError(f"bad sampled block: {e}")
        if pts.ndim != 2 or pts.shape != (len(t), 3):
            raise CurveFileError("sampled arrays must be t:(n,), points:(n,3)")
        _refuse_arc_length_file(d)
        rebuilt = _rebuild_from_metadata(d.get("metadata"), len(t) - 1, loaded_base)
        # metadata never overrides the stored samples it disagrees with
        if (
            rebuilt is not None
            and _matches_stored(rebuilt.params, t)
            and _matches_stored(rebuilt.points, pts)
        ):
            rebuilt.label = label
            return rebuilt
        try:
            curve = SampledCurve(t, pts, label=label)
        except ValueError as e:
            raise CurveFileError(str(e))
        # the samples keep the metadata stored beside them, which a re-save
        # writes back
        if isinstance(d.get("metadata"), dict):
            curve.metadata = d["metadata"]
        return curve
    raise CurveFileError(f"unknown curve type {kind!r}")


def _refuse_arc_length_file(d):
    """Raise CurveFileError for a file below schema 2 whose metadata names
    the ``bertrand`` generator (as ``generator`` or ``base_generator``):
    its ``t`` is the generated curve's arc length, which no rebuild now
    matches, and its samples alone would be differentiated by stencils."""
    meta = d.get("metadata")
    schema = d.get("schema_version")
    if (not isinstance(meta, dict)
            or "bertrand" not in (meta.get("generator"), meta.get("base_generator"))
            or (type(schema) is int and schema >= 2)):
        return
    raise CurveFileError(
        f"schema {schema} file of a generated Bertrand curve or its mate: its t is the old "
        f"arc-length parameter, and schema {SCHEMA_VERSION} takes the seed's parameter u; "
        f"regenerate it with generate (and mate)")


def save_curve(curve: Curve, path: str):
    """Write ``curve`` to ``path``.  A sampled curve whose params or points
    are not finite raises ParameterError, naming the first bad row, before
    the file is opened."""
    if isinstance(curve, (SampledCurve, JetBackedCurve)):
        t, points = curve.params, curve.points
        bad = ~(np.isfinite(t) & np.isfinite(points).all(axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            raise ParameterError(
                f"curve {curve.label!r} is not finite at row {i}: t={fmt(t[i])}, "
                f"point ({', '.join(fmt(x) for x in points[i])})"
            )
    text = dumps(curve_to_dict(curve))
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _read_json(path: str):
    """The bytes of the file at ``path``, from one read, and the JSON
    document they hold.  Bytes that are not UTF-8 JSON text raise
    CurveFileError naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data, json.loads(data.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
        raise CurveFileError(f"{path}: {e}")


def load_curve(path: str) -> Curve:
    return curve_from_dict(_read_json(path)[1])


def read_inputs(path: str, mate_path: str = None):
    """The curves of a command's input files and its report's ``inputs``,
    each file read once: the curve of ``path``, then, if ``mate_path`` is
    given, that file's curve loaded beside it; and {path: sha256 hex
    digest of the bytes parsed}.  A mate that records the loaded base's
    recipe is rebuilt on that base curve (``_rebuild_from_metadata``)."""
    curves, inputs = [], {}
    for p in (path,) if mate_path is None else (path, mate_path):
        data, doc = _read_json(p)
        curves.append(_curve_from_dict(doc, curves[0] if curves else None))
        inputs[p] = hashlib.sha256(data).hexdigest()
    return curves, inputs


# ---------------------------------------------------------------------------
# run reports


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    masked_intervals: list = field(default_factory=list)
    tool_version: str = TOOL_VERSION

    def to_json(self) -> str:
        return dumps({f.name: getattr(self, f.name) for f in fields(self)})


def masked_intervals_from_flags(ts, masked) -> list:
    """Contiguous [t_lo, t_hi] runs of masked grid points (may be empty)."""
    runs = []
    start = None
    for i, flag in enumerate(masked):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append([float(ts[start]), float(ts[i - 1])])
            start = None
    if start is not None:
        runs.append([float(ts[start]), float(ts[-1])])
    return runs


def write_csv(path, header, rows):
    """CSV with 17-significant-digit reals; strings pass through."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    v if isinstance(v, str) else fmt(v) for v in row
                )
            )
            fh.write("\n")
