"""Curve files, report serialization and deterministic formatting.

Curve files are JSON with either an analytic block (three expression
strings plus a domain) or a sampled block (parameter and point arrays).
All reals are rendered with 17 significant digits so that repeated runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .curves import AnalyticCurve, Curve, JetBackedCurve, SampledCurve
from .errors import BertrandKitError, ParameterError

SCHEMA_VERSION = 1
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


def _serialize(obj, out):
    """Minimal deterministic JSON emitter; floats go through ``fmt``."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj) if np.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _serialize(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(items):
            if i:
                out.append(", ")
            _serialize(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out = []
    _serialize(obj, out)
    return "".join(out)


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
        d["sampled"] = {
            "t": list(curve.params),
            "points": [list(p) for p in curve.points],
        }
        meta = getattr(curve, "metadata", None)
        if meta:
            d["metadata"] = {
                k: v for k, v in meta.items() if isinstance(v, (str, int, float))
            }
    else:
        raise CurveFileError(f"cannot serialize curve type {type(curve).__name__}")
    return d


def _is_recorded_base(curve, meta) -> bool:
    """Whether ``curve`` is the generated base that a mate's metadata
    records: a generator curve (only a rebuild that matched its stored
    samples has metadata) whose seed, a, omega and n are those that an
    independent rebuild of the recipe would use."""
    have = getattr(curve, "metadata", None) or {}
    return (
        have.get("generator") == "bertrand"
        and have.get("seed_label") == meta.get("seed_label")
        and have.get("a") == float(meta["a"])
        and have.get("omega") == float(meta["omega"])
        and have.get("n") == int(meta["base_n"])
    )


def _rebuild_from_metadata(meta, nodes, loaded_base=None):
    """Exact jet-backed curve from a recorded recipe, or None.

    Sampled files written by the generator, and mates of generated or
    analytic bases, carry enough metadata to rebuild the curve, which
    restores exact differentiation after a round trip instead of falling
    back to finite-difference stencils.  A mate whose recorded generated
    base is ``loaded_base`` is rebuilt on that curve, so the pair shares
    one generator.  A recipe that cannot be rebuilt, or whose ``n`` is not
    ``nodes`` (the stored sample count less one), gives None unbuilt.  The
    caller checks the rebuilt nodes against the stored samples.
    """
    if not isinstance(meta, dict) or meta.get("n") != nodes:
        return None
    from . import bertrand as bt

    def generated(n):
        if meta.get("seed_label") not in bt.SPHERE_PRESETS:
            return None
        return bt.generate_bertrand_curve(bt.sphere_preset(meta["seed_label"]),
                                          float(meta["a"]), float(meta["omega"]), n=n)

    try:
        gen = meta.get("generator")
        if gen == "bertrand":
            return generated(nodes)
        if gen == "normal-offset":
            base_gen = meta.get("base_generator")
            if base_gen == "bertrand":
                base = (loaded_base if _is_recorded_base(loaded_base, meta)
                        else generated(int(meta["base_n"])))
            elif base_gen == "analytic":
                base = AnalyticCurve(str(meta["base_x"]), str(meta["base_y"]),
                                     str(meta["base_z"]),
                                     (float(meta["base_lo"]), float(meta["base_hi"])))
            else:
                base = None
            if base is not None:
                return bt.construct_mate(base, float(meta["lambda"]), n=nodes)
    except (KeyError, TypeError, ValueError, BertrandKitError):
        return None
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
            return SampledCurve(t, pts, label=label)
        except ValueError as e:
            raise CurveFileError(str(e))
    raise CurveFileError(f"unknown curve type {kind!r}")


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
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise CurveFileError(f"{path}: {e}")


def load_curve(path: str) -> Curve:
    return curve_from_dict(_read_json(path))


def _load_curve_pair(base_path: str, mate_path: str):
    """The curves of a base file and of a mate file.  A mate that records
    the loaded base's generator recipe is rebuilt on that base curve: the
    pair makes one generator build and one node walk, and the mate's
    frame reuses the jets its base's Frenet rows hold.  The mate's
    rebuilt nodes are still checked against its stored samples."""
    base = load_curve(base_path)
    return base, _curve_from_dict(_read_json(mate_path), base)


def file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


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
        return dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "parameters": self.parameters,
                "results": self.results,
                "masked_intervals": self.masked_intervals,
                "tool_version": self.tool_version,
            }
        )


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
