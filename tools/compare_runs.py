"""Compare two run directories file by file, at a stated tolerance.

    python tools/compare_runs.py RUN_A RUN_B [--rtol R] [--atol A]

prints one line per file that differs, naming the member, column or key of
its largest deviation, and exits 1 if any file differs, 0 if none does.

Numbers agree when ``|a - b| <= atol + rtol * |b|`` and NaN sits in the same
places; at the default tolerance 0 they must be identical.  Numbers are the
float arrays of an ``.npz`` (fields of structured arrays included), the
values of a ``.csv`` and the numbers of a ``.json``.  Everything else must
match exactly: npz member names, dtypes and shapes, non-float arrays, CSV
headers and shapes, JSON keys, strings, booleans and nulls, and any other
file byte for byte.  The JSON keys in ``VOLATILE_KEYS`` differ between
equal runs and are skipped at any depth.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# Keys that hold a time stamp, a duration or the run directory's own path.
VOLATILE_KEYS = frozenset({"generated_at", "timings", "elapsed_s", "outdir"})

# A structural difference (a missing member, another shape, a changed
# string) outranks every numeric deviation of its file.
_STRUCTURAL = math.inf


def compare_runs(a, b, rtol: float = 0.0, atol: float = 0.0) -> dict[str, str]:
    """The files that differ between run directories ``a`` and ``b``, by
    relative path, each with a description of its largest deviation."""
    a, b = Path(a), Path(b)
    for root in (a, b):
        if not root.is_dir():
            raise NotADirectoryError(f"no run directory {root}")
    files_a, files_b = _files(a), _files(b)
    found = {}
    for name in sorted(files_a | files_b):
        if name not in files_b:
            found[name] = f"only in {a}"
        elif name not in files_a:
            found[name] = f"only in {b}"
        else:
            compare = _COMPARE.get(Path(name).suffix, _compare_bytes)
            deviations = compare(a / name, b / name, rtol, atol)
            if deviations:
                found[name] = max(deviations, key=lambda d: d[0])[1]
    return found


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


# Each comparison returns the (deviation, description) pairs of what
# differs, and an empty list when everything agrees.


def _numbers(where: str, x, y, rtol: float, atol: float) -> list:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return [(_STRUCTURAL, f"{where}: shape {x.shape} against {y.shape}")]
    nan = np.isnan(x)
    if np.any(nan != np.isnan(y)):
        return [(_STRUCTURAL, f"{where}: NaN in different places")]
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf, where equal infs meet
        deviation = np.abs(x - y)
        outside = ~((x == y) | nan | (deviation <= atol + rtol * np.abs(y)))
    if not np.any(outside):
        return []
    worst = float(deviation[outside].max())
    return [(worst, f"{where}: largest deviation {worst:.3g} (atol={atol:g}, rtol={rtol:g})")]


def _arrays(where: str, x: np.ndarray, y: np.ndarray, rtol: float, atol: float) -> list:
    if x.dtype != y.dtype or x.shape != y.shape:
        return [(_STRUCTURAL, f"{where}: {x.dtype} {x.shape} against {y.dtype} {y.shape}")]
    if x.dtype.names:
        return [d for f in x.dtype.names for d in _arrays(f"{where}.{f}", x[f], y[f], rtol, atol)]
    if np.issubdtype(x.dtype, np.floating):
        return _numbers(where, x, y, rtol, atol)
    if not np.array_equal(x, y):
        return [(_STRUCTURAL, f"{where}: {np.count_nonzero(x != y)} of {x.size} entries differ")]
    return []


def _compare_npz(pa: Path, pb: Path, rtol: float, atol: float) -> list:
    with np.load(pa) as za, np.load(pb) as zb:
        if sorted(za.files) != sorted(zb.files):
            return [(_STRUCTURAL, f"members {sorted(za.files)} against {sorted(zb.files)}")]
        return [d for m in sorted(za.files) for d in _arrays(m, za[m], zb[m], rtol, atol)]


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    header, _, body = path.read_text().partition("\n")
    return header, np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)


def _compare_csv(pa: Path, pb: Path, rtol: float, atol: float) -> list:
    (header_a, a), (header_b, b) = _read_csv(pa), _read_csv(pb)
    if header_a != header_b:
        return [(_STRUCTURAL, f"header {header_a!r} against {header_b!r}")]
    if a.shape != b.shape:
        return [(_STRUCTURAL, f"shape {a.shape} against {b.shape}")]
    columns = zip(header_a.split(","), a.T, b.T)
    return [d for name, x, y in columns for d in _numbers(f"column {name}", x, y, rtol, atol)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_values(where: str, x, y, rtol: float, atol: float) -> list:
    if isinstance(x, dict) and isinstance(y, dict):
        found = []
        for key in sorted((x.keys() | y.keys()) - VOLATILE_KEYS):
            here = f"{where}.{key}" if where else key
            if key in x and key in y:
                found += _json_values(here, x[key], y[key], rtol, atol)
            else:
                side = "first" if key in x else "second"
                found.append((_STRUCTURAL, f"{here}: only in the {side} file"))
        return found
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return [(_STRUCTURAL, f"{where}: {len(x)} entries against {len(y)}")]
        pairs = enumerate(zip(x, y))
        return [d for i, (u, v) in pairs for d in _json_values(f"{where}[{i}]", u, v, rtol, atol)]
    if _is_number(x) and _is_number(y):
        return _numbers(where or "value", x, y, rtol, atol)
    if type(x) is not type(y) or x != y:
        return [(_STRUCTURAL, f"{where or 'value'}: {x!r} against {y!r}")]
    return []


def _compare_json(pa: Path, pb: Path, rtol: float, atol: float) -> list:
    return _json_values("", json.loads(pa.read_text()), json.loads(pb.read_text()), rtol, atol)


def _compare_bytes(pa: Path, pb: Path, rtol: float, atol: float) -> list:
    return [] if pa.read_bytes() == pb.read_bytes() else [(_STRUCTURAL, "bytes differ")]


_COMPARE = {".npz": _compare_npz, ".csv": _compare_csv, ".json": _compare_json}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two run directories; exit 1 if any file differs."
    )
    parser.add_argument("a", help="run directory")
    parser.add_argument("b", help="run directory; relative tolerances are taken of its numbers")
    parser.add_argument("--rtol", type=float, default=0.0, help="relative tolerance (default 0)")
    parser.add_argument("--atol", type=float, default=0.0, help="absolute tolerance (default 0)")
    args = parser.parse_args(argv)
    try:
        found = compare_runs(args.a, args.b, rtol=args.rtol, atol=args.atol)
    except NotADirectoryError as exc:
        parser.error(str(exc))
    for name, description in found.items():
        print(f"{name}: {description}")
    print(f"{len(found)} file(s) differ" if found else "no file differs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
