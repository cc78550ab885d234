"""On-disk formats: zero-set text, boundary-set JSON, reports, series CSV.

Zero-set files are UTF-8 text, one zero per line, either cartesian `re im`
or polar `r@theta` (radians); `#` starts a comment. Parsing goes through
Python's float(), which rounds decimal literals to nearest binary, so a file
written by write_zeros round-trips bit-exactly.

Reports are JSON with sorted keys and no volatile fields, so a rerun with
the same seed produces byte-identical files. All writers go through a
temp-file-and-rename so failures never leave partial artifacts.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import DomainError
from .products import ZeroSequence
from .regions import BoundarySet


def atomic_write_text(path, text):
    """Write text to path via a same-directory temp file and atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def parse_zero_line(line):
    """One zero from its text form; None for blank and comment lines."""
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    if "@" in body:
        rs, _, ts = body.partition("@")
        try:
            r, theta = float(rs), float(ts)
        except ValueError as exc:
            raise DomainError(f"bad polar zero {body!r}") from exc
        return complex(r * np.cos(theta), r * np.sin(theta))
    parts = body.split()
    if len(parts) != 2:
        raise DomainError(f"expected 're im' or 'r@theta', got {body!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"bad cartesian zero {body!r}") from exc


def read_zeros(path):
    """ZeroSequence from a zero-set text file."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                z = parse_zero_line(line)
            except DomainError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            if z is not None:
                values.append(z)
    if not values:
        raise DomainError(f"{path}: no zeros found")
    return ZeroSequence(values)


def format_zeros(zeros, header=None):
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    arr = zeros.zeros if isinstance(zeros, ZeroSequence) else np.asarray(zeros)
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in arr)
    return "\n".join(lines) + "\n"


def write_zeros(path, zeros, header=None):
    atomic_write_text(path, format_zeros(zeros, header=header))


def _reject_constant(name):
    """json's parse_constant hook: NaN and +-Infinity are not JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


def read_boundary(path):
    """BoundarySet from its JSON file form."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh, parse_constant=_reject_constant)
    return BoundarySet.from_payload(payload)


def write_boundary(path, boundary_set):
    atomic_write_text(path, canonical_json(boundary_set.to_payload()))


def canonical_json(payload):
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_report(path, payload):
    atomic_write_text(path, canonical_json(payload))


def _csv(header, rows):
    """CSV text: the header, then a line per row of fields written by str() (repr for floats)."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def series_csv(series):
    return _csv("index,term,partial_sum", series.rows())


def write_series_csv(path, series):
    atomic_write_text(path, series_csv(series))


def means_csv(table):
    return _csv("N,p,r,value", table.rows)


def write_means_csv(path, table):
    atomic_write_text(path, means_csv(table))


def points_csv(points):
    """Complex points as re,im rows (region boundary polylines and the like)."""
    return _csv("re,im", ((float(z.real), float(z.imag)) for z in np.asarray(points)))


def write_points_csv(path, points):
    atomic_write_text(path, points_csv(points))


def complex_pair(z):
    """JSON-friendly [re, im]."""
    z = complex(z)
    return [z.real, z.imag]
