"""CSV ingestion of performance sets.

Two row schemas are accepted, detected from the header (case-insensitive):

* counts: columns ``tn, fp, fn, tp`` holding nonnegative counts or
  probabilities; each row is normalized by its total.
* ROC: columns ``fpr, tpr`` plus either a ``prior_pos`` column (one shared
  value for the whole file) or a prior passed by the caller.

An optional leading column whose name matches neither schema is used as
the item label.  Unrecognized extra columns are ignored.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .ranking import PerformanceSet
from .scores import Performance, roc_to_parts


class IngestError(ValueError):
    """Problem with an input file (CLI exit code 2)."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class ParseError(IngestError):
    pass


class NegativeCountError(IngestError):
    pass


class ZeroTotalError(IngestError):
    pass


class MixedSchemaError(IngestError):
    pass


class MixedPriorsError(IngestError):
    pass


_COUNT_FIELDS = ("tn", "fp", "fn", "tp")
_ROC_FIELDS = ("fpr", "tpr")
_PRIOR_FIELD = "prior_pos"


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {text!r}", row) from None


def ingest(path, prior_pos: float | None = None) -> PerformanceSet:
    """Read a performance set from a CSV file.

    ``prior_pos`` is only consulted for ROC-form files without a
    ``prior_pos`` column; when the column exists it must hold one shared
    value (and agree with the argument if both are given).
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        header = [h.strip().lower() for h in raw_header]

        has_counts = all(f in header for f in _COUNT_FIELDS)
        has_roc = all(f in header for f in _ROC_FIELDS)
        if has_counts and has_roc:
            raise MixedSchemaError("file mixes count columns and ROC columns")
        if not has_counts and not has_roc:
            raise ParseError(
                f"header must contain either {_COUNT_FIELDS} or {_ROC_FIELDS}, got {raw_header}"
            )
        fields = _COUNT_FIELDS if has_counts else _ROC_FIELDS
        idx = {f: header.index(f) for f in fields}
        prior_idx = header.index(_PRIOR_FIELD) if _PRIOR_FIELD in header else None
        label_idx = 0 if header[0] not in (*fields, _PRIOR_FIELD) else None

        labels: list[str] | None = [] if label_idx is not None else None
        items: list[Performance] = []
        roc: list[tuple[float, float]] = []  # (fpr, tpr) per row of a ROC-form file
        file_prior: float | None = None

        for row_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(row)}", row_no)
            if labels is not None:
                labels.append(row[label_idx].strip())

            if has_counts:
                vals = [_parse_float(row[idx[f]], row_no, f) for f in _COUNT_FIELDS]
                if any(v < 0 for v in vals):
                    raise NegativeCountError(f"negative cell in {vals}", row_no)
                if sum(vals) == 0:
                    raise ZeroTotalError("all four cells are zero", row_no)
                try:
                    items.append(Performance(*vals))
                except ValueError as exc:
                    raise ParseError(str(exc), row_no) from None
                continue

            fpr = _parse_float(row[idx["fpr"]], row_no, "fpr")
            tpr = _parse_float(row[idx["tpr"]], row_no, "tpr")
            if not 0.0 <= fpr <= 1.0 or not 0.0 <= tpr <= 1.0:
                raise ParseError(f"fpr/tpr outside [0, 1]: ({fpr}, {tpr})", row_no)
            if prior_idx is not None:
                row_prior = _parse_float(row[prior_idx], row_no, _PRIOR_FIELD)
                if file_prior is None:
                    file_prior = row_prior
                elif row_prior != file_prior:
                    raise MixedPriorsError(
                        f"prior_pos {row_prior} differs from {file_prior}", row_no
                    )
            p = file_prior if file_prior is not None else prior_pos
            if p is None:
                raise ParseError("ROC-form file needs a prior_pos column or argument", row_no)
            if not 0.0 < p < 1.0:
                raise ParseError(f"prior_pos must be in (0, 1), got {p}", row_no)
            roc.append((fpr, tpr))

    if roc:  # one prior for every row: the file's, else the argument
        items = [Performance(*row) for row in roc_to_parts(*np.array(roc).T, p)]
    if not items:
        raise ParseError("no data rows")
    if file_prior is not None and prior_pos is not None and file_prior != prior_pos:
        raise MixedPriorsError(
            f"prior_pos argument {prior_pos} conflicts with file value {file_prior}"
        )
    return PerformanceSet(tuple(items), tuple(labels) if labels else None)
