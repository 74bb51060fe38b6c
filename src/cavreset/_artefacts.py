"""The one file format of every JSON and CSV artefact the package writes.

Reruns with the same inputs reproduce every file byte for byte, so the
format is fixed here and nowhere else.  JSON has a two-space indent, sorted
keys and a closing newline.  CSV has a header line, then every value as
``"%.17g" % float(v)``, which reads back as the same double, with the
``\\r\\n`` line ends of `csv.writer`.  Both writers create the parent
directory.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence


def write_json(path: str | Path, payload: object) -> None:
    """Write `payload` as sorted, two-space-indented JSON with a closing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    """Header line, then one line per row with full float precision (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    # a formatted number never needs csv quoting, so the rows skip csv.writer
    buf.writelines(",".join(["%.17g" % float(v) for v in row]) + "\r\n" for row in rows)
    path.write_text(buf.getvalue(), newline="")
