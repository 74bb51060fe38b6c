"""The one file format of every JSON and CSV artefact the package writes.

Reruns with the same inputs reproduce every file byte for byte, so the
format is fixed here and nowhere else.  JSON has a two-space indent, sorted
keys and a closing newline.  CSV has a header line, then one value per
header field on every row, each as ``"%.17g"``, which reads back as the
same double, with the ``\\r\\n`` line ends of `csv.writer`.  Both writers
create the parent directory.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError


def write_json(path: str | Path, payload: object) -> None:
    """Write `payload` as sorted, two-space-indented JSON with a closing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    """Header line, then one line per row with full float precision (deterministic bytes).

    Raises:
        ConfigError: a row does not hold one number per header field.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    csv.writer(buf).writerow(header)
    # a formatted number never needs csv quoting, so the rows skip csv.writer
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    try:
        buf.writelines(line % tuple(row) for row in rows)
    except TypeError as exc:
        raise ConfigError(f"every CSV row needs {len(header)} numbers: {exc}") from exc
    path.write_text(buf.getvalue(), newline="")
