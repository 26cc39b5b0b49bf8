"""The one CSV layout (a header row, `# config=<hash>`, then the rows),
bulk row output, in which each chunk of rows is %-formatted in one C call,
and the header check and row parsing of every reader.

'%.17g' % x is format(x, '.17g') byte for byte for every float, including
-0.0, inf, nan and subnormals, so files written here match a per-value
writer.  Columns are converted with tolist(), so the formatter sees Python
ints, floats and strs, never numpy scalars.
"""

from __future__ import annotations

import warnings

import numpy as np

# Rows formatted per call.  Writing 100k two-float rows took the same time
# (within 3%) at every size from 1024 to 32768 rows; at this one a chunk of
# neighbour rows and its Python objects take about 1 MB.
CHUNK = 4096


def write_rows(fh, template: str, *columns) -> None:
    """Write `template % row` for each row of the equal-length 1-d columns.

    `template` holds one %-conversion per column and ends with a newline.
    Memory stays bounded: only one chunk of rows is formatted at a time.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    if any(c.shape != (n,) for c in cols):
        raise ValueError("columns must be one-dimensional and of equal length")
    width = len(cols)
    for lo in range(0, n, CHUNK):
        parts = [c[lo : lo + CHUNK].tolist() for c in cols]
        rows = len(parts[0])
        # interleave the columns into one row-major argument tuple
        flat = [None] * (rows * width)
        for q, part in enumerate(parts):
            flat[q::width] = part
        fh.write((template * rows) % tuple(flat))


def write_csv(path, header: str, config: str, template: str, *columns) -> None:
    """Write `path` as the `header` row, `# config=<config>` and then the
    rows of `columns` through write_rows; `config` is the config hash."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{header}\n# config={config}\n")
        write_rows(fh, template, *columns)


def read_header(fh, path, header: str) -> None:
    """Read the first line of `fh`, the open CSV at `path`, and raise
    ValueError naming the file unless it is `header`."""
    line = fh.readline().strip()
    if line != header:
        raise ValueError(f"{path}: unexpected header {line!r} (expected {header})")


def read_rows(fh, path, **loadtxt_args) -> np.ndarray:
    """np.loadtxt of the comma-separated rows left in `fh`, the open CSV at
    `path`, with '#' lines skipped.  A file with no rows gives an empty array
    and no warning; a row that does not parse raises ValueError naming the
    file."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(fh, delimiter=",", **loadtxt_args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
