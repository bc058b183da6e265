"""Deterministic JSON/CSV emission.

All files are written atomically (temp + rename); JSON keys are sorted and
floats use shortest round-trip formatting, so identical inputs produce
byte-identical outputs.  CSV numbers carry 17 significant digits.
"""

import json
import os
import tempfile


def _atomic_write(path, text):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path, header, columns):
    """Columns of numbers as rows, each number as format(float(x), ".17g") gives it."""
    import numpy as np  # here, not at import: a command that writes no CSV never loads it
    row = ",".join(["%.17g"] * len(columns))
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    lines = [",".join(header), *(row % values for values in zip(*cols))]
    _atomic_write(path, "\n".join(lines) + "\n")
