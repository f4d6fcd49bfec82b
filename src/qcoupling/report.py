"""Report emission: a JSON summary and at most one CSV series per command.

File names embed the stem the command chooses (model, seed) and a content
hash, never a timestamp, so identical configs produce byte-identical
artifacts.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from qcoupling.errors import InvalidInputError

# CPython's own SHA-256 (_sha2 from 3.12, _sha256 before), the module hashlib
# falls back to: hashlib itself loads OpenSSL's _hashlib, about 3.5 MB of RSS,
# for the same digest. A build without it uses hashlib's
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def emit_report(outdir: str, stem: str, summary: dict,
                series: tuple[str, Iterable[str]] | None = None):
    """Write a JSON summary and at most one CSV series, with content-hashed file names.

    ``series`` is (label, chunks): the CSV text as an iterable of strings.
    The digest covers the summary body and then the text. Each chunk is
    encoded, fed to the hash and written to a temporary file in ``outdir``
    as it comes, and the file is renamed once the digest is known, so the
    text is never held whole.
    """
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create output directory {outdir}: {exc}")
    body = json.dumps(summary, sort_keys=True, indent=2, default=_jsonable).encode() + b"\n"
    h = sha256(body)
    if series is not None:
        label, chunks = series
        partial = out / f".{stem}-{label}-{os.getpid()}.partial"
        _stream(partial, chunks, h)
    digest = h.hexdigest()[:12]
    paths = [out / f"{stem}-{digest}.json"]
    if series is not None:
        paths.append(out / f"{stem}-{label}-{digest}.csv")
    try:
        paths[0].write_bytes(body)
        if series is not None:
            partial.replace(paths[1])
    except OSError as exc:
        if series is not None:
            partial.unlink(missing_ok=True)
        raise InvalidInputError(f"cannot write {exc.filename}: {exc}")
    for p in paths:
        print(p)
    return paths


def _stream(path: Path, chunks: Iterable[str], h):
    """Write the encoded chunks to ``path`` and feed them to the hash ``h``;
    the file goes if anything fails on the way."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode()
                del chunk  # neither form of a chunk is held while the next is made
                h.update(data)
                fh.write(data)
                del data
    except OSError as exc:
        path.unlink(missing_ok=True)
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    except BaseException:  # a failing chunk source, or an interrupt
        path.unlink(missing_ok=True)
        raise


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v).__name__}")
