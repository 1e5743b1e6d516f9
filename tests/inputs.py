"""The one writer of the tests' input files.

Every input file a test hands to the CLI is written through `InputDir`: each
in a directory that no earlier write used, and each created exclusively, so
that no test writes over a file.  On ext4 (with its default `auto_da_alloc`),
closing a file that was truncated and written again starts its writeback,
and on a busy disk that one close took tens of milliseconds where a new file
took tens of microseconds.  A hypothesis test that wrote its inputs to the
same paths in every example spent most of its wall time waiting on the disk.
"""

import json
import tempfile
from pathlib import Path


class InputDir:
    """A new, empty directory under root, which takes each name once."""

    def __init__(self, root):
        self.path = Path(tempfile.mkdtemp(dir=root))

    def write(self, name: str, payload=None, *, text: str | None = None) -> str:
        """The path of a new file `name` here, holding text, or else the
        JSON of payload.  A name written before raises FileExistsError."""
        path = self.path / name
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) if text is None else text)
        return str(path)
