"""The one file boundary (``read_bytes``, ``read_text``, ``atomic_write``:
any OSError is a MissingArtifact naming the path) and a byte reader."""

import os
import struct
import tempfile

from .errors import MalformedStream, MissingArtifact


class Reader:
    """Cursor over a byte buffer that reports the failing offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedStream(f"truncated stream while reading {what}", self.pos)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise MalformedStream("trailing data after payload", self.pos)


def _file_error(verb: str, path: str, exc: OSError) -> MissingArtifact:
    reason = ("not found" if verb == "read" and isinstance(exc, FileNotFoundError)
              else exc.strerror or str(exc))
    return MissingArtifact(f"cannot {verb} {path}: {reason}")


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _file_error("read", path, exc) from exc


def read_text(path: str) -> str:
    """UTF-8 with universal newlines (CR LF and CR read as LF); bytes that
    are not UTF-8 are a MalformedStream naming the file and offset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _file_error("read", path, exc) from exc
    except UnicodeDecodeError as exc:  # one decode of the whole file: a file offset
        raise MalformedStream(f"{path}: not UTF-8 text", exc.start) from exc


def atomic_write(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename; a failed
    write leaves neither the temp file nor a partial ``path``. The file
    gets the mode ``open`` would give a new one, 0o666 less the umask."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            umask = os.umask(0)  # read it by setting it, then put it back
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp made it 0o600
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _file_error("write", path, exc) from exc
