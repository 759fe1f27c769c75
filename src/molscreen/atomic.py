"""Output files that are replaced whole or not at all.

Every file the package writes goes through :func:`atomic_write`: the content
goes to a temporary file in the target's directory, and ``os.replace`` then
renames it over the target.  A run that fails or is killed mid-write leaves
the previous file, or none, never a truncated one.  There is no fsync: this
guards against a dying process, not a dying machine.
"""

from __future__ import annotations

import errno
import os
import secrets
import stat
from contextlib import contextmanager
from pathlib import Path


def _create_temp(path: Path) -> tuple[int, Path, Path]:
    """An open, new, empty file beside the file ``path`` names (a symlink's
    target), created as ``open(path, "w")`` creates a file: 0o666 less the
    umask.  Returns its descriptor and path, and the target's real path.
    Errors name ``path``, not the temporary file."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{secrets.token_hex(6)}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    return fd, temp, target


def check_writable(*paths) -> None:
    """Raise the error :func:`atomic_write` would raise on opening the first
    of ``paths`` that cannot be written, leaving no file behind.  ``None``
    entries, outputs not asked for, are skipped."""
    for path in filter(None, paths):
        fd, temp, _ = _create_temp(Path(path))
        os.close(fd)
        temp.unlink()


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a file handle whose content replaces ``path`` when the block
    ends normally; on any exception the temporary file is removed and
    ``path`` is left as it was.  A replaced file keeps its permission bits,
    as it does when ``open(path, "w")`` truncates it."""
    fd, temp, target = _create_temp(Path(path))
    try:
        with open(fd, mode, **open_kwargs) as handle:
            if target.exists():
                os.fchmod(fd, stat.S_IMODE(target.stat().st_mode))
            yield handle
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
