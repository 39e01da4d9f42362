"""A second process for the lower iterations of large overwrite transforms.

Below the top iteration, the two halves of a padded cell array never
read each other (see the pairing table in the engine module). So for a
large array :func:`lower_levels` sends the right half to one long-lived
worker process, runs the left half here with the same level function
meanwhile, and takes the right half back. The caller then runs the top
iteration and the proof digest. The bytes are those of the in-process
transform.

The worker is a subprocess of ``sys.executable``, started on the first
call that can use it, and only where the process may run on at least two
CPUs. It runs isolated (``-I -S``) and imports the engine from the
package directory that the caller imported, without the package's
``__init__``: importing the whole package took its start from about
0.05-0.08 s to 0.19 s on a 2-CPU x86-64 host. It exchanges
length-prefixed raw bytes over its stdin and stdout and writes nothing
else there. It is not a ``multiprocessing`` spawn pool, which re-runs
the caller's ``__main__``. Nor is it a thread: hashlib releases the
interpreter lock only for buffers over 2 KiB, and two threads hashing
1 MiB buffers ran no faster than one on a 2-CPU x86-64 host.

One call at a time holds the worker. A call that finds it busy (another
thread holds it) returns None, and so does a call in a process forked
after this module was imported: the caller then runs in-process. A worker
that fails mid-call is closed, that call finishes its right half here,
and the next call starts a fresh worker; one that fails before its
first reply is not started again. At exit the worker gets EOF on its
stdin, a short wait, then a kill.
"""

from __future__ import annotations

import atexit
import os
import signal
import struct
import subprocess
import sys
import threading

from . import engine

#: Request header: payload bytes, cell size. The reply header is the
#: payload bytes alone; the reply payload is as long as the request's.
_REQUEST = struct.Struct(">QI")
_REPLY = struct.Struct(">Q")

#: Seconds a closing worker gets to exit on EOF before it is killed.
_CLOSE_WAIT_S = 1.0

#: The worker's program: register the package by its directory, so that
#: importing this module runs the engine's imports and nothing else.
_BOOT = (
    "import sys, types\n"
    "package = types.ModuleType('expunge')\n"
    "package.__path__ = [sys.argv[1]]\n"
    "sys.modules['expunge'] = package\n"
    "from expunge.worker import serve\n"
    "serve()\n"
)


def _half_levels(cells: list[bytes], cell_size: int) -> list[bytes]:
    """Every iteration of the transform over ``cells``, one half of a padded array."""
    return engine._butterfly(cells, cell_size, range(1, len(cells).bit_length()))


def _split(payload: bytes, cell_size: int) -> list[bytes]:
    return [payload[i : i + cell_size] for i in range(0, len(payload), cell_size)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Worker:
    """The worker process, started lazily, and the lock that lends it to one call."""

    def __init__(self):
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._owner = os.getpid()
        self._replied = False
        self._given_up = False

    def lower_levels(self, cells: list[bytes], cell_size: int) -> list[bytes] | None:
        """Iterations 1..L-1 of both halves of ``cells``, or None when no worker is free."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            proc = self._ready()
            if proc is None:
                return None
            half = len(cells) // 2
            payload = b"".join(cells[half:])
            sent = self._send(proc, payload, cell_size)
            left = _half_levels(cells[:half], cell_size)
            reply = self._receive(proc, len(payload)) if sent else None
            if reply is None:
                self._given_up = not self._replied
                self._stop()
                return left + _half_levels(cells[half:], cell_size)
            self._replied = True
            return left + _split(reply, cell_size)
        finally:
            self._lock.release()

    def close(self) -> None:
        """Stop the worker, if one runs; the next large call starts another."""
        with self._lock:
            self._stop()

    def _ready(self) -> subprocess.Popen | None:
        if os.getpid() != self._owner or self._given_up:
            return None
        if self._proc is None:
            if _usable_cpus() < 2:
                return None
            package = os.path.dirname(os.path.abspath(engine.__file__))
            try:
                self._proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _BOOT, package],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            except OSError:
                self._given_up = True
                return None
            self._replied = False
        return self._proc

    @staticmethod
    def _send(proc: subprocess.Popen, payload: bytes, cell_size: int) -> bool:
        try:
            proc.stdin.write(_REQUEST.pack(len(payload), cell_size))
            proc.stdin.write(payload)
            proc.stdin.flush()
        except OSError:  # BrokenPipeError: the worker has gone
            return False
        return True

    @staticmethod
    def _receive(proc: subprocess.Popen, length: int) -> bytes | None:
        header = proc.stdout.read(_REPLY.size)
        if len(header) != _REPLY.size or _REPLY.unpack(header)[0] != length:
            return None
        reply = proc.stdout.read(length)
        return reply if len(reply) == length else None

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:  # unflushed bytes to a worker that has gone
            pass
        try:
            proc.wait(timeout=_CLOSE_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


_WORKER = _Worker()
atexit.register(_WORKER.close)


def lower_levels(cells: list[bytes], cell_size: int) -> list[bytes] | None:
    """Iterations 1..L-1 of a padded array, its right half run in the worker.

    ``cells`` is the whole padded array. Returns None, having done
    nothing, when the worker is busy or cannot run here; the caller then
    runs every iteration itself.
    """
    return _WORKER.lower_levels(cells, cell_size)


def serve() -> None:
    """The worker's loop: answer each request on stdin until EOF.

    A request is a :data:`_REQUEST` header and the half's cells joined;
    the reply is a :data:`_REPLY` header and the half's overwritten cells
    joined. Stray output goes to stderr, never into the replies.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller's Ctrl-C is the caller's
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    while len(header := requests.read(_REQUEST.size)) == _REQUEST.size:
        length, cell_size = _REQUEST.unpack(header)
        payload = requests.read(length)
        if len(payload) != length:
            break
        out = b"".join(_half_levels(_split(payload, cell_size), cell_size))
        replies.write(_REPLY.pack(len(out)))
        replies.write(out)
        replies.flush()
