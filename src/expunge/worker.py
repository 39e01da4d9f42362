"""A second process for large overwrite transforms and accumulator steps.

Two kinds of request go to one long-lived worker process. Below the top
iteration, the two halves of a padded cell array never read each other
(see the pairing table in the engine module), so for a large array
:func:`lower_levels` sends the right half to the worker, runs the left
half here with the same level function meanwhile, and takes the right
half back; the caller then runs the top iteration and the proof digest.
And :func:`send_modexp` sends one accumulator step, a modular
exponentiation of public values, which the caller collects from the
returned ticket once it has done its own work (see ``start_step`` in the
accumulator module). The bytes and integers are those of the
in-process computation.

The worker is a subprocess of ``sys.executable``, started only where the
process may run on at least two CPUs. A large transform starts it and
sends its half to it, booting or not. A step goes to it only once it
has signalled ready, and the accumulator asks for it only after a
budget of in-process steps. It runs isolated (``-I -S``), finds the
package that the caller imported by its parent directory, and imports
this module, which loads the engine and the accumulator and nothing
more. It exchanges length-prefixed raw bytes over its stdin and stdout
and writes nothing else there. It is not a ``multiprocessing``
spawn pool, which re-runs the caller's ``__main__``. Nor is it a thread:
hashlib releases the interpreter lock only for buffers over 2 KiB, and
Ed25519 verification holds it, so a thread ran no faster beside either.

The worker serves one request at a time: a lock lends it to a request
from its send until its reply is read, a step's reply when its ticket
is settled. A call that finds it lent computes in-process, except that
a step which the calling thread began and has not collected is settled
first; so a large transform run while the same thread's step is out
still takes the worker. The worker is pinned off the CPU its starter
runs on, so that a request does not wake it behind the caller, and a
caller waiting for a reply polls the pipe for a moment before it sleeps
on it. A process forked after this module was imported computes
in-process. A worker that fails is closed, the call it owed computes
its part here, and the next call starts a fresh one; one that fails
before it signalled ready is not started again. At exit the worker gets
EOF on its stdin, a short wait, then a kill, whether or not a step is
still out.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time

from . import accumulator, engine

#: Request header: kind, payload bytes, width (the cell size of a
#: transform, the modulus bytes of a step). The reply header is the
#: payload bytes alone.
_REQUEST = struct.Struct(">BQI")
_REPLY = struct.Struct(">Q")
_TRANSFORM, _MODEXP = 0, 1

#: The worker's first byte on stdout: it has booted and reads requests.
_READY = b"R"

#: Seconds a reader polls the pipe for a reply before it sleeps on it: a
#: reader that slept on a 2048-bit step's reply got it 24 us later at the
#: median and 40 us at the 90th percentile (2-CPU x86-64 virtual machine,
#: 0.1 ms of work beside the step). 2 ms covers a few such steps.
_POLL_S = 0.002

#: Seconds a closing worker gets to exit on EOF before it is killed.
_CLOSE_WAIT_S = 1.0

#: The worker's program; its argument is the directory that holds the
#: caller's package, searched after the standard library.
_BOOT = "import sys\nsys.path.append(sys.argv[1])\nfrom expunge.worker import serve\nserve()\n"


def _half_levels(cells: list[bytes], cell_size: int) -> list[bytes]:
    """Every iteration of the transform over ``cells``, one half of a padded array."""
    return engine._butterfly(cells, cell_size, range(1, len(cells).bit_length()))


def _split(payload: bytes | bytearray, cell_size: int) -> list[bytes]:
    view = memoryview(payload)
    return [view[i : i + cell_size].tobytes() for i in range(0, len(payload), cell_size)]


def _power(payload: bytes, width: int) -> bytes:
    """A step request's answer: ``base ** exponent mod modulus``, ``width`` bytes."""
    base, modulus, exponent = (
        int.from_bytes(part, "big")
        for part in (payload[:width], payload[width : 2 * width], payload[2 * width :])
    )
    return accumulator._modexp(base, exponent, modulus).to_bytes(width, "big")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _keep_apart(pid: int) -> None:
    """Pin the worker ``pid`` to the usable CPUs but the one this process runs on now.

    A pipe write may wake the worker on the writer's CPU, and then it
    waits for the writer's own work instead of running beside it: on a
    2-CPU x86-64 virtual machine (Linux 6.x), an unpinned worker woke
    there in 200 of 200 requests and stayed. Where the CPU or the call
    is unknown, the kernel places the worker.
    """
    try:
        with open("/proc/self/stat", "rb") as stat:
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39: the CPU
        os.sched_setaffinity(pid, os.sched_getaffinity(0) - {here})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def _read_exactly(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from ``fd``, read into one buffer, or None at end of file."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        count = os.readv(fd, [view])
        if not count:
            return None
        view = view[count:]
    return buffer


def _readable(proc: subprocess.Popen) -> bool:
    return bool(select.select([proc.stdout], [], [], 0)[0])


def _send(proc: subprocess.Popen, kind: int, payload: bytes, width: int) -> bool:
    """Write one request; False when the worker has gone."""
    try:
        proc.stdin.write(_REQUEST.pack(kind, len(payload), width))
        proc.stdin.write(payload)
        proc.stdin.flush()
        return True
    except (OSError, ValueError):  # BrokenPipeError, or a pipe closed at exit
        return False


def _close(proc: subprocess.Popen) -> None:
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


class _Worker:
    """The worker process, started lazily, replaced when it fails, lent to one request at a time.

    Replies are read from the pipe's descriptor, never through a buffer,
    so the pipe itself tells whether one is arriving.
    """

    def __init__(self):
        self._lent = threading.Lock()  # held from a request's send until its reply is read
        self._held: Ticket | None = None  # the step that holds the worker, if one does
        self._proc: subprocess.Popen | None = None
        self._ready = False  # the worker has written _READY, and that byte was read
        self._owner = os.getpid()
        self._given_up = False

    def lower_levels(self, cells: list[bytes], cell_size: int) -> list[bytes] | None:
        """Iterations 1..L-1 of both halves of ``cells``, or None when no worker is free."""
        proc = self._take()
        if proc is None:
            return None
        half = len(cells) // 2
        payload = b"".join(cells[half:])
        sent = _send(proc, _TRANSFORM, payload, cell_size)
        try:
            left = _half_levels(cells[:half], cell_size)
        finally:
            reply = self._finish(proc, len(payload) if sent else None)
        if reply is None:
            return left + _half_levels(cells[half:], cell_size)
        return left + _split(reply, cell_size)

    def send_modexp(self, base: int, exponent: int, modulus: int) -> Ticket | None:
        proc = self._take()
        if proc is None:
            return None
        if not self._poll_ready(proc):
            self._lent.release()
            return None
        width = (modulus.bit_length() + 7) // 8
        payload = b"".join(
            (
                base.to_bytes(width, "big"),
                modulus.to_bytes(width, "big"),
                exponent.to_bytes((exponent.bit_length() + 7) // 8, "big"),
            )
        )
        if not _send(proc, _MODEXP, payload, width):
            self._finish(proc, None)
            return None
        self._held = Ticket(self, proc, width)
        return self._held

    def close(self) -> None:
        """Stop the worker, if one runs; the next call that can use one starts another.

        It takes no lock, so a step still out at exit does not hold it up.
        """
        proc, self._proc = self._proc, None
        if proc is not None:
            _close(proc)

    def _take(self) -> subprocess.Popen | None:
        """Take the worker, started here if none runs and one may; None to compute here."""
        if os.getpid() != self._owner:
            return None
        if not self._lent.acquire(blocking=False):
            held = self._held
            if held is None or held._thread != threading.get_ident():
                return None
            held.settle()  # this thread's own step: read it now and take the worker
            if not self._lent.acquire(blocking=False):
                return None
        if self._proc is None and not self._given_up and _usable_cpus() >= 2:
            parent = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _BOOT, parent],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            except OSError:
                self._given_up = True
            else:
                _keep_apart(proc.pid)
                self._proc, self._ready = proc, False
        if self._proc is None:
            self._lent.release()
        return self._proc

    def _poll_ready(self, proc: subprocess.Popen) -> bool:
        """Whether the worker has signalled ready; never waits for it."""
        if not self._ready and _readable(proc):
            self._ready = _read_exactly(proc.stdout.fileno(), 1) == _READY
            if not self._ready:
                self._retire(proc)
        return self._ready

    def _finish(self, proc: subprocess.Popen, size: int | None) -> bytearray | None:
        """The ``size``-byte reply (None: nothing was sent), then the worker is free.

        None where the worker failed; it is closed, and the caller
        computes its part here.
        """
        try:
            reply = None if size is None else self._reply(proc, size)
            if reply is None:
                self._retire(proc)
            return reply
        finally:
            self._held = None
            self._lent.release()

    def _reply(self, proc: subprocess.Popen, size: int) -> bytearray | None:
        try:
            deadline = time.perf_counter() + _POLL_S
            while not _readable(proc) and time.perf_counter() < deadline:
                pass
            fd = proc.stdout.fileno()
            if not self._ready:
                if _read_exactly(fd, 1) != _READY:
                    return None
                self._ready = True
            header = _read_exactly(fd, _REPLY.size)
            if header is None or _REPLY.unpack(header)[0] != size:
                return None
            return _read_exactly(fd, size)
        except (OSError, ValueError):  # the worker was closed at exit
            return None

    def _retire(self, proc: subprocess.Popen) -> None:
        """Close a failed worker; give up for good if it never booted."""
        if self._proc is proc:
            self._proc = None
            self._given_up = not self._ready
        _close(proc)


class Ticket:
    """A step sent to the worker, which it holds until :meth:`settle` reads the reply."""

    def __init__(self, worker: _Worker, proc: subprocess.Popen, width: int):
        self._worker = worker
        self._proc = proc
        self._width = width
        self._thread = threading.get_ident()  # the thread that began the step
        self._reply: bytearray | None = None

    def settle(self) -> None:
        """Read the step's reply now and free the worker; :meth:`result` gives the value."""
        if self._worker._held is self:
            self._reply = self._worker._finish(self._proc, self._width)

    def result(self) -> int | None:
        """The step's integer, or None where the worker failed (compute it here)."""
        self.settle()
        return None if self._reply is None else int.from_bytes(self._reply, "big")


_WORKER = _Worker()
atexit.register(_WORKER.close)


def lower_levels(cells: list[bytes], cell_size: int) -> list[bytes] | None:
    """Iterations 1..L-1 of a padded array, its right half run in the worker.

    ``cells`` is the whole padded array. Returns None, having done
    nothing, when no worker is free or can run here; the caller then
    runs every iteration itself.
    """
    return _WORKER.lower_levels(cells, cell_size)


def send_modexp(base: int, exponent: int, modulus: int) -> Ticket | None:
    """Send ``pow(base, exponent, modulus)`` to a ready worker, starting one if none runs.

    Only public values cross the pipe, and the step holds the worker
    until its ticket is settled. Returns None, having sent nothing, while
    no worker is ready or free, or where none can run; the caller then
    computes the step itself.
    """
    return _WORKER.send_modexp(base, exponent, modulus)


def serve() -> None:
    """The worker's loop: signal ready, then answer each request on stdin until EOF.

    A request is a :data:`_REQUEST` header and its payload: a transform's
    half with its cells joined, or a step's base and modulus, ``width``
    bytes each, then its exponent. The reply is a :data:`_REPLY` header
    and the half's overwritten cells joined, or the step's ``width``-byte
    result. Stray output goes to stderr, never into the replies.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller's Ctrl-C is the caller's
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    replies.write(_READY)
    replies.flush()
    while len(header := requests.read(_REQUEST.size)) == _REQUEST.size:
        kind, length, width = _REQUEST.unpack(header)
        payload = requests.read(length)
        if len(payload) != length:
            break
        if kind == _MODEXP:
            out = _power(payload, width)
        else:
            out = b"".join(_half_levels(_split(payload, width), width))
        replies.write(_REPLY.pack(len(out)))
        replies.write(out)
        replies.flush()
