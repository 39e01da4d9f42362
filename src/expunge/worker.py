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
queues its half on it, booting or not. A step goes to it only once it
has signalled ready, and the accumulator asks for it only after a
budget of in-process steps. It runs isolated (``-I -S``) and imports the
engine and the accumulator from the package directory that the caller
imported, without the package's ``__init__``: importing the whole
package took its start from about 0.05-0.08 s to 0.19 s on a 2-CPU
x86-64 host. It exchanges length-prefixed raw bytes over its stdin and
stdout and writes nothing else there. It is not a ``multiprocessing``
spawn pool, which re-runs the caller's ``__main__``. Nor is it a thread:
hashlib releases the interpreter lock only for buffers over 2 KiB, and
Ed25519 verification holds it, so a thread ran no faster beside either.

The worker is a first-in, first-out channel. A lock is held only to
write one request or to read replies, never across the caller's own
work; replies come back in request order, and a reader files each
earlier reply under its ticket for the caller that sent it. The worker
is pinned off the CPU its starter runs on, so that a request does not
wake it behind the caller, and a caller waiting for a step polls the
pipe for a moment before it sleeps on it. A process forked after this
module was imported computes in-process. A worker that fails is closed,
every call it owed computes its part here, and the next call starts a
fresh one; one that fails before it signalled ready is not started
again. At exit the worker gets EOF on its stdin, a short wait, then a
kill.
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

#: The worker's program: register the package by its directory, so that
#: importing this module runs the engine's and accumulator's imports and
#: nothing else.
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


class _Channel:
    """One worker process and the ordered stream of its requests and replies.

    Replies are read from the pipe's descriptor, never through a buffer,
    so the pipe itself tells whether one is arriving.
    """

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.ready = False  # it has written _READY, and that byte was read
        self.broken = False
        self._send_lock = threading.Lock()
        self._reply_lock = threading.Lock()
        self._sent = 0  # tickets handed out, one per request, in order
        self._read = 0  # replies read, in the same order
        self._filed: dict[int, bytes] = {}
        self._dropped: set[int] = set()

    def send(self, kind: int, payload: bytes, width: int) -> int | None:
        """Queue one request; its ticket, or None when the worker has gone."""
        with self._send_lock:
            if self.broken:
                return None
            try:
                self.proc.stdin.write(_REQUEST.pack(kind, len(payload), width))
                self.proc.stdin.write(payload)
                self.proc.stdin.flush()
            except OSError:  # BrokenPipeError: the worker has gone
                self.broken = True
                return None
            self._sent += 1
            return self._sent - 1

    def reply(self, ticket: int) -> bytearray | None:
        """The reply to ``ticket``, reading and filing earlier ones; None if the worker failed."""
        with self._reply_lock:
            while ticket not in self._filed:
                if not self._file_one():
                    return None
            return self._filed.pop(ticket)

    def drop(self, ticket: int) -> None:
        """Forget ``ticket``: its reply, filed or still to come, goes unread.

        Replies that have arrived are read now, so that dropped ones
        cannot fill the pipe while no caller waits for a reply.
        """
        with self._reply_lock:
            if self._filed.pop(ticket, None) is None and ticket >= self._read:
                self._dropped.add(ticket)
            while not self.broken and self._read < self._sent and self._readable():
                self._file_one()

    def poll_ready(self) -> bool:
        """Whether the worker has signalled ready; never waits for it."""
        if self.ready or self.broken or not self._reply_lock.acquire(blocking=False):
            return self.ready
        try:
            if not self.ready and self._readable():
                self.ready = _read_exactly(self.proc.stdout.fileno(), 1) == _READY
                self.broken = not self.ready
            return self.ready
        finally:
            self._reply_lock.release()

    def _readable(self) -> bool:
        return bool(select.select([self.proc.stdout], [], [], 0)[0])

    def _file_one(self) -> bool:
        """Read the next reply and file it under its ticket (or forget a dropped one)."""
        reply = None if self.broken else self._read_one()
        if reply is None:
            self.broken = True
            return False
        if self._read in self._dropped:
            self._dropped.discard(self._read)
        else:
            self._filed[self._read] = reply
        self._read += 1
        return True

    def _read_one(self) -> bytearray | None:
        deadline = time.perf_counter() + _POLL_S
        while not self._readable() and time.perf_counter() < deadline:
            pass
        fd = self.proc.stdout.fileno()
        if not self.ready:
            if _read_exactly(fd, 1) != _READY:
                return None
            self.ready = True
        header = _read_exactly(fd, _REPLY.size)
        if header is None:
            return None
        return _read_exactly(fd, _REPLY.unpack(header)[0])

    def close(self) -> None:
        with self._send_lock:
            self.broken = True
            try:
                self.proc.stdin.close()
            except OSError:  # unflushed bytes to a worker that has gone
                pass
        try:
            self.proc.wait(timeout=_CLOSE_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        with self._reply_lock:  # a reader blocked on the pipe has had its EOF
            self.proc.stdout.close()


class _Worker:
    """The current channel, started lazily and replaced when it fails."""

    def __init__(self):
        self._lock = threading.Lock()
        self._channel: _Channel | None = None
        self._owner = os.getpid()
        self._given_up = False

    @property
    def _proc(self) -> subprocess.Popen | None:
        channel = self._channel
        return None if channel is None else channel.proc

    def lower_levels(self, cells: list[bytes], cell_size: int) -> list[bytes] | None:
        """Iterations 1..L-1 of both halves of ``cells``, or None when no worker can run."""
        channel = self._current()
        if channel is None:
            return None
        half = len(cells) // 2
        payload = b"".join(cells[half:])
        ticket = channel.send(_TRANSFORM, payload, cell_size)
        left = _half_levels(cells[:half], cell_size)
        reply = None if ticket is None else channel.reply(ticket)
        if reply is None or len(reply) != len(payload):
            self._retire(channel)
            return left + _half_levels(cells[half:], cell_size)
        return left + _split(reply, cell_size)

    def send_modexp(self, base: int, exponent: int, modulus: int) -> Ticket | None:
        channel = self._current()
        if channel is None or not channel.poll_ready():
            if channel is not None and channel.broken:
                self._retire(channel)
            return None
        width = (modulus.bit_length() + 7) // 8
        payload = b"".join(
            (
                base.to_bytes(width, "big"),
                modulus.to_bytes(width, "big"),
                exponent.to_bytes((exponent.bit_length() + 7) // 8, "big"),
            )
        )
        ticket = channel.send(_MODEXP, payload, width)
        if ticket is None:
            self._retire(channel)
            return None
        return Ticket(self, channel, ticket)

    def close(self) -> None:
        """Stop the worker, if one runs; the next call that can use one starts another."""
        with self._lock:
            channel, self._channel = self._channel, None
        if channel is not None:
            channel.close()

    def _current(self) -> _Channel | None:
        """The running channel, started here if none runs and one may."""
        if os.getpid() != self._owner or self._given_up:
            return None
        with self._lock:
            if self._channel is None:
                if _usable_cpus() < 2:
                    return None
                package = os.path.dirname(os.path.abspath(engine.__file__))
                try:
                    proc = subprocess.Popen(
                        [sys.executable, "-I", "-S", "-c", _BOOT, package],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                    )
                except OSError:
                    self._given_up = True
                    return None
                _keep_apart(proc.pid)
                self._channel = _Channel(proc)
            return self._channel

    def _retire(self, channel: _Channel) -> None:
        """Close a failed channel; give up for good if it never booted."""
        with self._lock:
            if self._channel is not channel:
                return
            self._channel = None
            self._given_up = not channel.ready
        channel.close()


class Ticket:
    """A step sent to the worker; :meth:`result` collects it, :meth:`drop` forgoes it."""

    def __init__(self, worker: _Worker, channel: _Channel, number: int):
        self._worker = worker
        self._channel = channel
        self._number = number

    def result(self) -> int | None:
        """The step's integer, or None where the worker failed (compute it here)."""
        channel = self._channel
        reply = channel.reply(self._number)
        if reply is None:
            self._worker._retire(channel)
            return None
        return int.from_bytes(reply, "big")

    def drop(self) -> None:
        self._channel.drop(self._number)


_WORKER = _Worker()
atexit.register(_WORKER.close)


def lower_levels(cells: list[bytes], cell_size: int) -> list[bytes] | None:
    """Iterations 1..L-1 of a padded array, its right half run in the worker.

    ``cells`` is the whole padded array. Returns None, having done
    nothing, when no worker can run here; the caller then runs every
    iteration itself.
    """
    return _WORKER.lower_levels(cells, cell_size)


def send_modexp(base: int, exponent: int, modulus: int) -> Ticket | None:
    """Queue ``pow(base, exponent, modulus)`` on a ready worker, starting one if none runs.

    Only public values cross the pipe. Returns None, having sent
    nothing, while no worker is ready or where none can run; the caller
    then computes the step itself.
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
