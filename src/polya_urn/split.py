"""Split a sweep's b range across the CPUs it may use, and write its rows in order.

Only ``cli``'s ``sweep`` imports this module.  ``plan`` decides how many
processes share a sweep, the CPUs in its affinity mask once its cost
estimate reaches ``SPLIT_FLOOR`` work units, else one, and cuts its b range
into slices of about equal pair count, each small enough that its text stays
within about ``SLICE_BYTES``.  ``write_in_order`` writes every slice's text
in order, in the format's frame: this process renders its own share of the
slices, and each forked worker renders its share and sends each slice's text
through a pipe, after a head that says whether the slice rendered and how
long the text is.  A worker holds one slice at a time, since it renders the
next one only after the last is in the pipe.  A worker that fails, or dies,
stops the write with ``PolyaUrnError``; every worker is reaped on every way
out.  The rows are those of one process, byte for byte.

Workers are forked, not spawned: a spawned worker imports the package, and
numpy with it, again, which would cost a fair share of what the split saves.
"""

from __future__ import annotations

import bisect
import os
import struct
import threading
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import PolyaUrnError
from .exact import UrnConfig
from .output import Row, _render_block, _write_texts, int_str

# A sweep whose estimate reaches this many work units takes every CPU it may
# use.  The estimates overcharge a sweep, most of all one of many methods,
# whose rows each method's estimate charges again: 10^9 units is 0.08-0.11 s
# of one CPU's work for the grid workload's five methods, 4,005 pairs, and
# 0.18-0.24 s for exact alone, 18,915 pairs (best and median of 15, in
# process).  A split's own cost, its forks, pipes and copied pages, was
# 3-6 ms on sweeps of 10-40 ms, timed in process on a shared 2-vCPU Xeon VM;
# so a split at the floor costs several percent when the other CPUs are
# busy, and saves up to half when one is free.
SPLIT_FLOOR = 10**9
# The most text one slice of a split sweep may hold: a worker renders a whole
# slice, and keeps it, before the parent reads it.
SLICE_BYTES = 256 * 1024


def pair_count(b_range: tuple[int, int], w_range: tuple[int, int]) -> int:
    """How many (b, w) in the ranges have w < b, counted without listing them."""
    (b_lo, b_hi), (w_lo, w_hi) = b_range, w_range
    # w < b_lo pairs with every b; b_lo <= w < b_hi with the b_hi - w values of b above w
    below = max(0, min(w_hi, b_lo - 1) - w_lo + 1) * (b_hi - b_lo + 1)
    lo, hi = max(w_lo, b_lo), min(w_hi, b_hi - 1)
    return below + (max(0, hi - lo + 1) * (2 * b_hi - lo - hi)) // 2


def processes(work: int) -> int:
    """How many processes share a sweep whose estimate is ``work`` units: the
    CPUs this process may use from ``SPLIT_FLOOR`` units on, else one.  It is
    one without ``os.fork`` or ``os.sched_getaffinity``, and while this
    process runs another thread, such as numpy's BLAS pool: a forked worker
    would inherit the locks that thread holds, and from Python 3.12
    ``os.fork`` warns."""
    if work < SPLIT_FLOOR or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if _threads() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _threads() -> int:
    """The threads of this process: every OS thread where ``/proc`` lists
    them, else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


# the columns of a sweep row that hold a 15-digit decimal
_DECIMALS = ("value", "reference", "std_err", "ci_lo", "ci_hi")


def pair_bytes(first: Sequence[Row], fmt: str, largest: UrnConfig) -> int:
    """A bound on the text of any one pair of a sweep: the first pair's, with
    each of its exact rationals grown to the largest pair's numerator and
    denominator, which divide 2^(n-1), each b and w to the largest b's
    digits, and each decimal to the longest 15-digit rendering of a value in
    [0, 1] on row n: 22 characters (``0.00000123456789012346``), or 18 and
    n's digits where an exact value's exponent needs more (23 for
    ``4.00399561519478E-30103``, the value at (99999, 1)).  The first pair's
    text is rendered as any pair's, JSON objects after their commas.  A
    ``dp`` rational grows with the horizon, not the pair, so the first
    pair's already shows most of it."""
    n = largest.total - 1
    rational_digits = n * 302 // 1000 + 1  # log10(2) < 0.302
    decimal_chars = max(22, 18 + len(int_str(n)))
    grown = sum(
        2 * len(int_str(largest.black)) + 2 * rational_digits * ("exact" in shape.varying)
        + sum(decimal_chars - len(v) for c, v in zip(shape.varying, values) if c in _DECIMALS)
        for shape, values in first
    )
    return len(_render_block(first, fmt)) + grown


def cut(
    b_range: tuple[int, int], w_range: tuple[int, int], count: int, pieces: int
) -> list[tuple[int, int]]:
    """``b_range``, holding ``count`` pairs, cut into at most ``pieces``
    contiguous b ranges of about ``count / pieces`` pairs each, none empty."""
    b_lo, b_hi = b_range
    # every b above w_lo has a pair, so there are at most ``count`` of these
    b_values = range(max(b_lo, w_range[0] + 1), b_hi + 1)
    pieces = min(pieces, len(b_values))
    # each cut is the least b at which the pairs up to it reach i / pieces of them
    ends = {
        b_values[bisect.bisect_left(
            b_values, -(-i * count // pieces), key=lambda b: pair_count((b_lo, b), w_range)
        )]
        for i in range(1, pieces)
    }
    ends = [*sorted(ends - {b_hi}), b_hi]
    return list(zip([b_lo, *(end + 1 for end in ends[:-1])], ends))


def plan(
    first: Sequence[Row],
    fmt: str,
    largest: UrnConfig,
    b_range: tuple[int, int],
    w_range: tuple[int, int],
    count: int,
    work: int,
) -> tuple[list[tuple[int, int]], int]:
    """The slices of a sweep whose first pair's rows are ``first``, and how
    many processes render them: one slice, in one process, below the floor."""
    cpus = processes(work)
    if cpus == 1:
        return [b_range], 1
    text_bytes = count * pair_bytes(first, fmt, largest)
    slices = cut(b_range, w_range, count, max(cpus, -(-text_bytes // SLICE_BYTES)))
    return slices, min(cpus, len(slices))


# the head of what a worker sends: whether its slice rendered (else the text
# is the error that stopped it), and the text's length in bytes
_FRAME = struct.Struct("<?Q")
# what a worker sends first: its pid
_PID = struct.Struct("<q")


def write_in_order(
    stream: TextIO,
    fmt: str,
    slices: list[tuple[int, int]],
    cpus: int,
    render: Callable[[tuple[int, int]], Iterable[str]],
) -> None:
    """Write every slice's texts, ``render(slice)``, in order, in ``fmt``'s frame.

    This process renders the slices k with k % cpus == 0 and writes each text
    as it comes; each of cpus - 1 forked workers renders the slices of its
    own remainder, one at a time, and sends each slice's text through a pipe,
    where it waits until this process reaches it.  Every worker is killed, if
    still running, and reaped on every way out.
    """
    workers = []
    try:
        for j in range(1, cpus):
            workers.append(_Worker(slices[j::cpus], render))

        def texts() -> Iterator[str]:
            for k, b_range in enumerate(slices):
                if k % cpus:
                    yield workers[k % cpus - 1].receive(b_range)
                else:
                    yield from render(b_range)

        _write_texts(texts(), fmt, stream)
    finally:
        for worker in workers:
            worker.close()


class _Worker:
    """A forked process that renders its share of a split sweep's slices and
    sends each one's text, or the error that stopped it, through a pipe."""

    def __init__(
        self, slices: list[tuple[int, int]], render: Callable[[tuple[int, int]], Iterable[str]]
    ) -> None:
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException as exc:
            # the child may exist already: from Python 3.12 a warning, made an
            # error, raises here after the fork, so reap the child that sent
            # its pid (none did if the fork failed)
            os.close(write_fd)
            with open(read_fd, "rb") as pipe:
                head = pipe.read(_PID.size)
            if len(head) == _PID.size:
                _kill(_PID.unpack(head)[0])
            if isinstance(exc, Exception):
                raise PolyaUrnError(f"cannot start a sweep worker: {exc}") from exc
            raise
        self.reaped = False
        if self.pid:
            os.close(write_fd)
            self.pipe = open(read_fd, "rb")
            self.pipe.read(_PID.size)  # this worker's pid, which self.pid holds
            return
        # the worker leaves by os._exit, so it never runs the caller's code,
        # its exit handlers or a flush of the stdout buffer it inherited
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_PID.pack(os.getpid()))
                pipe.flush()
                try:
                    for b_range in slices:
                        _send(pipe, True, "".join(render(b_range)))
                    code = 0
                except Exception as exc:  # the parent reports it in the slice's place
                    _send(pipe, False, str(exc) if isinstance(exc, PolyaUrnError) else repr(exc))
        finally:
            os._exit(code)

    def receive(self, b_range: tuple[int, int]) -> str:
        """The text of the worker's next slice, ``b_range``."""
        where = f"sweep worker for b {int_str(b_range[0])}:{int_str(b_range[1])}"
        head = self.pipe.read(_FRAME.size)
        if len(head) == _FRAME.size:
            ok, size = _FRAME.unpack(head)
            data = self.pipe.read(size)
            if len(data) == size:
                if not ok:
                    raise PolyaUrnError(f"{where} failed: {data.decode()}")
                return data.decode()
        # the worker closed its pipe early, so it is exiting
        _, status = os.waitpid(self.pid, 0)
        self.reaped = True
        code = os.waitstatus_to_exitcode(status)
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise PolyaUrnError(f"{where} {ended} before sending its rows")

    def close(self) -> None:
        """Kill the worker if it has not been reaped yet, and reap it."""
        self.pipe.close()
        if not self.reaped:
            _kill(self.pid)
            self.reaped = True


def _kill(pid: int) -> None:
    """Kill the worker ``pid``, running or not, and reap it."""
    import signal  # only a sweep that forks needs it

    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _send(pipe: BinaryIO, ok: bool, text: str) -> None:
    data = text.encode()
    pipe.write(_FRAME.pack(ok, len(data)))
    pipe.write(data)
    pipe.flush()
