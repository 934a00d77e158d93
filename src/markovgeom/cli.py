"""File-based front end: CSV point clouds in, operators and reports out.

Matrices are written as plain CSV at 17 significant digits (lossless for
float64), reports as JSON with insertion-ordered keys, complex operators as
paired magnitude/phase CSVs.  Identical configuration and inputs produce
byte-identical output files.  Cells are converted by an exact numpy kernel:
CSV cells with the bytes of ``'%.17g' % x``, JSON cells with those of
``repr(x)``; cells outside its range, such as nan, inf and subnormals, are
formatted by ``%`` or ``repr`` itself.  A large matrix is split into
contiguous ranges of cells, one per available CPU as long as each range holds
the cells that repay a fork; the bytes do not depend on how many there are.

Exit codes: 0 success (or all identities pass), 1 verification failure,
2 usage/input error, 3 numerical non-convergence.  The MG_LOG_LEVEL
environment variable (error, warn, info, debug) controls logging verbosity.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import (
    Bidivergence,
    DataCloud,
    GramMatrix,
    InteractionWeights,
    _finite_matrix,
    _gram_phases,
    _validate_beta,
    bidivergence,
    generalized_gram,
    gram,
    squared_distance,
)
from .normalize import ConvergenceError, _validate_max_iter, _validate_tol
from .operators import (
    _diffusion,
    _max_hermitian_gap,
    attention_backward,
    attention_bistochastic,
    attention_forward,
    dmap,
    magnetic_operator,
    rbf_kernel,
)

# bridges, spectral and verify are imported by the commands that use them, so
# a command loads (and, without cached bytecode, compiles) only what it runs

log = logging.getLogger("markovgeom")

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

# marginal vectors: accepted silently within the strict bound, renormalized
# with a warning within the loose bound, rejected beyond it
_MARGINAL_STRICT = 1e-9
_MARGINAL_LOOSE = 1e-6


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _parse_cells(path, row_no: int, cells: list[str]) -> list[float]:
    """Parse one row cell by cell; the first bad cell raises with its location."""
    values = []
    for col_no, cell in enumerate(cells, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: row {row_no}, column {col_no}: "
                f"not a number: {cell.strip()!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(
                f"{path}: row {row_no}, column {col_no}: non-finite value"
            )
        values.append(value)
    return values


def _data_lines(text, skip_header: bool):
    """The non-blank lines of a text, broken where ``str.splitlines`` breaks
    them, a piece of the file at a time; the first line is dropped under
    ``skip_header``."""
    lines = (line for piece in text for line in piece.splitlines())
    return (line for line in islice(lines, int(skip_header), None) if line.strip())


def load_matrix(path, skip_header: bool = False) -> np.ndarray:
    """Parse a CSV of finite reals; errors carry the row/column location.

    Row numbers refer to data rows (a skipped header and blank lines do not
    count); a leading UTF-8 byte-order mark is dropped.  Python breaks the
    lines and numpy's C reader converts their cells, as ``float`` would, into
    the matrix.  Only a file numpy rejects or that holds a non-finite value is
    read again and walked row by row with ``float``: the walk names the first
    bad row, or reads the cells only ``float`` accepts, such as ``1_000``.
    """
    try:
        with open(path, encoding="utf-8-sig") as file:
            # a pipe can be read only once
            text = file if file.seekable() else io.StringIO(file.read())
            lines = _data_lines(text, skip_header)
            first = next(lines, None)  # numpy warns on an empty input
            if first is None:
                raise ValueError(f"{path}: empty file")
            try:
                return _finite_matrix(np.loadtxt(chain([first], lines), delimiter=",",
                                                 comments=None, ndmin=2), str(path))[0]
            except ValueError:
                text.seek(0)
                # whole, so that a decoding error anywhere wins over a bad row
                rows = [line.split(",") for line in _data_lines(text, skip_header)]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from None
    values = []
    for row_no, cells in enumerate(rows, start=1):
        values.append(_parse_cells(path, row_no, cells))
        if len(cells) != len(rows[0]):
            raise ValueError(f"{path}: row {row_no}: expected {len(rows[0])} columns, "
                             f"got {len(cells)}")
    return np.array(values)


def load_cloud(path, skip_header: bool = False) -> DataCloud:
    return DataCloud(load_matrix(path, skip_header))


def load_weights(path, skip_header: bool = False) -> InteractionWeights:
    return InteractionWeights(load_matrix(path, skip_header))


def load_marginal(path, n: int, skip_header: bool = False) -> np.ndarray:
    """Load a probability vector (single row or column), validated against n.

    The vector must sum to 1 within 1e-9; sums off by up to 1e-6 are
    renormalized with a warning, anything worse is rejected.
    """
    matrix = load_matrix(path, skip_header)
    if 1 not in matrix.shape:
        raise ValueError(f"{path}: expected a single row or column vector")
    vec = matrix.reshape(-1)
    if vec.shape[0] != n:
        raise ValueError(f"{path}: expected {n} entries, got {vec.shape[0]}")
    if np.any(vec <= 0.0):
        raise ValueError(f"{path}: marginal entries must be strictly positive")
    total = float(vec.sum())
    gap = abs(total - 1.0)
    if gap > _MARGINAL_LOOSE:
        raise ValueError(f"{path}: marginal sums to {total!r}, not 1")
    if gap > _MARGINAL_STRICT:
        log.warning("%s: marginal sums to %r; renormalizing", path, total)
    return vec / total


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


# A matrix is formatted by one process per available CPU, as long as each
# process gets at least this many cells; platforms without os.fork take the
# same formatter serially.  On two CPUs a fork and its pipe first pay off at
# about 2**17 CSV cells, 2**16 a process, and at about 2**16 JSON cells, whose
# text is some 40 % longer and costs as much more to write.
_PARALLEL_MIN_CELLS = 1 << 16
_PARALLEL_MIN_JSON_CELLS = 1 << 15
# cells per formatted text block, small enough that a block's temporaries
# (about 20 arrays of 8 bytes per cell) stay in a 2 MB L2 cache; and bytes
# per read of a worker's pipe
_BLOCK_CELLS = 1 << 13
_PIPE_READ = 1 << 20


# The kernels convert |x| in [_G17_MIN, _G17_MAX), whose decimal exponents
# lie in [_G17_EXP_MIN, _G17_EXP_MAX]; zeros too.  Each cell is written into a
# slot of _G17_TEXT bytes and its terminator, NUL-padded:
#   0      sign                     6      first digit
#   1-5    "0." and up to 3 zeros   7      point
#   8-23   digits 2-17              24-27  exponent, "e-05".."e-11"
#   28-    terminator, to a multiple of 4 bytes
_G17_MIN, _G17_MAX = 1e-11, 1e15
_G17_EXP_MIN, _G17_EXP_MAX = -11, 14
_G17_TEXT = 28
_MASK32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_ONE = np.uint64(1)


def _g17_tables():
    """The kernels' lookup tables, as uint32 words of the slot layout above.

    Returns the text of 0000..9999 followed by the same with trailing zeros
    as NUL, word 0 by (exponent, sign), word 1 by exponent, word 1's first
    digit and point by ``2 * digit + point``, and word 6 by exponent; then
    5**0..5**27 and 10**0..10**2.
    """
    k = np.arange(10_000, dtype=np.uint32)[:, None]
    place = np.uint32(10) ** np.arange(3, -1, -1, dtype=np.uint32)
    group = (k // place % np.uint32(10)).astype(np.uint8) + np.uint8(ord("0"))
    kept = k % (place * np.uint32(10)) != 0  # a nonzero digit here or after
    exps = np.arange(_G17_EXP_MIN, _G17_EXP_MAX + 1)
    small = (exps < 0) & (exps >= -4)  # fixed notation below 1
    sci = exps < -4                    # exponent notation
    slot = np.zeros((exps.size, 2, _G17_TEXT), dtype=np.uint8)
    slot[:, 1, 0] = ord("-")
    slot[:, :, 1] = (small * ord("0"))[:, None]
    slot[:, :, 2] = (small * ord("."))[:, None]
    slot[:, :, 3:6] = ((small[:, None] & (np.arange(3) < -1 - exps[:, None])) * ord("0"))[:, None]
    slot[:, :, 24] = (sci * ord("e"))[:, None]
    slot[:, :, 25] = (sci * ord("-"))[:, None]
    slot[:, :, 26] = (sci * (ord("0") + (-exps) // 10))[:, None]
    slot[:, :, 27] = (sci * (ord("0") + (-exps) % 10))[:, None]
    lead = np.zeros((10, 2, 4), dtype=np.uint8)
    lead[:, :, 2] = (np.arange(10) + ord("0"))[:, None]
    lead[:, 1, 3] = ord(".")
    words = slot.view(np.uint32)
    return (np.concatenate([group.view(np.uint32).ravel(), (group * kept).view(np.uint32).ravel()]),
            words[:, :, 0].ravel(), words[:, 0, 1].copy(), lead.view(np.uint32).ravel(),
            words[:, 0, 6].copy(), np.uint64(5) ** np.arange(28, dtype=np.uint64),
            np.uint64(10) ** np.arange(3, dtype=np.uint64))


(_DIGITS4, _G17_WORD0, _G17_WORD1, _G17_LEAD, _G17_WORD6,
 _POW5, _POW10) = _g17_tables()


def _g17_fallback(slots: np.ndarray, values: np.ndarray, cells: np.ndarray,
                  fmt: bytes = b"%.17g") -> None:
    """Write ``fmt % values[i]`` into the slot of each cell a kernel leaves
    out: nan, inf, subnormals and the cells outside its range."""
    texts = np.array([fmt % v for v in values[cells].tolist()], dtype=f"S{_G17_TEXT}")
    slots[cells, :_G17_TEXT] = texts.view(np.uint8).reshape(cells.size, -1)


def _shorten(floor, rest, shift, f) -> np.ndarray:
    """The fewest digits that read back as x, as a 17-digit integer with
    trailing zeros: V = floor + rest / 2**shift correctly rounded, half to
    even, to a unit 10**j of which a multiple lies inside the rounding
    interval (V - w, V + w), w = f / 2**(shift + 1) < 12.  Cells outside the
    kernel's range get digits that mean nothing.

    With h = (f - 1) / 2 the integers in the interval are [bottom, top], and
    a multiple of 10**j lies among them iff top % 10**j <= top - bottom.  The
    largest such j need not be found: once j >= 2, the multiple inside is
    within 12 of V and every other multiple of 100 is more than 88 away, so
    rounding to 10**2 gives the same integer as rounding to any coarser unit
    with a multiple inside.
    """
    h = f >> _ONE
    top = floor + ((rest + h) >> shift)
    width = top - floor - _ONE + ((h + (_ONE << shift) - rest) >> shift)
    tens = top // np.uint64(10)
    hundreds = tens // np.uint64(10)
    j = (top - tens * np.uint64(10) <= width).astype(np.intp) \
        + (top - hundreds * np.uint64(100) <= width)
    # in halves of a unit: 2V = doubled + a fraction, nonzero if inexact
    unit = _POW10[j]
    doubled = (floor << _ONE) | (rest >> (shift - _ONE))
    inexact = (rest & ((_ONE << (shift - _ONE)) - _ONE)) != 0
    quotient = doubled // (unit << _ONE)
    left = doubled - quotient * (unit << _ONE)
    up = (left > unit) | ((left == unit) & (inexact | ((quotient & _ONE) == _ONE)))
    return (quotient + up) * unit


def _decimal_slots(x: np.ndarray, shortest: bool, room: int) -> np.ndarray:
    """The text of each cell of the 1-D float64 ``x`` in a slot of the layout
    above, with ``room`` NUL bytes (a multiple of 4) for its terminator:
    ``'%.17g' % x`` or, if ``shortest``, ``repr(x)``, byte for byte.

    A cell is converted exactly, with no float arithmetic on its digits.
    Guess e10 = floor(log10|x|) and write |x| = M * 2**E with M < 2**53.  At
    the 17-digit scale x is V = M * 5**q * 2**(E + q) with q = 16 - e10 <= 27,
    so the product is a 128-bit integer of 32-bit limbs, split at bit s in
    [1, 63] into floor(V) and a remainder.

    ``%.17g`` takes D = round(V), half to even.  ``repr`` takes the fewest
    digits that read back as x (the exact-interval method of Adams, "Ryu",
    PLDI 2018): the rounding interval of x at this scale is
    (2M +- 1) * 5**q / 2**(s + 1), and D is V correctly rounded to the
    coarsest unit 10**j of which a multiple lies inside it (``_shorten``).
    The interval is symmetric, so that rounded value is the closest such
    multiple and lies inside too.  Its ends are odd multiples of
    2**-(s + 1), never on the integer grid, so whether an end counts as
    inside (when M is even) never decides.  A mantissa that is a power of
    two has an asymmetric interval and is left out.  The guess stands only
    if floor(V) >= 10**16 and D < 10**17; D = 10**17, a value next to a
    power of ten that reads back from it, is left out too.

    D is laid out by ``%g`` rules through a table of 4-digit groups, trailing
    fraction zeros as NUL; ``repr`` keeps the point and writes ".0" after an
    integral value in fixed notation.  Left-out cells are formatted one by
    one by ``_g17_fallback``.
    """
    a = np.abs(x)
    fast = (a >= _G17_MIN) & (a < _G17_MAX)
    zero = a == 0.0
    a_fast = np.where(fast, a, 1.0)
    mantissa, exponent = np.frexp(a_fast)
    e10 = np.floor(np.log10(a_fast)).astype(np.int64)
    shift = 37 + e10 - exponent  # 53 - exponent - q
    fast &= (e10 >= _G17_EXP_MIN) & (shift >= 1) & (shift <= 63)
    shift = np.clip(shift, 1, 63).astype(np.uint64)
    # M * 5**q as hi * 2**64 + lo, from four 32 x 32-bit products
    m = (mantissa * 2.0**53).astype(np.uint64)
    f = _POW5[np.clip(16 - e10, 0, 27)]
    m0, m1 = m & _MASK32, m >> _SHIFT32
    f0, f1 = f & _MASK32, f >> _SHIFT32
    p00, p01, p10 = m0 * f0, m0 * f1, m1 * f0
    mid = (p00 >> _SHIFT32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo = ((mid & _MASK32) << _SHIFT32) | (p00 & _MASK32)
    hi = m1 * f1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    floor = (lo >> shift) | (hi << (np.uint64(64) - shift))
    half = _ONE << (shift - _ONE)
    rest = lo & ((half << _ONE) - _ONE)
    if shortest:
        fast &= m != np.uint64(1 << 52)
        digits = _shorten(floor, rest, shift, f)
    else:
        odd = (floor & _ONE) == _ONE
        digits = floor + ((rest > half) | ((rest == half) & odd))
    fast &= ((hi >> shift) == np.uint64(0)) & (floor >= np.uint64(10**16)) \
        & (digits < np.uint64(10**17))
    # zeros, and the cells left to the fallback, take D = 0 at exponent 0
    digits[~fast] = 0
    e10 = np.where(fast, e10, 0)
    index = e10 - _G17_EXP_MIN
    high = (digits // np.uint64(10**8)).astype(np.uint32)
    low = (digits - high.astype(np.uint64) * np.uint64(10**8)).astype(np.uint32)
    ten4 = np.uint32(10**4)
    first = high // np.uint32(10**8)
    high -= first * np.uint32(10**8)
    second, fourth = high // ten4, low // ten4
    groups = (first, second, high - second * ten4, fourth, low - fourth * ten4)
    words = np.empty((x.size, (_G17_TEXT + room) // 4), dtype=np.uint32)
    words[:, 0] = _G17_WORD0[2 * index + np.signbit(x)]
    # a group in the zero tail is read from the stripped half of the table
    stripped = np.full(x.size, 10_000, dtype=np.uint32)
    for k in (4, 3, 2, 1):
        words[:, k + 1] = _DIGITS4[groups[k] + stripped]
        stripped *= groups[k] == 0
    tail_zero = stripped != 0
    # the point follows the first digit except below 1 in fixed notation,
    # where the prefix holds it; when no digit follows, %g drops it, and
    # repr drops it in exponent notation only
    point = ~tail_zero & ((e10 < -4) | (e10 >= 0))
    if shortest:
        point |= e10 >= 0
    words[:, 1] = _G17_WORD1[index] | _G17_LEAD[2 * groups[0] + point]
    words[:, 6] = _G17_WORD6[index]
    words[:, _G17_TEXT // 4:] = 0
    slots = words.view(np.uint8)
    # at 10 <= |x| < 1e15 the point moves right past e10 more digits, which
    # keep their zeros: %g writes it only if a fraction digit is left
    wide = np.flatnonzero(e10 > 0)
    for e in np.flatnonzero(np.bincount(e10[wide])):
        cells = wide[e10[wide] == e]
        text = np.stack([_DIGITS4[g[cells]] for g in groups[1:]], axis=1).view(np.uint8)
        if shortest:
            slots[cells, 7 + e] = ord(".")
        else:
            slots[cells, 7 + e] = (slots[cells, 8 + e:24] != 0).any(axis=1) * ord(".")
        slots[cells, 7:7 + e] = text[:, :e]
    if shortest:
        # no fraction digit left after the point: repr writes a 0 there
        fixed = np.flatnonzero(e10 >= 0)
        after = 8 + e10[fixed]
        slots[fixed, after] |= (slots[fixed, after] == 0) * np.uint8(ord("0"))
    left = np.flatnonzero(~(fast | zero))
    if left.size:
        _g17_fallback(slots, x, left, b"%r" if shortest else b"%.17g")
    return slots


def _cell_text(matrix: np.ndarray, lo: int, hi: int, shortest: bool, sep: bytes,
               end: bytes, last: bytes) -> bytes:
    """Cells ``lo:hi`` of the row-major 2-D float64 ``matrix`` as
    ``_decimal_slots`` writes them, each followed by ``sep``, the last of a
    row by ``end`` and the last of the matrix by ``last``."""
    cols, width = matrix.shape[1], max(len(sep), len(end), len(last))
    sep, end, last = (np.frombuffer(text.ljust(width, b"\0"), dtype=np.uint8)
                      for text in (sep, end, last))
    slots = _decimal_slots(matrix.reshape(-1)[lo:hi], shortest, -(-width // 4) * 4)
    tails = slots[:, _G17_TEXT:_G17_TEXT + width]
    tails[:] = sep
    tails[(-lo - 1) % cols::cols] = end  # flat index i ends a row if i % cols == cols - 1
    if hi == matrix.size:
        tails[-1] = last
    return slots.tobytes().translate(None, b"\0")


def _emit_workers(matrix: np.ndarray, min_cells: int = _PARALLEL_MIN_CELLS) -> int:
    """Number of processes that format ``matrix``, the caller included: one
    per CPU, as long as each gets at least ``min_cells`` cells."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, max(1, matrix.size // min_cells))


def _format_rows(matrix: np.ndarray, lo: int, hi: int, indent):
    """Yield the text of cells ``lo:hi`` of the row-major ``matrix`` as ASCII
    blocks of up to ``_BLOCK_CELLS`` cells.

    ``indent`` is None for CSV (cells joined by ``,``, each row ended by
    ``\\n``), or the indentation of the JSON line that holds the matrix:
    each row is then a list, one ``float.__repr__`` cell per line, as
    ``json.dumps(matrix.tolist(), indent=2)`` writes it there, and rows are
    joined by ``,``.  The texts of consecutive ranges concatenate to the text
    of the whole matrix; a matrix with no columns has no cells and is written
    whole by the range that starts at 0.
    """
    rows, cols = matrix.shape
    if indent is None:
        if not cols:
            yield b"\n" * rows
        marks = (b",", b"\n", b"\n")
    else:
        row, cell = b"\n" + b" " * (indent + 2), b"\n" + b" " * (indent + 4)
        opening, closing = row + b"[" + cell, row + b"]"
        if not cols:
            yield b",".join([row + b"[]"] * rows)
        elif lo == 0:  # a row ends in the opening of the next: only row 0 opens here
            yield opening
        marks = (b"," + cell, closing + b"," + opening, closing)
    for start in range(lo, hi, _BLOCK_CELLS):
        yield _cell_text(matrix, start, min(start + _BLOCK_CELLS, hi), indent is not None, *marks)


def _fork_formatter(matrix: np.ndarray, lo: int, hi: int, indent):
    """Fork a worker that formats cells ``lo:hi`` and writes them to a pipe.

    The worker holds its range's text until it is done, so it never waits on
    the pipe while the caller formats its own range.  It only formats and
    writes, then leaves through ``os._exit``: no BLAS call, no logging, no
    stdio flush, no parent cleanup.  Returns ``(pid, read_fd)``.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for block in list(_format_rows(matrix, lo, hi, indent)):
                view = memoryview(block)
                while view:
                    view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _write_rows(fh, matrix: np.ndarray, indent, workers: int) -> None:
    """Write the text of every cell of ``matrix`` to the binary file ``fh``.

    The row-major cells are split into ``workers`` contiguous ranges, which
    may end mid-row.  The caller formats the first range and streams it; each
    other range comes from a forked worker, whose bytes are copied from its
    pipe in order.  The bytes do not depend on ``workers``.  A worker that
    fails raises ``ChildProcessError``.
    """
    workers = max(1, min(workers, matrix.size))
    bounds = [matrix.size * i // workers for i in range(workers + 1)]
    children = []
    failed = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_formatter(matrix, lo, hi, indent))
        for block in _format_rows(matrix, 0, bounds[1], indent):
            fh.write(block)
        for _, read_fd in children:
            while piece := os.read(read_fd, _PIPE_READ):
                fh.write(piece)
    finally:
        # a worker inherits the read ends of the pipes made before it, so all
        # must close before any wait: then a worker still writing after an
        # error gets EPIPE and exits instead of blocking
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failed.append(code)
    if failed:
        raise ChildProcessError(
            f"{fh.name}: {len(failed)} of {workers - 1} formatting workers failed "
            f"(exit codes {failed})"
        )


def _write_file(path, write) -> None:
    """Call ``write(fh)`` on ``path`` opened for binary writing; on any
    failure, remove the partial file before the error propagates."""
    fh = open(path, "wb")
    try:
        with fh:
            write(fh)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_matrix_csv(path, matrix) -> None:
    """Row-major CSV at 17 significant digits (round-trips float64 exactly).

    Byte-identical to ``np.savetxt(path, matrix, fmt="%.17g", delimiter=",")``
    whatever the number of CPUs that format it.  The cells are converted by
    the exact kernel ``_decimal_slots``; a cell outside its range (nan, inf,
    subnormal, |x| < 1e-11 or >= 1e15) goes to ``'%.17g' % x``.
    """
    matrix = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=float)))
    if matrix.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D matrix, got shape {matrix.shape}")
    _write_file(path, lambda fh: _write_rows(fh, matrix, None, _emit_workers(matrix)))


def _placeholder(index: int) -> str:
    # no argument or path can hold a NUL, so no other report string equals this
    return f"\0markovgeom-matrix-{index}"


def _stub_matrices(value, matrices: list):
    """Copy of a report with each finite 2-D float64 array replaced by a
    placeholder string and appended to ``matrices``; other arrays become lists."""
    if isinstance(value, dict):
        return {key: _stub_matrices(item, matrices) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stub_matrices(item, matrices) for item in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype == np.float64 and np.isfinite(value).all():
            matrices.append(np.ascontiguousarray(value))
            return _placeholder(len(matrices) - 1)
        return value.tolist()
    return value


def _write_json_matrix(fh, matrix: np.ndarray, indent: int) -> None:
    """The ``indent=2`` JSON of ``matrix.tolist()`` for a value whose line is
    indented by ``indent`` spaces; floats are written as ``float.__repr__``
    writes them, by the exact kernel ``_decimal_slots``."""
    if matrix.shape[0] == 0:
        fh.write(b"[]")
        return
    fh.write(b"[")
    _write_rows(fh, matrix, indent, _emit_workers(matrix, _PARALLEL_MIN_JSON_CELLS))
    fh.write(f"\n{' ' * indent}]".encode("ascii"))


def write_report_json(path, report: dict) -> None:
    """Write ``json.dumps(report, indent=2)`` and a newline.

    A finite 2-D float64 array anywhere in the report is written as its
    nested list by the cell-range formatter, into the text that ``json.dumps``
    makes of the rest of the report; the file is byte-identical to dumping
    the report with every array replaced by ``array.tolist()``.
    """
    matrices: list[np.ndarray] = []
    text = json.dumps(_stub_matrices(report, matrices), indent=2) + "\n"

    def write(fh):
        pos = 0
        for index, matrix in enumerate(matrices):
            token = json.dumps(_placeholder(index))
            at = text.index(token, pos)
            line = text[text.rfind("\n", 0, at) + 1:at]
            fh.write(text[pos:at].encode("ascii"))
            _write_json_matrix(fh, matrix, len(line) - len(line.lstrip(" ")))
            pos = at + len(token)
        fh.write(text[pos:].encode("ascii"))

    _write_file(path, write)


def emit(report: dict, matrices: dict[str, np.ndarray], args) -> None:
    """Write the matrices (CSV) and the report (JSON) under ``--out-dir``.

    The report goes to ``<command>_report.json``; each matrix to
    ``<name>.csv``, or to ``--out`` for the commands that take it (each writes
    one matrix).  ``--format json`` inlines the matrices into the report
    instead of writing separate files.
    """
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if getattr(args, "format", "csv") == "json":
        if matrices:
            report = dict(report)
            report["matrices"] = {
                name: np.atleast_2d(np.asarray(values, dtype=float))
                for name, values in matrices.items()
            }
    else:
        out = getattr(args, "out", None)
        for name, values in matrices.items():
            path = Path(out) if out else out_dir / f"{name}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write_matrix_csv(path, values)
    write_report_json(out_dir / f"{args.command}_report.json", report)


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------


class Geometry(NamedTuple):
    """The query-key geometry every command normalizes in its own way."""

    cloud: DataCloud
    gram: GramMatrix
    biv: Bidivergence
    d2: np.ndarray


class Outcome(NamedTuple):
    """What a command computed: report results (without ``size``; verify's
    ``checks`` and ``all_passed``), matrices to emit, the stdout summary and
    the exit code."""

    results: dict
    matrices: dict[str, np.ndarray]
    summary: str
    code: int = EXIT_OK


def _auto_median(d2: np.ndarray) -> float:
    """``np.median`` of the off-diagonal entries of the exactly symmetric
    ``d2``, bitwise, from its strict upper triangle.

    Each of the m upper entries occurs twice off the diagonal, so the two
    middle values of all 2m are entries (m - 1) // 2 and m // 2 of the sorted
    upper ones, and their mean is formed as ``np.median`` forms it.  One
    in-place partition of the gathered entries at m // 2 finds the upper one;
    for an even m the lower one is the maximum of the part below it.
    ``np.median`` would import numpy.ma to look for NaNs, and d2 holds none.
    """
    upper = d2[~np.tri(d2.shape[0], dtype=bool)]
    middle = upper.size // 2
    upper.partition(middle)
    high = upper[middle]
    low = upper[:middle].max() if upper.size % 2 == 0 else high
    return float((low + high) / 2)


def _resolve_beta(beta_arg: str, d2: np.ndarray) -> float:
    if beta_arg == "auto":
        median = _auto_median(d2)
        if median <= 0.0:
            raise ValueError(
                "cannot resolve beta automatically: median off-diagonal "
                f"squared distance is not positive (got {median:g})"
            )
        return _validate_beta(1.0 / median)
    try:
        beta = float(beta_arg)
    except ValueError:
        raise ValueError(f"beta must be a positive number or 'auto', got {beta_arg!r}") from None
    return _validate_beta(beta)


def _load_geometry(args) -> Geometry:
    cloud = load_cloud(args.input, args.skip_header)
    weights = load_weights(args.weights, args.skip_header) if getattr(args, "weights", None) else None
    gram_matrix = generalized_gram(cloud, weights) if weights is not None else gram(cloud)
    biv = bidivergence(gram_matrix)
    return Geometry(cloud, gram_matrix, biv, squared_distance(biv))


def _config_echo(args, beta: float) -> dict:
    config = {"input": args.input}
    for key in ("weights", "direction", "bistochastic", "kernel", "mu_plus", "mu_minus",
                "t", "k", "tol", "max_iter", "format", "skip_header"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    config["beta_arg"] = args.beta
    config["beta"] = float(beta)
    return config


def _marginals(args, n: int, intrinsic):
    """Resolve --mu-plus and --mu-minus, each a CSV path or 'stationary'.

    'stationary' is ``intrinsic()``, the intrinsic distribution of the
    selected kernel: the stationary measure of the diffusion operator (the
    normalized kernel degrees) for the distance kernel, that of forward
    attention for the directional kernel.  Equal arguments are resolved once.
    """
    def resolve(source):
        if source == "stationary":
            return intrinsic()
        return load_marginal(source, n, args.skip_header)

    mu_plus = resolve(args.mu_plus)
    return mu_plus, mu_plus if args.mu_minus == args.mu_plus else resolve(args.mu_minus)


def _regime_results(regime) -> dict:
    return {
        "regime": regime.regime,
        "max_current": regime.max_current,
        "current_threshold": regime.current_threshold,
        "stationarity_residual": regime.stationarity_residual,
        "marginal_gap": regime.marginal_gap,
    }


def _run(args) -> int:
    """The one command pipeline: load the geometry, resolve beta, run the
    command, write its report and matrices, print its summary."""
    if getattr(args, "out", None) and args.format == "json":
        raise ValueError("--out names a CSV file and cannot be combined with --format json")
    # checked here, not where a solver takes them: some paths run no solver
    if hasattr(args, "tol"):
        _validate_tol(args.tol)
    if hasattr(args, "max_iter"):
        _validate_max_iter(args.max_iter)
    geo = _load_geometry(args)
    beta = _resolve_beta(args.beta, geo.d2)
    try:
        outcome = args.func(args, geo, beta)
    except ConvergenceError as exc:
        budget = " or raise --max-iter" if hasattr(args, "max_iter") else ""
        raise ConvergenceError(f"{exc} at beta={beta:g}: reduce --beta{budget}",
                               exc.residual, exc.iterations) from exc
    report = {"command": args.command, "config": _config_echo(args, beta)}
    if args.command == "verify":
        report.update(outcome.results)
    else:
        report["results"] = {"size": geo.cloud.n_samples, **outcome.results}
    emit(report, outcome.matrices, args)
    print(outcome.summary)
    return outcome.code


# ---------------------------------------------------------------------------
# commands: each computes its results from the geometry at one beta
# ---------------------------------------------------------------------------


def cmd_dmap(args, geo: Geometry, beta: float) -> Outcome:
    operator = dmap(geo.d2, beta)
    residual = operator.residuals["row"]
    return Outcome(
        {"row_sum_residual": residual, "row_sum_tolerance": 1e-12},
        {"dmap": operator.values},
        f"dmap: N={geo.cloud.n_samples} beta={beta:.6g} row-sum residual {residual:.3e}",
    )


def cmd_kernel(args, geo: Geometry, beta: float) -> Outcome:
    kernel = rbf_kernel(geo.d2, beta)
    symmetry = _max_hermitian_gap(kernel.values)
    return Outcome(
        {
            "symmetry_residual": symmetry,
            "symmetry_tolerance": 1e-12,
            "min_entry": float(kernel.values.min()),
        },
        {"kernel": kernel.values},
        f"kernel: N={geo.cloud.n_samples} beta={beta:.6g} symmetry residual {symmetry:.3e}",
    )


def cmd_attention(args, geo: Geometry, beta: float) -> Outcome:
    if args.bistochastic:
        operator = attention_bistochastic(
            geo.biv, beta, direction=args.direction, tol=args.tol, max_iter=args.max_iter
        )
        variant = f"bistochastic-{args.direction}"
    elif args.direction == "fwd":
        operator = attention_forward(geo.biv, beta)
        variant = "fwd"
    else:
        operator = attention_backward(geo.biv, beta)
        variant = "bwd"
    results = {"variant": variant, "kind": operator.kind,
               **{f"{axis}_sum_residual": r for axis, r in operator.residuals.items()}}
    return Outcome(
        results,
        {"attention": operator.values},
        f"attention ({variant}): N={geo.cloud.n_samples} beta={beta:.6g} kind={operator.kind}",
    )


def cmd_bridge(args, geo: Geometry, beta: float) -> Outcome:
    from .bridges import attention_bridge, classify_regime, solve_bridge

    def positive(pi):  # a stationary entry can underflow, or round to 0 and be clipped
        if pi.min() <= 0.0:
            raise ValueError(f"stationary marginal has entries that are zero at beta={beta:g}: "
                             "a bridge needs strictly positive marginals; reduce beta")
        return pi

    n = geo.cloud.n_samples
    if args.kernel == "rbf":
        kernel = rbf_kernel(geo.d2, beta).values
        mu_plus, mu_minus = _marginals(args, n, lambda: positive(_diffusion(geo.d2, beta)[1]))
        bridge = solve_bridge(kernel, mu_plus, mu_minus, tol=args.tol, max_iter=args.max_iter)
    else:
        mu_plus, mu_minus = _marginals(args, n, lambda: positive(_attention_stationary(
            geo, attention_forward(geo.biv, beta), beta, args.tol)))
        largest = float(geo.biv.fwd.max())
        if np.exp(largest * -beta) == 0.0:  # the least entry of exp(-beta * fwd)
            raise _underflow("attention kernel", beta,
                             f"the largest forward divergence {largest:g}")
        bridge = attention_bridge(geo.biv, beta, mu_plus, mu_minus, tol=args.tol,
                                  max_iter=args.max_iter)
    # the bridge meets each marginal within --tol, so mu_plus P may miss
    # mu_plus by twice that
    regime = classify_regime(bridge.forward, mu_plus, mu_minus, tol=max(1e-10, 2.0 * args.tol))
    potentials = bridge.potentials
    results = {
        "iterations": potentials.iterations,
        "marginal_residual": potentials.residual,
        **_regime_results(regime),
    }
    matrices = {
        "coupling": bridge.coupling,
        "forward": bridge.forward.values,
        "u_plus": potentials.u,
        "u_minus": potentials.v,
        "mu_plus": mu_plus,
        "mu_minus": mu_minus,
    }
    return Outcome(
        results,
        matrices,
        f"bridge ({args.kernel}): N={n} beta={beta:.6g} regime={regime.regime} "
        f"residual {potentials.residual:.3e} in {potentials.iterations} iterations",
    )


def cmd_classify(args, geo: Geometry, beta: float) -> Outcome:
    from .bridges import classify_regime

    n = geo.cloud.n_samples
    if args.kernel == "rbf":
        operator, pi = _diffusion(geo.d2, beta)
        mu_plus, mu_minus = _marginals(args, n, lambda: pi)
    else:
        operator = attention_forward(geo.biv, beta)
        mu_plus, mu_minus = _marginals(
            args, n, lambda: _attention_stationary(geo, operator, beta, args.tol))
    # no tighter than the tol a 'stationary' marginal was solved to, as in bridge
    regime = classify_regime(operator, mu_plus, mu_minus, tol=max(1e-10, 2.0 * args.tol))
    return Outcome(
        _regime_results(regime),
        {"currents": regime.currents},
        f"classify ({args.kernel}): regime={regime.regime} "
        f"max current {regime.max_current:.3e} (threshold {regime.current_threshold:.3e})",
    )


def _underflow(what: str, beta: float, reach: str) -> ValueError:
    return ValueError(f"{what} underflowed to zero: beta={beta:g} times {reach} "
                      "exceeds the exponential range; reduce beta")


def _attention_stationary(geo: Geometry, operator, beta: float, tol: float):
    """``stationary_distribution`` of forward attention, which is unique only
    when every entry is positive.  Entry (i, j) is e^(-beta (fwd_ij - min_k
    fwd_ik)) over its row sum, so a zero is a beta too large for a row's spread."""
    from .bridges import stationary_distribution

    if operator.values.min() == 0.0:
        spread = float(np.ptp(geo.biv.fwd, axis=1).max())
        raise _underflow("attention", beta, f"the spread {spread:g} of a forward divergence row")
    return stationary_distribution(operator, tol=tol)


def _reversible_diffusion(geo: Geometry, beta: float):
    """``_diffusion`` for the commands that conjugate by sqrt(pi), which needs
    every entry of pi positive.  Entry i is proportional to s_i e^(-beta r_i)
    with s_i >= 1 and r_i the smallest squared distance from point i less the
    smallest overall, so an underflowed entry is a beta too large for the
    spread of r, as the message says."""
    operator, pi = _diffusion(geo.d2, beta)
    if pi.min() == 0.0:
        spread = float(np.ptp(geo.d2.min(axis=1)))
        raise _underflow("stationary measure", beta,
                         f"the spread {spread:g} of each point's smallest squared distance")
    return operator, pi


def cmd_magnetic(args, geo: Geometry, beta: float) -> Outcome:
    from .bridges import magnetic_flux
    from .spectral import conjugate_hermitize

    operator, pi = _reversible_diffusion(geo, beta)
    phased = magnetic_operator(operator, _gram_phases(geo.gram.values, beta))
    _, current = magnetic_flux(pi, phased)
    hermitized = conjugate_hermitize(phased, pi)
    hermiticity = _max_hermitian_gap(hermitized)
    eigenvalues = np.linalg.eigvalsh(hermitized)[::-1]  # eigvalsh is ascending
    results = {
        "magnitude_residual": float(np.abs(phased.magnitudes.values - operator.values).max()),
        "hermiticity_residual": hermiticity,
        "max_magnetic_current": float(np.abs(current).max()),
        "eigenvalues": [float(v) for v in eigenvalues],
    }
    matrices = {
        "magnetic_magnitude": phased.magnitudes.values,
        "magnetic_phase": phased.phases,
        "magnetic_current": current,
    }
    return Outcome(
        results,
        matrices,
        f"magnetic: N={geo.cloud.n_samples} beta={beta:.6g} "
        f"hermiticity residual {hermiticity:.3e}",
    )


def cmd_embed(args, geo: Geometry, beta: float) -> Outcome:
    from .spectral import conjugate_symmetrize, decompose, diffusion_embedding

    operator, pi = _reversible_diffusion(geo, beta)
    dec = decompose(conjugate_symmetrize(operator, pi), pi)
    embedding = diffusion_embedding(dec, t=args.t, k=args.k)
    return Outcome(
        {
            "eigenvalues": [float(v) for v in dec.eigenvalues[: args.k + 1]],
            "degenerate": dec.degenerate,
        },
        {"embedding": embedding.coordinates},
        f"embed: N={geo.cloud.n_samples} beta={beta:.6g} t={args.t:g} k={args.k} "
        f"lambda_2={dec.eigenvalues[1]:.6g}",
    )


def _format_check_line(check) -> str:
    status = "PASS" if check.passed else "FAIL"
    ok = sum(1 for p in check.parts if p["passed"])
    return f"{check.id:<4} {status}  {check.name} ({ok}/{len(check.parts)} parts)"


def cmd_verify(args, geo: Geometry, beta: float) -> Outcome:
    from .verify import run_identity_checks

    checks = run_identity_checks(geo.cloud, beta)
    passed = sum(1 for c in checks if c.passed)
    all_passed = passed == len(checks)
    verdict = "all identities hold" if all_passed else "verification FAILED"
    lines = [_format_check_line(c) for c in checks]
    lines.append(f"{verdict} ({passed}/{len(checks)} criteria)")
    return Outcome(
        {"checks": [c.as_dict() for c in checks], "all_passed": all_passed},
        {},
        "\n".join(lines),
        EXIT_OK if all_passed else EXIT_VERIFY_FAIL,
    )


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovgeom",
        description=(
            "Markov geometry toolkit: divergence pairs, attention and diffusion "
            "operators, entropic bridges, magnetic diffusion, and an identity "
            "verification suite."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def parent():
        return argparse.ArgumentParser(add_help=False)

    common = parent()
    common.add_argument("--input", required=True, help="point-cloud CSV, one sample per row")
    common.add_argument("--skip-header", action="store_true", help="ignore the first CSV line")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--beta", default="auto",
                        help="inverse temperature, or 'auto' for 1/median off-diagonal D^2")
    formatted = parent()
    formatted.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="csv: matrices as files; json: matrices inlined in the report")
    weighted = parent()
    weighted.add_argument("--weights", help="optional D x D interaction-weight CSV")
    tol = parent()
    tol.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    budget = parent()
    budget.add_argument("--max-iter", type=int, default=10_000, dest="max_iter",
                        help="solver iteration budget")
    marginals = parent()
    marginals.add_argument("--kernel", choices=("rbf", "attention"), default="rbf")
    marginals.add_argument("--mu-plus", required=True, dest="mu_plus",
                           help="source marginal CSV, or 'stationary'")
    marginals.add_argument("--mu-minus", required=True, dest="mu_minus",
                           help="sink marginal CSV, or 'stationary'")

    def command(name, func, parents, summary, out=None):
        """Add a subcommand; ``out`` names the one matrix that --out can move."""
        sp = subparsers.add_parser(name, parents=[common, *parents], help=summary)
        sp.set_defaults(func=func)
        if out:
            sp.add_argument("--out", help=f"path for the {out} CSV (default <out-dir>/{out}.csv)")
        return sp

    command("dmap", cmd_dmap, [formatted, weighted], "row-stochastic diffusion operator",
            out="dmap")
    command("kernel", cmd_kernel, [formatted, weighted], "Gaussian distance kernel",
            out="kernel")
    sp = command("attention", cmd_attention, [formatted, weighted, tol, budget],
                 "directional attention operator", out="attention")
    sp.add_argument("--direction", choices=("fwd", "bwd"), default="fwd")
    sp.add_argument("--bistochastic", action="store_true",
                    help="doubly stochastic scaling instead of one-sided softmax")
    command("bridge", cmd_bridge, [formatted, weighted, tol, budget, marginals],
            "entropic bridge between two marginals")
    command("classify", cmd_classify, [formatted, weighted, tol, marginals],
            "EQ/NESS/NE regime of an operator with marginals")
    sp = command("magnetic", cmd_magnetic, [formatted],
                 "phased diffusion operator from asymmetric weights")
    sp.add_argument("--weights", required=True, help="D x D interaction-weight CSV")
    sp = command("embed", cmd_embed, [formatted, weighted], "diffusion coordinates",
                 out="embedding")
    sp.add_argument("--t", type=float, default=1.0, help="diffusion time")
    sp.add_argument("--k", type=int, default=2, help="number of coordinates")
    command("verify", cmd_verify, [], "run the full identity-verification suite")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("MG_LOG_LEVEL", "warn").lower()
    level = _LOG_LEVELS.get(level_name)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; --help exits with 0
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _run(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
