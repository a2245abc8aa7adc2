"""CSV table writer of the sweep and evolve subcommands.

Every float cell is exactly ``format(v, '.17g')``, so files round-trip
bit-exactly.  The writer forms it in numpy: 17 digits from the rounded
extended-precision significand |v| * 10**(16 - e), laid out by the ``g``
rules, with Python's ``%`` for zero, inf, nan and cells within the rounding
error of a tie.  A table of more than one block is formatted two blocks at
a time, on the calling thread and one helper thread.

Only the subcommands that write a table import this module, so the others
do not compile it.
"""

from __future__ import annotations

import functools
import threading
import zlib
from typing import BinaryIO

import numpy as np

#: Cells the CSV table writer formats per block; a block takes about 90
#: bytes a cell while it is formatted.  Blocks this large spend most of their
#: time in numpy calls that release the GIL, so two of them format in
#: parallel; with small blocks the two threads mostly wait for each other.
_BLOCK_CELLS = 32768

#: A cell whose extended-precision significand s = |v| * 10**(16 - e) lies
#: closer than ``_TIE_MARGIN * s`` to a rounding tie is formatted by ``%``.
#: s carries two roundings (table entry and product), at most eps * s
#: together; the margin is twice that.  Where long double is only a double
#: the margin exceeds 0.5 (s >= 1e16), so every cell takes ``%``.
_TIE_MARGIN = 2.0 * float(np.finfo(np.longdouble).eps)

#: Widest ``.17g`` text of a float64: ``-d.dddddddddddddddde-ddd``.
_CELL = 24

# Rows of the per-block source table a cell's text is gathered from: the
# 17 significand digits are rows 0..16, the exponent's hundreds, tens and
# units digits rows _EXP.._EXP + 2.
_POINT, _ZERO, _NUL, _SIGN, _E, _EXP_SIGN, _EXP = range(17, 24)
_SEP = _EXP + 3

_POWERS_FROM = -292  # 10**(16 - e) for e from 308 down to -324


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """Correctly rounded long-double powers of ten, and the source rows of
    each cell's text indexed by ``17 * layout + digits - 1``.

    A layout is fixed notation for exponents -4..16 (0..20), or the
    exponent notation with two (21) or three (22) exponent digits.  Its
    row spells all 17 digits; for ``digits`` significant digits the
    stripped trailing ones, and a point left bare, read ``_NUL`` instead.
    Every row ends with the cell separator at ``_CELL``.
    """
    powers = np.array(
        [f"1e{k}" for k in range(_POWERS_FROM, 341)], dtype=np.longdouble
    )
    full = np.full((23, _CELL + 1), _NUL)
    full[:, -1] = _SEP
    for layout in range(23):
        exponent = layout - 4
        if layout > 20:
            row = [0, _POINT, *range(1, 17), _E, _EXP_SIGN]
            row += range(_EXP + (layout == 21), _EXP + 3)
        elif exponent < 0:
            row = [_ZERO, _POINT] + [_ZERO] * (-exponent - 1) + [*range(17)]
        elif exponent < 16:
            row = [*range(exponent + 1), _POINT, *range(exponent + 1, 17)]
        else:
            row = [*range(17)]
        full[layout, : len(row) + 1] = [_SIGN, *row]
    digits = np.arange(1, 18)[:, None]
    fraction = np.cumsum(full == _POINT, axis=1)[:, None] > 0
    stripped = fraction & (full[:, None] < 17) & (full[:, None] >= digits)
    after = np.roll(full, -1, axis=1)[:, None]
    bare = (full[:, None] == _POINT) & (after < 17) & (after >= digits)
    rows = np.where(stripped | bare, _NUL, full[:, None])
    return powers, rows.reshape(-1, _CELL + 1)


def _significands(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 17-digit significand s and decimal exponent e of each finite
    non-zero value, v = s * 10**(e - 16) rounded, and the mask of cells whose
    s is certain: zero, inf, nan and the near-ties of ``_TIE_MARGIN`` are not.

    e comes from ``log10`` and is moved by one where the product below
    leaves [1e16, 1e17), and the product is redone there; s is
    ``rint(|v| * 10**(16 - e))`` in long double, and a rounding up to 1e17
    moves e up.  e is int16, which holds every decimal exponent of a double.
    """
    powers, _ = _layout()
    mag = np.abs(flat)
    certain = (mag > 0) & (mag < np.inf)
    mag[~certain] = 1.0
    exponent = np.floor(np.log10(mag)).astype(np.int16)
    # A long-double power times a double: mag is widened in small chunks.
    scaled = powers[16 - _POWERS_FROM - exponent] * mag
    # Only the few cells whose e moves are multiplied again; the others
    # keep their operands, so their product is the same.
    moved = np.flatnonzero((scaled >= 1e17) | (scaled < 1e16))
    exponent[moved] += np.where(scaled[moved] >= 1e17, 1, -1).astype(np.int16)
    scaled[moved] = powers[16 - _POWERS_FROM - exponent[moved]] * mag[moved]
    nearest = np.rint(scaled)
    # inf - inf where a power of ten overflows a double-only long double.
    with np.errstate(invalid="ignore"):
        off = np.abs((scaled - nearest).astype(np.float64))
    certain &= off <= 0.5 - _TIE_MARGIN * scaled.astype(np.float64)
    significand = np.where(certain, nearest, 1e16).astype(np.uint64)
    carry = significand == 10**17
    significand[carry] = 10**16
    exponent += carry
    return certain, significand, exponent


def _digits(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """The source table of ``_format_block`` with the 17 significand digits
    of each cell (see ``_significands``) in ASCII in rows 0..16, the mask of
    certain cells, the exponents and the digit counts once trailing zeros
    are stripped.  The significands' intermediates are freed before the
    table is allocated and on return, which keeps a block's peak down."""
    certain, significand, exponent = _significands(flat)
    source = np.empty((_SEP + 1, flat.size), np.uint8)
    low = (significand % np.uint64(10**8)).astype(np.uint32)
    high = (significand // np.uint64(10**8)).astype(np.uint32)
    digits = np.full(flat.size, 17, np.int8)
    trailing = np.ones(flat.size, bool)
    for part, places in ((low, range(16, 8, -1)), (high, range(8, -1, -1))):
        for place in places:
            quotient = part // np.uint32(10)
            digit = part - quotient * np.uint32(10)
            trailing &= digit == 0
            digits -= trailing
            source[place] = digit + ord("0")
            part = quotient
    return source, certain, exponent, digits


def _format_block(values: np.ndarray, end: str) -> np.ndarray:
    """``format(v, '.17g')`` of every cell of the 2-d ``values``, as one
    NUL-padded uint8 row per table row: cells are ``_CELL + 1`` bytes, the
    last one the separator, ``,`` or ``end`` after the last column.

    The text of a certain cell (see ``_significands``) is gathered from its
    digits, sign, point and exponent by the ``_layout`` row of its exponent
    and stripped digit count, i.e. by the ``g`` rules; the other cells are
    formatted by one ``%`` call.
    """
    n = values.size
    flat = values.ravel()
    source, certain, exponent, digits = _digits(flat)
    power = np.abs(exponent)
    source[_POINT] = ord(".")
    source[_ZERO] = ord("0")
    source[_NUL] = 0
    source[_SIGN] = np.signbit(flat) * ord("-")
    source[_E] = ord("e")
    source[_EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    source[_EXP] = power // 100 + ord("0")
    source[_EXP + 1] = power // 10 % 10 + ord("0")
    source[_EXP + 2] = power % 10 + ord("0")
    source[_SEP] = ord(",")
    source[_SEP].reshape(values.shape)[:, -1] = ord(end)
    row = np.where(
        (exponent >= -4) & (exponent < 17), exponent + 4, 21 + (power >= 100)
    )
    row *= 17
    row += digits - 1
    # One output position at a time, into one index array, keeps the index
    # at 8 bytes a cell; ``take`` without bounds checks (every entry is in
    # range) fills it in place.
    text = np.empty((n, _CELL + 1), np.uint8)
    cell = np.arange(n)
    index = np.empty(n, np.intp)
    for position, sources in enumerate(_layout()[1].T * n):
        np.take(sources, row, out=index, mode="clip")
        index += cell
        text[:, position] = source.ravel()[index]

    rest = np.flatnonzero(~certain)
    if rest.size:
        # Left-justified in the cell width, whose padding becomes NUL.
        cells = (f"%-{_CELL}.17g" * rest.size) % tuple(flat[rest].tolist())
        padded = np.frombuffer(cells.encode(), np.uint8).reshape(-1, _CELL)
        text[rest, :_CELL] = np.where(padded == ord(" "), 0, padded)
    return text.reshape(len(values), -1)


_MARKER = np.frombuffer(b"\0\0\0\0\nPOLE\n", np.uint8).reshape(2, 5)


def _marked_rows(block: np.ndarray, at_pole: np.ndarray) -> np.ndarray:
    """``_format_block`` of ``block`` with the marker column appended: a
    row under ``at_pole`` keeps only its first value and reads ``POLE``."""
    block = block.copy()
    # Blanked below; 1.0 takes no ``%`` however the cell reads.
    block[at_pole, 1:] = 1.0
    cells = _format_block(block, ",").reshape(*block.shape, -1)
    cells[at_pole, 1:, :_CELL] = 0
    return np.concatenate(
        (cells.reshape(len(block), -1), _MARKER[at_pole.astype(np.intp)]),
        axis=1,
    )


def _block_text(
    values: np.ndarray, pole: np.ndarray | None, rows: slice
) -> np.ndarray:
    """The CSV bytes of ``values[rows]`` (see ``write_table``), as uint8."""
    if pole is None:
        text = _format_block(values[rows], "\n")
    else:
        text = _marked_rows(values[rows], pole[rows])
    return text[text != 0]


def _format_into(result: list, *args) -> None:
    """Append ``_block_text(*args)`` to ``result``, or the exception it
    raised: the body of the helper thread."""
    try:
        result.append(_block_text(*args))
    except BaseException as exc:
        result.append(exc)


class Checksum:
    """A binary sink that passes every write on to ``out`` and keeps the
    byte count ``size`` and the ``zlib.crc32`` ``crc`` of what it wrote."""

    def __init__(self, out: BinaryIO) -> None:
        self.out, self.size, self.crc = out, 0, 0

    def write(self, data) -> None:
        self.out.write(data)
        self.size += memoryview(data).nbytes
        self.crc = zlib.crc32(data, self.crc)


def write_table(
    out: BinaryIO,
    columns: list[str],
    values: np.ndarray,
    pole: np.ndarray | None = None,
) -> None:
    """Write a header and one row per row of the 2-d ``values`` to the
    binary file ``out``.

    Every value cell is exactly ``format(v, '.17g')``, so the file reads
    back bit-exactly (see ``_format_block`` for how).  With a ``pole`` mask
    the last column is the marker: empty on ordinary rows, ``POLE`` on
    masked rows, which keep only their first value.

    The rows go in blocks of about ``_BLOCK_CELLS`` cells, two at a time:
    this thread formats and writes one block while a helper thread formats
    the next, which is written once the helper is joined.  A table of one
    block starts no thread, an exception on the helper is raised here, and
    no thread outlives the call.
    """
    out.write((",".join(columns) + "\n").encode())
    _layout()  # built here, before a helper thread reads it
    rows = max(1, _BLOCK_CELLS // values.shape[1])
    for start in range(0, len(values), 2 * rows):
        mine = slice(start, start + rows)
        if start + rows >= len(values):
            out.write(_block_text(values, pole, mine))
            break
        result: list = []
        helper = threading.Thread(
            target=_format_into,
            args=(result, values, pole, slice(start + rows, start + 2 * rows)),
        )
        helper.start()
        try:
            out.write(_block_text(values, pole, mine))
        finally:
            helper.join()
        (text,) = result
        if isinstance(text, BaseException):
            raise text
        out.write(text)
