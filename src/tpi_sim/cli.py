"""Command-line front end.

Subcommands (all driven by a JSON config file):

* ``g2``        -- correlation trace G2(tau) for an emitter pair
* ``tuning``    -- HOM visibility versus relative detuning
* ``vmap``      -- visibility over normalized-linewidth grids
* ``fmap``      -- Bell-state fidelity over normalized-linewidth grids
* ``decompose`` -- dephasing/inhomogeneous splits matching a coherence
                   time or a total linewidth
* ``assess``    -- achievable visibility/fidelity ranges for partially
                   known emitters
* ``verify``    -- run the Monte-Carlo / quadrature oracle suite

Units at this boundary follow common lab usage: lifetimes and coherence
times in ps, linewidths and rates in MHz, detuning scans in GHz.  Field
names carry their unit suffix.  Everything is converted to SI on entry.
The emitter and constraint objects are read by one field table each
(:func:`_read_fields`): an unknown field, a wrong type, a value out of
range or of the wrong sign is refused with an error naming its path.
A top-level key outside the subcommand's own fields (and ``seed``) is
refused the same way.  An output file that cannot be opened or written
ends the run with one ``error:`` line too.

A run is a pipeline: :func:`main` reads the config file and the seed, the
subcommand (``cmd_*``) turns the config object and seed into its
canonical config, column names, row blocks and exit status, and ``main``
writes that table with :func:`_write_table`.  Only ``verify`` prints
anything itself: one ``[pass]``/``[FAIL]`` line per check on stderr,
before the table is written.

Outputs are deterministic: identical config and seed give byte-identical
files on one numpy build and SIMD dispatch target (numpy's ``exp`` and
``log`` round differently on its AVX-512 and AVX2 paths).  CSV uses '.'
decimals and embeds the parsed config in a ``# config = {...}`` comment;
JSON output carries the same config object.  Floats are emitted with 17
significant digits in both formats.

Every table goes through one writer, :func:`_write_table`, a block of
``_BLOCK_ROWS`` rows at a time, each block in one write, so memory is
bounded by a block whatever the size of the table.  A block takes one of
two paths, chosen by what it holds.  A block with a label or bool column
(an ``assess`` or ``verify`` table) is written as text rows:
:func:`format_float` per float, ``str`` or ``json.dumps`` per label or
bool.  Every other block, a block of numbers whatever its size, is built
in one byte matrix with a column per table row, allocated once, each part
copied into it once: the float cells come from one call of the numpy
kernel :func:`_float_matrix`, which gives the bytes of ``'%.17g' % x``
(:func:`format_float`) NUL-padded to a fixed width, less the rows that are
NUL in every cell; cells rendered ahead by the caller (the map axes) come
as given, and the separators as constant rows.  The matrix is written with
its NUL bytes deleted.  Both paths give the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .bell import emitter_assessment, fidelity_map
from .emitter import EmitterConstraint, EmitterParams, PhotonPair, coherence_time
from .gates import beam_splitter
from .interference import _hom_arrays, g2_trace, visibility_map

PS = 1e-12
MHZ = 1e6
GHZ = 1e9


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration in canonical (defaults-filled) form."""

    command: str
    params: dict
    out: str | None
    fmt: str
    seed: int


# --------------------------------------------------------------------------
# Deterministic serialization (floats at 17 significant digits).
# --------------------------------------------------------------------------


def format_float(x: float) -> str:
    if isinstance(x, float) and math.isfinite(x):
        return format(x, ".17g")
    return repr(x)


def dumps(obj: Any) -> str:
    """JSON text with deterministic key order and 17-digit floats."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# Rows rendered and written at a time: the writer's memory is bounded by one
# block whatever the size of the table.  Every block pays a fixed cost of some
# tens of numpy calls, so fewer blocks are faster, until the block's byte
# matrix leaves the L2 cache: a map block's matrix is about 1.2 MB at 16384
# rows, and on a Xeon with 2 MB of L2 per core a maps pass ran 17.5% faster
# at 16384 rows than at 4096 but only 5.5% faster at 32768.
_BLOCK_ROWS = 16384

# Byte rows of a rendered cell: '%.17g' of a float is at most 24 characters
# long ('-1.2345678901234567e-308').
_CELL_WIDTH = 24

# Cells rendered per '%' operation: its tuple, text and split list hold
# about 100 bytes per cell, so sub-blocks of this many bound them to 0.2 MB.
_PERCENT_ROWS = 2048

# 10**q for q = 0..22, each exact in binary64.
_POW10 = np.array([float(10**q) for q in range(23)])


def _halves(a):
    """Veltkamp's split: ``hi + lo == a`` with at most 26 significant bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _times_pow10(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: ``p + e == a * 10**q`` exactly, ``p`` the rounded product."""
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[q], _POW10_LO[q]
    p = a * _POW10[q]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


_DIGIT_SLOTS = np.arange(17, dtype=np.int8)[:, None]
# "0.000" in the prefix rows; a row is shown where _PREFIX_AT + k <= 1
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_AT = np.array([2, 2, 3, 4, 5], dtype=np.int8)[:, None]


def _float_matrix(values: np.ndarray) -> np.ndarray:
    """:func:`format_float` of every element as the columns of a NUL-padded
    ``(_CELL_WIDTH, n)`` byte matrix: deleting the NULs of column i gives
    ``'%.17g' % values[i]``, which is ``format_float`` for every float.

    Where '%.17g' is positional (finite nonzero x whose decimal exponent k,
    after rounding to 17 significant digits, lies in [-4, 16]) the digits
    are computed exactly: N = x * 10**(16 - k) rounded half to even, from
    Dekker's error-free product (Numer. Math. 18, 224 (1971)).  The rows
    hold the sign, the "0.000" prefix of k < 0, then the 17 digits with a
    point slot after digit k; trailing fraction zeros are NUL.  Every other
    value (zeros, subnormals, nan, inf, exponential notation) is rendered by
    '%.17g' ``%`` operations of ``_PERCENT_ROWS`` values.  The values are
    taken ``_BLOCK_ROWS`` at a time, which bounds the temporaries.
    """
    x = np.asarray(values, dtype=float).ravel()
    if len(x) <= _BLOCK_ROWS:
        return _float_slice(x)
    cells = np.empty((_CELL_WIDTH, len(x)), np.uint8)
    for start in range(0, len(x), _BLOCK_ROWS):
        cells[:, start : start + _BLOCK_ROWS] = _float_slice(x[start : start + _BLOCK_ROWS])
    return cells


def _float_slice(x: np.ndarray) -> np.ndarray:
    """The :func:`_float_matrix` of a slice of floats."""
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # nan
        positional = (a >= 1e-5) & (a < 1e17)
    a = np.where(positional, a, 1.0)  # 1.0 stands in for the other cells
    # floor(log10 |x|) may be one decade off next to a power of ten: the
    # exact product p + e then lies outside [1e16, 1e17) and k moves
    k = np.minimum(np.floor(np.log10(a)), 16.0).astype(np.int64)
    p, e = _times_pow10(a, 16 - k)
    low = (p < 1e16) | ((p == 1e16) & (e < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    k += high
    k -= low
    redo = np.flatnonzero((low | high) & (k <= 16))
    if len(redo):
        p[redo], e[redo] = _times_pow10(a[redo], 16 - k[redo])
    # p >= 2**53 is an even integer, so p + rint(e) rounds p + e half to even
    n = p.astype(np.int64)
    n += np.rint(e, out=e).astype(np.int64)
    del a, p, e, low, high  # the live temporaries bound the peak memory
    up = n == 10**17  # 18 digits: it is 10**16 one decade up
    n[up] = 10**16
    k += up
    positional &= (k >= -4) & (k <= 16)
    k = k.astype(np.int8)

    # the 17 digits, most significant first: the leading one, then four
    # groups of four, the quotient and remainder by 10**4 of each half
    # n // 10**8 and n % 10**8; the groups' digits are peeled off together
    halves = np.empty((2, len(x)), np.uint32)
    halves[0] = n // 100_000_000
    halves[1] = n % 100_000_000
    del n
    groups = np.empty((2, 2, len(x)), np.uint32)
    np.floor_divide(halves, np.uint32(10_000), out=groups[:, 0])
    groups[:, 1] = halves - groups[:, 0] * np.uint32(10_000)
    digits = np.empty((17, len(x)), np.uint8)
    digits[0] = groups[0, 0] // np.uint32(10_000)  # n // 10**16
    groups[0, 0] -= digits[0] * np.uint32(10_000)
    group, quotient = groups.reshape(4, len(x)), np.empty((4, len(x)), np.uint32)
    group_digits = digits[1:].reshape(4, 4, len(x))  # (group, digit in group, value)
    ten = np.uint32(10)
    for j in (3, 2, 1):
        np.floor_divide(group, ten, out=quotient)
        group_digits[:, j] = group - quotient * ten
        group, quotient = quotient, group
    group_digits[:, 0] = group
    del halves, groups, group, quotient
    last = ((digits != 0) * _DIGIT_SLOTS).max(axis=0)  # last nonzero digit
    digits += ord("0")
    digits *= _DIGIT_SLOTS <= np.maximum(last, k)

    cells = np.empty((_CELL_WIDTH, len(x)), np.uint8)
    cells[0] = (x < 0.0) * np.uint8(ord("-"))
    cells[1:6] = np.where(_PREFIX_AT + k <= 1, _PREFIX, 0)
    # digit j goes to row 6 + j up to digit k, to row 7 + j after it
    before = _DIGIT_SLOTS <= k
    np.multiply(digits, before, out=cells[6:23])
    cells[23] = 0
    cells[7:24] += digits * ~before
    point = np.flatnonzero((k >= 0) & (last > k))
    cells[7 + k[point], point] = ord(".")

    rest = np.flatnonzero(~positional)
    for start in range(0, len(rest), _PERCENT_ROWS):
        part = rest[start : start + _PERCENT_ROWS]
        text = ("%.17g\0" * len(part)) % tuple(x[part].tolist())
        rendered = np.array(text.split("\0")[:-1], dtype=f"S{_CELL_WIDTH}")
        cells[:, part] = rendered.view(np.uint8).reshape(len(part), _CELL_WIDTH).T
    return cells


def _row_blocks(*columns) -> Iterator[tuple]:
    """Equal-length columns cut into blocks of ``_BLOCK_ROWS`` rows."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield tuple(column[start : start + _BLOCK_ROWS] for column in columns)


def _text_rows(block: tuple, label: Callable[[Any], str], lead: str, between: str,
               end: str) -> str:
    """The rows of a block as text, written cell by cell: :func:`format_float`
    of each float, ``label`` of each label or bool."""
    columns = []
    for column in block:
        if isinstance(column, np.ndarray):
            columns.append([format_float(v) for v in column.tolist()])
        else:
            columns.append([label(v) for v in column])
    return "".join(lead + between.join(cells) + end for cells in zip(*columns))


def _block_matrix(block: tuple, n: int, lead: np.ndarray, between: np.ndarray,
                  end: np.ndarray) -> np.ndarray:
    """The rows of a block of arrays as one NUL-padded byte matrix with a
    column per row: the float arrays rendered together by one
    :func:`_float_matrix` call and sliced apart, each slice less its rows
    that are NUL in every cell (often the sign and prefix), rendered cells
    as given, the separators (byte columns) broadcast."""
    floats = [c for c in block if c.ndim == 1]
    rendered = _float_matrix(np.concatenate(floats)) if floats else None
    parts = [lead]
    for column in block:
        if column.ndim == 1:  # the next n columns of the rendered floats
            cells, rendered = rendered[:, :n], rendered[:, n:]
            parts.append(cells[cells.any(axis=1)])
        else:
            parts.append(column)
        parts.append(between)
    parts[-1] = end
    matrix = np.empty((sum(len(part) for part in parts), n), np.uint8)
    row = 0
    for part in parts:
        matrix[row : row + len(part)] = part
        row += len(part)
    return matrix


def _write_table(config: RunConfig, names: list[str], blocks: Iterable[tuple]) -> None:
    """Write a table to ``config.out`` (stdout if None), one row block at a time.

    Each block holds one equal-length column per name: a float array, a
    byte matrix from :func:`_float_matrix` (cells already rendered, copied
    as given: a caller that renders a column once for many blocks trims its
    all-NUL rows once), or a list of labels or bools, which CSV writes as
    ``str`` and JSON as ``json.dumps``.  Each block is written at once, by
    one of two paths that give the same bytes, chosen by its column kinds.
    A block with a label or bool column is written as text rows
    (:func:`_text_rows`), at a cost per cell.  A block of arrays alone
    becomes one byte matrix (:func:`_block_matrix`) whose NULs are deleted,
    so it costs the same few tens of numpy calls whether it holds a hundred
    rows or thousands.  The bytes are those of writing every row with
    :func:`format_float` per float cell and JSON through :func:`dumps`.
    """
    as_json = config.fmt == "json"
    label = json.dumps if as_json else str
    # the text before the first cell, between two cells and after the last
    # cell of a row; a JSON row's leading comma is dropped for the first row
    separators = (",[", ",", "]") if as_json else ("", ",", "\n")
    byte_columns = [np.frombuffer(text.encode(), np.uint8)[:, None] for text in separators]
    with _byte_sink(config.out) as write:
        if as_json:
            # the keys of the payload in sorted order: columns, command, config, rows, seed
            head = dumps({"columns": names, "command": config.command, "config": config.params})
            write((head[:-1] + ',"rows":[').encode())
        else:
            write(f"# command = {config.command}\n".encode())
            write(f"# config = {dumps(config.params)}\n".encode())
            write(f"# seed = {config.seed}\n".encode())
            write((",".join(names) + "\n").encode())
        first = True
        for block in blocks:
            if all(isinstance(column, np.ndarray) for column in block):
                # rows: the length of a float array, the width of a rendered matrix
                matrix = _block_matrix(block, block[0].shape[-1], *byte_columns)
                if as_json and first:
                    matrix[0, 0] = 0
                write(matrix.T.tobytes().translate(None, b"\0"))
            else:
                text = _text_rows(block, label, *separators)
                write((text[1:] if as_json and first else text).encode())
            first = False
        if as_json:
            write(f'],"seed":{json.dumps(config.seed)}}}\n'.encode())


@contextmanager
def _byte_sink(out: str | None) -> Iterator[Callable[[bytes], Any]]:
    """A function that writes UTF-8 bytes to the file ``out``, or to stdout if None.

    Bytes go to stdout's binary buffer, after what its text layer holds;
    a text-only stream (such as ``io.StringIO`` under ``redirect_stdout``)
    gets them decoded.
    """
    if out is not None:
        with open(out, "wb") as stream:
            yield stream.write
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        yield sys.stdout.buffer.write
        sys.stdout.buffer.flush()
    else:
        yield lambda data: sys.stdout.write(data.decode())


# --------------------------------------------------------------------------
# Config parsing helpers.
# --------------------------------------------------------------------------


def _need(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field {key!r} has the wrong type")
    return value


def _field_name(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


# The model squares rates and widths in Hz, inverts times in s and squares
# the normalized linewidths of the maps; keeping every nonzero input within
# this magnitude range in SI units keeps those squares and inverses finite
# and nonzero.
_SI_MAGNITUDE = (1e-150, 1e150)


def _quantity(obj: dict, key: str, where: str, si_scale: float, sign: str | None = None,
              default: float | None = None) -> float:
    """The finite number at ``obj[key]`` (``default`` when absent, required
    if None) as a float: a physical field in its config unit, range-checked
    in SI units (a dimensionless field has ``si_scale`` 1), then checked
    against the sign rule ``sign``: None for either sign, ">= 0" or
    "positive".  ``where`` is the path of ``obj`` in the config, for error
    messages.  JSON true and false parse as bool, a subtype of int, and are
    refused.
    """
    name = _field_name(where, key)
    if key not in obj:
        if default is None:
            raise ConfigError(f"config is missing required field {name!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {name!r} must be a number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"config field {name!r} must be finite, not {value!r}")
    low, high = _SI_MAGNITUDE
    if value != 0.0 and not low <= abs(value * si_scale) <= high:
        raise ConfigError(
            f"config field {name!r} = {value!r} is out of range: "
            f"in SI units, a nonzero value must have a magnitude in [{low:g}, {high:g}]"
        )
    if sign is not None and (value < 0.0 or (value == 0.0 and sign == "positive")):
        raise ConfigError(f"config field {name!r} must be {sign}, not {obj[key]!r}")
    return value


def _integer(obj: dict, key: str, minimum: int, where: str = "", default: int | None = None) -> int:
    """Integer at ``obj[key]`` (``default`` when absent), at least ``minimum``."""
    name = _field_name(where, key)
    if key not in obj and default is None:
        raise ConfigError(f"config is missing required field {name!r}")
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"config field {name!r} must be an integer >= {minimum}, not {value!r}")
    return value


def _known_fields(obj: Any, where: str, known: Iterable[str]) -> None:
    """Refuse a config object ``obj`` at path ``where`` (empty for the top
    level) that is not a JSON object or has a field outside ``known``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config field {where!r} must be an object")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        owner = f"object {where!r}" if where else "top level"
        raise ConfigError(f"config {owner} has unknown fields {unknown}")


# The physical fields of each kind of config object, in the order they are
# checked: config key -> (model keyword, SI units per config unit, sign rule
# of _quantity, required).  An optional field that is absent is left out,
# so the model's default applies.
_EMITTER_FIELDS = {
    "lifetime_ps": ("lifetime", PS, "positive", True),
    "dephasing_rate_mhz": ("dephasing_rate", MHZ, ">= 0", False),
    "inhomogeneous_fwhm_mhz": ("inhomogeneous_fwhm", MHZ, ">= 0", False),
    "detuning_mhz": ("detuning", MHZ, None, False),
}
_CONSTRAINT_FIELDS = {
    "lifetime_ps": ("lifetime", PS, "positive", True),
    "coherence_time_ps": ("coherence_time", PS, "positive", False),
    "total_fwhm_mhz": ("total_fwhm", MHZ, "positive", False),
    "lorentzian_fwhm_mhz": ("lorentzian_fwhm", MHZ, "positive", False),
    "lorentzian_fwhm_max_mhz": ("lorentzian_fwhm_max", MHZ, "positive", False),
    "gaussian_fwhm_mhz": ("gaussian_fwhm", MHZ, ">= 0", False),  # 0: a pure Lorentzian
}


def _read_fields(obj: Any, where: str, fields: dict) -> tuple[dict, dict]:
    """The config object ``obj`` at path ``where``, read by the field table
    ``fields``: its canonical form (config units) and the SI keyword
    arguments of its model, each field checked in table order for type,
    range and sign."""
    _known_fields(obj, where, fields)
    canonical, kwargs = {}, {}
    for key, (keyword, si_scale, sign, required) in fields.items():
        if required or key in obj:
            canonical[key] = _quantity(obj, key, where, si_scale, sign)
            kwargs[keyword] = canonical[key] * si_scale
    return canonical, kwargs


def _parse_pair(cfg: dict) -> PhotonPair:
    raw = _need(cfg, "emitters", list)
    if len(raw) != 2:
        raise ConfigError("field 'emitters' must list exactly two emitters")
    emitters = [
        EmitterParams(**_read_fields(e, f"emitters[{n}]", _EMITTER_FIELDS)[1])
        for n, e in enumerate(raw)
    ]
    return PhotonPair(*emitters)


def _parse_grid(
    cfg: dict, key: str, si_scale: float, min_allowed: float = -math.inf
) -> tuple[np.ndarray, dict]:
    grid_cfg = _need(cfg, key)
    _known_fields(grid_cfg, key, ("min", "max", "n", "spacing"))
    lo = _quantity(grid_cfg, "min", key, si_scale)
    hi = _quantity(grid_cfg, "max", key, si_scale)
    n = _integer(grid_cfg, "n", 1, key)
    spacing = grid_cfg.get("spacing", "linear")
    if hi < lo:
        raise ConfigError(f"grid {key!r} has an invalid range [{lo}, {hi}]")
    if lo < min_allowed:
        raise ConfigError(f"grid {key!r} must not go below {min_allowed}")
    if spacing == "linear":
        grid = np.linspace(lo, hi, n)
    elif spacing == "log":
        if lo <= 0.0:
            raise ConfigError(f"log-spaced grid {key!r} needs min > 0")
        grid = np.geomspace(lo, hi, n)
    else:
        raise ConfigError(f"grid {key!r} has unknown spacing {spacing!r}")
    canonical = {"min": lo, "max": hi, "n": n, "spacing": spacing}
    return grid, canonical


def _parse_constraint(obj: Any, where: str) -> tuple[EmitterConstraint, dict]:
    canonical, kwargs = _read_fields(obj, where, _CONSTRAINT_FIELDS)
    try:
        return EmitterConstraint(**kwargs), canonical
    except ValueError as exc:
        raise ConfigError(f"invalid constraint {where!r}: {exc}") from exc


# --------------------------------------------------------------------------
# Subcommands: (config object, seed) -> (canonical config, column names,
# row blocks, exit status).  main writes the table.
# --------------------------------------------------------------------------

Table = tuple[dict, list[str], Iterable[tuple], int]


def cmd_g2(cfg: dict, seed: int) -> Table:
    pair = _parse_pair(cfg)
    n_tau = _integer(cfg, "n_tau", 2, default=4001)
    default_span = 10.0 * max(pair.emitter_i.lifetime, pair.emitter_j.lifetime) / PS
    tau_max_ps = _quantity(cfg, "tau_max_ps", "", PS, "positive", default=default_span)
    grid = np.linspace(-tau_max_ps * PS, tau_max_ps * PS, n_tau)
    trace = g2_trace(beam_splitter(0.5), 1, 2, 1, 2, pair, grid)
    columns = (trace.tau_grid / PS, trace.g2_values, trace.g2_distinguishable)
    canonical = {**cfg, "n_tau": n_tau, "tau_max_ps": tau_max_ps}
    return canonical, ["tau_ps", "g2", "g2_classical"], _row_blocks(*columns), 0


def cmd_tuning(cfg: dict, seed: int) -> Table:
    pair = _parse_pair(cfg)
    grid, grid_canonical = _parse_grid(cfg, "detuning_ghz", GHZ)
    # the arrays behind tuning_curve, without its PhotonPair per point
    visibility, p_coinc = _hom_arrays(pair, grid * GHZ)
    columns = (grid, visibility, p_coinc, np.full(len(grid), 0.5))
    names = ["delta_nu_ghz", "visibility", "p_coinc", "p_coinc_classical"]
    return {**cfg, "detuning_ghz": grid_canonical}, names, _row_blocks(*columns), 0


def _cmd_map(cfg: dict, value_name: str, evaluate) -> Table:
    pd_grid, pd_c = _parse_grid(cfg, "theta_pd", 1.0, min_allowed=1.0)
    sd_grid, sd_c = _parse_grid(cfg, "theta_sd", 1.0, min_allowed=0.0)
    # The maps are elementwise, so evaluating them a block at a time gives the
    # same bits.  A block is a rectangle of the grid: whole map rows (one
    # theta_pd value, every theta_sd) while they fit in _BLOCK_ROWS, else
    # _BLOCK_ROWS-long slices of one row.  Each axis value is rendered once,
    # and the axis cells are trimmed of their all-NUL rows once.
    pd_cells, sd_cells = (
        cells[cells.any(axis=1)] for cells in (_float_matrix(pd_grid), _float_matrix(sd_grid))
    )
    sd_step = min(len(sd_grid), _BLOCK_ROWS)
    pd_step = _BLOCK_ROWS // sd_step

    def blocks() -> Iterator[tuple]:
        for pd_start in range(0, len(pd_grid), pd_step):
            pd = slice(pd_start, pd_start + pd_step)
            for sd_start in range(0, len(sd_grid), sd_step):
                sd = slice(sd_start, sd_start + sd_step)
                values = evaluate(pd_grid[pd], sd_grid[sd])
                yield (
                    np.repeat(pd_cells[:, pd], values.shape[1], axis=1),
                    np.tile(sd_cells[:, sd], values.shape[0]),
                    values.ravel(),
                )

    canonical = {**cfg, "theta_pd": pd_c, "theta_sd": sd_c}
    return canonical, ["theta_pd", "theta_sd", value_name], blocks(), 0


def cmd_vmap(cfg: dict, seed: int) -> Table:
    return _cmd_map(cfg, "visibility", visibility_map)


def cmd_fmap(cfg: dict, seed: int) -> Table:
    return _cmd_map(cfg, "fidelity", fidelity_map)


def cmd_decompose(cfg: dict, seed: int) -> Table:
    constraint, canonical = _parse_constraint(_need(cfg, "constraint"), "constraint")
    n_points = _integer(cfg, "n_points", 2, default=200)
    rates, fwhms, _, _, theta_pd, theta_sd = constraint.curve(n_points)
    tau_r = constraint.lifetime
    tau_c = coherence_time(tau_r, rates, fwhms)
    names = ["dephasing_rate_mhz", "inhomogeneous_fwhm_mhz", "theta_pd", "theta_sd", "x_c"]
    # x_c as normalized_params forms it
    columns = (rates / MHZ, fwhms / MHZ, theta_pd, theta_sd, tau_c / (2.0 * tau_r))
    return {"constraint": canonical, "n_points": n_points}, names, _row_blocks(*columns), 0


def cmd_assess(cfg: dict, seed: int) -> Table:
    sources = _need(cfg, "sources", list)
    if not sources:
        raise ConfigError("field 'sources' must list at least one entry")
    n_points = _integer(cfg, "n_points", 2, default=200)
    canonical_sources = []
    names = []
    ranges = []
    for n, entry in enumerate(sources):
        where = f"sources[{n}]"
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"config field {where!r} must be an object with a 'name'")
        name = entry["name"]
        if not isinstance(name, str) or name[:1] in ("#", '"') or any(c in name for c in ",\r\n\0"):
            # one CSV cell, neither read as a '#' comment row nor opening a
            # quoted cell; the writer deletes NULs
            raise ConfigError(
                f"config field '{where}.name' must be a string without ',', "
                f"'\\r', '\\n' or '\\0' that does not start with '#' or '\"', not {name!r}"
            )
        constraint, canonical = _parse_constraint(
            {k: v for k, v in entry.items() if k not in ("name", "second")}, where
        )
        canonical["name"] = name
        second = None
        if "second" in entry:
            second, canonical["second"] = _parse_constraint(entry["second"], f"{where}.second")
        result = emitter_assessment(constraint, second, n_points)
        canonical_sources.append(canonical)
        names.append(name)
        ranges.append(result.visibility_range + result.fidelity_range)
    canonical = {"sources": canonical_sources, "n_points": n_points}
    columns = _row_blocks(names, *np.array(ranges).T)
    return canonical, ["name", "v_min", "v_max", "f_min", "f_max"], columns, 0


_VERIFY_SIZES = {
    "closed_form_instances": 100,
    "mc_instances": 10,
    "mc_realizations": 3000,
    "phase_trials": 100_000,
}


def cmd_verify(cfg: dict, seed: int) -> Table:
    # imported here: the oracle and its thread pool are needed by verify only
    from .oracle import _MIN_SIZES, run_verification

    sizes = {key: _integer(cfg, key, _MIN_SIZES[key], default=default)
             for key, default in _VERIFY_SIZES.items()}
    report = run_verification(seed=seed, **sizes)
    checks = report.checks
    measures = np.array([(c.observed, c.bound) for c in checks], dtype=float)
    columns = ([c.name for c in checks], *measures.T, [c.passed for c in checks])
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: observed {format_float(check.observed)} "
              f"(bound {format_float(check.bound)})", file=sys.stderr)
    names = ["check", "observed", "bound", "passed"]
    return sizes, names, _row_blocks(*columns), 0 if report.all_passed else 1


# Each subcommand and its top-level config fields; main reads "seed" itself.
_COMMANDS = {
    "g2": (cmd_g2, ("emitters", "n_tau", "tau_max_ps")),
    "tuning": (cmd_tuning, ("emitters", "detuning_ghz")),
    "vmap": (cmd_vmap, ("theta_pd", "theta_sd")),
    "fmap": (cmd_fmap, ("theta_pd", "theta_sd")),
    "decompose": (cmd_decompose, ("constraint", "n_points")),
    "assess": (cmd_assess, ("sources", "n_points")),
    "verify": (cmd_verify, tuple(_VERIFY_SIZES)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpi-sim",
        description="Two-photon interference statistics for remote emitters "
        "at linear optical gates",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the analysis to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser, built once per process: parsing keeps
    no state in it, so every call of :func:`main` reads its own arguments."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1
    params = {k: v for k, v in raw.items() if k != "seed"}
    try:
        seed = _integer(raw if args.seed is None else {"seed": args.seed}, "seed", 0, default=0)
        command, fields = _COMMANDS[args.command]
        _known_fields(params, "", fields)
        canonical, names, blocks, status = command(params, seed)
        _write_table(RunConfig(args.command, canonical, args.out, args.format, seed), names, blocks)
        return status
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:  # opening or writing --out
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
