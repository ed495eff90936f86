"""Thinning simulation with a recursively maintained intensity envelope.

One loop serves every model: it reads the spec's Dynamics (modes, per-
component weights, per-mark jumps and envelope constants) and does not care
how many components there are.  Candidates are drawn from a homogeneous rate
equal to the current value of a dominating envelope lam_bar(t) >= lam(t),
where lam is the SUM of the component intensities.  The envelope decays
geometrically from a per-event anchor:

    lam_bar(t) = base + exp(decay * (t - anchor)) * (lam_bar_anchor - base)

and jumps by a spectrally derived constant K_m at each accepted event of
mark m.  The first arrival is the earliest of one exponential candidate per
component at its baseline rate (the lowest component wins a tie).

A later candidate with acceptance uniform D is routed by the running sums of
the component intensities in component order: it is accepted as the first
component c with D * lam_bar <= lam_1 + ... + lam_c, the last component
being tested against the total, and rejected otherwise.  A kernel that dips
negative (a validation override) can make a component's intensity negative;
the running sums are then not increasing, and a candidate above the total
may still be accepted by an earlier component whose partial sum exceeds it.
The rule is kept exactly so that seeded output never changes.

K is re-added only at accepted events; between events (including after
rejected candidates) the envelope only decays.  This keeps the bound equal to
the exponentially decayed sum over realised jumps, which dominates the
intensity pointwise, and gives a strictly tighter envelope (higher acceptance
ratio) than re-inflating it on every candidate.

Most candidates are rejected, and most rejections are decided without the
intensity (the rejection-sampling squeeze; Devroye 1986, II.5).  With z the
modal state at the last event, W^(c) = w_1 + ... + w_c the running-sum weight
rows and a_j = max_c |W^(c)_j|, every running sum and the total at t obey

    |Re(W^(c)_j z_j e^{lam_j dt})| <= a_j |z_j| e^{decay dt}
    =>  lam_1 + ... + lam_c <= base + s e^{decay dt},  s = sum_j a_j |z_j|,

as the baselines are positive.  A candidate with D * lam_bar above that (s
and base carry a 1e-12 relative margin for rounding) is rejected before any
mode is propagated.  The
routing rule would reject it too, and the test comes after the envelope's
decay, so candidates, decisions and seeded output are those of the loop
without it.  Squeezed candidates never evaluate lam, so the per-candidate
check lam <= lam_bar does not see them; they are covered instead by a
certificate, sum_j |W_j| |J_mj| <= K_m for every mark m, which bounds
lam - base by lam_bar - base at every t; it depends on the Dynamics alone, so
it is checked where the loop is compiled.

The loop is not interpreted over lists of modes.  _kernel writes it out once
per Dynamics as straight-line Python, compiled with compile/exec (as
dataclasses builds __init__) and cached: each mode's state is a local
variable, every constant a local name, and each sum an unrolled expression
in mode order.  Modes come in the three kinds of model.mode_kinds, which the
modal scan of recorded logs reads too.  A real mode (lam, weights and jumps
all with imaginary part exactly 0) runs in float with math.exp; the complex
products it replaces multiply only exact zeros into the imaginary parts, so
the real parts are the same doubles.  The second mode of an exact conjugate
pair is not carried: CPython's complex *, + and cmath.exp are
conjugate-symmetric bit for bit, so its state stays the exact conjugate of
its partner's, and the partner's real part is added twice at the two
positions.  Any other mode stays complex.  The kernel's own derived rows
(the total and the squeeze weights) are sums and moduli of the weight rows,
so they are real, or exact conjugates, wherever the weight rows are.  Terms
whose weight is exactly 0 are left out, as adding a zero changes no sum (the
sums start at a positive base, so none is -0.0), and so is a mode that every
weight row misses.  A float mode whose lam is the decay reuses the
envelope's exp(decay * dt), the same double.  Every other operation is the
one the generic loop did, in its order, so seeded output is that of the
generic loop (kept as the test oracle tests/util.thin_reference).  Uniforms come from a UniformStream's
random.Random.random or any other stream's .draw(), an exact 0 redrawn.

The loop's counters stay off the squeeze path, which most candidates take.
proposed is the index of an itertools.count that starts after the first
arrivals' n draws, so the last candidate, the one past the horizon, is
counted too; only the candidates that pass the squeeze bump a counter,
evaluated, and the squeezed count is derived as proposed - (n + 1) -
evaluated when the loop yields.  The time step is written t -= log(u) /
lam_bar, the same double as t += -log(u) / lam_bar in IEEE arithmetic.

An accepted event appends its time to a list, and with more than one
component its mark to another; a one-component kernel appends no marks, as
they are all 1, and _run gives its slices their marks.  simulate gathers the
slices into two lists and builds its EventLog once from them (_finish_log),
without a second set of float objects.

Slices.  The compiled loop is a generator over slices of time.  Its horizon
is the current slice's end: a candidate past it, the first arrival
included, makes the loop yield (proposed, squeezed), and the next end sent
in resumes it on that same candidate, with every other state (t_last, the
modal states, s, excess, lam_bar and the counters) in its locals.  Which
ends are sent changes no uniform, decision or event, so the events of the
slices, concatenated, are those of one slice over the whole horizon.  The
slice test is the loop's one horizon test, so the squeeze and accept paths
do no more work.  Every run is driven in slices of about CSV_CHUNK_ROWS
events: simulate_into hands each slice's events to its sink and keeps none,
and simulate is simulate_into with a sink that keeps them.

bound_path samples the envelope along a whole log; the tests fold it one
event at a time (tests/oracles.py) to check the kernel's envelope.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import BoundViolation, HorizonNonPositive, NonStationarySpec
from .model import (
    CACHE_MAXSIZE,
    Dynamics,
    Spec,
    dynamics,
    modal_path,
    mode_kinds,
    spec_hash,
    validate,
)
from .spectral import _as_float, _is_int, _is_real, _real_array

if TYPE_CHECKING:
    import numpy as np

_BOUND_SLACK = 1e-9
_BOUND_RTOL = 1e-10
# relative margin on the squeeze's weights and constant: far above the few
# ulps by which a computed running sum can exceed its exact value, so rounding
# never squeezes a candidate that routing would accept
_SQUEEZE_MARGIN = 1.0 + 1e-12
# Rows formatted per % operation by write_csv_rows, which bounds the string
# held in memory: 4,096 rows write as fast as 16,384 and hold a quarter.
# Every thinning run's slices aim at as many events.
CSV_CHUNK_ROWS = 1 << 12
# An events file's header and row format; one row as the reader parses it,
# and a line of whitespace alone, which the reader skips as it does an empty
# line.
EVENTS_HEADER = "time,mark\n"
EVENT_ROW = "%.17g,%d\n"
# The reader's row type, as numpy's dtype takes it.
_ROW_DTYPE = [("time", "f8"), ("mark", "i8")]
_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)


# ---------------------------------------------------------------------------
# uniform streams


class UniformStream:
    """Seedable i.i.d. uniforms on the open interval (0, 1).

    Backed by the stdlib Mersenne Twister; the same seed always reproduces
    the same sequence, and exact zeros are redrawn so log(u) is always
    finite.  A seed is None or a non-negative integer (_is_int: numpy's
    included, np.int64(5) giving the stream of 5), kept as a Python int: the
    rule SimulationMeta keeps for its seed.  A negative seed raises
    ValueError (the Mersenne Twister would read -5 as 5), and anything else,
    a bool, 5.0 or a string, TypeError.  simulate records the seed only of
    the stream it builds from rng=seed; a stream passed in as rng records
    null, as it may have been drawn from already.
    """

    def __init__(self, seed: int | None = None):
        if not (seed is None or _is_int(seed)):
            raise TypeError("rng must be None, a non-negative int seed, or an object with .draw()")
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.seed = None if seed is None else int(seed)
        self._rng = random.Random(self.seed)

    def draw(self) -> float:
        u = self._rng.random()
        while u <= 0.0:
            u = self._rng.random()
        return u


# ---------------------------------------------------------------------------
# dominating envelope


def bound_path(spec: Spec, log, times: Sequence[float]) -> np.ndarray:
    """Envelope base + sum_k K_{m_k} exp(decay (t - t_k)) over events t_k < t,
    at sorted times t >= 0: modal_path on the envelope's one-mode system."""
    dyn = dynamics(spec)
    envelope = replace(
        dyn,
        lams=(dyn.decay,),
        weights=((1.0,),),
        jumps=tuple((k,) for k in dyn.bound_jumps),
        mus=(dyn.base,),
        block_sizes=(1,),
    )
    return modal_path(envelope, log, times)[:, 0]


# ---------------------------------------------------------------------------
# event logs


@dataclass(frozen=True)
class SimulationMeta:
    """A run's sidecar, checked when it is built, so every meta that builds
    is one write_meta_json writes and read_events_csv reads back equal.  The
    rules, in the order they are checked: horizon, acceptance_ratio and
    wall_time_seconds are finite real numbers (_is_real, _as_float: no
    bools, strings, NaN, inf or 10**400), kept as Python floats; proposed,
    accepted and squeezed are non-negative integers (_is_int: no bools, 2.0
    or strings), kept as Python ints; seed is None or one; spec_hash is None
    or a string.  A value that breaks one raises ValueError naming it
    (`metadata <field> must be ...`)."""

    seed: int | None
    horizon: float
    proposed: int
    accepted: int
    acceptance_ratio: float
    wall_time_seconds: float
    spec_hash: str | None = None
    # candidates rejected by the squeeze pretest, without evaluating lam
    squeezed: int = 0

    def __post_init__(self):
        for name in ("horizon", "acceptance_ratio", "wall_time_seconds"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(_as_float(value))):
                raise ValueError(f"metadata {name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        # the seed's rule is the counts' with null allowed
        counts = (("proposed", "a"), ("accepted", "a"), ("squeezed", "a"), ("seed", "null or a"))
        for name, what in counts:
            value = getattr(self, name)
            if not (_is_int(value) and value >= 0 or value is None and name == "seed"):
                raise ValueError(f"metadata {name} must be {what} non-negative integer, got {value!r}")
            object.__setattr__(self, name, value if value is None else int(value))
        if not (self.spec_hash is None or isinstance(self.spec_hash, str)):
            raise ValueError(f"metadata spec_hash must be null or a string, got {self.spec_hash!r}")


@dataclass(frozen=True)
class EventLog:
    """Finite, strictly increasing times > 0 and integer marks >= 1 in int64
    (whether a mark is a spec's component is checked where the spec is
    known: model.check_log_marks), as lists, tuples or arrays.  The
    constructor builds `arrays`, read-only float64 and int64 copies, checks
    them (_first_bad_row: a ValueError names the first bad event's index)
    and sets the fields to tuples of Python numbers, taken from the arrays;
    `arrays` is not a field.  A mark that is not an integer in int64, or a
    time that is not a real number within a double's range, is refused first
    (_real_array, which converts both: a bool or a string is neither, even
    among ints or floats, so (True,) and [True, 2] are refused as marks).
    meta must be a SimulationMeta, which checks the sidecar's rules when it
    is built; anything else (None, a dict) raises TypeError naming its type
    before the times and marks are read.  After the rows, the meta is
    checked against them, as one pair: a non-empty log's last time may not
    follow meta.horizon, and meta.accepted must equal the number of events,
    each a ValueError beginning `metadata`.  So every log that builds
    writes an events file and a sidecar that read_events_csv reads back as
    an equal log.  simulate builds its log without the constructor
    (_finish_log), from the lists its slices were gathered into: the tuples
    hold the thinning kernel's own float and int objects, the arrays are
    read from the lists in one pass with their dtypes given, and _seal
    checks them and the meta as the constructor does."""

    times: tuple[float, ...]
    marks: tuple[int, ...]
    meta: SimulationMeta

    def __post_init__(self):
        if not isinstance(self.meta, SimulationMeta):
            raise TypeError(f"meta must be a SimulationMeta, got {type(self.meta).__name__}")
        if len(self.times) != len(self.marks):
            raise ValueError("times and marks must have equal length")
        marks = _real_array(self.marks, "marks must be integers >= 1 in int64", integer=True)
        times = _real_array(self.times, "event times must be finite real numbers")
        self._seal(times, marks, tuple(times.tolist()), tuple(marks.tolist()))

    def _seal(self, times: np.ndarray, marks: np.ndarray, time_items: tuple, mark_items: tuple) -> None:
        """Check the float64 times and int64 marks by the log's rules, then
        the meta against them (the horizon, then the count), make them
        read-only as `arrays`, and set the fields to the given tuples, which
        hold the same numbers as Python floats and ints."""
        bad = _first_bad_row(times, marks)
        if bad is not None:
            raise ValueError("index {}: {}".format(*bad))
        meta, last = self.meta, float(times[-1]) if len(times) else None
        if last is not None and meta.horizon < last:
            raise ValueError(f"metadata horizon {meta.horizon!r} precedes the last event time {last!r}")
        if meta.accepted != len(times):
            raise ValueError(f"metadata accepted {meta.accepted} events, the log holds {len(times)}")
        times.flags.writeable = marks.flags.writeable = False
        object.__setattr__(self, "arrays", (times, marks))
        object.__setattr__(self, "times", time_items)
        object.__setattr__(self, "marks", mark_items)

    def __len__(self) -> int:
        return len(self.times)


def _first_bad_row(times: np.ndarray, marks: np.ndarray) -> tuple[int, str] | None:
    """(row, problem) of the first bad row of a log's float64 times and
    int64 marks, or None: a non-finite time wherever it is, else a time not
    above the one before it (or not > 0), or a mark below 1, time first."""
    import numpy as np

    finite = np.isfinite(times)
    if not finite.all():
        row = int(np.argmin(finite))
        return row, f"event time must be finite, got {float(times[row])!r}"
    rises = times > np.concatenate(([0.0], times[:-1]))
    positive = marks >= 1
    if rises.all() and positive.all():
        return None
    row = int(np.argmin(rises & positive))
    if not rises[row]:
        after = f" after {float(times[row - 1])!r}" if row else ""
        return row, f"event times must be strictly increasing and > 0, got {float(times[row])!r}{after}"
    return row, f"marks must be integers >= 1, got {int(marks[row])}"


def write_csv_rows(fh, row: str, columns: Sequence) -> None:
    """Write `row % values` for each row of the equal-length columns, one
    % operation per CSV_CHUNK_ROWS (4,096) rows: the bytes of one format per
    row, with the string held in memory bounded to one chunk's.  A column
    with a tolist method (a numpy array) is taken a chunk at a time as
    Python numbers; this test imports no numpy, so a run that writes lists
    never loads it."""
    width = len(columns)
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        parts = [col[start : start + CSV_CHUNK_ROWS] for col in columns]
        values = [None] * (width * len(parts[0]))
        for i, part in enumerate(parts):
            values[i::width] = part.tolist() if hasattr(part, "tolist") else part
        fh.write(row * len(parts[0]) % tuple(values))


def part_path(path) -> str:
    """The temporary name events_csv writes the events file `path` under."""
    return f"{os.fspath(path)}.part"


@contextlib.contextmanager
def events_csv(path):
    """The one writer of events files: yields sink(times, marks), which
    writes time,mark rows (17 significant digits read back as the same
    doubles) after the header, under part_path(path).  The file replaces
    path once the block ends, and is removed if the block or the rename
    raises, so path is left as it was."""
    part = part_path(path)
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(EVENTS_HEADER)
            yield lambda times, marks: write_csv_rows(fh, EVENT_ROW, (times, marks))
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def write_events_csv(log: EventLog, path) -> None:
    """Write the log's events file through events_csv: under a temporary
    name, renamed to path once written, so a write that fails leaves path
    as it was."""
    with events_csv(path) as sink:
        sink(log.times, log.marks)


def write_meta_json(source: EventLog | SimulationMeta, path) -> None:
    """Write the sidecar of a log, or of the SimulationMeta of a run
    (simulate_into's), as strict JSON, encoded before the file is opened.
    A SimulationMeta checks its rules when it is built and holds only
    Python ints, finite floats, strings and None, so every meta writes a
    sidecar that read_events_csv reads back as an equal meta."""
    meta = source.meta if isinstance(source, EventLog) else source
    text = json.dumps(asdict(meta), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _parse_rows(body: str) -> np.ndarray:
    import numpy as np

    return np.loadtxt(
        io.StringIO(body), dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1
    )


def _row_lines(body: str):
    """(line number, line) of each row of an events file's body, the lines
    that are neither empty nor whitespace alone; the header is line 1."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        if line and not line.isspace():
            yield lineno, line


def _line_of(body: str, row: int) -> int:
    """The file line number of row `row` (from 0) of an events file's body."""
    lineno, _ = next(itertools.islice(_row_lines(body), row, None))
    return lineno


def _row_problem(line: str) -> str | None:
    """Why numpy's reader refuses one row of an events file, or None if it
    reads it."""
    import numpy as np

    fields = line.split(",")
    if len(fields) != 2:
        return f"expected 2 comma-separated fields (time,mark), found {len(fields)}"
    for field, dtype, what in zip(fields, (np.float64, np.int64), ("a time", "an integer mark")):
        try:
            # the reader refuses an empty field, which alone would read as
            # an empty file
            if not field.strip():
                raise ValueError
            np.loadtxt([field], dtype=dtype, delimiter=",", comments=None)
        except ValueError:
            return f"cannot read {field.strip()!r} as {what}"
    return None


def _parse_error(body: str, exc: ValueError) -> ValueError:
    """The reader's error named by the file line of the first row that does
    not parse alone; exc itself if every row does.  The rows are parsed
    CSV_CHUNK_ROWS at a time, and only those of a chunk numpy's reader
    refuses are parsed one by one, so a bad last row costs one reader call
    per chunk, not two per row."""
    rows = list(_row_lines(body))
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        chunk = rows[start : start + CSV_CHUNK_ROWS]
        try:
            _parse_rows("\n".join(line for _, line in chunk))
        except ValueError:
            for lineno, line in chunk:
                problem = _row_problem(line)
                if problem:
                    return ValueError(f"line {lineno}: {problem}")
    return exc


def read_events_csv(path, meta_path=None) -> EventLog:
    """The log of an events file: the header time,mark, then one row per
    event, a finite time and an integer mark, parsed by numpy's C reader.
    Blank and whitespace-only lines are skipped; any other malformed row
    raises ValueError naming its file line (the header is line 1).  The
    sidecar at meta_path, if given, must be a JSON object.  One
    SimulationMeta is built from its fields, whose rules the meta checks
    (each raises a `metadata <field> ...` ValueError); a field it lacks
    (every field, without one) takes the no-sidecar value, so the horizon is
    the last time read and the accepted count the rows read, and a last
    time that is not finite is left to the log's rules below.  The parsed
    columns and the meta go to EventLog, which copies the columns once into
    its arrays and checks the log's rules on them, then the meta against
    them.  The first row that breaks a rule (_first_bad_row: a non-finite
    time, a time not above the one before it or not > 0, a mark below 1)
    raises ValueError naming its file line; a sidecar whose horizon
    precedes the last time, or whose count is not the rows read (a file
    cut short beside its sidecar), raises the log's own ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != EVENTS_HEADER.strip():
            raise ValueError(f"unexpected events header: {header!r}")
        body = fh.read()
    if not body or body.isspace():
        import numpy as np

        rows = np.empty(0, dtype=_ROW_DTYPE)
    else:
        try:
            rows = _parse_rows(body)
        except ValueError:
            # a whitespace-only line is one field to loadtxt: drop those
            # lines and parse again, so the common file is scanned once; a
            # row that still fails is named by its line
            try:
                rows = _parse_rows(_BLANK_LINE.sub("", body))
            except ValueError as exc:
                raise _parse_error(body, exc) from None
    last = float(rows["time"][-1]) if len(rows) else 0.0
    data = {}
    if meta_path is not None:
        with open(meta_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"metadata must be a JSON object, got {type(data).__name__}")
    meta = SimulationMeta(
        seed=data.get("seed"),
        # without a sidecar horizon, a last time that is not finite stands
        # in as 0.0: EventLog names its file line below
        horizon=data.get("horizon", last if math.isfinite(last) else 0.0),
        proposed=data.get("proposed", 0),
        accepted=data.get("accepted", len(rows)),
        acceptance_ratio=data.get("acceptance_ratio", 0.0),
        wall_time_seconds=data.get("wall_time_seconds", 0.0),
        spec_hash=data.get("spec_hash"),
        squeezed=data.get("squeezed", 0),
    )
    try:
        return EventLog(times=rows["time"], marks=rows["mark"], meta=meta)
    except ValueError:
        # a row that broke the log's rules is found again to name its file
        # line; the sidecar against the rows is the log's error as it is
        bad = _first_bad_row(rows["time"], rows["mark"])
        if bad is None:
            raise
        raise ValueError(f"line {_line_of(body, bad[0])}: {bad[1]}") from None


# ---------------------------------------------------------------------------
# simulation


def _check_horizon(horizon) -> float:
    """The horizon as a float: a real number (_is_real: a bool or a string
    is not one) that is finite and > 0 (_as_float: 10**400 is not)."""
    if not _is_real(horizon):
        raise HorizonNonPositive(f"horizon must be a number, got {horizon!r}")
    h = _as_float(horizon)
    if not (math.isfinite(h) and h > 0):
        raise HorizonNonPositive(f"horizon must be finite and > 0, got {h!r}")
    return h


def _require_admissible(spec: Spec, override: bool) -> Dynamics:
    """The spec's Dynamics, once it may be simulated.  A spectral failure
    (DegenerateEigenvalues, RootFindingFailure) is raised as it is, as no
    override makes such a spec simulable."""
    dyn = dynamics(spec)
    report = validate(spec)
    if not (report.admissible or override):
        raise NonStationarySpec(
            f"spec failed validation ({', '.join(report.flags)}); "
            "pass override to simulate anyway"
        )
    # Not overridable: with a non-negative decay rate the envelope grows
    # between events, so a constant proposal rate taken at the current time
    # would no longer dominate and thinning would be biased.
    if dyn.decay >= 0:
        raise NonStationarySpec(
            "decay rate >= 0: envelope-based thinning requires every "
            "autoregressive root to have negative real part"
        )
    return dyn


def _finish_log(times: list, marks: list, meta: SimulationMeta) -> EventLog:
    """The log of one run, built once from the lists simulate gathered its
    slices into: the fields are tuples of the kernel's own float and int
    objects, the arrays are read from the lists in one pass each (fromiter
    for the times; bytes for the marks, which a Spec's at most 9 components
    keep within a byte, so a mark above 255 raises rather than wraps), and
    EventLog._seal checks them."""
    import numpy as np

    log = object.__new__(EventLog)
    object.__setattr__(log, "meta", meta)
    time_array = np.fromiter(times, np.float64, len(times))
    mark_array = np.frombuffer(bytes(marks), np.uint8).astype(np.int64)
    log._seal(time_array, mark_array, tuple(times), tuple(marks))
    return log


def _certify_envelope(w_total, jumps, k_consts) -> None:
    """Refuse envelope jumps that do not dominate the intensity for all t.

    By the triangle inequality, sum_j |W_j| |J_mj| <= K_m for every mark m
    bounds lam(t) - base by the decayed sum of K over past events, which is
    lam_bar(t) - base, at every t: squeezed candidates, whose intensity is
    never computed, are covered by this check rather than the per-candidate
    one.
    """
    for m, (jump, k) in enumerate(zip(jumps, k_consts), start=1):
        reach = sum(abs(w) * abs(j) for w, j in zip(w_total, jump))
        if not reach <= k * (1.0 + _BOUND_RTOL):
            raise BoundViolation(
                f"envelope jump K_{m} = {k} is below the intensity's reach {reach}"
            )


@lru_cache(maxsize=CACHE_MAXSIZE)
def _kernel(dyn: Dynamics):
    """Compile the thinning loop for dyn as straight-line Python; the loop,
    its exactness and the mode kinds are set out in the module docstring.
    A dyn that fails _certify_envelope raises, and nothing is cached."""
    n_comp = len(dyn.mus)
    # the envelope bounds the summed intensity, whose modal weights are the
    # column sums of the per-component weights
    w_total = [sum(col) for col in zip(*dyn.weights)]
    _certify_envelope(w_total, dyn.jumps, dyn.bound_jumps)
    # the squeeze's a_j = max_c |W^(c)_j| over the running-sum rows and its
    # constant (module docstring), each with its rounding margin
    sums = itertools.accumulate(dyn.weights, lambda acc, w: list(map(add, acc, w)))
    squeeze_w = [max(map(abs, col)) * _SQUEEZE_MARGIN for col in zip(*sums)]
    kinds = mode_kinds(dyn)
    # a mode with every running-sum weight 0 reaches no sum: it is dropped
    modes = [j for j, kind in enumerate(kinds) if kind != "conj" and squeeze_w[j] != 0]
    consts = {
        "base": dyn.base,
        "decay": dyn.decay,
        "squeeze_base": dyn.base * _SQUEEZE_MARGIN,
        "slack": _BOUND_SLACK,
        "rtol": _BOUND_RTOL,
    }

    def const(name, value, j):
        consts[name] = value.real if kinds[j] == "real" else value
        return name

    def total(head, row, name, term):
        """head plus row[j] * mode j over the modes, in mode order; a conjugate
        pair's term is computed once and added twice."""
        parts = [head] if head else []
        for j in modes:
            if row[j] == 0:
                continue
            x = term(const(f"{name}{j}", row[j], j), j)
            parts += [f"(p := {x}) + p"] if kinds[j] == "pair" else [x]
        return " + ".join(parts) or "0.0"

    def real_part(c, j):
        return f"{c} * y{j}" if kinds[j] == "real" else f"({c} * y{j}).real"

    squeeze_sum = total("", squeeze_w, "a", lambda c, j: f"{c} * abs(z{j})")

    def event(m, first):
        """Lines that record an event of mark m at t: the jump added to the
        propagated state y, or for the first event the jump alone."""
        jump = dyn.jumps[m - 1]
        lines = []
        for j in modes:
            if first:
                lines.append(f"z{j} = {const(f'J{m}_{j}', jump[j], j)}")
            elif jump[j] == 0:
                lines.append(f"z{j} = y{j}")
            else:
                lines.append(f"z{j} = y{j} + {const(f'J{m}_{j}', jump[j], j)}")
        consts[f"K{m}"] = dyn.bound_jumps[m - 1]
        lines += [
            f"s = {squeeze_sum}",
            f"excess = K{m}" if first else f"excess = excess * bexp + K{m}",
            "lam_bar = base + excess",
            "t_last = t",
            "append_time(t)",
        ]
        if n_comp > 1:
            lines.append(f"append_mark({m})")
        return lines

    def block(lines, depth):
        return ["    " * depth + line for line in lines]

    # a candidate past the slice's end waits, its state kept, for the next
    # end sent in (module docstring, "Slices")
    body = ["while t > horizon:", f"    horizon = yield {n_comp}, 0"]
    for m in range(1, n_comp + 1):
        body += [f"{'if' if m == 1 else 'elif'} mark == {m}:", *block(event(m, True), 1)]
    propagate = []
    for j in modes:
        if kinds[j] != "real":
            propagate.append(f"y{j} = z{j} * cexp({const(f'l{j}', dyn.lams[j], j)} * dt)")
        elif dyn.lams[j].real == dyn.decay:
            propagate.append(f"y{j} = z{j} * bexp")  # the same exp(decay * dt)
        else:
            propagate.append(f"y{j} = z{j} * mexp({const(f'l{j}', dyn.lams[j], j)} * dt)")
    # every component but the last is routed by the running sum of the
    # intensities up to it; the last is tested against the total
    route = []
    for c in range(1, n_comp):
        consts[f"mu{c}"] = dyn.mus[c - 1]
        cum = total(f"mu{c}" if c == 1 else f"cum + mu{c}", dyn.weights[c - 1], f"r{c}_", real_part)
        route += [f"{'if' if c == 1 else 'elif'} threshold <= (cum := {cum}):"]
        route += block(event(c, False), 1)
    last = ["if threshold > lam:", "    continue", *event(n_comp, False)]
    route += ["else:", *block(last, 1)] if n_comp > 1 else last
    body += [
        "evaluated = 0",
        f"for proposed in count({n_comp + 1}):",
        "    t -= mlog(rand() or draw()) / lam_bar",
        "    while t > horizon:",
        f"        horizon = yield proposed, proposed - {n_comp + 1} - evaluated",
        # D times the rate this candidate was drawn at
        "    threshold = (rand() or draw()) * lam_bar",
        "    dt = t - t_last",
        "    bexp = mexp(decay * dt)",
        # the envelope here, and the next proposal rate if this candidate
        # is rejected
        "    lam_bar = base + excess * bexp",
        "    if threshold > squeeze_base + s * bexp:",
        "        continue",
        "    evaluated += 1",
        *block(propagate, 1),
        f"    lam = {total('base', w_total, 'w', real_part)}",
        # absolute slack plus a small relative term: overridden (explosive)
        # runs compound rounding drift at large scales, while any genuine
        # constant bug overshoots at the kernel scale itself
        "    if lam > lam_bar + slack + rtol * lam_bar:",
        '        raise BoundViolation(f"intensity {lam} exceeded envelope {lam_bar} at t={t}")',
        *block(route, 1),
    ]
    consts.update(mexp=math.exp, cexp=cmath.exp, mlog=math.log, count=itertools.count)
    src = "\n".join(
        [
            "def loop(rand, draw, horizon, t, mark, append_time, append_mark):",
            f"    {', '.join(consts)} = CONSTS",
            *block(body, 1),
        ]
    )
    namespace = {"CONSTS": tuple(consts.values()), "BoundViolation": BoundViolation}
    exec(compile(src, f"<thinning kernel of {len(dyn.lams)} modes>", "exec"), namespace)
    return namespace["loop"]


def _run(dyn: Dynamics, horizon: float, stream, sink) -> tuple[int, int, int]:
    """One thinning run over dyn on [0, horizon]: (proposed, squeezed,
    accepted).  The first arrival is drawn here; the compiled kernel does
    the rest, one slice of time at a time.  Each slice's end is taken so
    that it holds about CSV_CHUNK_ROWS events at the mean gap between events
    so far, the first slice's at the baseline rate.  Each slice's lists of
    times and marks go to sink(times, marks), and are cleared once it
    returns.  A one-component kernel appends no marks; this is the one
    place that gives its slices their marks, all 1."""
    loop = _kernel(dyn)
    draw = stream.draw
    times: list[float] = []
    marks: list[int] = []
    one_component = len(dyn.mus) == 1
    firsts = [-math.log(draw()) / mu_c for mu_c in dyn.mus]
    t = min(firsts)
    rand = stream._rng.random if type(stream) is UniformStream else draw
    end = min(horizon, CSV_CHUNK_ROWS / dyn.base)
    run = loop(rand, draw, end, t, firsts.index(t) + 1, times.append, marks.append)
    proposed, squeezed = next(run)
    accepted = len(times)
    while True:
        sink(times, [1] * len(times) if one_component else marks)
        times.clear()
        marks.clear()
        if end >= horizon:
            return proposed, squeezed, accepted
        end = min(horizon, end + end / max(accepted, 1) * CSV_CHUNK_ROWS)
        proposed, squeezed = run.send(end)
        accepted += len(times)


def simulate(spec: Spec, horizon: float, rng=None, override_validation: bool = False) -> EventLog:
    """Simulate the model on [0, horizon] by thinning, as the module
    docstring sets out, for any number of components.  The first arrival is
    accepted outright (the envelope and the intensity coincide before any
    event); every later candidate that the squeeze does not reject is
    checked against the envelope, and a breach raises BoundViolation.  This
    is simulate_into with a sink that gathers the slices into two lists,
    from which the log is built once (_finish_log)."""
    times: list[float] = []
    marks: list[int] = []

    def keep(slice_times, slice_marks):
        times.extend(slice_times)
        marks.extend(slice_marks)

    meta = simulate_into(spec, horizon, keep, rng, override_validation)
    return _finish_log(times, marks, meta)


def simulate_into(spec: Spec, horizon: float, sink, rng=None,
                  override_validation: bool = False) -> SimulationMeta:
    """The run behind simulate, handed over in slices and kept nowhere:
    sink(times, marks) receives each slice's events, lists of floats and
    ints in time order, about CSV_CHUNK_ROWS of them a slice, and the lists
    are cleared after it returns, so a sink that keeps them copies them.
    The slices, concatenated, are simulate's times and marks for the same
    spec, horizon and rng, and the SimulationMeta returned is its log's
    (wall_time_seconds covers the sink's calls too).  rng is a seed (None or
    a non-negative integer: UniformStream's rule), from which this call
    builds the stream, or any object with .draw(); meta.seed is the seed,
    and None for a stream passed in, which may have been drawn from
    already, so a sidecar's seed always reproduces its run."""
    horizon = _check_horizon(horizon)
    dyn = _require_admissible(spec, override_validation)
    stream = rng if hasattr(rng, "draw") else UniformStream(rng)
    t_start = time.perf_counter()
    proposed, squeezed, accepted = _run(dyn, horizon, stream, sink)
    return SimulationMeta(
        # a stream passed in may have been drawn from: only a seed given
        # here is the seed of this run
        seed=None if stream is rng else stream.seed,
        horizon=horizon,
        proposed=proposed,
        accepted=accepted,
        acceptance_ratio=accepted / proposed if proposed else 0.0,
        wall_time_seconds=time.perf_counter() - t_start,
        spec_hash=spec_hash(spec),
        squeezed=squeezed,
    )
