"""Core data types: base spectrum, perturbation coefficients, targets.

Infinite sequences are represented by an explicit head array plus a
parametric tail generator (affine for the base eigenvalues, power law with
phase or identically zero for the coefficient sequences, equals-lambda for
targets).  All tail estimates used elsewhere are then available in closed
form.  The input types are frozen dataclasses.  The solver's output,
PerturbedSpectrum, is not frozen, nor is charfn's CharacteristicFunction,
on purpose: a frozen dataclass's __init__ costs ten times a plain one's,
once per solve.
"""

from dataclasses import dataclass, replace
import functools
import json
import math
import os
import tempfile

import numpy as np

from . import errors

INDEX_Z = "Z"
INDEX_N = "N"
# the largest summation window radius a solve builds, and so the largest
# |index| an explicit coefficient or target head may reach
TRUNC_CAP = 32000


@dataclass(frozen=True)
class AffineTail:
    """lambda_n = slope * n + intercept outside the explicit head."""

    slope: float
    intercept: float


@dataclass(frozen=True)
class PowerTail:
    """x_n = scale * |n| ** (-beta) * exp(i*phase) outside the explicit head."""

    beta: float
    scale: float
    phase: float

    def value(self, n):
        n = np.asarray(n)
        return self.scale * np.abs(n, dtype=float) ** (-self.beta) * np.exp(1j * self.phase)


def _overlay(out, lo, offset, head):
    """Copy head, the values at the indices offset, offset + 1, ..., by slice
    over out, the values at lo, lo + 1, ...; returns the positions
    first:stop it covers in out."""
    first = min(max(offset - lo, 0), len(out))
    stop = max(min(offset + len(head) - lo, len(out)), first)
    if first < stop:
        out[first:stop] = head[first + lo - offset : stop + lo - offset]
    return first, stop


def _at(n, values):
    """values(lo, hi), an array over the indices lo..hi, at the indices n: a
    Python scalar at a scalar index (the one-index run's value); an array
    taken from the run between the least and the greatest index (index 0
    included, which validation makes a power tail's head cover), or from
    one run per index when that run would be far longer than n."""
    n = np.asarray(n)
    if n.ndim == 0:
        return values(int(n), int(n))[0].item()
    if not n.size:
        return values(0, -1).reshape(n.shape)
    lo, hi = int(n.min()), int(n.max())
    if hi - lo > 4 * n.size + 64:
        return np.array([values(k, k)[0] for k in n.ravel().tolist()]).reshape(n.shape)
    return values(lo, hi)[n - lo]


@dataclass(frozen=True)
class BaseSpectrum:
    """Simple separated real spectrum lambda_n, n in I (I = Z or N)."""

    index_kind: str
    head_offset: int
    head: tuple
    tail: AffineTail
    gap: float

    @property
    def start(self):
        """Smallest represented index (None for two-sided index sets)."""
        if self.index_kind == INDEX_Z:
            return None
        return self.head_offset if self.head else 1

    @functools.cached_property
    def _head(self):
        return np.asarray(self.head, dtype=float)

    def lambda_range(self, lo, hi):
        """Eigenvalues at the indices lo..hi, an array."""
        out = self.tail.slope * np.arange(lo, hi + 1, dtype=float) + self.tail.intercept
        _overlay(out, lo, self.head_offset, self._head)
        return out

    def lambda_run(self, lo, hi):
        """(indices lo..hi, lambda_n there), read-only slices of one run kept
        on the spectrum and evaluated again over the union when a request
        reaches past it: lambda_range is elementwise, so a slice is bitwise
        a fresh evaluation."""
        if hi < lo:  # the run stays as it is
            return np.arange(lo, hi + 1), self.lambda_range(lo, hi)
        first, idx, lam = self.__dict__.get("_run", (lo, (), ()))
        if lo < first or hi >= first + len(idx):
            first, last = min(lo, first), max(hi, first + len(idx) - 1)
            idx, lam = np.arange(first, last + 1), self.lambda_range(first, last)
            idx.flags.writeable = lam.flags.writeable = False
            self.__dict__["_run"] = first, idx, lam  # frozen: past __setattr__
        return idx[lo - first : hi + 1 - first], lam[lo - first : hi + 1 - first]

    def lambda_at(self, n):
        """Eigenvalue at index n (scalar or integer array)."""
        return _at(n, self.lambda_range)

    def first_index(self, radius):
        """First index of the window |n| <= radius (-radius over Z)."""
        return -radius if self.index_kind == INDEX_Z else self.start

    def window_indices(self, radius):
        """Represented indices n with |n| <= radius, in increasing order."""
        return np.arange(self.first_index(radius), radius + 1)


def validate_base(spec):
    """Check simplicity and separation; return the spectrum with its
    certified gap (the infimum over represented pairs and the tail)."""
    if spec.index_kind not in (INDEX_Z, INDEX_N):
        raise errors.SchemaError(f"unknown index set {spec.index_kind!r}")
    if not (spec.gap > 0) or not math.isfinite(spec.gap):
        raise errors.GapViolation("declared gap must be a positive real number")
    head = np.asarray(spec.head, dtype=float)
    if head.size and not np.all(np.isfinite(head)):
        raise errors.NonReal("base eigenvalues must be finite reals")
    if not (math.isfinite(spec.tail.slope) and math.isfinite(spec.tail.intercept)):
        raise errors.NonReal("tail parameters must be finite reals")

    gaps = []
    if head.size >= 2:
        diffs = np.diff(head)
        if np.any(diffs <= 0):
            raise errors.NonMonotone("head eigenvalues are not strictly increasing")
        gaps.append(float(diffs.min()))
    # tail-to-tail gap
    if spec.tail.slope <= 0:
        raise errors.NonMonotone("affine tail must have positive slope")
    gaps.append(spec.tail.slope)
    # junctions between head and generated tail
    if head.size:
        hi = spec.head_offset + len(spec.head)
        upper = spec.tail.slope * hi + spec.tail.intercept
        jump_up = upper - head[-1]
        if jump_up <= 0:
            raise errors.NonMonotone("tail does not continue the head monotonically")
        gaps.append(float(jump_up))
        if spec.index_kind == INDEX_Z:
            lower = spec.tail.slope * (spec.head_offset - 1) + spec.tail.intercept
            jump_down = head[0] - lower
            if jump_down <= 0:
                raise errors.NonMonotone("tail does not continue the head monotonically")
            gaps.append(float(jump_down))
    certified = min(gaps)
    if certified < spec.gap * (1.0 - 1e-12):
        raise errors.GapViolation(
            f"certified gap {certified:.6g} is below the declared gap {spec.gap:.6g}"
        )
    return replace(spec, gap=float(certified))


@dataclass(frozen=True)
class PerturbationCoefficients:
    """Fourier-coefficient sequences a_n, b_n of the perturbation vectors."""

    a_head_offset: int
    a_head: tuple
    a_tail: PowerTail  # None means identically zero tail
    b_head_offset: int
    b_head: tuple
    b_tail: PowerTail

    @classmethod
    def from_arrays(cls, offset, a, a_tail, b, b_tail):
        """Coefficients whose heads are the complex arrays a and b, of one
        length, over the indices offset, offset + 1, ...: a, b and c =
        conj(a) * b there (_product over the heads, which reads no tail)
        become the read-only caches _a, _b and _c beside the tuples (and
        the head radius _radius), so nothing converts the tuples back or
        evaluates c over them again."""
        c = np.conj(a) * b
        a.flags.writeable = b.flags.writeable = c.flags.writeable = False
        # the fields and the caches set as __init__ and cached_property set
        # them, past the frozen __setattr__, in one update
        coeffs = cls.__new__(cls)
        coeffs.__dict__.update(
            a_head_offset=offset, a_head=tuple(a.tolist()), a_tail=a_tail,
            b_head_offset=offset, b_head=tuple(b.tolist()), b_tail=b_tail,
            _a=a, _b=b, _c=(offset, c), _radius=_head_radius(offset, a),
        )  # fmt: skip
        return coeffs

    @functools.cached_property
    def _a(self):
        return np.asarray(self.a_head, dtype=complex)

    @functools.cached_property
    def _b(self):
        return np.asarray(self.b_head, dtype=complex)

    @staticmethod
    def _eval(lo, hi, offset, head, tail, where=None):
        """x_n at the indices lo..hi: the head's values by slice and, beyond
        the head, the power tail's at the positions where marks (at all of
        them if it is None); zero elsewhere."""
        out = np.zeros(max(hi - lo + 1, 0), dtype=complex)
        first, stop = _overlay(out, lo, offset, head)
        if tail is not None and (first > 0 or stop < len(out)):
            if lo <= 0 <= hi and not first <= -lo < stop and (where is None or where[-lo]):
                raise errors.IndexMismatch("power-law tail undefined at index 0; cover it with the head")
            pos = np.arange(len(out))
            pos = np.concatenate((pos[:first], pos[stop:]))
            if where is not None:
                pos = pos[where[pos]]
            if len(pos):
                out[pos] = tail.value(lo + pos)
        return out

    def a_range(self, lo, hi):
        """a_n at the indices lo..hi, an array."""
        return self._eval(lo, hi, self.a_head_offset, self._a, self.a_tail)

    def b_range(self, lo, hi):
        """b_n at the indices lo..hi, an array."""
        return self._eval(lo, hi, self.b_head_offset, self._b, self.b_tail)

    def _product(self, lo, hi):
        """conj(a_n) * b_n at the indices lo..hi, a's power tail evaluated
        only where b_n != 0: beyond a's head c_n is +0 where b_n = 0
        (conj(a_n) b_n is a zero of either sign there)."""
        b = self.b_range(lo, hi)
        tail, a_off, b_off = self.a_tail, self.a_head_offset, self.b_head_offset
        a_stop, b_stop = a_off + len(self.a_head), b_off + len(self.b_head)
        if self.b_tail is None and (b_off == b_stop or a_off <= b_off and b_stop <= a_stop):
            tail = None  # b_n != 0 only on b's head, and a's covers it
        a = self._eval(lo, hi, a_off, self._a, tail, None if tail is None else b != 0)
        return np.conj(a) * b

    @functools.cached_property
    def _c(self):
        """(first, c_n over the indices first, first + 1, ... that the heads
        span): _product there, evaluated once and read-only."""
        heads = ((self.a_head_offset, self.a_head), (self.b_head_offset, self.b_head))
        spans = [(off, off + len(head)) for off, head in heads if head]
        first, stop = (min(s[0] for s in spans), max(s[1] for s in spans)) if spans else (0, 0)
        c = self._product(first, stop - 1)
        c.flags.writeable = False
        return first, c

    def c_range(self, lo, hi):
        """c_n = conj(a_n) * b_n at the indices lo..hi (_product).  With no
        b tail, c_n is +0 beyond the span of the heads, and over it a slice
        of the coefficients' one evaluation there: _product is elementwise,
        so a slice is bitwise a fresh evaluation."""
        if self.b_tail is not None:
            return self._product(lo, hi)
        first, span = self._c
        out = np.zeros(max(hi - lo + 1, 0), dtype=complex)
        _overlay(out, lo, first, span)
        return out

    def a_at(self, n):
        return _at(n, self.a_range)

    def b_at(self, n):
        return _at(n, self.b_range)

    def c_at(self, n):
        return _at(n, self.c_range)

    @property
    def c_tail(self):
        """Tail generator of c_n, or None when the tail vanishes."""
        if self.a_tail is None or self.b_tail is None:
            return None
        return PowerTail(
            beta=self.a_tail.beta + self.b_tail.beta,
            scale=self.a_tail.scale * self.b_tail.scale,
            phase=self.b_tail.phase - self.a_tail.phase,
        )

    def head_radius(self):
        """Largest |index| covered by either explicit head."""
        return self._radius

    @functools.cached_property
    def _radius(self):
        return max(_head_radius(self.a_head_offset, self.a_head), _head_radius(self.b_head_offset, self.b_head))

    def power_tail_sum(self, m, index_kind):
        """Certified upper bound on the generated tail's sum of |c_n| over
        |n| > m, for m at or beyond head_radius()."""
        tail = self.c_tail
        if tail is None or tail.scale == 0.0:
            return 0.0
        gamma = tail.beta
        if gamma <= 1.0:
            return math.inf
        # 64 explicit terms, then the integral bound on the remainder
        k = np.arange(m + 1, m + 65, dtype=float)
        part = float(np.sum(k**-gamma)) + (m + 64.0) ** (1.0 - gamma) / (gamma - 1.0)
        return abs(tail.scale) * part * (2.0 if index_kind == INDEX_Z else 1.0)

    def partition(self, indices):
        """Split the given indices into (I0, I1) by exact c_n == 0."""
        # exact comparison with zero: entering I0 flips the multiplicity
        # bookkeeping, so users must opt in explicitly
        indices = np.asarray(indices)
        c = self.c_at(indices)
        mask = c != 0
        return indices[~mask], indices[mask]


def _head_radius(offset, head):
    """Largest |index| an explicit head (a tuple or an array) covers (0 when
    it is empty)."""
    return max(abs(offset), abs(offset + len(head) - 1)) if len(head) else 0


def _check_radius(radius, what):
    """WindowExceeded for a head beyond TRUNC_CAP, before anything spans it."""
    if radius > TRUNC_CAP:
        raise errors.WindowExceeded(
            f"{what} head reaches index {radius}, beyond the largest window {TRUNC_CAP}"
        )


def validate_coefficients(coeffs, spec):
    """Validate square summability, non-degeneracy of explicit indices, and
    the fit between coefficient data and the index set.  Heads reaching
    beyond TRUNC_CAP raise WindowExceeded before any array spans them."""
    h = coeffs.head_radius()
    _check_radius(h, "coefficient")
    for off, head, arr, tail, name in (
        (coeffs.a_head_offset, coeffs.a_head, coeffs._a, coeffs.a_tail, "a"),
        (coeffs.b_head_offset, coeffs.b_head, coeffs._b, coeffs.b_tail, "b"),
    ):
        if np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise errors.SchemaError(f"{name} head contains non-finite entries")
        if spec.index_kind == INDEX_N and head and off < spec.start:
            raise errors.IndexMismatch(
                f"{name} head starts at {off}, below the index set start {spec.start}"
            )
        if tail is not None:
            if not (math.isfinite(tail.scale) and math.isfinite(tail.phase)):
                raise errors.SchemaError(
                    f"{name} tail scale and phase must be finite, got {tail.scale}, {tail.phase}"
                )
            if not (tail.beta > 0.5):
                raise errors.NonSummable(
                    f"{name} tail with beta = {tail.beta} is not square summable"
                )
            # _eval's rule: a power tail is undefined at 0, so an index set
            # that holds 0 needs a head that covers it, whatever the scale
            if spec.first_index(0) <= 0 and not off <= 0 < off + len(head):
                raise errors.IndexMismatch(f"{name} head must cover index 0 when a tail is set")
    # degenerate indices are only detectable on explicit entries; generator
    # zero-zero tails encode finite-rank data and are accepted as-is
    head_sum = 0.0  # sum |c_n| over |n| <= h
    if h > 0 or coeffs.a_head or coeffs.b_head:
        lo = spec.first_index(h)
        a = coeffs.a_range(lo, h)
        if np.count_nonzero(a) < len(a):  # a degenerate index has a_n = 0
            dead = (a == 0) & (coeffs.b_range(lo, h) == 0)
            explicit = np.zeros(len(a), dtype=bool)  # in either head
            for off, head in ((coeffs.a_head_offset, coeffs.a_head), (coeffs.b_head_offset, coeffs.b_head)):
                explicit[max(off - lo, 0) : max(off + len(head) - lo, 0)] = True
            dead &= explicit
            if np.count_nonzero(dead):
                raise errors.DegenerateIndex(
                    f"a_n = b_n = 0 at explicit index {lo + int(dead.argmax())}; pre-reduce the input"
                )
        # index 0 included, as in K'; an overflowing c_n or sum is not
        # summable.  |c_range| is |conj(a_n) b_n| of a_range and b_range:
        # the two differ only in the sign of a zero, where b_n = 0 and
        # c_range reads no tail of a
        with np.errstate(over="ignore", invalid="ignore"):
            absc = np.abs(coeffs.c_range(lo, h))
            head_sum = float(np.add.reduce(absc))
        # a subnormal c_n puts a zero within it of lambda_n, where the
        # kernel's division by that offset gives -inf + nan i.  The counts
        # below add up to len(absc) plus the number of such c_n (a NaN
        # counts once, in the second)
        if np.count_nonzero(absc < 2.0**-1022) + np.count_nonzero(absc) > len(absc):
            tiny = (absc > 0.0) & (absc < 2.0**-1022)
            raise errors.DegenerateIndex(
                f"0 < |c_n| < 2^-1022 at index {lo + int(tiny.argmax())}: set c_n to 0 or rescale the input"
            )
    if not math.isfinite(head_sum + coeffs.power_tail_sum(h, spec.index_kind)):
        raise errors.NonSummable("sum |c_n| diverges")
    return coeffs


@dataclass(frozen=True)
class TargetSpectrum:
    """Desired spectrum nu_n; equals lambda_n outside the explicit head."""

    nu_head_offset: int
    nu_head: tuple

    @functools.cached_property
    def _nu(self):
        return np.asarray(self.nu_head, dtype=complex)

    def nu_at(self, n, spec):
        def values(lo, hi):
            out = spec.lambda_range(lo, hi).astype(complex)
            _overlay(out, lo, self.nu_head_offset, self._nu)
            return out

        return _at(n, values)


def validate_target(target, spec):
    # the inverse problem lists its residues index by index out to the head
    _check_radius(_head_radius(target.nu_head_offset, target.nu_head), "target")
    arr = np.asarray(target.nu_head, dtype=complex)
    if arr.size and not np.all(np.isfinite(arr)):
        raise errors.SchemaError("target head contains non-finite entries")
    if spec.index_kind == INDEX_N and target.nu_head and target.nu_head_offset < spec.start:
        raise errors.IndexMismatch("target head starts below the index set start")
    return target


# ---------------------------------------------------------------------------
# perturbed spectrum (solver output)

ORIGIN_COMMON = "common"
ORIGIN_ZERO = "zero_of_F"
ORIGIN_BOTH = "both"


@dataclass(eq=False)
class PerturbedSpectrum:
    """The eigenvalues as columns, one row per distinct eigenvalue sorted by
    (re, im): mu, multiplicity mult, paired_index and origin (an ORIGIN_*
    string).  index and paired_mu hold one row per window index: the
    eigenvalue paired with it, one index per unit of multiplicity.  Not
    frozen, as its columns never were: a frozen dataclass's __init__ costs
    ten times this one's, once per solve."""

    mu: np.ndarray
    mult: np.ndarray
    paired_index: np.ndarray
    origin: np.ndarray
    index: np.ndarray
    paired_mu: np.ndarray
    offset_sum: float
    tail_bound: float
    certified: bool

    def eigenvalues(self):
        """All eigenvalues repeated by multiplicity."""
        return np.repeat(self.mu, self.mult)

    def offsets(self, spec):
        return self.index, np.abs(self.paired_mu - spec.lambda_at(self.index))


# ---------------------------------------------------------------------------
# JSON serialization.  Complex numbers are [re, im]; unknown fields rejected.


def _reader(what):
    """A document reader whose TypeError or OverflowError (a value of the
    wrong type, as "gap": null, a complex value ["x", 0.0] or an offset of
    0.5, or an integer too large for a float) is a SchemaError naming the
    document."""

    def wrap(read):
        @functools.wraps(read)
        def reader(doc):
            try:
                return read(doc)
            except (TypeError, OverflowError) as exc:
                raise errors.SchemaError(f"{what}: {exc}") from None

        return reader

    return wrap


def _real(v):
    """A JSON number as a float: a boolean or a string is a TypeError, as
    float() makes null, a list or an object one."""
    if isinstance(v, (bool, str)):
        raise TypeError(f"a real must be a JSON number, not {json.dumps(v)}")
    return float(v)


def _offset(v):
    """A JSON integer: any other value (0.9, true, "1") is a TypeError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"an offset must be a JSON integer, not {json.dumps(v)}")
    return v


def _need(doc, keys, what):
    if not isinstance(doc, dict):
        raise errors.SchemaError(f"{what}: expected an object")
    extra = set(doc) - set(keys)
    if extra:
        raise errors.SchemaError(f"{what}: unknown fields {sorted(extra)}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise errors.SchemaError(f"{what}: missing fields {missing}")


def _cx_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _cx_in(v, what):
    if not (isinstance(v, list) and len(v) == 2):
        raise errors.SchemaError(f"{what}: complex values are [re, im] pairs")
    return complex(_real(v[0]), _real(v[1]))


def _head_out(offset, values):
    return {"offset": offset, "values": [_cx_out(v) for v in values]}


def _head_in(doc, what):
    """(offset, values) of a {"offset", "values"} block of complex values."""
    _need(doc, ["offset", "values"], what)
    return _offset(doc["offset"]), tuple(_cx_in(v, what) for v in doc["values"])


def base_to_json(spec):
    return {
        "index_set": spec.index_kind,
        "lambda_head": {"offset": spec.head_offset, "values": [float(v) for v in spec.head]},
        "lambda_tail": {"slope": spec.tail.slope, "intercept": spec.tail.intercept},
        "gap": spec.gap,
    }


@_reader("BaseSpectrum")
def base_from_json(doc):
    _need(doc, ["index_set", "lambda_head", "lambda_tail", "gap"], "BaseSpectrum")
    _need(doc["lambda_head"], ["offset", "values"], "lambda_head")
    _need(doc["lambda_tail"], ["slope", "intercept"], "lambda_tail")
    return BaseSpectrum(
        index_kind=doc["index_set"],
        head_offset=_offset(doc["lambda_head"]["offset"]),
        head=tuple(_real(v) for v in doc["lambda_head"]["values"]),
        tail=AffineTail(_real(doc["lambda_tail"]["slope"]), _real(doc["lambda_tail"]["intercept"])),
        gap=_real(doc["gap"]),
    )


def _tail_to_json(tail):
    if tail is None:
        return "zero"
    return {"beta": tail.beta, "scale": tail.scale, "phase": tail.phase}


def _tail_from_json(doc, what):
    if doc == "zero":
        return None
    _need(doc, ["beta", "scale", "phase"], what)
    return PowerTail(_real(doc["beta"]), _real(doc["scale"]), _real(doc["phase"]))


def coefficients_to_json(coeffs):
    return {
        "a_head": _head_out(coeffs.a_head_offset, coeffs.a_head),
        "a_tail": _tail_to_json(coeffs.a_tail),
        "b_head": _head_out(coeffs.b_head_offset, coeffs.b_head),
        "b_tail": _tail_to_json(coeffs.b_tail),
    }


@_reader("PerturbationCoefficients")
def coefficients_from_json(doc):
    _need(doc, ["a_head", "a_tail", "b_head", "b_tail"], "PerturbationCoefficients")
    a_off, a = _head_in(doc["a_head"], "a_head")
    b_off, b = _head_in(doc["b_head"], "b_head")
    return PerturbationCoefficients(
        a_head_offset=a_off,
        a_head=a,
        a_tail=_tail_from_json(doc["a_tail"], "a_tail"),
        b_head_offset=b_off,
        b_head=b,
        b_tail=_tail_from_json(doc["b_tail"], "b_tail"),
    )


def target_to_json(target):
    return {"nu_head": _head_out(target.nu_head_offset, target.nu_head), "tail": "equals_lambda"}


@_reader("TargetSpectrum")
def target_from_json(doc):
    _need(doc, ["nu_head", "tail"], "TargetSpectrum")
    off, nu = _head_in(doc["nu_head"], "nu_head")
    if doc["tail"] != "equals_lambda":
        raise errors.SchemaError("TargetSpectrum: tail must be 'equals_lambda'")
    return TargetSpectrum(nu_head_offset=off, nu_head=nu)


def spectrum_to_json(ps):
    columns = (ps.mu.real, ps.mu.imag, ps.mult, ps.paired_index, ps.origin)
    return {
        "entries": [
            {"mu": [re, im], "mult": m, "paired_index": n, "origin": o}
            for re, im, m, n, o in zip(*(col.tolist() for col in columns))
        ],
        "offset_sum": ps.offset_sum,
        "tail_bound": ps.tail_bound,
        "certified": ps.certified,
    }


def dump_json(doc, path):
    """Deterministic, atomic JSON write (sorted keys, shortest float repr)."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
