"""Domain types for quota-linked collective decision problems.

A problem bundles a finite decision set, a finite type set with a utility
table, and a rational prior over types.  Across K linked copies of the
problem an agent holds a length-K type vector; its empirical marginal lives
on the 1/K grid and is compared to other distributions in total variation.
Probabilities are exact ``fractions.Fraction`` values throughout so that
every distance and count downstream is bit-reproducible; utilities may be
ordinary finite-precision numbers.

Labels for types and decisions are opaque strings.  Wherever a tie must be
broken deterministically, the canonical order is lexicographic on the label.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np


class ValidationError(ValueError):
    """Untrusted input broke a domain invariant."""


class EnumerationCapError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


Weights = Mapping[str, Fraction]


# Most decimal digits an untrusted number may carry in a numerator or a
# denominator: room for the exact decimal form of any float (17 digits and
# an exponent of at most 324), and far below the 4300 digits at which
# Python refuses to print an int.
MAX_RATIONAL_DIGITS = 1000
_RATIONAL_BOUND = 10**MAX_RATIONAL_DIGITS
PRIOR_TOLERANCE = Fraction(1, 10**12)  # how far a fixed-precision prior may sum from 1

# The simulator's strategies; the command line offers the first three.
STRATEGY_NAMES = ("canonical-min-lie", "uniform-min-lie", "best-response", "custom-permutation-truthful")
# Largest K a simulation accepts: each episode holds O(K) arrays and lists.
MAX_K = 10**7


def _cut(text: str) -> str:
    return text if len(text) <= 40 else text[:37] + "..."


def _brief(value) -> str:
    """A repr (a Fraction's str) of untrusted input short enough for a one-line error;
    a long int or ratio, which Python may refuse to print, is named by its bit length."""
    if isinstance(value, (list, tuple, dict)):
        return f"a {type(value).__name__}"
    if isinstance(value, int) and value.bit_length() > 2048:  # below 640 digits, the least print limit Python sets
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    if isinstance(value, Fraction):
        bits = max(abs(value.numerator), value.denominator).bit_length()
        return f"a ratio with a part of {bits} bits" if bits > 2048 else _cut(str(value))
    return _cut(repr(value))


def _bounded(value: str, field: str) -> str:
    """``value`` stripped, refused past ``MAX_RATIONAL_DIGITS`` digits by its length and exponent before
    ``Fraction`` expands it, since "1e-100000000" would build a hundred-million-digit power of ten."""
    text = value.strip()
    _, e, tail = text.lower().rpartition("e")
    try:
        exponent = int(tail) if e else 0
    except ValueError:  # past Python's int digit limit, or not an exponent, which Fraction rejects
        exponent = 0
    # room for a sign, two full-length parts and the "/" or "." between
    if len(text) > 2 * MAX_RATIONAL_DIGITS + 2 or abs(exponent) > MAX_RATIONAL_DIGITS:
        raise ValidationError(f"{field}: more than {MAX_RATIONAL_DIGITS} digits in {_brief(value)}")
    return text


def as_fraction(value: Union[int, str, float, Fraction], field: str = "value") -> Fraction:
    """Parse an exact rational from an int, a "p/q" or decimal string, or a float.

    Floats are read through their shortest decimal representation, so 0.1
    means exactly 1/10 rather than the nearest binary double.  Numerator and
    denominator may have at most ``MAX_RATIONAL_DIGITS`` digits; a string is ``_bounded`` first.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{field}: expected a number, got a bool")
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        text = _bounded(value, field)
        try:
            out = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{field}: cannot parse rational from {_brief(value)}") from exc
    elif isinstance(value, (int, Fraction)):
        out = Fraction(value)
    else:
        raise ValidationError(f"{field}: cannot parse rational from {_brief(value)}")
    if max(abs(out.numerator), out.denominator) >= _RATIONAL_BOUND:
        raise ValidationError(f"{field}: more than {MAX_RATIONAL_DIGITS} digits")
    return out


def _prior_ints(prior: Weights) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """The sorted labels, each weight as an int P_t over the weights' common denominator D, and D.  A float
    weight is read by its exact binary value, any other by ``as_fraction``; a weight that is no number or is
    negative, or a D of more than ``MAX_RATIONAL_DIGITS`` digits, is a ``prior:`` error."""
    types, weights, D = tuple(sorted(prior)), [], 1
    for t in types:
        w = prior[t]
        try:
            w = Fraction(w) if isinstance(w, float) and math.isfinite(w) else as_fraction(w, "prior")
        except ValidationError as exc:
            raise ValidationError(f"{exc} for {_brief(t)}") from None
        if w < 0:
            raise ValidationError(f"prior: negative weight {_cut(str(w))} for {_brief(t)}")
        D = math.lcm(D, w.denominator)
        if D >= _RATIONAL_BOUND:
            raise ValidationError(f"prior: common denominator has more than {MAX_RATIONAL_DIGITS} digits")
        weights.append(w)
    return types, tuple(w.numerator * (D // w.denominator) for w in weights), D


def _prior_total(nums: Sequence[int], D: int) -> int:
    """The sum of a prior's ints P_t over D (``_prior_ints``); one off 1 by over ``PRIOR_TOLERANCE``
    is a ``prior:`` error."""
    total = sum(nums)
    if abs(Fraction(total, D) - 1) > PRIOR_TOLERANCE:
        raise ValidationError(f"prior: sums to {_cut(str(Fraction(total, D)))}, expected 1")
    return total


def _check_labels(labels: Sequence[str], field: str) -> tuple[str, ...]:
    if not isinstance(labels, (list, tuple)):
        raise ValidationError(f"{field}: must be a list of labels")
    if not labels:
        raise ValidationError(f"{field}: must be nonempty")
    out = []
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise ValidationError(f"{field}: labels must be nonempty strings, got {_brief(lab)}")
        out.append(lab)
    if len(set(out)) != len(out):
        dupes = sorted({x for x in out if out.count(x) > 1})
        raise ValidationError(f"{field}: duplicate labels {dupes}")
    return tuple(out)


@dataclass(frozen=True)
class Problem:
    """A single-agent decision problem: decisions, types, utilities, prior.

    ``utility[t][d]`` is the payoff of decision ``d`` to an agent of type
    ``t``.  ``prior[t]`` is the probability of type ``t``; weights are exact
    rationals summing to 1.  Instances are immutable by convention: the
    mappings are never mutated after construction.
    """

    decisions: tuple[str, ...]
    types: tuple[str, ...]
    utility: Mapping[str, Mapping[str, float]]
    prior: Weights

    def vector(self, entries: Iterable[str]) -> "PreferenceVector":
        """Build a type vector over this problem's type universe."""
        return PreferenceVector(tuple(entries), self.types)

    def _int_prior(self) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        """``_prior_ints(self.prior)``, computed at most once: like ``PreferenceVector``'s
        memos it lives in the instance dict, outside equality, hashing and repr."""
        ints = self.__dict__.get("_int_prior_memo")
        if ints is None:
            ints = self.__dict__["_int_prior_memo"] = _prior_ints(self.prior)
        return ints


def validate_problem(spec: Mapping) -> Problem:
    """Check an untrusted problem description and return a ``Problem``.

    Expected keys: ``decisions`` (list of labels), ``types`` (list of
    labels), ``prior`` (list of rationals aligned with ``types``, e.g.
    ``"1/3"``), ``utility`` (mapping type -> decision -> number).  Every
    violation is reported with the offending field.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError("problem spec must be a mapping")
    for key in ("decisions", "types", "prior", "utility"):
        if key not in spec:
            raise ValidationError(f"{key}: missing")

    decisions = _check_labels(spec["decisions"], "decisions")
    types = _check_labels(spec["types"], "types")
    for t in types:
        if "," in t:
            raise ValidationError(f"types: label {_brief(t)} contains a comma, which separates --truth/--report labels")
        if t != t.strip():
            raise ValidationError(f"types: label {_brief(t)} has outer whitespace, which --truth/--report strip")

    raw_prior = spec["prior"]
    if not isinstance(raw_prior, Sequence) or isinstance(raw_prior, (str, bytes)):
        raise ValidationError("prior: must be a list aligned with types")
    if len(raw_prior) != len(types):
        raise ValidationError(
            f"prior: has {len(raw_prior)} entries for {len(types)} types"
        )
    weights = {}
    for t, raw in zip(types, raw_prior):
        w = as_fraction(raw, field=f"prior[{t}]")
        if w < 0:
            raise ValidationError(f"prior[{t}]: negative weight {_cut(str(w))}")
        weights[t] = w
    ints = _prior_ints(weights)  # bounds the common denominator, so the sum below cannot blow up
    total = Fraction(_prior_total(ints[1], ints[2]), ints[2])
    if total != 1:  # fixed-precision specs may miss 1 by rounding; renormalize exactly
        weights = {t: w / total for t, w in weights.items()}

    raw_util = spec["utility"]
    if not isinstance(raw_util, Mapping):
        raise ValidationError("utility: must be a mapping type -> decision -> number")
    unknown = sorted(set(raw_util) - set(types))
    if unknown:
        raise ValidationError(f"utility: unknown types {unknown}")
    utility: dict[str, dict[str, float]] = {}
    for t in types:
        if t not in raw_util:
            raise ValidationError(f"utility[{t}]: missing")
        row = raw_util[t]
        if not isinstance(row, Mapping):
            raise ValidationError(f"utility[{t}]: must map decisions to numbers")
        extra = sorted(set(row) - set(decisions))
        if extra:
            raise ValidationError(f"utility[{t}]: unknown decisions {extra}")
        utility[t] = {}
        for d in decisions:
            if d not in row:
                raise ValidationError(f"utility[{t}][{d}]: missing")
            val = row[d]
            if isinstance(val, bool) or not isinstance(val, (int, float, Fraction)):
                raise ValidationError(f"utility[{t}][{d}]: not a number: {_brief(val)}")
            if isinstance(val, float) and not math.isfinite(val):
                raise ValidationError(f"utility[{t}][{d}]: not finite")
            if not isinstance(val, float) and abs(val) >= _RATIONAL_BOUND:
                raise ValidationError(f"utility[{t}][{d}]: more than {MAX_RATIONAL_DIGITS} digits")
            utility[t][d] = val
    problem = Problem(decisions=decisions, types=types, utility=utility, prior=weights)
    if total == 1:  # renormalized weights are parsed on first read instead
        problem.__dict__["_int_prior_memo"] = ints
    return problem


def _unchecked(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values``, without ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True)
class PreferenceVector:
    """A length-K sequence of type labels over a fixed type universe."""

    entries: tuple[str, ...]
    types: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "types", tuple(sorted(self.types)))
        if len(set(self.types)) != len(self.types):
            raise ValidationError("types: duplicate labels")
        if not self.entries:
            raise ValidationError("entries: K must be at least 1")
        universe = set(self.types)
        if not universe.issuperset(self.entries):
            k, t = next((k, t) for k, t in enumerate(self.entries, start=1) if t not in universe)
            raise ValidationError(f"entries[{k}]: unknown type {_brief(t)}")

    @classmethod
    def _from_codes(cls, entries: tuple[str, ...], types: tuple[str, ...], codes) -> "PreferenceVector":
        """A vector whose ``entries`` are ``types[codes]`` by construction, for sorted
        distinct ``types``: unchecked, with both memos filled from the int ``codes``."""
        codes = np.asarray(codes, dtype=np.intp)
        codes.setflags(write=False)
        counts = tuple(np.bincount(codes, minlength=len(types)).tolist())
        return _unchecked(cls, entries=entries, types=types, _codes_memo=codes, _counts_memo=counts)

    @property
    def K(self) -> int:
        return len(self.entries)

    def counts(self) -> Counter:
        """Each type that occurs, with its count."""
        return Counter({t: c for t, c in zip(self.types, self._type_counts()) if c})

    def _type_counts(self) -> tuple[int, ...]:
        """Each type's count, in ``types`` order, zeros kept: ``Quota.counts``'s layout.  This
        memo and the codes' live in the instance dict, outside equality and hashing."""
        counts = self.__dict__.get("_counts_memo")
        if counts is None:
            counts = self.__dict__["_counts_memo"] = tuple(map(Counter(self.entries).__getitem__, self.types))
        return counts

    def _codes(self) -> np.ndarray:
        """Each entry's index into ``types``, as a read-only ``intp`` array."""
        codes = self.__dict__.get("_codes_memo")
        if codes is None:
            index = {t: i for i, t in enumerate(self.types)}
            codes = self.__dict__["_codes_memo"] = np.fromiter(map(index.__getitem__, self.entries), np.intp, self.K)
            codes.flags.writeable = False
        return codes


@dataclass(frozen=True)
class Marginal:
    """Empirical distribution of a type vector: weights on the 1/K grid."""

    types: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if len(self.types) != len(self.weights):
            raise ValidationError("marginal: types and weights must align")
        if any(w < 0 for w in self.weights):
            raise ValidationError("marginal: negative weight")
        if sum(self.weights) != 1:
            raise ValidationError(f"marginal: weights sum to {sum(self.weights)}, expected 1")

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.types, self.weights))


def marginal(v: PreferenceVector) -> Marginal:
    """Empirical marginal of ``v``: weight of t is (count of t in v)/K."""
    return Marginal(v.types, tuple(Fraction(c, v.K) for c in v._type_counts()))


@dataclass(frozen=True)
class Quota:
    """Integer report budget per type; counts sum to the number of copies K."""

    types: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "counts", tuple(self.counts))
        if list(self.types) != sorted(self.types) or len(set(self.types)) != len(self.types):
            raise ValidationError("quota: types must be distinct and in canonical order")
        if len(self.types) != len(self.counts):
            raise ValidationError("quota: types and counts must align")
        for t, c in zip(self.types, self.counts):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValidationError(f"quota[{t}]: count must be a nonnegative integer")
        if sum(self.counts) < 1:
            raise ValidationError("quota: counts must sum to K >= 1")

    @property
    def K(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.types, self.counts))


@dataclass(frozen=True)
class Message:
    """A preference vector whose per-type counts meet a quota exactly."""

    vector: PreferenceVector
    quota: Quota

    def __post_init__(self):
        if self.vector.types != self.quota.types:
            raise ValidationError(
                f"message: vector types {self.vector.types} != quota types {self.quota.types}"
            )
        if self.vector.K != self.quota.K:
            raise ValidationError(f"message: length {self.vector.K} != quota total {self.quota.K}")
        counts = self.vector._type_counts()
        if counts != self.quota.counts:
            cells = list(zip(self.quota.types, counts, self.quota.counts))
            over = [t for t, c, b in cells if c > b]
            under = [t for t, c, b in cells if c < b]
            raise ValidationError(
                f"message violates quota: over-represented {over}, under-represented {under}"
            )

    @classmethod
    def _built(cls, entries: tuple[str, ...], quota: Quota) -> "Message":
        """A message over ``quota.types`` from a builder that has already checked
        ``entries`` against the quota; neither it nor its vector is re-checked."""
        return _unchecked(cls, vector=_unchecked(PreferenceVector, entries=entries, types=quota.types), quota=quota)

    @property
    def entries(self) -> tuple[str, ...]:
        return self.vector.entries

    @property
    def K(self) -> int:
        return self.vector.K


def _weights_of(dist: Union[Marginal, Quota, Weights], field: str) -> dict[str, Fraction]:
    if isinstance(dist, Marginal):
        return dist.as_dict()
    if isinstance(dist, Quota):
        k = dist.K
        return {t: Fraction(c, k) for t, c in zip(dist.types, dist.counts)}
    if isinstance(dist, Mapping):
        return {t: Fraction(w) for t, w in dist.items()}
    raise ValidationError(f"{field}: expected a distribution, got {type(dist).__name__}")


def tv_distance(q: Union[Marginal, Quota, Weights], q_prime: Union[Marginal, Quota, Weights]) -> Fraction:
    """Total variation distance: the sum over types of (q - q')_+.

    Symmetric whenever both arguments sum to 1; zero exactly on equality;
    never exceeds 1.
    """
    a = _weights_of(q, "q")
    b = _weights_of(q_prime, "q_prime")
    if set(a) != set(b):
        raise ValidationError(
            f"tv_distance: mismatched type sets {sorted(a)} vs {sorted(b)}"
        )
    return sum((a[t] - b[t] for t in a if a[t] > b[t]), start=Fraction(0))


def _quota_tv(quota: Quota, prior_nums: Sequence[int], D: int) -> Fraction:
    """tv(quota, prior) for a prior of ints P_t over D (see ``_prior_ints``): sum_t |q_t * D - K * P_t| / (2KD)."""
    K = quota.K
    return Fraction(sum(abs(c * D - K * P) for c, P in zip(quota.counts, prior_nums)), 2 * K * D)
