import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkmech import (
    Marginal,
    Message,
    PreferenceVector,
    Problem,
    Quota,
    SimConfig,
    ValidationError,
    cli,
    core,
    marginal,
    run_convergence,
    sim,
    truthfulness,
    tv_distance,
    validate_problem,
)
from linkmech.cli import bundled_spec_path
from linkmech.core import _prior_ints, as_fraction
from helpers import permuted, run_cli

UNIFORM3 = {
    "decisions": ["a", "b", "c"],
    "types": ["A", "B", "C"],
    "prior": ["1/3", "1/3", "1/3"],
    "utility": {
        "A": {"a": 2, "b": 1, "c": 0},
        "B": {"a": 0, "b": 2, "c": 1.5},
        "C": {"a": 0, "b": 0, "c": 2},
    },
}


class TestValidateProblem:
    def test_accepts_three_type_instance(self):
        p = validate_problem(UNIFORM3)
        assert p.types == ("A", "B", "C")
        assert p.prior["B"] == Fraction(1, 3)
        assert p.utility["B"]["c"] == 1.5

    def test_prior_not_summing_to_one(self):
        bad = dict(UNIFORM3, prior=["1/2", "1/2", "1/2"])
        with pytest.raises(ValidationError, match="prior.*3/2"):
            validate_problem(bad)

    def test_degenerate_single_type(self):
        p = validate_problem(
            {"decisions": ["d"], "types": ["T"], "prior": ["1"], "utility": {"T": {"d": 0}}}
        )
        assert p.types == ("T",) and p.prior["T"] == 1

    def test_negative_prior_names_type(self):
        bad = dict(UNIFORM3, prior=["2/3", "2/3", "-1/3"])
        with pytest.raises(ValidationError, match=r"prior\[C\]"):
            validate_problem(bad)

    def test_missing_utility_entry_names_pair(self):
        bad = dict(UNIFORM3, utility={**UNIFORM3["utility"], "B": {"a": 0, "b": 2}})
        with pytest.raises(ValidationError, match=r"utility\[B\]\[c\]"):
            validate_problem(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_utility_names_pair(self, value):
        bad = dict(UNIFORM3, utility={**UNIFORM3["utility"], "B": {"a": 0, "b": 2, "c": value}})
        with pytest.raises(ValidationError, match=r"^utility\[B\]\[c\]: not finite$"):
            validate_problem(bad)

    def test_empty_types(self):
        bad = dict(UNIFORM3, types=[], prior=[])
        with pytest.raises(ValidationError, match="types"):
            validate_problem(bad)

    def test_duplicate_labels(self):
        bad = dict(UNIFORM3, types=["A", "A", "C"])
        with pytest.raises(ValidationError, match="duplicate"):
            validate_problem(bad)

    def test_near_one_float_prior_is_renormalized(self):
        spec = dict(UNIFORM3, prior=[0.3333333333333333, 0.3333333333333333, 0.3333333333333334])
        p = validate_problem(spec)
        assert sum(p.prior.values()) == 1


class TestRationalBound:
    @pytest.mark.parametrize("value, expected", [
        ("1e999", Fraction(10**999)),
        ("-1e-999", Fraction(-1, 10**999)),
        (f"{10**999}/{10**999 + 1}", Fraction(10**999, 10**999 + 1)),
        (5e-324, Fraction(5, 10**324)),  # the smallest float, read as its shortest decimal
        (1.7976931348623157e308, Fraction(17976931348623157 * 10**292)),
        (10**1000 - 1, Fraction(10**1000 - 1)),
    ], ids=["exp999", "exp-999", "p/q", "min-float", "max-float", "int"])
    def test_largest_values_accepted(self, value, expected):
        assert as_fraction(value) == expected

    @pytest.mark.parametrize("value, message", [
        ("1e1000", "x: more than 1000 digits"),
        ("1e-1000", "x: more than 1000 digits"),
        ("1e-100000000", "x: more than 1000 digits in '1e-100000000'"),
        ("1E1_001", "x: more than 1000 digits in '1E1_001'"),
        ("1" * 2003, "x: more than 1000 digits in '" + "1" * 36 + "..."),
        (10**1000, "x: more than 1000 digits"),
        (Fraction(1, 10**1000), "x: more than 1000 digits"),
        ("x" * 60, "x: cannot parse rational from '" + "x" * 36 + "..."),
        ([["1/2"]], "x: cannot parse rational from a list"),
        (None, "x: cannot parse rational from None"),
    ], ids=["exp1000", "exp-1000", "exp-10^8", "exp-underscore", "long", "int", "fraction", "junk", "list", "none"])
    def test_oversized_or_junk_rejected_briefly(self, value, message):
        with pytest.raises(ValidationError) as exc:
            as_fraction(value, field="x")
        assert str(exc.value) == message

    def test_oversized_integer_utility(self):
        bad = dict(UNIFORM3, utility={**UNIFORM3["utility"], "C": {"a": 0, "b": 10**1000, "c": 2}})
        with pytest.raises(ValidationError, match=r"^utility\[C\]\[b\]: more than 1000 digits$"):
            validate_problem(bad)

    def test_junk_label_named_briefly(self):
        bad = dict(UNIFORM3, types=["A", "B", [[["C"]]]])
        with pytest.raises(ValidationError, match="^types: labels must be nonempty strings, got a list$"):
            validate_problem(bad)


class TestMarginal:
    def test_two_one_zero(self):
        v = PreferenceVector(("A", "A", "B"), ("A", "B", "C"))
        m = marginal(v)
        assert m.as_dict() == {"A": Fraction(2, 3), "B": Fraction(1, 3), "C": Fraction(0)}

    def test_constant_vector(self):
        v = PreferenceVector(("A", "A", "A"), ("A", "B", "C"))
        assert marginal(v).as_dict()["A"] == 1

    def test_k4(self):
        v = PreferenceVector(("A", "B", "C", "A"), ("A", "B", "C"))
        assert marginal(v).as_dict() == {
            "A": Fraction(1, 2),
            "B": Fraction(1, 4),
            "C": Fraction(1, 4),
        }

    def test_unknown_entry_rejected(self):
        with pytest.raises(ValidationError, match=r"entries\[2\]"):
            PreferenceVector(("A", "Z"), ("A", "B"))

    @given(st.lists(st.sampled_from("ABC"), min_size=1, max_size=10), st.randoms())
    def test_permutation_invariant(self, entries, rnd):
        v = PreferenceVector(tuple(entries), ("A", "B", "C"))
        perm = list(range(v.K))
        rnd.shuffle(perm)
        assert marginal(v) == marginal(permuted(v, perm))


def _random_distribution(rnd, types, denom):
    cuts = sorted(rnd.randint(0, denom) for _ in range(len(types) - 1))
    bounds = [0, *cuts, denom]
    return {t: Fraction(bounds[i + 1] - bounds[i], denom) for i, t in enumerate(types)}


class TestTvDistance:
    def test_identity(self):
        q = {"A": Fraction(1, 3), "B": Fraction(1, 3), "C": Fraction(1, 3)}
        assert tv_distance(q, q) == 0

    def test_single_positive_part(self):
        q = {"A": Fraction(2, 3), "B": Fraction(1, 3), "C": Fraction(0)}
        uniform = {t: Fraction(1, 3) for t in "ABC"}
        assert tv_distance(q, uniform) == Fraction(1, 3)

    def test_disjoint_supports(self):
        assert tv_distance({"A": 1, "B": 0}, {"A": 0, "B": 1}) == 1

    def test_mismatched_type_sets(self):
        with pytest.raises(ValidationError, match="mismatched"):
            tv_distance({"A": 1}, {"B": 1})

    def test_accepts_marginal_and_quota(self):
        v = PreferenceVector(("A", "A", "B"), ("A", "B"))
        q = Quota(("A", "B"), (2, 1))
        assert tv_distance(marginal(v), q) == 0

    def test_positive_part_equals_half_l1_on_1000_pairs(self):
        rnd = random.Random(20240817)
        for _ in range(1000):
            n = rnd.randint(1, 5)
            types = tuple(sorted({f"t{i}" for i in range(n)}))
            a = _random_distribution(rnd, types, rnd.randint(1, 60))
            b = _random_distribution(rnd, types, rnd.randint(1, 60))
            tv = tv_distance(a, b)
            assert tv == sum(abs(a[t] - b[t]) for t in types) / 2
            assert tv == tv_distance(b, a)
            assert 0 <= tv <= 1
            assert (tv == 0) == (a == b)

    @given(
        st.lists(st.sampled_from("ABCD"), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_k_times_tv_to_quota_grid_is_integer(self, entries, salt):
        types = ("A", "B", "C", "D")
        v = PreferenceVector(tuple(entries), types)
        rnd = random.Random(salt)
        cuts = sorted(rnd.randint(0, v.K) for _ in range(len(types) - 1))
        bounds = [0, *cuts, v.K]
        q = Quota(types, tuple(bounds[i + 1] - bounds[i] for i in range(len(types))))
        assert (v.K * tv_distance(marginal(v), q)).denominator == 1


class TestMessage:
    def test_quota_satisfied(self):
        q = Quota(("A", "B", "C"), (1, 1, 1))
        m = Message(PreferenceVector(("C", "A", "B"), ("A", "B", "C")), q)
        assert m.entries == ("C", "A", "B")

    def test_violation_names_types(self):
        q = Quota(("A", "B", "C"), (1, 1, 1))
        with pytest.raises(ValidationError, match=r"over-represented \['A'\].*under-represented \['C'\]"):
            Message(PreferenceVector(("A", "A", "B"), ("A", "B", "C")), q)

    def test_marginal_requires_weights_summing_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            Marginal(("A", "B"), (Fraction(1, 2), Fraction(1, 3)))


class TestPreferenceVector:
    @pytest.mark.parametrize("entries, message", [
        (("A", "B", "X", "C", "A"), "entries[3]: unknown type 'X'"),
        (("A", "B", "X", "Y", "X"), "entries[3]: unknown type 'X'"),
        (("Y",), "entries[1]: unknown type 'Y'"),
        (("A", "C", 7), "entries[3]: unknown type 7"),
        (("A", "y" * 5000), "entries[2]: unknown type '" + "y" * 36 + "..."),
    ])
    def test_unknown_label_names_first_bad_slot(self, entries, message):
        with pytest.raises(ValidationError) as exc:
            PreferenceVector(entries, ("A", "B", "C"))
        assert str(exc.value) == message

    def test_memos_leave_equality_and_hash_alone(self):
        # counts and codes are memoized in the instance dict, outside the fields
        v = PreferenceVector(("B", "A", "B", "C"), ("A", "B", "C"))
        v.counts()
        v._type_counts()
        codes = v._codes()
        assert codes.tolist() == [1, 0, 1, 2]
        assert not codes.flags.writeable
        fresh = PreferenceVector(("B", "A", "B", "C"), ("C", "B", "A"))
        assert "_codes_memo" not in vars(fresh)
        assert v == fresh and hash(v) == hash(fresh)
        q = Quota(("A", "B", "C"), (1, 2, 1))
        assert Message(v, q) == Message(fresh, q)
        assert hash(Message(v, q)) == hash(Message(fresh, q))


class TestIntegerPrior:
    """A Problem carries its prior as ints P_t over D, parsed at most once."""

    UTILITY = {"A": {"a": 1}, "B": {"a": 0}, "C": {"a": 2}}

    def direct(self, prior):
        return Problem(("a",), ("C", "A", "B"), self.UTILITY, prior)

    def test_validated_memo_matches_the_parse(self):
        # priors that sum to 1 as parsed, and near-one floats whose renormalized
        # weights must not be paired with the ints parsed before renormalizing
        rnd = random.Random(22)
        for i in range(300):
            n = rnd.randint(1, 5)
            raw = [rnd.randint(0, 9) for _ in range(n)]
            raw[rnd.randrange(n)] += 1
            if i % 3:
                prior = [str(Fraction(w, sum(raw))) for w in raw]
            else:
                prior = [w / sum(raw) for w in raw]
            types = [f"t{j}" for j in rnd.sample(range(n), n)]
            p = validate_problem({"decisions": ["d"], "types": types, "prior": prior,
                                  "utility": {t: {"d": 0} for t in types}})
            assert p._int_prior() == _prior_ints(p.prior)

    @pytest.mark.parametrize("prior", [
        {"A": Fraction(1, 2), "B": Fraction(1, 3), "C": Fraction(1, 6)},
        {"A": 0.5, "B": 0.25, "C": 0.25},
        {"A": "1/2", "B": Fraction(1, 3), "C": 1},
        {"A": Fraction(-1, 2), "B": Fraction(1), "C": Fraction(1, 2)},
        {"A": "x", "B": 0, "C": 1},
        {"A": Fraction(1, 10**999), "B": Fraction(1, 10**999 - 1), "C": 0},
    ])
    def test_direct_problem_parses_on_first_read(self, prior):
        try:
            want = _prior_ints(prior)
        except ValidationError as exc:
            want = str(exc)
        p = self.direct(prior)
        assert "_int_prior_memo" not in vars(p)
        for _ in range(2):  # a rejected prior is rejected again, a parsed one read back
            try:
                got = p._int_prior()
            except ValidationError as exc:
                got = str(exc)
            assert got == want

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        prior = {"A": Fraction(1, 2), "B": Fraction(1, 4), "C": Fraction(1, 4)}
        p, fresh = self.direct(prior), self.direct(dict(prior))
        assert p._int_prior() == (("A", "B", "C"), (2, 1, 1), 4)
        assert "_int_prior_memo" in vars(p) and "_int_prior_memo" not in vars(fresh)
        assert p == fresh and repr(p) == repr(fresh)
        with pytest.raises(TypeError):  # the dict fields keep a Problem unhashable, memo or not
            hash(p)

    def test_one_parse_per_problem(self, monkeypatch):
        # counted wherever a linkmech module binds the parse
        calls = []

        def counted(prior, _fn=core._prior_ints):
            calls.append(prior)
            return _fn(prior)

        for mod in (core, truthfulness, sim, cli):
            if hasattr(mod, "_prior_ints"):
                monkeypatch.setattr(mod, "_prior_ints", counted)
        spec = bundled_spec_path("binary")
        parses = {}
        for name, argv in (
            ("simulate", ["simulate", "--spec", spec, "--K", "4,16,64,256", "--reps", "3", "--seed", "1"]),
            ("quota", ["quota", "--spec", spec, "--K", "7"]),
            ("audit", ["audit", "--spec", spec, "--truth", "A,A,B", "--report", "A,B,A"]),
        ):
            calls.clear()
            assert run_cli(argv)[0] == 0
            parses[name] = len(calls)
        calls.clear()
        problem = Problem(("d", "e"), ("B", "A"), {"A": {"d": 1, "e": 0}, "B": {"d": 0, "e": 1}},
                          {"A": Fraction(2, 3), "B": Fraction(1, 3)})
        run_convergence(SimConfig(problem=problem, k_values=(4, 16, 64), replications=3, seed=1))
        parses["run_convergence"] = len(calls)
        assert all(n <= 1 for n in parses.values()), parses
