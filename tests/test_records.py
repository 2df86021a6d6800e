"""The record classes' contract: construction, equality, to_dict, hashing
and pickling.

Every record but FnTable is a NamedTuple: immutable, hashable when its
fields are, and equal to the plain tuple of its fields.  FnTable is a
sealed slotted class, since it validates and converts its values: no
attribute can be assigned and its array is read-only.  Two tables are
equal when their fields and values are, and a table is unhashable.
Every to_dict document below is the one the package has always written.
"""

import pickle

import numpy as np
import pytest

from gapnkit import FieldCtx, PolyFp, make_field
from gapnkit.gapn import FnTable, GapnReport, differential_spectrum, monomial_table
from gapnkit.monomial import CriterionReport, ExceptionalProfile, Exponent
from gapnkit.polyfp import Factorization
from gapnkit.search import FamilyEntry, FamilyReport, SearchFilters, SearchJob, SearchResult

_GOLD = FamilyEntry("gold", 1, 5, True, False, ["criterion"])

# class -> (positional args, the same as keywords, its to_dict or None)
RECORDS = {
    GapnReport: (
        (True, 3, {3: 24, 0: 48}, (1, 2), ["brute-force"], True),
        dict(is_gapn=True, max_count=3, spectrum={3: 24, 0: 48}, witness=(1, 2),
             deciders_agreed=["brute-force"], partial=True),
        {"is_gapn": True, "max_count": 3, "spectrum": [[0, 48], [3, 24]], "witness": [1, 2],
         "deciders_agreed": ["brute-force"], "partial": True},
    ),
    CriterionReport: (
        (2215, 3, 12, PolyFp(3, (1, 0, 0, 1, 0, 0, 0, 1)), PolyFp(3, (2, 1)), True, ()),
        dict(d=2215, p=3, n=12, digit_poly=PolyFp(3, (1, 0, 0, 1, 0, 0, 0, 1)), gcd=PolyFp(3, (2, 1)),
             is_gapn=True, offending_factors=()),
        {"d": 2215, "p": 3, "n": 12, "digit_poly": [1, 0, 0, 1, 0, 0, 0, 1], "gcd": [2, 1],
         "is_gapn": True, "offending_factors": []},
    ),
    ExceptionalProfile: (
        (2215, 3, (728,), 1, 8),
        dict(d=2215, p=3, root_orders=(728,), unit_root_multiplicity=1, witness_n=8),
        {"d": 2215, "p": 3, "root_orders": [728], "unit_root_multiplicity": 1, "witness_n": 8},
    ),
    Exponent: (
        (5, 3, 2, (2, 1), 3, 5),
        dict(d=5, p=3, n=2, digits=(2, 1), weight=3, coset_rep=5),
        {"d": 5, "p": 3, "n": 2, "digits": [2, 1], "weight": 3, "coset_rep": 5},
    ),
    Factorization: (
        (3, 1, ((PolyFp(3, (2, 1, 1)), 1), (PolyFp(3, (2, 2, 1)), 1))),
        dict(p=3, unit=1, factors=((PolyFp(3, (2, 1, 1)), 1), (PolyFp(3, (2, 2, 1)), 1))),
        None,
    ),
    SearchFilters: ((False, True, True), dict(skip_even_weight=False, skip_low_weight=True, verify_filters=True), None),
    SearchJob: (
        (3, 5, "conjecture", SearchFilters(False), 2, "cache"),
        dict(p=3, n=5, mode="conjecture", filters=SearchFilters(False), jobs=2, cache_dir="cache"),
        None,
    ),
    SearchResult: (
        (3, 2, "exhaustive", [{"d": 5}], 4, {"low_weight": 1}, 0.5, True, {"sampled": 0}),
        dict(p=3, n=2, mode="exhaustive", gapn_cosets=[{"d": 5}], scanned=4, filtered={"low_weight": 1},
             elapsed=0.5, conjecture_holds=True, filter_check={"sampled": 0}),
        {"p": 3, "n": 2, "mode": "exhaustive", "gapn_cosets": [{"d": 5}], "scanned": 4,
         "filtered": {"low_weight": 1}, "conjecture_holds": True, "filter_check": {"sampled": 0},
         "elapsed": 0.5, "version": "0.1.0"},
    ),
    FamilyEntry: (
        ("gold", 1, 5, True, False, ["criterion"]),
        dict(family="gold", param=1, d=5, predicted=True, verdict=False, deciders=["criterion"]),
        {"family": "gold", "param": 1, "d": 5, "predicted": True, "verdict": False,
         "deciders": ["criterion"], "agree": False},
    ),
    FamilyReport: (
        (3, 2, [_GOLD]),
        dict(p=3, n=2, entries=[_GOLD]),
        {"p": 3, "n": 2, "entries": [_GOLD.to_dict()], "mismatches": 1},
    ),
}

FORMERLY_FROZEN = [CriterionReport, ExceptionalProfile, Exponent, Factorization]

_IDS = [cls.__name__ for cls in RECORDS]


class TestConstruction:
    @pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
    def test_positional_equals_keyword(self, cls):
        args, kwargs, _ = RECORDS[cls]
        assert cls(*args) == cls(**kwargs)
        assert repr(cls(*args)) == repr(cls(**kwargs))

    @pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
    def test_fields_in_order(self, cls):
        args, kwargs, _ = RECORDS[cls]
        record = cls(*args)
        assert [getattr(record, name) for name in kwargs] == list(args)

    def test_defaults(self):
        report = GapnReport(False, 6, {}, None)
        assert (report.deciders_agreed, report.partial) == ((), False)
        assert report == GapnReport(is_gapn=False, max_count=6, spectrum={}, witness=None, deciders_agreed=())
        assert SearchFilters() == SearchFilters(True, True, False)
        job = SearchJob(3, 5)
        assert job == SearchJob(3, 5, "exhaustive", SearchFilters(), 1, None)
        assert (job.mode, job.filters, job.jobs, job.cache_dir) == ("exhaustive", SearchFilters(), 1, None)
        result = SearchResult(3, 2, "exhaustive", [], 4, {}, 0.5)
        assert (result.conjecture_holds, result.filter_check) == (None, None)

    def test_missing_field_raises_type_error(self):
        for cls in RECORDS.keys() - {SearchFilters}:  # every SearchFilters field has a default
            with pytest.raises(TypeError):
                cls()


class TestEquality:
    @pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
    def test_a_changed_field_is_unequal(self, cls):
        args, _, _ = RECORDS[cls]
        changed = (not args[0] if isinstance(args[0], bool) else 7,) + tuple(args[1:])
        assert cls(*args) != cls(*changed)

    def test_a_report_equals_the_tuple_of_its_fields(self):
        assert GapnReport(True, 3, {}, None) == (True, 3, {}, None, (), False)


class TestToDict:
    @pytest.mark.parametrize("cls", [cls for cls in RECORDS if RECORDS[cls][2] is not None],
                             ids=[cls.__name__ for cls in RECORDS if RECORDS[cls][2] is not None])
    def test_document(self, cls):
        args, _, expected = RECORDS[cls]
        assert cls(*args).to_dict() == expected

    def test_derived_fields(self):
        assert _GOLD.agree is False
        assert FamilyReport(3, 2, [_GOLD, FamilyEntry("gold", 1, 5, True, True, [])]).mismatches == 1
        profile = ExceptionalProfile(*RECORDS[ExceptionalProfile][0])
        assert profile.min_n == 8
        assert profile.gapn_dimensions(12) == [8, 9, 10, 11, 12]
        assert Factorization(*RECORDS[Factorization][0]).product() == PolyFp(3, (1, 0, 0, 0, 1))


class TestHashingAndAssignment:
    @pytest.mark.parametrize("cls", FORMERLY_FROZEN, ids=[c.__name__ for c in FORMERLY_FROZEN])
    def test_formerly_frozen_records_hash_and_refuse_assignment(self, cls):
        args, kwargs, _ = RECORDS[cls]
        record = cls(*args)
        assert hash(record) == hash(cls(**kwargs))
        assert {record, cls(**kwargs)} == {record}
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_gapn_report_refuses_assignment(self):
        args, kwargs, expected = RECORDS[GapnReport]
        report = GapnReport(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(report, name, 0)
        assert report.to_dict() == expected
        replaced = report._replace(deciders_agreed=["criterion"])
        assert replaced.to_dict()["deciders_agreed"] == ["criterion"]
        assert report.deciders_agreed == ["brute-force"]


class TestFnTable:
    def test_values_become_int64(self):
        ctx = make_field(3, 2)
        for values in (list(range(9)), range(9), np.arange(9, dtype=np.uint8), np.arange(9, dtype=np.int32)):
            table = FnTable(ctx, values)
            assert table.values.dtype == np.int64 and table.values.tolist() == list(range(9))
        assert FnTable(ctx=ctx, values=table.values) == table
        assert FnTable(ctx, table.values).values is table.values

    def test_validation(self):
        ctx = make_field(3, 2)
        with pytest.raises(ValueError, match="length 9"):
            FnTable(ctx, range(8))
        with pytest.raises(ValueError, match="non-element"):
            FnTable(ctx, [0] * 8 + [9])
        # A cast to int64 would truncate 0.9 to 0 and read True as 1: the
        # float tables would become the identity and the zero map.
        for values, dtype in (
            ([x + 0.9 for x in range(9)], "float64"),
            (np.full(9, 0.5, dtype=np.float32), "float32"),
            (np.arange(9) % 2 == 1, "bool"),
        ):
            with pytest.raises(ValueError, match=f"not {dtype}"):
                FnTable(ctx, values)

    def test_unhashable(self):
        table = FnTable(make_field(3, 2), range(9))
        assert repr(table).startswith("FnTable(ctx=")
        with pytest.raises(TypeError):
            hash(table)

    def test_values_cannot_be_reassigned(self):
        # A reassigned table holding -1 would skip validation and give a
        # report (max count 6) for a function that is no function.
        table = FnTable(make_field(3, 2), range(9))
        with pytest.raises(AttributeError):
            table.values = np.array([0] * 8 + [-1])
        assert table.values.tolist() == list(range(9))

    def test_ctx_cannot_be_reassigned(self):
        table = FnTable(make_field(3, 2), range(9))
        with pytest.raises(AttributeError):
            table.ctx = make_field(2, 3)
        assert table.ctx is make_field(3, 2)

    def test_values_cannot_be_written_in_place(self):
        table = FnTable(make_field(3, 2), range(9))
        with pytest.raises(ValueError, match="read-only"):
            table.values[8] = -1
        assert not table.values.flags.writeable
        assert differential_spectrum(table).max_count == 9  # x -> x, every pair hits p**n / p

    def test_callers_int64_array_becomes_read_only(self):
        # Kept without a copy, so the caller cannot change it under the table.
        values = np.arange(9, dtype=np.int64)
        table = FnTable(make_field(3, 2), values)
        assert table.values is values
        with pytest.raises(ValueError, match="read-only"):
            values[8] = 100
        assert differential_spectrum(table).max_count == 9

    def test_a_view_is_copied(self):
        # A read-only view could still be written through its base.
        base = np.arange(18, dtype=np.int64)
        table = FnTable(make_field(3, 2), base[:9])
        base[8] = 100
        assert table.values.tolist() == list(range(9))
        assert base.flags.writeable

    def test_a_rejected_array_stays_writable(self):
        values = np.array([0] * 8 + [9], dtype=np.int64)
        with pytest.raises(ValueError, match="non-element"):
            FnTable(make_field(3, 2), values)
        values[8] = 0

    def test_equal_tables_from_two_contexts(self):
        first, second = monomial_table(make_field(3, 2), 5), monomial_table(FieldCtx(3, 2), 5)
        assert first.ctx is not second.ctx and first.values is not second.values
        assert first == second and not first != second
        assert FnTable(make_field(2, 3), range(8)) == FnTable(FieldCtx(2, 3), np.arange(8))

    def test_one_changed_value_is_unequal(self):
        table = monomial_table(make_field(3, 2), 5)
        values = table.values.copy()
        values[4] = (values[4] + 1) % 9
        changed = FnTable(table.ctx, values)
        assert table != changed and not table == changed

    def test_another_modulus_is_unequal(self):
        values = range(9)
        x2_plus_x_plus_2 = FieldCtx(3, 2, PolyFp(3, (2, 1, 1)))
        assert make_field(3, 2).modulus != x2_plus_x_plus_2.modulus
        assert FnTable(make_field(3, 2), values) != FnTable(x2_plus_x_plus_2, values)
        assert not FnTable(make_field(3, 2), values) == FnTable(x2_plus_x_plus_2, values)

    def test_another_field_is_unequal(self):
        assert FnTable(make_field(3, 2), range(9)) != FnTable(make_field(2, 3), range(8))

    def test_compares_only_with_tables(self):
        table = FnTable(make_field(3, 2), range(9))
        assert table != (table.ctx, table.values)
        assert table.__eq__(object()) is NotImplemented


class TestPickle:
    @pytest.mark.parametrize("cls", [GapnReport, SearchResult])
    def test_round_trip(self, cls):
        args, _, expected = RECORDS[cls]
        record = cls(*args)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is cls
            assert copy == record
            assert copy.to_dict() == expected

    def test_table_round_trip_stays_sealed(self):
        table = monomial_table(make_field(3, 2), 5)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(table, protocol))
            assert type(copy) is FnTable and copy == table
            assert not copy.values.flags.writeable
            with pytest.raises(AttributeError):
                copy.values = table.values
