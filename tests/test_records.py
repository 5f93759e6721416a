"""The per-item records are immutable named tuples that print as they always did.

Each record is built once per length, root, milestone, scan class or
`validate` call.  Their field names, field order and repr are part of the
public interface; the records built once per call stay frozen dataclasses.
"""

import dataclasses

import pytest

from symgraph import (
    BoundReport,
    ClosedFormTerm,
    EntropyPoint,
    GraphDiagnostics,
    GrowthClass,
    RecurrenceReport,
    ScanRow,
    conjecture_scan,
    count_series,
    entropy_series,
    golden_graph,
    preset_bounds,
    validate,
)
from symgraph.census import CountRow

# (record as a producer returns it, its fields, its repr as the frozen dataclass printed it)
RECORDS = [
    pytest.param(
        lambda: count_series(golden_graph(), 3).rows[-1],
        ("n", "total", "row_sums", "col_sums"),
        "CountRow(n=3, total=11, row_sums=(6, 1, 4), col_sums=(3, 6, 2))",
        id="CountRow",
    ),
    pytest.param(
        lambda: entropy_series([(2, 4)]).points[0],
        ("n", "count", "H", "h_top"),
        "EntropyPoint(n=2, count=4, H=1.3862943611198906, h_top=1.0)",
        id="EntropyPoint",
    ),
    pytest.param(
        lambda: ClosedFormTerm(2 + 0j, 2, (1 + 0j, -0.5 + 0j)),
        ("root", "multiplicity", "coefficients"),
        "ClosedFormTerm(root=(2+0j), multiplicity=2, coefficients=((1+0j), (-0.5+0j)))",
        id="ClosedFormTerm",
    ),
    pytest.param(
        lambda: conjecture_scan(1).classes[0],
        ("bitmask", "k", "strongly_connected", "kind", "rho", "poly_degree"),
        "ScanRow(bitmask=1, k=1, strongly_connected=True, kind='polynomial', rho=1.0, poly_degree=0)",
        id="ScanRow",
    ),
    pytest.param(
        lambda: preset_bounds("golden-linear", 1)[0],
        ("t", "n", "lower", "actual", "upper"),
        "BoundReport(t=1, n=16, lower=3, actual=91, upper=475)",
        id="BoundReport",
    ),
    pytest.param(
        lambda: validate(golden_graph()),
        ("weakly_connected", "strongly_connected", "absorbing_states", "edge_count"),
        "GraphDiagnostics(weakly_connected=True, strongly_connected=False, absorbing_states=('Y',), edge_count=6)",
        id="GraphDiagnostics",
    ),
]


@pytest.mark.parametrize("make, fields, text", RECORDS)
def test_record_is_an_immutable_named_tuple(make, fields, text):
    record, again = make(), make()
    cls = type(record)
    assert cls in (CountRow, EntropyPoint, ClosedFormTerm, ScanRow, BoundReport, GraphDiagnostics)
    assert cls._fields == fields
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 0)
    assert record == again and hash(record) == hash(again)
    # a record equals the plain tuple of its fields
    assert record == tuple(getattr(record, f) for f in fields)
    assert record._asdict() == {f: getattr(record, f) for f in fields}
    changed = record._replace(**{fields[-1]: None})
    assert type(changed) is cls and changed[-1] is None and changed[:-1] == record[:-1]


def test_bound_report_holds_and_entropy_count_is_the_field():
    assert BoundReport(1, 16, 3, 91, 475).holds
    assert not BoundReport(1, 16, 3, 475, 475).holds
    assert EntropyPoint(2, 4, 1.0, 1.0).count == 4  # the field, not tuple.count


def test_records_built_once_per_call_stay_dataclasses():
    assert dataclasses.is_dataclass(GrowthClass) and dataclasses.is_dataclass(RecurrenceReport)
