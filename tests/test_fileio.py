"""The report writers: ``to_json`` against ``json.dumps(..., indent=2)``, the
reference it must equal byte for byte, and ``write_text``'s in-place
rewrite."""
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dscluster as d
from dscluster import fileio

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1.5e300]

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.text(alphabet='"\\/\x00\x07\x1f\x7fé ퟿\U0001f600 ab'),
)
json_values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=6),
        st.dictionaries(st.text(max_size=4) | st.sampled_from(['"', "é", "\n"]),
                        children, max_size=5),
    ),
    max_leaves=30,
)


def reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


class TestToJson:
    @given(json_values)
    def test_equals_indent_2_dumps(self, value):
        assert fileio.to_json(value) == reference(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [True, 1, False, 0],
        [1, 2**70, -3], *SPECIAL_FLOATS, "", "é\"\\", "\ud800 lone surrogate",
    ])
    def test_edge_values(self, value):
        assert fileio.to_json(value) == reference(value)

    def test_program_reports(self, bundle, paper_states, paper_metrics):
        formation, final = paper_states
        assert fileio.to_json(d.cluster_report(formation, final)) == reference(
            d.cluster_report(formation, final))
        records = d.metrics_records(paper_metrics)
        assert fileio.to_json(records) == reference(records)
        scenario = d.Scenario(node_count=25, terrain_size=100.0, range_=35.0, v_max=4.0,
                              steps=6, seed=11)
        report = fileio.simulation_report(d.run_simulation(scenario))
        assert fileio.to_json(report) == reference(report)

    @pytest.mark.parametrize("value", [
        np.int64(3), [np.int64(3)], {1, 2}, {"a": {1}}, {1: "int key"}, {(1, 2): 0},
        object(),
    ])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            fileio.to_json(value)


class TestWriteText:
    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("x" * 5000)
        fileio.write_text("short\n", str(path))
        assert path.read_bytes() == b"short\n"

    def test_missing_file_is_created(self, tmp_path):
        path = tmp_path / "new.json"
        fileio.write_text("{}\n", str(path))
        assert path.read_bytes() == b"{}\n"
