"""Property tests on the SWF import/export round trip.

Fuzzes :func:`repro.workload.swf.export_sched_trace` /
:func:`repro.workload.swf.parse_swf` with generated traces including the
awkward records real logs contain: zero-duration jobs, out-of-order
submit times, sub-centisecond values that round to zero, comment and
header lines, and trailing whitespace.  A second property feeds the
parser lines of arbitrary field text (integers, floats, ``nan``,
``inf``, words, fractional sizes): it answers with a workload whose
times are all finite or with a :class:`WorkloadError`, nothing else.
"""

import math
import string
from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.generator import SchedTraceJob
from repro.workload.swf import export_sched_trace, parse_swf


def _round2(value: float) -> float:
    """SWF centisecond precision: what a written value parses back as."""
    return float(f"{value:.2f}")


@dataclass(frozen=True)
class RawJob:
    submit: float
    runtime: float  # 0.0 models a zero-duration (e.g. instantly-failed) job
    nodes: int


raw_job_strategy = st.builds(
    RawJob,
    submit=st.floats(0.0, 10_000.0),
    runtime=st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.004),  # rounds to zero at SWF precision
        st.floats(0.01, 5_000.0),
    ),
    nodes=st.integers(1, 64),
)


def _trace_of(raw_jobs: List[RawJob]) -> List[SchedTraceJob]:
    return [
        SchedTraceJob(
            name=f"j{i}",
            nodes=r.nodes,
            arrival=r.submit,
            runtime=r.runtime,
            limit=1.2 * r.runtime if r.runtime > 0 else 0.0,
        )
        for i, r in enumerate(raw_jobs)
    ]


class TestSchedTraceRoundTrip:
    @given(raw=st.lists(raw_job_strategy, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_keeps_usable_jobs(self, raw):
        """Every job whose written runtime (or requested time) survives
        centisecond rounding comes back; zero-duration jobs are dropped."""
        trace = _trace_of(raw)
        text = export_sched_trace(trace)
        usable = [
            r for r in raw
            if _round2(r.runtime) > 0 or _round2(1.2 * r.runtime) > 0
        ]
        if not usable:
            with pytest.raises(WorkloadError, match="no usable jobs"):
                parse_swf(text)
            return
        spec = parse_swf(text)
        assert len(spec.jobs) == len(usable)

    @given(raw=st.lists(raw_job_strategy, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_out_of_order_submits_come_back_sorted(self, raw):
        trace = _trace_of(raw)
        text = export_sched_trace(trace)
        try:
            spec = parse_swf(text)
        except WorkloadError:
            return  # all-zero-duration trace: nothing to sort
        arrivals = [js.arrival_time for js in spec.jobs]
        assert arrivals == sorted(arrivals)

    @given(raw=st.lists(raw_job_strategy, min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_values_survive_at_centisecond_precision(self, raw):
        usable = [r for r in raw if _round2(r.runtime) > 0]
        if not usable:
            return
        trace = _trace_of(usable)
        spec = parse_swf(export_sched_trace(trace))
        by_arrival = sorted(usable, key=lambda r: _round2(r.submit))
        assert len(spec.jobs) == len(by_arrival)
        for js, r in zip(spec.jobs, by_arrival):
            assert js.arrival_time == pytest.approx(r.submit, abs=0.005)
            assert js.submit_nodes == r.nodes
            # Requested time is written as 1.2 x runtime.
            assert js.time_limit == pytest.approx(
                1.2 * _round2(r.runtime), rel=0.02
            )

    @given(raw=st.lists(raw_job_strategy, min_size=1, max_size=10),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_comments_blanks_and_whitespace_are_ignored(self, raw, seed):
        """Interleaving headers, comments, blank lines and inline
        comments never changes what parses."""
        import random

        usable = [r for r in raw if _round2(r.runtime) > 0]
        if not usable:
            return
        text = export_sched_trace(_trace_of(usable))
        rng = random.Random(seed)
        noisy_lines: List[str] = []
        for line in text.splitlines():
            if rng.random() < 0.5:
                noisy_lines.append(rng.choice([
                    "; UnixStartTime: 1234567890",
                    ";;; deep comment",
                    "",
                    "   ",
                    "; MaxNodes: 999",
                ]))
            if not line.lstrip().startswith(";") and line.strip():
                line = "  " + line + "   ; trailing comment"
            noisy_lines.append(line)
        clean = parse_swf(text)
        noisy = parse_swf("\n".join(noisy_lines))
        assert len(noisy.jobs) == len(clean.jobs)
        for a, b in zip(clean.jobs, noisy.jobs):
            assert a.arrival_time == b.arrival_time
            assert a.submit_nodes == b.submit_nodes
            assert a.time_limit == b.time_limit


#: Text of one SWF field as logs write it: whole numbers, and
#: centisecond times in the submit, wait, run and requested-time fields
#: ...
integer_text = st.integers(-5, 100_000).map(str)
time_text = st.one_of(integer_text, st.floats(0.0, 1e6).map(lambda x: f"{x:.2f}"))
TIME_FIELDS = (1, 2, 3, 8)
#: ... and what a hostile or broken log may hold instead.
hostile_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+Infinity",
                     "1e999", "-0", "1.5", "2.25"]),
    st.integers(10**300, 10**310).map(str),
    st.text(string.ascii_letters + "_-", min_size=1, max_size=6),
)


@st.composite
def swf_line(draw) -> str:
    """A line of 11-18 numeric fields, up to three of them replaced."""
    size = draw(st.integers(11, 18))
    fields = [draw(time_text if i in TIME_FIELDS else integer_text)
              for i in range(size)]
    swaps = draw(st.lists(st.tuples(st.integers(0, size - 1), hostile_text),
                          max_size=3))
    for index, text in swaps:
        fields[index] = text
    return " ".join(fields)


class TestArbitraryFields:
    @given(lines=st.lists(swf_line(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_any_line_parses_to_finite_jobs_or_a_workload_error(self, lines):
        try:
            spec = parse_swf("\n".join(lines))
        except WorkloadError:
            return
        assert spec.jobs
        for js in spec.jobs:
            assert math.isfinite(js.arrival_time) and js.arrival_time >= 0
            assert math.isfinite(js.time_limit) and js.time_limit > 0
            assert js.submit_nodes >= 1

    @pytest.mark.parametrize("field,text", [
        (0, "x"), (1, "nan"), (1, "inf"), (3, "-inf"), (7, "1.5"),
        (8, "nan"), (8, "word"), (3, "1e999"), (3, "1.6e308"),
    ])
    def test_a_bad_field_names_its_line(self, field, text):
        fields = "1 0 -1 50 4 -1 -1 4 60 -1 1 -1 -1 -1 -1 -1 -1 -1".split()
        fields[field] = text
        line = " ".join(fields)
        with pytest.raises(WorkloadError) as raised:
            parse_swf(line)
        assert repr(line) in str(raised.value)


class TestParserEdgeCases:
    def test_malformed_line_raises(self):
        with pytest.raises(WorkloadError, match="malformed"):
            parse_swf("1 2 3\n")

    def test_negative_submit_raises(self):
        line = "1 -5 -1 10 4 -1 -1 4 12 -1 1 -1 -1 -1 -1 -1 -1 -1"
        with pytest.raises(WorkloadError, match="negative submit"):
            parse_swf(line)

    def test_zero_runtime_falls_back_to_requested_time(self):
        line = "1 0 -1 0 4 -1 -1 4 120 -1 1 -1 -1 -1 -1 -1 -1 -1"
        spec = parse_swf(line)
        assert len(spec.jobs) == 1
        # runtime <- requested time; limit = 1.2 x runtime.
        assert spec.jobs[0].time_limit == pytest.approx(1.2 * 120.0)

    def test_nonpositive_requested_procs_falls_back_to_allocated(self):
        line = "1 0 -1 50 6 -1 -1 -1 60 -1 1 -1 -1 -1 -1 -1 -1 -1"
        spec = parse_swf(line)
        assert spec.jobs[0].submit_nodes == 6

    def test_comment_only_log_raises(self):
        with pytest.raises(WorkloadError, match="no usable jobs"):
            parse_swf("; just a header\n;; and a comment\n")
