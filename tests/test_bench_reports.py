"""The committed bench reports state nothing their samples cannot back.

Two rules, read off ``BENCH_serve.json`` and ``BENCH_sweep.json`` as
committed: a quantile key (``p90``, ``p99_ms``, ...) needs ten samples
beyond it in the sample count (``n`` or ``count``) of the section that
holds it (:func:`repro.metrics.backed`), and no wall-time figure, a
lower bound included, is below zero.
"""

import json
import os
import re

import pytest

from repro.metrics import backed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORTS = ("BENCH_serve.json", "BENCH_sweep.json")
QUANTILE = re.compile(r"p(\d+(?:\.\d+)?)(?:_ms|_s)?")


def load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def unbacked_quantiles(node, path="$"):
    """Paths of quantile keys their section's sample count cannot back."""
    found = []
    if isinstance(node, dict):
        count = node.get("n", node.get("count"))
        for key, value in node.items():
            match = QUANTILE.fullmatch(key)
            if match and not (
                isinstance(count, int)
                and backed(count, float(match.group(1)) / 100)
            ):
                found.append(f"{path}.{key}")
            found += unbacked_quantiles(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, item in enumerate(node):
            found += unbacked_quantiles(item, f"{path}[{index}]")
    return found


def negative_numbers(node, path):
    if isinstance(node, dict):
        return [bad for key, value in node.items()
                for bad in negative_numbers(value, f"{path}.{key}")]
    if isinstance(node, list):
        return [bad for index, value in enumerate(node)
                for bad in negative_numbers(value, f"{path}[{index}]")]
    if isinstance(node, (int, float)) and node < 0:
        return [f"{path} = {node}"]
    return []


def wall_time_sections(name, report):
    """The parts of a report that hold wall-clock figures."""
    if name == "BENCH_serve.json":
        return {"client": report["client"]}
    sections = {"total_wall_s": report["total_wall_s"]}
    for artifact, entry in report["artifacts"].items():
        sections[f"{artifact}.cell_wall"] = entry["cell_wall"]
        sections[f"{artifact}.ensemble_wall_s"] = entry["ensemble_wall_s"]
    return sections


@pytest.mark.parametrize("name", REPORTS)
def test_every_quantile_is_backed(name):
    assert unbacked_quantiles(load(name)) == []


@pytest.mark.parametrize("name", REPORTS)
def test_no_wall_time_bound_below_zero(name):
    sections = wall_time_sections(name, load(name))
    assert [bad for path, section in sections.items()
            for bad in negative_numbers(section, path)] == []


def test_the_guards_catch_what_they_forbid():
    four = {"client": {"submit": {"count": 4, "p50_ms": 3.2, "p99_ms": 14.9}}}
    assert unbacked_quantiles(four) == [
        "$.client.submit.p50_ms", "$.client.submit.p99_ms"]
    assert unbacked_quantiles({"n": 100, "p90": 1.0, "p99": 2.0}) == ["$.p99"]
    assert unbacked_quantiles({"p50": 1.0}) == ["$.p50"]
    interval = {"n": 5, "mean": 0.0048, "ci_low": -0.0077}
    assert negative_numbers(interval, "fig1") == ["fig1.ci_low = -0.0077"]
