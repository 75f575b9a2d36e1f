"""Documentation consistency guards.

DESIGN.md promises a module and a bench target for every experiment;
these tests keep the promises true as the code evolves.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Dotted names such as ``repro.obs`` or ``repro.api.Session``.
DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_dotted_repro_names_in_docs_resolve():
    """No doc names a module, class or function that no longer exists."""
    unresolved = []
    names_checked = 0
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        names = set(DOTTED_NAME.findall((REPO / doc).read_text()))
        names_checked += len(names)
        for name in sorted(names):
            try:
                _resolve(name)
            except (ImportError, AttributeError):
                unresolved.append(f"{doc}: {name}")
    assert names_checked, "the docs name no repro.* modules?"
    assert not unresolved, unresolved


def test_design_md_bench_targets_exist():
    text = (REPO / "DESIGN.md").read_text()
    targets = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
    assert targets, "DESIGN.md lists no bench targets?"
    for target in targets:
        assert (REPO / "benchmarks" / target).exists(), target


def test_design_md_test_targets_exist():
    text = (REPO / "DESIGN.md").read_text()
    targets = set(re.findall(r"tests/(test_\w+\.py)", text))
    for target in targets:
        assert (REPO / "tests" / target).exists(), target


def test_design_md_experiment_modules_exist():
    text = (REPO / "DESIGN.md").read_text()
    modules = set(re.findall(r"`experiments\.(\w+)`", text))
    assert modules
    for module in modules:
        assert (REPO / "src" / "repro" / "experiments" / f"{module}.py").exists(), module


def test_readme_examples_exist():
    text = (REPO / "README.md").read_text()
    examples = set(re.findall(r"examples/(\w+\.py)", text))
    assert len(examples) >= 3, "README must show at least three examples"
    for example in examples:
        assert (REPO / "examples" / example).exists(), example


def test_every_figure_and_table_has_a_bench():
    """The deliverable: one bench per evaluation figure/table."""
    bench_dir = REPO / "benchmarks"
    names = {p.name for p in bench_dir.glob("test_*.py")}
    for fig in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        assert any(f"fig{fig:02d}" in n for n in names), f"missing Fig. {fig} bench"
    assert "test_table02_summary.py" in names


def test_experiments_md_covers_every_figure():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for fig in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        # Accept both "Fig. 4" and grouped headings like "Figs. 4 & 5".
        pattern = rf"Figs?\.[^\n]*\b{fig}\b"
        assert re.search(pattern, text), f"EXPERIMENTS.md missing Fig. {fig}"
    assert "Table II" in text
    assert "Table I" in text


def test_every_registered_artifact_has_a_digest():
    """``tests/test_artifact_digests.py`` pins every artifact the registry
    serves, and nothing that is no longer served."""
    import json

    from repro.api.registry import builtin_registry

    path = REPO / "tests" / "goldens" / "artifact_digests.json"
    committed = json.loads(path.read_text())["artifacts"]
    registry = builtin_registry()
    assert sorted(committed) == sorted(registry.names())
    for name in registry.names():
        forms = {"text", "csv"} if registry.get(name).supports_csv else {"text"}
        assert set(committed[name]) == forms, name


def test_ci_workflow_is_valid_yaml():
    """GitHub runs none of a workflow's jobs when YAML cannot load the
    file (a plain ``run:`` scalar, say, may not contain ``": "``)."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((REPO / ".github/workflows/ci.yml").read_text())
    assert "tier1" in workflow["jobs"]


#: Files whose ``python -m repro ...`` command lines must parse.
COMMAND_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md",
                ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")
#: ``python -m repro`` followed by arguments, up to the line or code span end.
COMMAND_LINE = re.compile(r"python3? -m repro[ \t]+([^`\n]*)")
#: Where the shell takes over: pipes, redirections, ``&``/``&&`` and ``;``.
SHELL_CUT = re.compile(r"\d?>|[|&;]")
VERBS = ("run", "sweep", "bench", "cache", "serve", "loadgen",
         "resilience", "trace", "backends")


def test_documented_command_lines_parse(capsys):
    """Every documented ``repro`` command line parses as ``main()`` would
    parse it (nothing runs)."""
    from repro.cli import parse_command

    failures, parsed = [], 0
    for doc in COMMAND_DOCS:
        text = (REPO / doc).read_text().replace("\\\n", " ")
        for match in COMMAND_LINE.finditer(text):
            argv = shlex.split(SHELL_CUT.split(match.group(1))[0],
                               comments=True)
            try:
                parse_command(argv)
            except SystemExit as exc:  # status 0: a documented --help
                if exc.code != 0:
                    failures.append(f"{doc}: repro {' '.join(argv)}")
            parsed += 1
    assert parsed >= 60, parsed
    assert not failures, failures


def test_help_names_every_verb_and_the_artifact_form(capsys):
    from repro.cli import main

    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for verb in VERBS:
        assert re.search(rf"^\s+{verb}\s", out, re.MULTILINE), verb
    assert "repro ARTIFACT" in out
