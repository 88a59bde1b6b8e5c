"""The CI docs linter must keep ``repro.serve`` fully documented."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "lint_docs.py"


def _load_linter():
    spec = importlib.util.spec_from_file_location("lint_docs", LINTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_serve_package_is_fully_documented():
    lint_docs = _load_linter()
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "serve").rglob("*.py")):
        problems.extend(lint_docs.lint_file(path))
    assert problems == []


def test_io_package_is_fully_documented():
    """The checkpoint subsystem is public API and held to the same bar."""
    lint_docs = _load_linter()
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "io").rglob("*.py")):
        problems.extend(lint_docs.lint_file(path))
    assert problems == []


def test_experiments_package_is_fully_documented():
    """The suite orchestrator / runners / CLI are public API (docs lint gate)."""
    lint_docs = _load_linter()
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "experiments").rglob("*.py")):
        problems.extend(lint_docs.lint_file(path))
    assert problems == []


def test_eval_package_is_fully_documented():
    """The evaluation protocol and significance tests are public API too."""
    lint_docs = _load_linter()
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "eval").rglob("*.py")):
        problems.extend(lint_docs.lint_file(path))
    assert problems == []


def test_experiments_doc_exists_and_is_linked():
    """docs/EXPERIMENTS.md ships with the suite and is reachable from the docs."""
    doc = REPO_ROOT / "docs" / "EXPERIMENTS.md"
    assert doc.is_file()
    text = doc.read_text(encoding="utf-8")
    for anchor in ("Spec schema reference", "suite_manifest.json",
                   "Resume-from-partial", "smoke", "main-tables"):
        assert anchor in text, f"EXPERIMENTS.md lost its {anchor!r} section"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    assert "EXPERIMENTS.md" in readme
    assert "EXPERIMENTS.md" in architecture
    assert "Experiment orchestration" in architecture


def test_default_targets_cover_public_subsystems():
    """The CI gate's default target list names every documented subsystem."""
    lint_docs = _load_linter()
    assert set(lint_docs.DEFAULT_TARGETS) == {
        "src/repro/serve", "src/repro/io",
        "src/repro/experiments", "src/repro/eval", "src/repro/graph",
        "src/repro/core",
    }


def test_graph_package_is_fully_documented():
    """src/repro/graph joined the docstring gate in PR 5."""
    lint_docs = _load_linter()
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "graph").rglob("*.py")):
        problems.extend(lint_docs.lint_file(path))
    assert problems == []


def test_core_package_is_fully_documented():
    """The model, encoder, regularizers and trainer are public API too."""
    lint_docs = _load_linter()
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").rglob("*.py")):
        problems.extend(lint_docs.lint_file(path))
    assert problems == []


def test_linter_flags_missing_docstrings(tmp_path):
    lint_docs = _load_linter()
    bad = tmp_path / "bad.py"
    bad.write_text("def public():\n    pass\n")
    problems = lint_docs.lint_file(bad)
    assert len(problems) == 2  # module docstring + function docstring
    assert any("public" in p for p in problems)


def test_linter_ignores_private_names(tmp_path):
    lint_docs = _load_linter()
    ok = tmp_path / "ok.py"
    ok.write_text('"""Documented."""\n\ndef _internal():\n    pass\n')
    assert lint_docs.lint_file(ok) == []


def test_cli_exit_codes(tmp_path):
    env_cmd = [sys.executable, str(LINTER)]
    good = subprocess.run(env_cmd + ["src/repro/serve"], cwd=REPO_ROOT,
                          capture_output=True, text=True)
    assert good.returncode == 0, good.stdout + good.stderr
    missing = subprocess.run(env_cmd + [str(tmp_path / "nonexistent")],
                             cwd=REPO_ROOT, capture_output=True, text=True)
    assert missing.returncode == 1


def test_cli_no_args_lints_everything(tmp_path):
    """The CI default (no arguments) covers docstrings AND markdown docs."""
    result = subprocess.run([sys.executable, str(LINTER)], cwd=REPO_ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    # More files than the five module targets alone -> markdown was included.
    assert "0 problem(s)" in result.stdout


def test_cli_docs_flag_scopes_markdown_targets():
    """--docs makes every argument a markdown target (file or directory)."""
    docs_only = subprocess.run([sys.executable, str(LINTER), "--docs", "docs"],
                               cwd=REPO_ROOT, capture_output=True, text=True)
    assert docs_only.returncode == 0, docs_only.stdout + docs_only.stderr
    readme_only = subprocess.run(
        [sys.executable, str(LINTER), "--docs", "README.md"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert readme_only.returncode == 0
    assert "checked 1 file(s)" in readme_only.stdout
    # The docs directory holds more than one markdown file, and --docs must
    # not widen to the full default set.
    docs_count = int(docs_only.stdout.split("checked ")[1].split(" ")[0])
    assert docs_count > 1
    everything = subprocess.run([sys.executable, str(LINTER)], cwd=REPO_ROOT,
                                capture_output=True, text=True)
    full_count = int(everything.stdout.split("checked ")[1].split(" ")[0])
    assert docs_count < full_count


class TestMarkdownCodeBlockLint:
    """The markdown half of the linter: doc examples must reference reality."""

    def _lint(self, tmp_path, text):
        lint_docs = _load_linter()
        doc = tmp_path / "doc.md"
        doc.write_text(text)
        return lint_docs.lint_markdown_file(doc, root=REPO_ROOT)

    def test_real_docs_are_clean(self):
        lint_docs = _load_linter()
        targets = list(lint_docs.iter_markdown_targets(
            lint_docs.DEFAULT_DOCS, REPO_ROOT))
        assert targets, "no markdown docs found"
        problems = []
        for path in targets:
            problems.extend(lint_docs.lint_markdown_file(path, root=REPO_ROOT))
        assert problems == []

    def test_valid_references_pass(self, tmp_path):
        problems = self._lint(tmp_path, "\n".join([
            "```python",
            "from repro.serve import ColdStartServer, IVFIndex",
            "index = repro.serve.ann.make_index",
            "```",
            "```bash",
            "PYTHONPATH=src python -m repro.experiments.cli serve --checkpoint runs/ckpt --top-k 5",
            "repro suite --spec main-tables --jobs 4",
            "```",
        ]))
        assert problems == []

    def test_broken_python_references_flagged(self, tmp_path):
        problems = self._lint(tmp_path, "\n".join([
            "```python",
            "from repro.serve import NoSuchClass",
            "import repro.nonexistent.module",
            "```",
        ]))
        assert any("NoSuchClass" in p for p in problems)
        assert any("repro.nonexistent.module" in p for p in problems)

    def test_broken_cli_references_flagged(self, tmp_path):
        problems = self._lint(tmp_path, "\n".join([
            "```bash",
            "python -m repro.experiments.cli table42 --no-such-flag",
            "ls examples/never_written.py",
            "```",
        ]))
        assert any("table42" in p for p in problems)
        assert any("--no-such-flag" in p for p in problems)
        assert any("never_written" in p for p in problems)

    def test_inline_code_paths_checked(self, tmp_path):
        problems = self._lint(tmp_path, "\n".join([
            "Timing lives in `bench/README.md`, tables in `benchmarks/`.",
            "",
            "The gate was `benchmarks/never.py`; see `bench/nowhere.json`.",
            "```text",
            "`benchmarks/inside_a_fence.py` is not inline code",
            "```",
        ]))
        assert problems == [
            f"{tmp_path / 'doc.md'}:3: path 'benchmarks/never.py' in inline "
            f"code does not exist",
            f"{tmp_path / 'doc.md'}:3: path 'bench/nowhere.json' in inline "
            f"code does not exist",
        ]

    def test_untagged_and_other_language_blocks_ignored(self, tmp_path):
        problems = self._lint(tmp_path, "\n".join([
            "```",
            "repro.totally.fake paths here are fine in untagged blocks",
            "```",
            "```text",
            "python -m repro.more.fakery",
            "```",
        ]))
        assert problems == []

    def test_continuation_lines_joined(self, tmp_path):
        problems = self._lint(tmp_path, "\n".join([
            "```bash",
            "python -m repro.experiments.cli serve \\",
            "    --checkpoint runs/ckpt --bogus-flag",
            "```",
        ]))
        assert any("--bogus-flag" in p for p in problems)
