#!/usr/bin/env python3
"""Documentation linter (CI gate): docstrings + markdown code blocks.

Two checks, both exiting 1 on any problem:

**Docstring lint.**  Every public module under the target package
directories must carry a module docstring, and every public class /
function / method defined there must carry one too ("public" = the name
does not start with an underscore).  The default targets are the public
subsystems — ``repro.serve``, ``repro.io``, ``repro.experiments``,
``repro.eval`` and ``repro.graph``.

**Markdown code-block lint.**  Every fenced code block tagged ``python`` or
``bash`` in ``docs/*.md`` and ``README.md`` must reference things that
exist: dotted ``repro.*`` module paths and imported names must resolve
under ``src/``, ``python -m repro...`` module paths must exist, repo file
paths (``examples/...``, ``benchmarks/...``) must exist, and CLI
sub-commands / ``--flags`` on ``repro`` CLI lines must appear in the CLI
source — so documentation examples cannot silently rot when code moves.

Usage::

    python tools/lint_docs.py                 # everything (CI default)
    python tools/lint_docs.py src/repro/serve # docstrings of one package
    python tools/lint_docs.py docs/SERVING.md # one markdown file
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DEFAULT_TARGETS = [
    "src/repro/serve",
    "src/repro/io",
    "src/repro/experiments",
    "src/repro/eval",
    "src/repro/graph",
    "src/repro/core",
]

#: Markdown files whose code blocks are linted by default.
DEFAULT_DOCS = ["README.md", "docs"]

#: Where dotted ``repro.*`` references resolve.
SRC_ROOT = "src"

#: The CLI source that must mention every sub-command / flag used in docs.
CLI_SOURCE = "src/repro/experiments/cli.py"

_CODE_BLOCK_RE = re.compile(r"^```(python|bash)\s*$(.*?)^```\s*$",
                            re.MULTILINE | re.DOTALL)
_MODULE_REF_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_IMPORT_RE = re.compile(
    r"^\s*from\s+(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\s+import\s+([^(#\n]+)$",
    re.MULTILINE)
_REPO_PATH_RE = re.compile(
    r"\b(?:examples|benchmarks|tests|tools|docs|src)/[\w./-]+")
_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")


# --------------------------------------------------------------------------- #
# Docstring lint
# --------------------------------------------------------------------------- #
def iter_public_defs(tree: ast.Module):
    """Yield (name, node) for public top-level and class-level definitions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not child.name.startswith("_"):
                            yield f"{node.name}.{child.name}", child


def lint_file(path: Path) -> list:
    """Return a list of human-readable problems found in one module."""
    problems = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}: missing module docstring")
    for name, node in iter_public_defs(tree):
        if ast.get_docstring(node) is None:
            problems.append(f"{path}:{node.lineno}: missing docstring on {name!r}")
    return problems


# --------------------------------------------------------------------------- #
# Markdown code-block lint
# --------------------------------------------------------------------------- #
def _resolve_module_prefix(parts, root: Path):
    """Walk dotted parts down ``root``; return (resolved_dir_or_file, rest).

    ``parts`` starts with ``"repro"``.  Packages resolve as directories,
    modules as ``<name>.py``; the first part that is neither is returned
    with everything after it as the unresolved (symbol) remainder.
    """
    location = root / SRC_ROOT
    for position, part in enumerate(parts):
        if (location / part).is_dir():
            location = location / part
            continue
        if (location / f"{part}.py").is_file():
            return location / f"{part}.py", parts[position + 1:]
        return location, parts[position:]
    return location, []


def _symbol_defined_under(symbol: str, location: Path) -> bool:
    """Whether ``symbol`` appears as a word in a module file or package."""
    if location.is_file():
        files = [location]
    else:
        files = sorted(location.glob("*.py"))
    pattern = re.compile(rf"\b{re.escape(symbol)}\b")
    return any(pattern.search(f.read_text(encoding="utf-8")) for f in files)


def check_module_reference(ref: str, root: Path):
    """Validate one dotted ``repro.*`` reference; return a problem or None."""
    parts = ref.split(".")
    location, rest = _resolve_module_prefix(parts, root)
    if location == root / SRC_ROOT / "repro" and rest and rest[0] != "repro":
        # The walk never left src/repro's parent: broken first component.
        return f"module path {ref!r} does not resolve under {SRC_ROOT}/"
    if not location.exists():
        return f"module path {ref!r} does not resolve under {SRC_ROOT}/"
    if rest:
        # Only the first unresolved component needs to exist as a symbol —
        # deeper attributes (methods of a class etc.) are out of scope for
        # a "simple existence check".
        if not _symbol_defined_under(rest[0], location):
            return (f"{ref!r}: name {rest[0]!r} not found in "
                    f"{location.relative_to(root)}")
    return None


def _split_import_names(raw: str):
    for piece in raw.split(","):
        name = piece.strip().split(" as ")[0].strip()
        if name and name != "*" and re.fullmatch(r"[A-Za-z_]\w*", name):
            yield name


def _lint_python_block(block: str, root: Path):
    problems = []
    for ref in sorted(set(_MODULE_REF_RE.findall(block))):
        problem = check_module_reference(ref, root)
        if problem:
            problems.append(problem)
    for module, names in _IMPORT_RE.findall(block):
        location, rest = _resolve_module_prefix(module.split("."), root)
        if rest or not location.exists():
            continue  # already reported by the module-path check above
        for name in _split_import_names(names):
            if not _symbol_defined_under(name, location):
                problems.append(f"import {name!r} not found in module "
                                f"{module!r}")
    return problems


def _strip_env_prefix(tokens):
    while tokens and re.fullmatch(r"[A-Z_][A-Z0-9_]*=\S*", tokens[0]):
        tokens = tokens[1:]
    return tokens


def _lint_bash_block(block: str, root: Path, cli_source: str):
    problems = []
    # Join backslash continuations so a wrapped CLI invocation is one line.
    lines = re.sub(r"\\\s*\n", " ", block).splitlines()
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for match in re.finditer(r"python\s+-m\s+(repro(?:\.\w+)*)", line):
            location, rest = _resolve_module_prefix(match.group(1).split("."), root)
            if rest or not location.exists():
                problems.append(f"python -m target {match.group(1)!r} does "
                                f"not resolve under {SRC_ROOT}/")
        for path_ref in _REPO_PATH_RE.findall(line):
            if not (root / path_ref).exists():
                problems.append(f"path {path_ref!r} does not exist")
        tokens = _strip_env_prefix(line.split())
        is_cli_line = ("repro.experiments.cli" in line
                       or (tokens and tokens[0] == "repro"))
        if not is_cli_line:
            continue
        for flag in _FLAG_RE.findall(line):
            if f'"{flag}"' not in cli_source:
                problems.append(f"CLI flag {flag!r} not defined in {CLI_SOURCE}")
        # First positional token after the CLI entry is the sub-command.
        if "repro.experiments.cli" in line:
            after = line.split("repro.experiments.cli", 1)[1].split()
        else:
            after = tokens[1:]
        subcommand = next((tok for tok in after if not tok.startswith("-")), None)
        if subcommand and re.fullmatch(r"[a-z][a-z0-9_-]*", subcommand):
            if f'"{subcommand}"' not in cli_source:
                problems.append(f"CLI sub-command {subcommand!r} not defined "
                                f"in {CLI_SOURCE}")
    return problems


def lint_markdown_file(path: Path, root: Path = Path(".")) -> list:
    """Check every python/bash code block of one markdown file."""
    cli_path = root / CLI_SOURCE
    cli_source = cli_path.read_text(encoding="utf-8") if cli_path.is_file() else ""
    text = path.read_text(encoding="utf-8")
    problems = []
    for match in _CODE_BLOCK_RE.finditer(text):
        language, block = match.group(1), match.group(2)
        lineno = text.count("\n", 0, match.start()) + 1
        if language == "python":
            found = _lint_python_block(block, root)
        else:
            found = _lint_bash_block(block, root, cli_source)
        problems.extend(f"{path}:{lineno}: {problem}" for problem in found)
    return problems


def iter_markdown_targets(targets, root: Path):
    """Expand markdown targets: files stay, directories glob ``*.md``."""
    for target in targets:
        path = root / target
        if path.is_dir():
            yield from sorted(path.glob("*.md"))
        elif path.suffix == ".md":
            yield path


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv: list) -> int:
    """Lint the given targets; with none, lint everything (the CI default).

    Without ``--docs``: arguments ending in ``.md`` get the markdown
    code-block check, other arguments get the docstring check.  With
    ``--docs``: every argument (file or directory) is a markdown target,
    defaulting to ``DEFAULT_DOCS`` when none are given.  No arguments at
    all runs both checks over ``DEFAULT_TARGETS`` and ``DEFAULT_DOCS``.
    """
    args = [arg for arg in argv if arg != "--docs"]
    if not argv:
        module_targets = [Path(t) for t in DEFAULT_TARGETS]
        doc_targets = list(DEFAULT_DOCS)
    elif "--docs" in argv:
        module_targets = []
        doc_targets = args or list(DEFAULT_DOCS)
    else:
        module_targets = [Path(a) for a in args if not a.endswith(".md")]
        doc_targets = [a for a in args if a.endswith(".md")]

    problems = []
    checked = 0
    for target in module_targets:
        if not target.exists():
            problems.append(f"{target}: target directory does not exist")
            continue
        for path in sorted(target.rglob("*.py")):
            if path.name.startswith("_") and path.name != "__init__.py":
                continue
            checked += 1
            problems.extend(lint_file(path))
    for path in iter_markdown_targets(doc_targets, Path(".")):
        checked += 1
        problems.extend(lint_markdown_file(path, root=Path(".")))
    for problem in problems:
        print(problem)
    print(f"lint_docs: checked {checked} file(s), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
