#!/usr/bin/env python
"""Docs lint: the module map complete, links alive, module names real.

Five checks, all cheap enough for every CI run:

* **module-map completeness** -- every module file under ``src/repro/``
  (``__init__.py`` / ``__main__.py`` excepted; they re-export and
  dispatch only) must be named, by its ``repro/...`` path, in
  ``docs/architecture.md``.  Adding a module without documenting where
  it sits in the stack fails the build.
* **dead intra-doc links** -- every relative markdown link in
  ``README.md`` and ``docs/*.md`` must resolve to an existing file
  (anchors are stripped; external ``http(s)``/``mailto`` links are not
  checked).
* **benchmark-contract coverage** -- every top-level section of every
  ``BENCH_*.json`` at the repo root must be referenced (by name) in
  ``docs/performance.md``, and the file itself must be named there.
  Adding a benchmark section without documenting its speed contract
  fails the build.
* **runnable CLI examples** -- every ``python -m repro ...`` line in a
  fenced block of ``README.md`` or ``docs/*.md`` must parse with
  ``repro.cli.build_parser()`` (``\\`` continuations joined, trailing
  ``#`` comments, pipes and redirections dropped), and any ``--cpu``
  value, like any ``cpu="..."`` keyword in a fenced ``python`` block,
  must be a ``CPU_CATALOG`` key.
* **no stale module paths or names** -- every ``repro/...py`` path
  named in ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` or
  ``docs/*.md`` must exist under ``src/``, and every dotted
  ``repro.<pkg>.<name>`` (optionally ``.<attr>``...) there must
  resolve to a module or to an attribute of one.  A dotted name right
  after ``/`` is a file path (``/run/repro.sock``) and is not checked.
  Deleting or renaming a module or a public name without updating the
  prose that names it fails the build.

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

import contextlib
import importlib
import io
import json
import pathlib
import re
import shlex
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ARCHITECTURE = REPO / "docs" / "architecture.md"
PERFORMANCE = REPO / "docs" / "performance.md"

#: module basenames exempt from the map (re-export / dispatch shims)
EXEMPT = {"__init__.py", "__main__.py"}

#: markdown inline links; deliberately simple -- the docs do not nest
#: brackets inside link text
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


#: a shell line running the CLI: optional ``$ `` prompt and environment
#: assignments, then ``python -m repro`` and its arguments
_REPRO_COMMAND = re.compile(r"^(?:\$\s+)?(?:\w+=\S*\s+)*python -m repro\b(.*)")
#: where a shell line's repro arguments end: a comment, pipe,
#: redirection, background marker or command separator
_SHELL_TAIL = re.compile(r"\s(?:#|\||[0-9]?>|&|;)")

#: a ``cpu="..."`` keyword argument in a Python example
_CPU_KEYWORD = re.compile(r"""\bcpu\s*=\s*["']([^"']*)["']""")

#: a module path as the prose names it
_MODULE_PATH = re.compile(r"\brepro/[\w/]+\.py\b")
#: a dotted module or attribute name; one that continues a file path
#: (``/run/repro.sock``) is not a Python name
_DOTTED_NAME = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")


def _pages():
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def module_map_violations():
    """Modules under src/repro/ missing from docs/architecture.md."""
    text = ARCHITECTURE.read_text()
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in EXEMPT:
            continue
        name = path.relative_to(SRC).as_posix()
        if name not in text:
            missing.append(
                "docs/architecture.md: module map is missing {}".format(name)
            )
    return missing


def dead_link_violations():
    """Relative markdown links that resolve to nothing."""
    dead = []
    for page in _pages():
        for target in _LINK.findall(page.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (page.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                dead.append(
                    "{}: dead link -> {}".format(
                        page.relative_to(REPO), target
                    )
                )
    return dead


def bench_coverage_violations():
    """BENCH_*.json sections missing from docs/performance.md."""
    if not PERFORMANCE.exists():
        return ["docs/performance.md: missing (benchmark contracts "
                "are documented there)"]
    text = PERFORMANCE.read_text()
    missing = []
    for bench in sorted(REPO.glob("BENCH_*.json")):
        if bench.name not in text:
            missing.append(
                "docs/performance.md: does not mention {}".format(bench.name)
            )
        try:
            sections = json.loads(bench.read_text())
        except ValueError:
            missing.append("{}: not valid JSON".format(bench.name))
            continue
        for key in sections:
            if not re.search(r"\b{}\b".format(re.escape(key)), text):
                missing.append(
                    "docs/performance.md: {} section `{}` has no "
                    "documented contract".format(bench.name, key)
                )
    return missing


def _fenced_repro_commands(text):
    """(line, arguments) of every ``python -m repro`` command in a
    fenced block, with backslash continuations joined."""
    inside = False
    joined, start = "", None
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith(("```", "~~~")):
            inside, joined = not inside, ""
            continue
        if not inside:
            continue
        if not joined:
            start = number
        joined += line.strip() + " "
        if joined.endswith("\\ "):
            joined = joined[:-2]
            continue
        command = _REPRO_COMMAND.match(joined)
        joined = ""
        if command:
            yield start, _SHELL_TAIL.split(command.group(1), 1)[0]


def _fenced_python_cpus(text):
    """(line, value) of every ``cpu="..."`` keyword in a fenced
    ``python`` block."""
    language = None
    for number, line in enumerate(text.splitlines(), start=1):
        fence = line.lstrip()
        if fence.startswith(("```", "~~~")):
            language = fence[3:].strip() if language is None else None
            continue
        if language == "python":
            for cpu in _CPU_KEYWORD.findall(line):
                yield number, cpu


def cli_example_violations():
    """Fenced ``python -m repro`` examples the CLI would reject, and
    fenced Python examples naming a CPU the catalog lacks."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.cli import build_parser
    from repro.cpu.models import CPU_CATALOG

    parser = build_parser()
    bad = []
    for page in _pages():
        for line, arguments in _fenced_repro_commands(page.read_text()):
            where = "{}:{}".format(page.relative_to(REPO), line)
            try:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    args = parser.parse_args(shlex.split(arguments))
            except (SystemExit, ValueError):
                reason = err.getvalue().strip().splitlines()
                bad.append("{}: `repro{}` does not parse: {}".format(
                    where, arguments.rstrip(),
                    reason[-1] if reason else "unbalanced quotes"))
                continue
            cpu = getattr(args, "cpu", None)
            if cpu is not None and cpu not in CPU_CATALOG:
                bad.append("{}: --cpu {} is not a CPU catalog key".format(
                    where, cpu))
        for line, cpu in _fenced_python_cpus(page.read_text()):
            if cpu not in CPU_CATALOG:
                bad.append('{}:{}: cpu="{}" is not a CPU catalog key'.format(
                    page.relative_to(REPO), line, cpu))
    return bad


def _resolves(dotted):
    """True if ``repro.a.b.c`` is a module, or attributes of the longest
    module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        path = SRC.joinpath(*parts[:cut])
        if (path.with_suffix(".py").is_file()
                or (path / "__init__.py").is_file()):
            target = importlib.import_module(".".join(parts[:cut]))
            for attr in parts[cut:]:
                if not hasattr(target, attr):
                    return False
                target = getattr(target, attr)
            return True
    return False


def stale_path_violations():
    """``repro/...py`` paths and ``repro.x.y`` names in the prose that
    name no module file or attribute."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    stale = []
    for page in [REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"] + _pages():
        for number, line in enumerate(page.read_text().splitlines(), 1):
            where = "{}:{}".format(page.relative_to(REPO), number)
            for name in _MODULE_PATH.findall(line):
                if not (SRC / name).is_file():
                    stale.append("{}: no such module {}".format(where, name))
            for name in _DOTTED_NAME.findall(line):
                if not _resolves(name):
                    stale.append("{}: no such module or attribute {}".format(
                        where, name))
    return stale


def main():
    violations = (module_map_violations() + dead_link_violations()
                  + bench_coverage_violations() + cli_example_violations()
                  + stale_path_violations())
    for violation in violations:
        print(violation)
    if violations:
        print("docs lint: {} violation(s)".format(len(violations)))
        return 1
    print("docs lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
