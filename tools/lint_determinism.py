#!/usr/bin/env python3
"""Determinism lint: forbid nondeterministic randomness and wall-clock seeding.

The simulator's reproducibility contract (DESIGN.md) is that every random
decision flows from ownsim::Rng seeded via derive_seed(master, stream). This
lint fails if first-party code reintroduces a nondeterministic source:

  * C randomness:      rand(), srand()
  * C time seeding:    time(NULL)-style calls
  * <random> engines:  std::random_device, std::mt19937[_64],
                       std::default_random_engine, std::minstd_rand[0]
  * wall clocks:       std::chrono system_clock / high_resolution_clock

The absolute bans above apply to every scanned tree (src, tests, bench,
examples). Two further rules are path-scoped, with their scopes and
exemptions declared in the SCOPED_RULES table below: steady_clock is
telemetry-only (src/exec, src/metrics), and literal Rng seeds are banned
not just in src/ but also in the shipped drivers under bench/ and
examples/ — a benchmark that pins a seed literal correlates its streams
exactly like library code would. Unit tests keep the right to pin seeds on
purpose.

Run:  python3 tools/lint_determinism.py        (from the repo root)
Exit: 0 clean, 1 violations found.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ["src", "tests", "bench", "examples"]
EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}

# Pattern -> human-readable rule. Patterns are matched per line after comment
# stripping.
FORBIDDEN: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\bstd::rand\s*\(|(?<![\w:])rand\s*\(\s*\)"),
     "rand() is nondeterministic across platforms; use ownsim::Rng"),
    (re.compile(r"\bsrand\s*\("),
     "srand() reseeds global state; use derive_seed(master, stream)"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time() must not feed simulation state; seeds come from config"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic; use ownsim::Rng"),
    (re.compile(r"\bstd::(mt19937(_64)?|default_random_engine|"
                r"minstd_rand0?|ranlux\w+|knuth_b)\b"),
     "std <random> engines are not part of the seed-derivation scheme; "
     "use ownsim::Rng"),
    (re.compile(r"\bstd::chrono::(high_resolution_clock|system_clock)\b"),
     "wall clocks are nondeterministic; steady_clock telemetry only"),
]

# Path-scoped rules: the pattern is forbidden wherever `applies_to` matches
# unless the file sits under an `allowed` prefix (or IS an allowed file).
# Keeping scope + exemptions declarative here means a new directory or a new
# exemption is one table edit, reviewable in isolation.
@dataclass(frozen=True)
class ScopedRule:
    pattern: re.Pattern[str]
    message: str
    applies_to: tuple[str, ...]  # path prefixes the rule covers
    allowed: tuple[str, ...] = ()  # prefixes or exact files exempt from it

    def violates(self, rel: str, line: str) -> bool:
        if not rel.startswith(self.applies_to):
            return False
        if rel.startswith(self.allowed):
            return False
        return bool(self.pattern.search(line))


SCOPED_RULES: tuple[ScopedRule, ...] = (
    # steady_clock measures elapsed wall time in telemetry paths only; it
    # must never reach code that computes a simulated result.
    ScopedRule(
        pattern=re.compile(r"\bstd::chrono::steady_clock\b"),
        message="steady_clock is only allowed in telemetry code under "
                "src/exec/ or src/metrics/ (and in the harnesses under "
                "tests/, bench/, examples/ that time themselves)",
        applies_to=("src/",),
        allowed=("src/exec/", "src/metrics/"),
    ),
    # An Rng constructed from a literal would silently correlate streams;
    # first-party code AND the shipped drivers (bench/, examples/) must
    # derive seeds via derive_seed(master, stream). Unit tests may pin
    # literal seeds on purpose. rng.hpp itself declares the default arg.
    ScopedRule(
        pattern=re.compile(r"\bRng\s*[({]\s*\d"),
        message="Rng must be seeded via derive_seed(master, stream), "
                "not a literal (unit tests excepted)",
        applies_to=("src/", "bench/", "examples/"),
        allowed=("src/common/rng.hpp",),
    ),
)


def strip_comments(line: str, in_block: bool) -> tuple[str, bool]:
    """Remove // and /* */ comment text from one line."""
    out = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block = False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            in_block = True
            i += 2
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block


def lint_file(path: Path) -> list[str]:
    rel = path.relative_to(ROOT).as_posix()
    errors = []
    in_block = False
    for lineno, raw in enumerate(path.read_text(errors="replace").splitlines(),
                                 start=1):
        line, in_block = strip_comments(raw, in_block)
        if "lint:allow-nondeterminism" in raw:
            continue
        for pattern, rule in FORBIDDEN:
            if pattern.search(line):
                errors.append(f"{rel}:{lineno}: {rule}\n    {raw.strip()}")
        for scoped in SCOPED_RULES:
            if scoped.violates(rel, line):
                errors.append(
                    f"{rel}:{lineno}: {scoped.message}\n    {raw.strip()}")
    return errors


def main() -> int:
    errors: list[str] = []
    scanned = 0
    for d in SCAN_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix in EXTENSIONS and path.is_file():
                scanned += 1
                errors.extend(lint_file(path))
    if errors:
        print(f"determinism lint: {len(errors)} violation(s) "
              f"in {scanned} files:\n")
        print("\n".join(errors))
        return 1
    print(f"determinism lint: OK ({scanned} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
