#!/usr/bin/env python3
"""Count the workspace's Rust lines, split into non-test and test.

The rule:
- count every line of every `.rs` file under `crates/`, `src/`, `tests/`
  and `examples/`;
- a file under a `tests/` directory is all test;
- in any other file, everything from its first top-level `#[cfg(test)]`
  line (at column 0) to its end is test;
- the rest is non-test.

Usage: python3 scripts/loc.py [REPO_ROOT]   (default: the current directory)
"""

import os
import sys

ROOTS = ("crates", "src", "tests", "examples")


def count(root, rel):
    """Returns the (non-test, test) line counts of `rel`, a path under `root`."""
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        lines = f.read().splitlines()
    if "tests" in rel.split(os.sep)[:-1]:
        return 0, len(lines)
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i, len(lines) - i
    return len(lines), 0


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    non_test = test = 0
    for top in ROOTS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                if name.endswith(".rs"):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    a, b = count(root, rel)
                    non_test += a
                    test += b
    print(f"non-test {non_test}")
    print(f"test     {test}")


if __name__ == "__main__":
    main()
