#!/usr/bin/env python3
"""Header self-containment check for the CORP tree.

Every public header under src/ — plus the helper headers under bench/
and tools/ — must compile as the first (and only) include of a
translation unit — i.e. it pulls in everything it uses and leans on no
accidental include order. For each header this script writes a one-line
TU:

    #include "dnn/matrix.hpp"

and compiles it with ``$CXX -std=c++20 -fsyntax-only -I src`` (headers
outside src/ get their own scan root appended to the include path, so
``bench/figure_common.hpp`` resolves both its siblings and src/
headers). A header that only compiles when someone else included
<vector> first breaks the next refactor in a different TU — exactly the
class of rot a growing tree accumulates silently. Analyzer fixtures
under tools/analyze/fixtures/ are deliberately broken code and are
skipped.

Headers compile concurrently on up to ``os.cpu_count()`` workers; the
report keeps the sorted header order. Runs as a CTest
(``headers_selfcontained``) and in the static-analysis CI job. Exit status: 0 when every header compiles, 1 otherwise, 2 on
usage errors. Only the Python standard library is used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def find_headers(scan_root: Path) -> list[Path]:
    headers = []
    for path in sorted(scan_root.rglob("*.hpp")):
        if not path.is_file():
            continue
        # Fixture code is intentionally non-compiling lint bait.
        if "fixtures" in path.relative_to(scan_root).parts:
            continue
        headers.append(path)
    return headers


def check_header(
        compiler: str, src_root: Path, scan_root: Path, header: Path,
        extra_flags: Sequence[str]) -> subprocess.CompletedProcess[str]:
    rel = header.relative_to(scan_root).as_posix()
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cpp", prefix="corp_header_tu_",
            delete=False) as handle:
        handle.write(f'#include "{rel}"\n')
        tu_path = Path(handle.name)
    try:
        command = [compiler, "-std=c++20", "-fsyntax-only", f"-I{src_root}"]
        if scan_root != src_root:
            command.append(f"-I{scan_root}")
        command += [*extra_flags, str(tu_path)]
        return subprocess.run(
            command, capture_output=True, text=True, check=False)
    finally:
        tu_path.unlink(missing_ok=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--compiler", default="c++",
        help="C++ compiler to invoke (default: c++)")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root containing src/ (default: this script's "
             "grandparent directory)")
    parser.add_argument(
        "--flag", action="append", default=[], dest="flags",
        help="extra compiler flag (repeatable)")
    args = parser.parse_args(argv)

    root = args.root if args.root is not None else \
        Path(__file__).resolve().parent.parent
    src_root = root / "src"
    if not src_root.is_dir():
        print(f"check_headers: no src/ under {root}", file=sys.stderr)
        return 2

    scan_roots = [src_root]
    for extra in ("bench", "tools"):
        extra_root = root / extra
        if extra_root.is_dir():
            scan_roots.append(extra_root)

    headers = [(scan_root, header)
               for scan_root in scan_roots
               for header in find_headers(scan_root)]
    if not headers:
        print(f"check_headers: no headers found under {src_root}",
              file=sys.stderr)
        return 2

    # Each job is a compiler subprocess, so threads give real overlap;
    # map() yields results in submission (sorted) order.
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(
            lambda job: check_header(
                args.compiler, src_root, job[0], job[1], args.flags),
            headers))

    failures = 0
    for (_, header), result in zip(headers, results):
        rel = header.relative_to(root).as_posix()
        if result.returncode == 0:
            print(f"ok: {rel}")
        else:
            failures += 1
            print(f"FAIL: {rel} is not self-contained:", file=sys.stderr)
            sys.stderr.write(result.stderr)

    if failures:
        print(f"check_headers: {failures}/{len(headers)} header(s) not "
              f"self-contained", file=sys.stderr)
        return 1
    print(f"check_headers: all {len(headers)} header(s) self-contained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
