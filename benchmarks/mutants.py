"""Mutant gate: every known-wrong variant of a pruning rule must fail tier-1.

Tier-1 is the whole pytest suite, run from the checkout root with
``src`` on the import path.

Each row of ``MUTANTS`` names a rule and rewrites one piece of text in
one file of the package into a variant that is known to be wrong. The
script copies the checkout to a temporary directory, checks that tier-1
passes there unmutated, and then, for each row alone, applies the
rewrite to a fresh copy, runs tier-1 there and lists the tests that
fail. A mutant that no test fails has survived. The old text of a row
must occur exactly once in its file, so a refactor that moves it makes
the row stale rather than silently testing nothing.

It prints one block per row and exits 1 if tier-1 fails unmutated, a
mutant survives, a row is stale, or a tier-1 run exceeds ``TIMEOUT``
seconds. A full run takes about nine tier-1 runs.

Usage: python benchmarks/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds allowed per tier-1 run, some 40 times what an unmutated one takes
TIMEOUT = 1800

# (name, file, old text, new text)
MUTANTS: list[tuple[str, str, str, str]] = [
    (
        "path memo keyed without the level",
        "src/rainbowpaths/path.py",
        "        elif key in seen:\n",
        "        elif any((level,) + key[1:] in seen for level in range(ell + 1)):\n",
    ),
    (
        "path memo keyed without the near mask",
        "src/rainbowpaths/path.py",
        "        elif key in seen:\n"
        "            continue\n"
        "        else:\n"
        "            seen.add(key)\n",
        "        elif (p, u, window) in seen:\n"
        "            continue\n"
        "        else:\n"
        "            seen.add((p, u, window))\n",
    ),
    (
        "search key linked without its parent's link",
        "src/rainbowpaths/path.py",
        "window[1:], (u, link)\n",
        "window[1:], (u, None)\n",
    ),
    (
        "rainbow row without its second announcement",
        "src/rainbowpaths/core.py",
        "                    twice[x] = True\n"
        "                    announced.append((x, True))\n",
        "                    twice[x] = True\n",
    ),
    (
        "window class takes one first color",
        "src/rainbowpaths/repfam.py",
        "        elif len(kept) == 2 or window in kept:\n",
        "        elif len(kept) == 1 or window in kept:\n",
    ),
    (
        "exact-mode level memo kept across levels",
        "src/rainbowpaths/walk.py",
        '        if mode == "exact":\n'
        "            filters += len(memo.keeps)\n"
        "            memo = WindowMemo(r)\n",
        "",
    ),
    (
        "keep not fed the cell's earlier windows",
        "src/rainbowpaths/repfam.py",
        "                for windows in classes.values():\n"
        "                    for w in windows:\n"
        "                        keep(w)\n",
        "",
    ),
    (
        "kernel extends obstructions past q",
        "src/rainbowpaths/repfam.py",
        "if len(y) < q and y.isdisjoint(row)",
        "if len(y) <= q and y.isdisjoint(row)",
    ),
]

TIER1 = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "--tb=no", "-rfE",
]


def copy_checkout(dest: Path) -> Path:
    """A copy of the checkout's files under ``dest``, without version control or caches."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
    return Path(shutil.copytree(ROOT, dest / "checkout", ignore=ignore))


def tier1_failures(tree: Path) -> list[str] | None:
    """The ids of the tests tier-1 fails or errors on in ``tree``; None if it exceeds ``TIMEOUT``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.splitlines()
    failed = [line.split(" - ")[0].split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode not in (0, 1) and not failed:
        failed = [f"pytest exited {done.returncode}"]
    return failed


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        failed = tier1_failures(copy_checkout(Path(scratch)))
        if failed != []:
            print(f"unmutated: tier-1 {'timed out' if failed is None else 'fails ' + ', '.join(failed)}")
            return 1
        print("unmutated: tier-1 passes")
        for i, (name, file, old, new) in enumerate(MUTANTS):
            path = ROOT / file
            if path.read_text().count(old) != 1:
                print(f"STALE     {name}: its old text does not occur exactly once in {file}")
                bad += 1
                continue
            tree = copy_checkout(Path(scratch) / str(i))
            target = tree / file
            target.write_text(target.read_text().replace(old, new))
            failed = tier1_failures(tree)
            shutil.rmtree(tree)
            if failed is None:
                print(f"TIMEOUT   {name}: tier-1 ran past {TIMEOUT} s")
                bad += 1
            elif not failed:
                print(f"SURVIVED  {name}: no tier-1 test fails")
                bad += 1
            else:
                print(f"caught    {name}: {len(failed)} tier-1 tests fail")
                for test in failed:
                    print(f"            {test}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
