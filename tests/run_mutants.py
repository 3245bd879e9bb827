"""Check that the tests catch each mutant listed in `mutants.json`.

Run from anywhere: `python tests/run_mutants.py`.

Each mutant names a file under `src/`, an old text that must occur there
exactly once, its replacement, the test files that must catch it, and
optionally (`catching`) the tests in those files expected to catch it.
`src/` is copied once to a temporary directory; for each mutant the text
is replaced there, pytest runs the expected tests with `-x` against the
copy, then, only if they all pass, the whole named files, and the text is
put back.  A mutant is caught when a pytest run reports failing tests
(exit code 1); passing tests, or any other exit code, such as a
collection error or an expected test that no longer exists, do not count.  The runner exits 1 if an old text
does not occur exactly once or any mutant is not caught.  The file is
not named `test_*`, so the tier-1 run does not collect it.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = pathlib.Path(__file__).resolve().parent / "mutants.json"


def run(mutant: dict, src: pathlib.Path) -> str:
    """'caught', 'survived', or what else went wrong; `src` is left as found."""
    target = src / mutant["file"]
    text = target.read_text()
    found = text.count(mutant["old"])
    if found != 1:
        return f"old text occurs {found} times in {mutant['file']}"
    target.write_text(text.replace(mutant["old"], mutant["new"]))
    # No bytecode is written, so no cached module outlives its mutant.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        for tests in filter(None, (mutant.get("catching"), mutant["tests"])):
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL).returncode
            if code != 0:
                break
    finally:
        target.write_text(text)
    if code == 1 and tests is mutant["tests"] and mutant.get("catching"):
        return "caught by the whole files only"
    return {0: "survived", 1: "caught"}.get(code, f"pytest exited with code {code}")


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # The copy, not an installed package, must be what the tests import.
        where = subprocess.run(
            [sys.executable, "-c", "import cmtgraphs; print(cmtgraphs.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the tests would import cmtgraphs from {where or 'nowhere'}, not the copy")
            return 1
        for mutant in mutants:
            start = time.perf_counter()
            outcome = run(mutant, src)
            bad += not outcome.startswith("caught")
            print(f"{outcome:>9}  {time.perf_counter() - start:5.1f} s  {mutant['name']}")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
