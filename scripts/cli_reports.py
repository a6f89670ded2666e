"""Print a digest of the CLI's reports over a fixed matrix of runs.

    python3 scripts/cli_reports.py

Every run goes through `entrocone.cli.main` in this process, over the
fixtures shipped in `entrocone/fixtures` and all nine commands:

- `gamma`, `spec`, `inner theta` and `inner omega` on every vector;
- `decompose` and `face` on every vector over eight faces;
- `entropy` and `qu-check` on every PMF;
- `search` on both spec fixtures at a node budget too small for the orbit
  phase, on the candidate at one that lets the orbit phase find it, and
  on the 8,000,000-cell `spec_large_grid.json` at 10 nodes;
- `catalog`.

For each run one line gives the argv (fixtures by file name), the exit
code and the SHA-256 of stdout; a last line gives the SHA-256 of all the
lines before it.  Stderr is discarded and no file is written, so two
checkouts compare with `diff` on this script's output.  The output of the
current code is committed as `scripts/cli_reports.expected`:

    python3 scripts/cli_reports.py | diff scripts/cli_reports.expected -
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from entrocone.cli import main  # noqa: E402

FIXTURES = ROOT / "src" / "entrocone" / "fixtures"
VECTORS = ("f.vec", "g.vec", "omega_candidate.vec")
PMFS = ("table1.pmf", "table2.pmf", "omega_candidate_witness.pmf")
SPECS = ("spec_f.json", "spec_omega_candidate.json")
FACES = (
    "theta",
    "omega",
    "full",
    "123p",
    "1,2,123p",
    "12,13,23,123,123p",
    "2,3,13,123p",
    "1,2,3,12,13,23,123",
)
SEARCH_NODES = "2000"
ORBIT_NODES = "4000"


def matrix() -> list[list[str]]:
    """The argv of every run; fixture arguments are bare file names."""
    runs: list[list[str]] = []
    for vec in VECTORS:
        runs += [["gamma", vec], ["spec", vec], ["inner", vec, "theta"], ["inner", vec, "omega"]]
        runs += [[cmd, vec, face] for cmd in ("decompose", "face") for face in FACES]
    runs += [[cmd, pmf] for pmf in PMFS for cmd in ("entropy", "qu-check")]
    runs += [["search", spec, "--budget-nodes", SEARCH_NODES] for spec in SPECS]
    runs.append(["search", "spec_omega_candidate.json", "--budget-nodes", ORBIT_NODES])
    runs.append(["search", "spec_large_grid.json", "--budget-nodes", "10"])
    runs.append(["catalog"])
    return runs


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    resolved = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(resolved)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def main_digest() -> int:
    overall = hashlib.sha256()
    for argv in matrix():
        code, stdout = run(argv)
        line = f"{' '.join(argv)}\texit={code}\tstdout={hashlib.sha256(stdout.encode()).hexdigest()}"
        print(line)
        overall.update(line.encode() + b"\n")
    print(f"overall\t{overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
