"""Record the answer oracles in oracles.json from the checkout's own src/.

Usage: python3 perfbench/record_oracles.py

Run this only on a commit whose answers are trusted: every later run of
the benchmark compares against what it writes.  Inputs are the pools'
canonical entries, without the seeded relabelling the runs apply, since
every recorded answer is invariant under it.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import child_env  # noqa: E402


def main() -> int:
    verdicts = {}
    for label, _, g, gamma in workloads.verdict_pool():
        op = workloads.Op("report", label, (g, gamma), ())
        _, report = workloads.Verdicts.run(op)
        cert = report.minimality
        verdicts[label] = [
            report.verdict.value,
            report.rule,
            [report.ranks["G"], report.ranks["Gamma"], report.ranks["combined"]],
            cert.combined_rank if cert is not None else None,
        ]
    census = {}
    for label, m in workloads.census_pool():
        rc, out = workloads.run_cli_captured(["--json", "census", "-e", workloads.element_arg(m)])
        if rc != 0:
            raise SystemExit(f"census {label} exited {rc}")
        doc = json.loads(out)
        census[label] = {
            "invariant_curves": len(doc["invariant_curves"]),
            "trivial_stars": len(doc["trivial_stars"]),
            "faithful_stars": len(doc["faithful_stars"]),
            "pairwise": doc["pairwise"],
        }
    cli = {}
    for label, _, argv in workloads.cli_pool():
        proc = subprocess.run(
            [sys.executable, "-m", "dpone", *argv], env=child_env(), capture_output=True
        )
        cli[label] = {"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    with open(workloads.ORACLES_PATH, "w", encoding="utf-8") as fh:
        json.dump({"verdicts": verdicts, "census": census, "cli": cli}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
