"""The bench harness's span tracer still finds the layers it wraps.

`perfbench/spans.py` wraps dpone functions from outside: the rules by
their names in `criteria.RULES`, and `group_closure` with a hook that
reads the generators of its first argument.  A renamed rule or a changed
closure signature would break `--trace 1` while no other test runs it.
`install` rebinds module globals, so it runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
rec = spans.Recorder()
spans.install(rec)
from dpone.criteria import gamma_report
from dpone.curves import bertini_isometry
from dpone.lattice import GroupSpec
rec.begin_op(0)
report = gamma_report(GroupSpec((bertini_isometry(),), "Gamma"))
rec.end_op()
print(json.dumps({"rule": report.rule, "spans": sorted({s.name for s in rec.span_list()})}))
"""


def test_span_tracer_wraps_rules_and_closure():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # Bertini: every rule runs, and the even rule hits last
    assert doc["rule"] == "not_rational_even"
    expected = {
        "criteria.check_rational_two_stars",
        "criteria.check_rational_triple",
        "criteria.check_not_rational_carter",
        "criteria.check_not_rational_stars",
        "criteria.check_not_rational_even",
        "criteria.check_minimal_four_stars",
        "criteria.rationality_report",
        "lattice.group_closure",
    }
    assert expected <= set(doc["spans"])
