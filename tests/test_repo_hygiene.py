"""``python -m bench`` is the repository's only speed record.

The pytest harnesses under ``benchmarks/`` gate overheads and figure
shapes; they must not write timing artifacts into the checkout, which
would leave ``git status`` dirty after every benchmark run and give a
second, uncorrected set of speed numbers.

Every scheduler the package exports is also run by something other than
its own tests, so no policy outlives the last workload that used it.
"""

import inspect
import re
from pathlib import Path

import repro.sched as sched

REPO_ROOT = Path(__file__).resolve().parent.parent
#: prefix of the retired per-harness timing artifacts (split so this
#: file does not match its own search)
ARTIFACT_PREFIX = "BENCH" + "_"
#: what a harness writing into the checkout would have to say
WRITE_MARKERS = ("REPO_ROOT", ".write_text(", ".write_bytes(")


def test_no_timing_artifacts_at_repo_root():
    assert sorted(REPO_ROOT.glob(f"{ARTIFACT_PREFIX}*.json")) == []


def test_benchmarks_write_nothing_into_the_checkout():
    offenders = []
    for path in sorted((REPO_ROOT / "benchmarks").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for marker in (ARTIFACT_PREFIX,) + WRITE_MARKERS:
            if marker in text:
                offenders.append(f"{path.relative_to(REPO_ROOT)}: {marker}")
    assert offenders == []


#: where a scheduler has to be run from to count as used
CALLER_DIRS = ("src/repro/experiments", "src/repro/serve", "benchmarks", "examples")


def test_every_exported_scheduler_has_a_caller():
    """A scheduler that no experiment, serve endpoint, benchmark harness
    or example names is an orphan: only its own tests run it."""
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in CALLER_DIRS
        for path in sorted((REPO_ROOT / folder).rglob("*.py"))
    )
    orphans = [
        name
        for name in sched.__all__
        if inspect.isclass(cls := getattr(sched, name))
        and issubclass(cls, sched.Scheduler)
        and not inspect.isabstract(cls)
        and not re.search(rf"\b{name}\b", sources)
    ]
    assert orphans == []
