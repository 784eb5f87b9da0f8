"""``python -m bench`` is the repository's only speed record.

The pytest harnesses under ``benchmarks/`` gate overheads and figure
shapes; they must not write timing artifacts into the checkout, which
would leave ``git status`` dirty after every benchmark run and give a
second, uncorrected set of speed numbers.
"""

from pathlib import Path

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
