"""The lint engine runs over this repository itself and stays clean.

This is the acceptance gate CI enforces: every invariant rule holds on
``src/`` and ``tests/``, modulo the committed, justified baseline.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture()
def repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    return REPO_ROOT


def test_repository_lints_clean(repo_root):
    result = lint_paths(["src", "tests"], baseline="lint-baseline.json")
    assert result.errors == []
    assert result.findings == [], "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in result.findings
    )
    # The committed baseline must be exactly the audited entries — the
    # optimizer rebinds plus the pre-obs raw-timing sites — nothing
    # stale, nothing silently grown.
    assert result.baseline.unused() == []
    assert result.baselined == 13
    assert result.files > 150


def test_baseline_entries_carry_justifications(repo_root):
    from repro.analysis.baseline import Baseline

    baseline = Baseline.load("lint-baseline.json")
    assert {(e.rule, e.path) for e in baseline.entries} == {
        ("RPL001", "src/repro/optim/adam.py"),
        ("RPL001", "src/repro/optim/sgd.py"),
        ("RPL009", "src/repro/core/post_training.py"),
        ("RPL009", "src/repro/core/training.py"),
        ("RPL009", "src/repro/serve/batcher.py"),
        ("RPL009", "src/repro/serve/client.py"),
        ("RPL009", "src/repro/serve/http.py"),
    }
    for entry in baseline.entries:
        assert "Audited" in entry.note


def test_inserted_violation_is_caught(repo_root, tmp_path):
    # The acceptance probe: a deliberately reintroduced invariant
    # violation in a tree-shaped scratch dir must fail with the right ID.
    bad = tmp_path / "src" / "repro" / "serve" / "sneaky.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(model):\n    model.training = False\n")
    result = lint_paths([str(bad)])
    assert [f.rule for f in result.findings] == ["RPL002"]
    assert result.exit_code() == 1
