"""The run id stamped into every ``BENCH_*.json`` baseline."""

from __future__ import annotations

import subprocess

from conftest import bench_run_id, run_id_at


def _git(cwd, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@invalid",
         *args], cwd=cwd, check=True, capture_output=True,
        text=True).stdout.strip()


def test_dirty_tree_is_marked(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RUN_ID", raising=False)
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("a\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "init")
    commit = _git(tmp_path, "rev-parse", "--short", "HEAD")
    assert run_id_at(tmp_path) == commit

    (tmp_path / "a.txt").write_text("b\n")  # a modified tracked file
    assert run_id_at(tmp_path) == f"{commit}-dirty"
    (tmp_path / "a.txt").write_text("a\n")
    assert run_id_at(tmp_path) == commit
    (tmp_path / "new.txt").write_text("x\n")  # an untracked file
    assert run_id_at(tmp_path) == f"{commit}-dirty"

    monkeypatch.setenv("REPRO_BENCH_RUN_ID", "ci-build-7")
    assert run_id_at(tmp_path) == "ci-build-7"


def test_outside_a_checkout_is_local(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RUN_ID", raising=False)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert run_id_at(tmp_path) == "local"


def test_session_id_resolved_before_any_baseline():
    # The autouse session fixture resolved it before this module ran, so
    # baselines a refresh run writes cannot turn later stamps dirty.
    assert bench_run_id.cache_info().currsize == 1
