"""``tools/bench_record.py`` labels each measured checkout truthfully."""

import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture
def bench_record(monkeypatch):
    # the script imports perfbench's modules from the working directory
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "tools", "bench_record.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@example.org",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@example.org")
    return subprocess.run(["git", *args], cwd=repo, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_commit_of_marks_an_uncommitted_edit(bench_record, tmp_path):
    repo = str(tmp_path)
    _git(repo, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    _git(repo, "add", "a.py")
    _git(repo, "commit", "-q", "-m", "first")
    head = _git(repo, "rev-parse", "HEAD")
    assert bench_record.commit_of(repo) == {"commit": head, "dirty": False}
    (tmp_path / "a.py").write_text("x = 2\n")
    assert bench_record.commit_of(repo) == {"commit": head, "dirty": True}


def test_commit_of_outside_git(bench_record, tmp_path, monkeypatch):
    # stop git from finding a repository that encloses the temporary directory
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_record.commit_of(str(tmp_path)) == {"commit": None, "dirty": None}
