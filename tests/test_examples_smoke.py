"""Smoke tests: the shipped examples run and produce their documented output."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "<title>Dubliners</title><title>Ulysses</title>" in out
    assert "books: 3" in out
    assert "display now: '3'" in out


def test_stock_ticker():
    out = run_example("stock_ticker.py")
    assert "final answer:" in out
    assert "<price>" in out
    assert "count now:" in out


def test_bibliography():
    out = run_example("bibliography.py")
    assert "Wrong Publisher" not in out.split("final answer:")[1]
    assert "<books><book><title>Stream Systems</title>" in out


def test_paper_tables_tiny():
    out = run_example("paper_tables.py", "--scale", "0.01",
                      "--queries", "Q1", "Q5")
    assert "Datasets (paper Table 1 analogue)" in out
    assert "XMark" in out and "DBLP" in out
    assert "Queries (paper Table 2 analogue)" in out
    assert "Q1" in out and "Q5" in out


def test_paper_tables_rejects_unknown_query():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "paper_tables.py"),
         "--queries", "Q10"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "invalid choice: 'Q10'" in proc.stderr
    assert "Traceback" not in proc.stderr
