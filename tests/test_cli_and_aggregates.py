"""Tests for the CLI and the min/max aggregates."""

import subprocess
import sys

import pytest

from repro import XFlux
from repro.events import dumps, loads
from repro.data.stock import StockTicker

from tests.helpers import assert_query_matches_naive

DOC = "<r><p>5</p><p>2</p><p>9</p><p>oops</p></r>"


class TestMinMax:
    def test_basic(self):
        assert XFlux("min(X//p)").run_xml(DOC).text() == "2"
        assert XFlux("max(X//p)").run_xml(DOC).text() == "9"

    def test_matches_naive(self, auction_xml):
        assert_query_matches_naive("min(X//quantity)", auction_xml)
        assert_query_matches_naive("max(X//quantity)", auction_xml)
        assert_query_matches_naive(
            'max(X//item[location="Albania"]/quantity)', auction_xml)

    def test_empty_input(self):
        assert XFlux("min(X//nothing)").run_xml(DOC).text() == ""

    def test_continuous_display(self):
        from repro.xmlio import tokenize
        run = XFlux("min(X//p)").start(track_snapshots=True)
        run.feed_all(tokenize(DOC))
        run.finish()
        non_empty = [s for s in run.display.snapshots if s]
        assert non_empty == ["5", "2"]  # improves as lower values arrive

    def test_retraction_dethrones_minimum(self):
        src = ('sS(0) sE(0,"r") '
               'sM(0,1) sE(1,"p") cD(1,"2") eE(1,"p") eM(0,1) '
               'sE(0,"p") cD(0,"5") eE(0,"p") '
               'sR(1,2) sE(2,"p") cD(2,"7") eE(2,"p") eR(1,2) '
               'eE(0,"r") eS(0)')
        run = XFlux("min(stream()//p)", mutable_source=True).start()
        run.feed_all(loads(src))
        run.finish()
        assert run.text() == "5"

    def test_update_improves_maximum(self):
        src = ('sS(0) sE(0,"r") '
               'sM(0,1) sE(1,"p") cD(1,"2") eE(1,"p") eM(0,1) '
               'sR(1,2) sE(2,"p") cD(2,"99") eE(2,"p") eR(1,2) '
               'eE(0,"r") eS(0)')
        run = XFlux("max(stream()//p)", mutable_source=True).start()
        run.feed_all(loads(src))
        run.finish()
        assert run.text() == "99"


def run_cli(args, stdin=""):
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          input=stdin, capture_output=True, text=True,
                          timeout=120)
    return proc


class TestCLI:
    def test_query_over_stdin(self):
        proc = run_cli(["count(X//p)"], stdin=DOC)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "4"

    def test_query_over_file(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text(DOC)
        proc = run_cli(["X//p", str(doc)])
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("<p>5</p>")

    def test_events_input_with_updates(self, tmp_path):
        events = StockTicker(symbols=("IBM",), n_updates=3,
                             mutable_names=False, seed=2).events()
        feed = tmp_path / "ticker.events"
        feed.write_text(dumps(events))
        proc = run_cli(["--events", "--mutable-source",
                        "stream()//quote/price", str(feed)])
        assert proc.returncode == 0
        assert proc.stdout.count("<price>") == 1  # final price only

    def test_follow_prints_progression(self):
        proc = run_cli(["--follow", "count(X//p)"], stdin=DOC)
        lines = [l for l in proc.stdout.splitlines() if l]
        assert lines == ["0", "1", "2", "3", "4"]

    def test_stats_flag(self):
        proc = run_cli(["--stats", "count(X//p)"], stdin=DOC)
        assert "transformer_calls=" in proc.stderr

    def test_query_file(self, tmp_path):
        qf = tmp_path / "q.xq"
        qf.write_text("count(X//p)")
        proc = run_cli(["--query-file", str(qf)], stdin=DOC)
        assert proc.stdout.strip() == "4"

    def test_bad_query_reports_error(self):
        proc = run_cli(["for $x in"], stdin=DOC)
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_bad_xml_reports_error(self):
        proc = run_cli(["X//p"], stdin="<a><b></a>")
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_missing_query(self):
        proc = run_cli([], stdin=DOC)
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", [
        ["X//p", "{missing}"],
        ["--query-file", "{missing}"],
    ])
    def test_unreadable_file_reports_error(self, args, tmp_path):
        missing = str(tmp_path / "no-such-file")
        proc = run_cli([a.format(missing=missing) for a in args],
                       stdin=DOC)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
