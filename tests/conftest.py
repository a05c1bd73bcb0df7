"""Shared fixtures and differential-testing helpers."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import XFlux, parse_xml, tokenize
from repro.baselines.dom_eval import evaluate_to_xml
from repro.core import Context
from repro.xquery.parser import parse as parse_query

# Tier-1 must be decidable: by default hypothesis draws the same examples
# on every run (and replays nothing from a local example database).  The
# random search stays available to the nightly schedule:
# HYPOTHESIS_PROFILE=random.  Test tooling, not an engine option.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

AUCTION_XML = """<site><regions><europe>
<item><location>Albania</location><quantity>5</quantity>\
<payment>Cash</payment></item>
<item><location>France</location><quantity>7</quantity>\
<payment>Credit</payment></item>
<item><location>Albania</location><quantity>2</quantity>\
<payment>Cash</payment></item>
</europe><asia>
<item><location>Albania</location><quantity>9</quantity>\
<payment>Cash</payment></item>
</asia></regions></site>"""

BIB_XML = """<dblp>
<inproceedings><author>John Smith</author><title>Paper B</title>\
<year>1999</year></inproceedings>
<inproceedings><author>Jane Doe</author><title>Paper X</title>\
<year>1997</year></inproceedings>
<inproceedings><author>Adam Smith</author><title>Paper A</title>\
<year>1995</year></inproceedings>
</dblp>"""

RECURSIVE_XML = ("<r><part>a<part>b<part>c</part></part></part>"
                 "<part>d</part><widget><part>e</part></widget></r>")


@pytest.fixture
def auction_xml():
    return AUCTION_XML


@pytest.fixture
def bib_xml():
    return BIB_XML


@pytest.fixture
def recursive_xml():
    return RECURSIVE_XML


@pytest.fixture
def ctx():
    context = Context()
    context.ids.reserve(0)
    return context
