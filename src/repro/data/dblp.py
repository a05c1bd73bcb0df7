"""A DBLP-like bibliography generator.

The paper's real-world workload is the DBLP XML dump (318 MB).  This
generator reproduces its flat record structure — a long sequence of
``inproceedings``/``article`` records with ``author``, ``title``, ``year``
and ``booktitle``/``journal`` children — with a controllable fraction of
authors named Smith (the selectivity knob of queries 8 and 9).
"""

from __future__ import annotations

import random
from typing import Iterator, List

FIRST_NAMES = ("John", "Jane", "Adam", "Maria", "Wei", "Anna", "Peter",
               "Laura", "Ivan", "Sofia", "Ken", "Nadia", "Omar", "Lucy")

LAST_NAMES = ("Johnson", "Garcia", "Mueller", "Tanaka", "Rossi", "Novak",
              "Silva", "Dubois", "Kim", "Olsen", "Papadopoulos", "Kovacs")

VENUES = ("ICDE", "SIGMOD", "VLDB", "EDBT", "CIKM", "WWW", "KDD", "PODS")

_TITLE_WORDS = ("Efficient", "Scalable", "Adaptive", "Incremental",
                "Streaming", "Processing", "of", "XML", "Queries",
                "Updates", "Views", "Indexes", "Joins", "Data", "Systems",
                "over", "Distributed", "Continuous")

#: Records at scale 1.0.
RECORDS = 4000


class DBLPGenerator:
    """Deterministic DBLP-like bibliography builder.

    Args:
        scale: size multiplier (records scale linearly).
        seed: RNG seed (deterministic output).
        smith_fraction: fraction of records with a Smith author — the
            selectivity of the paper's queries 8 and 9.
    """

    def __init__(self, scale: float = 0.1, seed: int = 7,
                 smith_fraction: float = 0.05) -> None:
        self.scale = scale
        self.seed = seed
        self.smith_fraction = smith_fraction

    def record_count(self) -> int:
        return max(1, int(RECORDS * self.scale))

    def chunks(self) -> Iterator[str]:
        rng = random.Random(self.seed)
        yield "<dblp>"
        for _ in range(self.record_count()):
            yield self._record(rng)
        yield "</dblp>"

    def text(self) -> str:
        return "".join(self.chunks())

    def _record(self, rng: random.Random) -> str:
        kind = "inproceedings" if rng.random() < 0.7 else "article"
        n_authors = rng.randint(1, 3)
        authors: List[str] = []
        for i in range(n_authors):
            first = rng.choice(FIRST_NAMES)
            if i == 0 and rng.random() < self.smith_fraction:
                last = "Smith"
            else:
                last = rng.choice(LAST_NAMES)
            authors.append("{} {}".format(first, last))
        title = " ".join(rng.choice(_TITLE_WORDS)
                         for _ in range(rng.randint(4, 9)))
        year = rng.randint(1988, 2007)
        venue = rng.choice(VENUES)
        parts = ["<{}>".format(kind)]
        parts.extend("<author>{}</author>".format(a) for a in authors)
        parts.append("<title>{}</title>".format(title))
        if kind == "inproceedings":
            parts.append("<booktitle>{}</booktitle>".format(venue))
        else:
            parts.append("<journal>{} Journal</journal>".format(venue))
        parts.append("<year>{}</year>".format(year))
        parts.append("</{}>".format(kind))
        return "".join(parts)


#: The generator's document class as a DTD (also checked in under
#: ``examples/dblp.dtd``).  Records repeat freely under ``dblp`` and
#: ``author`` repeats inside a record; ``title``/``booktitle``/
#: ``journal``/``year`` are fixed, single-occurrence positions.
DTD = """\
<!ELEMENT dblp (inproceedings | article)*>
<!ELEMENT inproceedings (author+, title, booktitle, year)>
<!ELEMENT article (author+, title, journal, year)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT booktitle (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
<!ELEMENT year (#PCDATA)>
"""

_SCHEMA = None


def document_schema():
    """The generator's document class, parsed from :data:`DTD`.

    Returns a closed :class:`repro.analysis.schema.ElementSchema` (root
    ``dblp``) for the type analysis.
    """
    global _SCHEMA
    if _SCHEMA is None:
        from ..analysis.schema import ElementSchema
        _SCHEMA = ElementSchema.from_dtd(DTD)
    return _SCHEMA


def element_children():
    """The generator's element containment map (tag -> child tags).

    Historically a hand-coded map; now derived from :data:`DTD` (the
    fixture test pins the parse against the original expectations).
    """
    return {tag: tuple(sorted(kids))
            for tag, kids in document_schema().children_map().items()}


def generate(scale: float = 0.1, seed: int = 7) -> str:
    """Convenience: generate a DBLP-like document string."""
    return DBLPGenerator(scale=scale, seed=seed).text()
