"""An XMark-like auction-site document generator.

The paper's synthetic workload is the XMark benchmark document (224 MB at
their scale).  This generator reproduces the schema shape the nine
benchmark queries touch — ``site/regions/<continent>/item`` with
``location``, ``quantity``, ``payment``, ``name`` and ``description``
children, plus the deeply recursive ``parlist/listitem`` structure inside
descriptions that makes ``//*`` expensive — deterministically from a seed,
scaled by a factor (scale 1.0 is roughly 2 MB of text; the shape, not the
absolute size, is what the experiments depend on).
"""

from __future__ import annotations

import random
from typing import Iterator, List

REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")

LOCATIONS = (
    "Albania", "France", "Germany", "United States", "Japan", "Italy",
    "Greece", "Spain", "Brazil", "Kenya", "Australia", "China", "India",
    "Canada", "Norway", "Poland", "Egypt", "Chile", "Peru", "Austria",
)

PAYMENTS = ("Cash", "Creditcard", "Money order", "Personal Check")

_WORDS = (
    "auction", "vintage", "rare", "classic", "antique", "signed",
    "limited", "edition", "original", "mint", "boxed", "collector",
    "estate", "imported", "handmade", "restored", "certified", "deluxe",
)

#: Items per region at scale 1.0.
ITEMS_PER_REGION = 180


class XMarkGenerator:
    """Deterministic XMark-like document builder.

    Args:
        scale: size multiplier (items per region scale linearly).
        seed: RNG seed; identical (scale, seed) pairs produce identical
            documents byte-for-byte.
        albania_fraction: selectivity knob for the paper's
            ``[location="Albania"]`` predicates.
        max_parlist_depth: recursion depth of description parlists (drives
            the ``//*`` event blow-up).
    """

    def __init__(self, scale: float = 0.1, seed: int = 42,
                 albania_fraction: float = 0.08,
                 max_parlist_depth: int = 4) -> None:
        self.scale = scale
        self.seed = seed
        self.albania_fraction = albania_fraction
        self.max_parlist_depth = max_parlist_depth

    def items_per_region(self) -> int:
        return max(1, int(ITEMS_PER_REGION * self.scale))

    # -- generation ----------------------------------------------------------

    def chunks(self) -> Iterator[str]:
        """Yield the document as text chunks (streamable)."""
        rng = random.Random(self.seed)
        yield "<site><regions>"
        per_region = self.items_per_region()
        item_no = 0
        for region in REGIONS:
            yield "<{}>".format(region)
            for _ in range(per_region):
                item_no += 1
                yield self._item(rng, item_no)
            yield "</{}>".format(region)
        yield "</regions></site>"

    def text(self) -> str:
        """The complete document as one string."""
        return "".join(self.chunks())

    def _item(self, rng: random.Random, n: int) -> str:
        if rng.random() < self.albania_fraction:
            location = "Albania"
        else:
            location = rng.choice([l for l in LOCATIONS if l != "Albania"])
        quantity = rng.randint(1, 10)
        payment = rng.choice(PAYMENTS)
        name = "item{:05d} {}".format(n, rng.choice(_WORDS))
        parts: List[str] = [
            "<item>",
            "<location>{}</location>".format(location),
            "<quantity>{}</quantity>".format(quantity),
            "<name>{}</name>".format(name),
            "<payment>{}</payment>".format(payment),
            "<description>",
        ]
        parts.append(self._parlist(rng, depth=1))
        parts.append("</description></item>")
        return "".join(parts)

    def _parlist(self, rng: random.Random, depth: int) -> str:
        """The recursive structure that makes //* quadratic-ish in depth."""
        n_items = rng.randint(1, 3)
        parts = ["<parlist>"]
        for _ in range(n_items):
            parts.append("<listitem>")
            parts.append("<text>{}</text>".format(
                " ".join(rng.choice(_WORDS)
                         for _ in range(rng.randint(2, 6)))))
            if depth < self.max_parlist_depth and rng.random() < 0.4:
                parts.append(self._parlist(rng, depth + 1))
            parts.append("</listitem>")
        parts.append("</parlist>")
        return "".join(parts)


#: The generator's document class as a DTD (also checked in under
#: ``examples/xmark.dtd``; a fixture test holds the two identical).
#: ``description`` is optional and every region holds ``item*`` — the
#: starred positions are the schema's mutable regions (the only places
#: a schema-valid update stream may insert siblings).
DTD = """\
<!ELEMENT site (regions)>
<!ELEMENT regions (africa, asia, australia, europe, namerica, samerica)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT europe (item*)>
<!ELEMENT namerica (item*)>
<!ELEMENT samerica (item*)>
<!ELEMENT item (location, quantity, name, payment, description?)>
<!ELEMENT location (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (parlist)>
<!ELEMENT parlist (listitem*)>
<!ELEMENT listitem (text | parlist)*>
<!ELEMENT text (#PCDATA)>
"""

_SCHEMA = None


def document_schema():
    """The generator's document class, parsed from :data:`DTD`.

    Returns a closed :class:`repro.analysis.schema.ElementSchema` (root
    ``site``) carrying child reachability, content-model cardinality,
    and #PCDATA facts for the type analysis.
    """
    global _SCHEMA
    if _SCHEMA is None:
        from ..analysis.schema import ElementSchema
        _SCHEMA = ElementSchema.from_dtd(DTD)
    return _SCHEMA


def element_children():
    """The generator's element containment map (tag -> child tags).

    Historically a hand-coded map; now derived from :data:`DTD` so the
    generator and the type checker consume one source of truth (the
    fixture test in ``tests/test_types.py`` pins the parse against the
    original hand-coded expectations).
    """
    return {tag: tuple(sorted(kids))
            for tag, kids in document_schema().children_map().items()}


def generate(scale: float = 0.1, seed: int = 42) -> str:
    """Convenience: generate an XMark-like document string."""
    return XMarkGenerator(scale=scale, seed=seed).text()
