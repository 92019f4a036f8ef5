"""Seeded, scaled synthetic corpus and the expected outcome of every operation.

The corpus is N copies of the bundled four-source corpus
(apimill.synthetic.build_corpus), each copy with its own source_ids and its
own endpoint names, so every endpoint can become a tool of its own.  On top
of that, by seed:

* collision pairs: the second copy of a pair reuses the first copy's endpoint
  names, as real corpora repeat names like "Search".  A pipeline that keys
  tools by name loses one endpoint per collision; the oracle below still
  expects every endpoint, so that loss shows up as failed operations;
* for the ``recover`` workload, one documented required value per copy is
  left out (with the never-documented trainer name that makes two of the five
  required values, 40%), and card endpoints carry extra documented optional
  parameters that fill the knowledge base;
* for the ``docs`` workload, every page is HTML with navigation, script,
  style and footer boilerplate around the rendered spec.

Counts are stratified rather than drawn, so every seed yields the same number
of operations, targets and collisions; the seed only picks which copies and
which values.  That keeps fail_share and the amount of work equal across seeds.

The expected outcomes come from the mock server's route rules, restated here,
never from apimill's own output.
"""

from __future__ import annotations

import html
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from apimill.model import Parameter
from apimill.synthetic import build_corpus, render_doc

# -- route rules of apimill.mockapi.MockApi -----------------------------------

PASSED = "Passed Validation"
FAILED = "Failed Validation"
ABNORMAL = "Abnormal Response"
NO_PARAM_VALUE = "No Parameter Value"

KNOWN_GLYTOUCAN_ID = "G00048MO"

# path -> the only values a required argument may take for the call to pass;
# an empty dict means any value passes
GATED = {"/glycan": {"glytoucan_id": KNOWN_GLYTOUCAN_ID},
         "/structure": {"glytoucan_id": KNOWN_GLYTOUCAN_ID}}
# label of a call that sends every required value
ROUTE_LABEL = {"/cards": PASSED, "/legacy": PASSED, "/trainers": PASSED,
               "/gone": ABNORMAL, "/strict": FAILED,
               "/glycan": PASSED, "/structure": PASSED}
# scalar leaves of each passing route's response body, keyed as apimill's
# knowledge base harvests them
RESPONSE_VALUES = {
    "/cards": {"id": "xy7-54", "name": "Gardevoir", "supertype": "Pokemon",
               "hp": "170", "totalCount": 1},
    "/legacy": {"data": "legacy index"},
    "/glycan": {"glytoucan_id": KNOWN_GLYTOUCAN_ID, "glycan_name": "Lewis b",
                "pubchem_cid": 45480569},
    "/structure": {"glytoucan_id": KNOWN_GLYTOUCAN_ID, "format": "GLYCAM",
                   "structure": "LFucpa1-2DGalpb1-3[LFucpa1-4]DGlcpNAcb1-OH"},
}


def route_accepts(path: str, args: dict) -> bool:
    """True when a call to `path` with these argument values passes."""
    if ROUTE_LABEL[path] != PASSED:
        return False
    return all(args.get(k) == v for k, v in GATED.get(path, {}).items())


# -- seeded values --------------------------------------------------------------

QUERIES = ["name:gardevoir", "name:pikachu", "types:fire", "set.id:xy7",
           "subtypes:mega", "rarity:rare", "hp:gte100", "artist:sugimori"]
TERMS = ["draw", "energy", "shuffle", "discard", "evolve", "retreat"]
# (name, type, description, candidate example values) of the extra optional
# card parameters in the recover workload
CARD_EXTRAS = [
    ("rarity", "string", "Rarity tier printed on the card.",
     ["Common", "Uncommon", "Rare Holo", "Ultra Rare"]),
    ("artist", "string", "Illustrator credited on the card.",
     ["Ken Sugimori", "Mitsuhiro Arita", "Atsuko Nishida", "Kagemaru Himeno"]),
    ("series", "string", "Expansion series the card belongs to.",
     ["Sword & Shield", "Sun & Moon", "XY", "Black & White"]),
    ("language", "string", "Printing language code.",
     ["en", "ja", "fr", "de"]),
    ("orderBy", "string", "Field to sort the results by.",
     ["set.releaseDate", "number", "hp", "artist"]),
    ("pageSize", "integer", "Maximum number of cards per result page.",
     [10, 25, 50, 250]),
    ("regulationMark", "string", "Regulation mark printed in the corner.",
     ["D", "E", "F", "G"]),
    ("legality", "string", "Tournament format the card is legal in.",
     ["standard", "expanded", "unlimited"]),
    ("energyType", "string", "Energy type of the Pokemon.",
     ["Fire", "Water", "Grass", "Lightning"]),
    ("stage", "string", "Evolution stage of the Pokemon.",
     ["Basic", "Stage 1", "Stage 2", "VMAX"]),
    ("retreatCost", "integer", "Converted retreat cost.", [0, 1, 2, 3]),
    ("minHp", "integer", "Lowest hit points to include.", [50, 100, 150, 200]),
    ("releasedAfter", "string", "Only sets released after this date.",
     ["2019-01-01", "2020-06-15", "2021-11-12", "2023-03-31"]),
    ("region", "string", "Region the Pokemon comes from.",
     ["Kanto", "Johto", "Hoenn", "Sinnoh"]),
]
# which documented required value a recover copy leaves out
UNDOCUMENTED = [("/cards", "q"), ("/strict", "term"),
                ("/glycan", "glytoucan_id"), ("/structure", "glytoucan_id")]


@dataclass
class Op:
    """One corpus endpoint and what a correct pipeline does with it."""

    source_id: str
    path: str
    method: str
    args: list  # (name, required, documented value or None), in spec order
    label: str  # validate's expected label
    target: bool = False  # validate leaves a required value missing
    recoverable: bool = False  # infer is expected to find a passing value

    @property
    def missing(self) -> list:
        return [name for name, required, value in self.args if required and value is None]


@dataclass
class Corpus:
    manifest: Path
    truth_dir: Path
    ops: list = field(default_factory=list)

    @property
    def targets(self) -> list:
        return [op for op in self.ops if op.target]


@dataclass
class Shape:
    copies: int
    pairs: int  # collision pairs; each pair loses one copy under name-keyed tools
    html: bool = False
    recover: bool = False  # undocumented required values, extra card parameters


def _copy_specs(base_url: str, tag: str, rng: random.Random, shape: Shape,
                pattern: Optional[int]) -> list:
    """(source_id stem, spec) pairs of one copy, endpoints renamed by tag."""
    out = []
    for stem, spec, _ in build_corpus(base_url):
        spec.title = f"{spec.title} ({tag})"
        for ep in spec.endpoints:
            ep.name = f"{ep.name} {tag}"
            path = urlsplit(ep.url).path
            for p in ep.required_parameters:
                if p.name == "q":
                    p.example_value = rng.choice(QUERIES)
                elif p.name == "term":
                    p.example_value = rng.choice(TERMS)
                if pattern is not None and UNDOCUMENTED[pattern] == (path, p.name):
                    p.example_value = p.default_value = None
            if path == "/cards" and shape.recover:
                for name, type_hint, description, values in CARD_EXTRAS:
                    ep.optional_parameters.append(Parameter(
                        name=name, type_hint=type_hint, description=description,
                        example_value=rng.choice(values),
                    ))
        out.append((stem, spec))
    return out


def _collision_pairs(shape: Shape, patterns: list, rng: random.Random) -> list:
    """(first, second) copy indices; pairs are drawn within one pattern,
    round-robin over patterns, so the patterns of lost copies never vary."""
    by_pattern: dict = {}
    for i, p in enumerate(patterns):
        by_pattern.setdefault(p, []).append(i)
    for members in by_pattern.values():
        rng.shuffle(members)
    keys = sorted(by_pattern)
    pairs = []
    for n in range(shape.pairs):
        members = by_pattern[keys[n % len(keys)]]
        a, b = members.pop(), members.pop()
        pairs.append((min(a, b), max(a, b)))
    return pairs


def build(shape: Shape, seed: int, base_url: str, directory) -> Corpus:
    """Write pages, truth specs and a manifest; return them with the oracle."""
    rng = random.Random(seed)
    directory = Path(directory)
    pages, truth = directory / "pages", directory / "truth"
    pages.mkdir(parents=True, exist_ok=True)
    truth.mkdir(parents=True, exist_ok=True)

    if shape.recover:
        patterns = [i % len(UNDOCUMENTED) for i in range(shape.copies)]
        rng.shuffle(patterns)
    else:
        patterns = [0] * shape.copies
    tags = [f"{i:03d}" for i in range(shape.copies)]
    for first, second in _collision_pairs(shape, patterns, rng):
        tags[second] = tags[first]

    corpus = Corpus(directory / "manifest.json", truth)
    manifest = []
    for i in range(shape.copies):
        pattern = patterns[i] if shape.recover else None
        for stem, spec in _copy_specs(base_url, tags[i], rng, shape, pattern):
            source_id = f"{stem}_{i:03d}"
            text = render_doc(spec)
            suffix = ".html" if shape.html else ".txt"
            if shape.html:
                text = render_html(text, rng)
            (pages / f"{source_id}{suffix}").write_text(text, encoding="utf-8")
            (truth / f"{source_id}.json").write_text(spec.to_json() + "\n", encoding="utf-8")
            manifest.append({"source_id": source_id, "origin": f"pages/{source_id}{suffix}"})
            corpus.ops.extend(_ops(source_id, spec))
    corpus.manifest.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    _expect_recovery(corpus.ops)
    return corpus


def _ops(source_id: str, spec) -> list:
    ops = []
    for ep in spec.endpoints:
        args = [(p.name, True, p.preferred_value) for p in ep.required_parameters]
        args += [(p.name, False, p.preferred_value) for p in ep.optional_parameters]
        op = Op(source_id, urlsplit(ep.url).path, ep.method, args, label="")
        op.target = bool(op.missing)
        op.label = NO_PARAM_VALUE if op.target else ROUTE_LABEL[op.path]
        ops.append(op)
    return ops


def _expect_recovery(ops: list) -> None:
    """A target is recoverable when its route can pass and, for each missing
    key, a passing endpoint documents or returns a value the route accepts."""
    known: dict = {}  # key -> values a passing call documented or returned
    for op in ops:
        if op.label != PASSED:
            continue
        for name, _, value in op.args:
            if value is not None:
                known.setdefault(name, set()).add(value)
        for name, value in RESPONSE_VALUES.get(op.path, {}).items():
            known.setdefault(name, set()).add(value)
    for op in ops:
        if not op.target or ROUTE_LABEL[op.path] != PASSED:
            continue
        gate = GATED.get(op.path, {})
        op.recoverable = all(
            known.get(name) and (name not in gate or gate[name] in known[name])
            for name in op.missing
        )


# -- HTML pages -----------------------------------------------------------------

_NAV = ["Home", "Guides", "Quickstart", "Authentication", "Pagination", "Errors",
        "Rate limits", "Changelog", "SDKs", "Webhooks", "Status", "Support",
        "Community", "Blog", "Pricing", "Terms of service", "Privacy", "Careers"]
_CSS_RULE = (".{cls} {{ margin: 0 auto; padding: {n}px {m}px; color: #{c:06x}; "
             "font-family: -apple-system, 'Segoe UI', sans-serif; line-height: 1.{n}; }}\n")
_JS_LINE = ("  window.__docs.push({{id: {n}, key: '{cls}', ts: {m}, "
            "handler: function (e) {{ return e && e.target && e.target.dataset['{cls}']; }}}});\n")


def _boilerplate_css(rng: random.Random, n: int) -> str:
    return "".join(_CSS_RULE.format(cls=f"c{rng.randrange(10**6)}", n=rng.randrange(10),
                                    m=rng.randrange(40), c=rng.randrange(1 << 24))
                   for _ in range(n))


def _boilerplate_js(rng: random.Random, n: int) -> str:
    body = "".join(_JS_LINE.format(n=i, cls=f"k{rng.randrange(10**6)}", m=rng.randrange(10**9))
                   for i in range(n))
    return "window.__docs = window.__docs || [];\n" + body


def _nav_block(rng: random.Random) -> str:
    items = []
    for section in rng.sample(_NAV, len(_NAV)):
        slug = section.lower().replace(" ", "-")
        sub = "".join(
            f'<li class="nav-sub"><a href="/docs/{slug}/{k}">{html.escape(section)} part {k}</a></li>'
            for k in range(1, 6)
        )
        items.append(f'<li class="nav-item"><a href="/docs/{slug}">{html.escape(section)}</a>'
                     f'<ul>{sub}</ul></li>')
    return '<nav class="site-nav"><ul>' + "".join(items) + "</ul></nav>"


def _content_block(doc_text: str) -> str:
    """render_doc's lines as semantic HTML whose cleaned text is those lines."""
    out = []
    in_list = False
    for n, line in enumerate(doc_text.strip().split("\n")):
        if line.startswith("- "):
            if not in_list:
                out.append("<ul class=\"params\">")
                in_list = True
            out.append(f"<li>{html.escape(line)}</li>")
            continue
        if in_list:
            out.append("</ul>")
            in_list = False
        if not line:
            continue
        text = html.escape(line)
        if n == 0:
            out.append(f"<h1>{text}</h1>")
        elif line.startswith("## "):
            anchor = html.escape(line[3:].lower().replace(" ", "-"), quote=True)
            out.append(f'<h2 id="{anchor}"><a class="headerlink" href="#{anchor}">##</a> '
                       f"{html.escape(line[3:])}</h2>")
        elif line.endswith("parameters:"):
            out.append(f"<h4>{text}</h4>")
        elif line.split(" ", 1)[0] in ("GET", "POST", "PUT", "PATCH", "DELETE"):
            verb, url = line.split(" ", 1)
            out.append(f'<p class="endpoint"><code>{verb} <a href="{html.escape(url, quote=True)}">'
                       f"{html.escape(url)}</a></code></p>")
        else:
            out.append(f"<p>{text}</p>")
    if in_list:
        out.append("</ul>")
    return "\n".join(out)


def render_html(doc_text: str, rng: random.Random) -> str:
    """A ~20 KB documentation page: the spec wrapped in site boilerplate."""
    title = html.escape(doc_text.split("\n", 1)[0])
    footer_links = "".join(
        f'<li><a href="/legal/{k}">{html.escape(name)}</a></li>'
        for k, name in enumerate(rng.sample(_NAV, 8))
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{title} - DevPortal</title>\n"
        f"<style>\n{_boilerplate_css(rng, 34)}</style>\n"
        f"<script>\n{_boilerplate_js(rng, 22)}</script>\n"
        "</head>\n<body>\n"
        f"<header class=\"top\"><a href=\"/\">DevPortal</a></header>\n{_nav_block(rng)}\n"
        f"<main class=\"doc\">\n{_content_block(doc_text)}\n</main>\n"
        "<footer><p>Was this page helpful? Send us feedback.</p>"
        f"<ul class=\"footer-links\">{footer_links}</ul>"
        "<p>Status: <a href=\"https://status.devportal.example\">all systems normal</a></p>"
        "<p>Copyright 2025 DevPortal. All rights reserved.</p></footer>\n"
        f"<script>\n{_boilerplate_js(rng, 14)}</script>\n"
        "</body>\n</html>\n"
    )
