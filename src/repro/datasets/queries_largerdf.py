"""The LargeRDFBench-style query workload: 14 simple (S), 10 complex (C),
8 big-data (B) queries over :mod:`repro.datasets.largerdf`.

Categories follow LargeRDFBench:

* **S** — few triple patterns, selective, 2-3 endpoints (subsumes the
  FedBench-style workload);
* **C** — more triple patterns plus advanced clauses (FILTER, OPTIONAL,
  UNION, DISTINCT, LIMIT), moderate-to-large intermediate results;
* **B** — queries over the LinkedTCGA endpoints producing large
  intermediate and final results.

**C5, B5 and B6 join two disjoint subgraphs through a FILTER
variable.**  The paper leaves them out of its figures, and so does
:func:`paper_selection`; :func:`all_queries` includes them.  Lusail
answers them correctly, evaluating the cross-subgraph equality as a
value-keyed join at the mediator.
"""

from __future__ import annotations

from repro.datasets.largerdf import LARGERDF_PREFIXES

_P = LARGERDF_PREFIXES
_OWL = "PREFIX owl: <http://www.w3.org/2002/07/owl#>\n"
_RDFS = "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
_ALL = _P + _OWL + _RDFS

SIMPLE: dict[str, str] = {
    "S1": _ALL + """
SELECT ?drug ?name ?abstract WHERE {
  ?drug drugb:casNumber "CAS-2005" .
  ?drug drugb:name ?name .
  ?drug owl:sameAs ?dbp .
  ?dbp dbpo:abstract ?abstract .
}""",
    "S2": _ALL + """
SELECT ?topic ?label WHERE {
  ?topic a nyt:Topic .
  ?topic nyt:name "Topic 8" .
  ?topic owl:sameAs ?entity .
  ?entity rdfs:label ?label .
}""",
    "S3": _ALL + """
SELECT ?film ?director WHERE {
  ?film a mdb:Film .
  ?film owl:sameAs ?dbpFilm .
  ?dbpFilm dbpo:director ?director .
}""",
    "S4": _ALL + """
SELECT ?kegg ?mass WHERE {
  ?kegg a kegg:Compound .
  ?kegg owl:sameAs ?chebiC .
  ?chebiC chebi:mass ?mass .
  FILTER (?mass < 75)
}""",
    "S5": _ALL + """
SELECT ?drug ?keggName WHERE {
  ?drug drugb:indication "lung" .
  ?drug drugb:keggCompoundId ?compound .
  ?compound kegg:name ?keggName .
}""",
    "S6": _ALL + """
SELECT ?artist ?name ?place WHERE {
  ?artist a jam:Artist .
  ?artist jam:name ?name .
  ?artist jam:basedNear ?place .
  ?place geo:countryCode "DE" .
}""",
    "S7": _ALL + """
SELECT ?paper ?person ?orgLabel WHERE {
  ?paper swdf:author ?person .
  ?person swdf:affiliation ?org .
  ?org rdfs:label ?orgLabel .
}""",
    "S8": _ALL + """
SELECT ?drug ?chebiName WHERE {
  ?drug drugb:chebiIngredient ?compound .
  ?compound chebi:name ?chebiName .
  ?drug drugb:name ?drugName .
}""",
    "S9": _ALL + """
SELECT ?topic ?label WHERE {
  ?topic owl:sameAs ?film .
  ?film a dbpo:Film .
  ?film rdfs:label ?label .
}""",
    "S10": _ALL + """
SELECT ?place ?name ?pop WHERE {
  ?place a geo:Feature .
  ?place geo:name ?name .
  ?place geo:countryCode "US" .
  ?place geo:population ?pop .
  FILTER (?pop > 20000)
}""",
    "S11": _ALL + """
SELECT ?film ?label WHERE {
  ?film mdb:year 2005 .
  ?film owl:sameAs ?dbpFilm .
  ?dbpFilm rdfs:label ?label .
}""",
    "S12": _ALL + """
SELECT ?drug ?cas ?abstract WHERE {
  ?drug owl:sameAs ?dbp .
  ?drug drugb:casNumber ?cas .
  ?dbp dbpo:abstract ?abstract .
}""",
    "S13": _ALL + """
SELECT ?patient ?placeName WHERE {
  ?patient tcgaa:disease "lung" .
  ?patient tcgaa:location ?place .
  ?place geo:name ?placeName .
}""",
    "S14": _ALL + """
SELECT ?result ?patient ?level WHERE {
  ?result tcgae:patient ?patient .
  ?result tcgae:level ?level .
  ?patient tcgaa:gender "female" .
  FILTER (?level > 4000)
}""",
}

COMPLEX: dict[str, str] = {
    "C1": _ALL + """
SELECT ?drug ?chebiName ?abstract ?articles WHERE {
  ?drug drugb:indication "lung" .
  ?drug drugb:keggCompoundId ?keggC .
  ?keggC owl:sameAs ?chebiC .
  ?chebiC chebi:name ?chebiName .
  ?drug owl:sameAs ?dbpDrug .
  ?dbpDrug dbpo:abstract ?abstract .
  OPTIONAL {
    ?topic owl:sameAs ?dbpDrug .
    ?topic nyt:articleCount ?articles .
  }
}""",
    "C2": _ALL + """
SELECT ?methyl ?gene ?symbol ?expr WHERE {
  ?patient tcgaa:barcode "TCGA-0005" .
  ?methyl tcgam:patient ?patient .
  ?methyl tcgam:gene ?gene .
  ?gene affy:symbol ?symbol .
  ?expr tcgae:patient ?patient .
}""",
    "C3": _ALL + """
SELECT ?film ?directorName ?label ?articles WHERE {
  ?film a mdb:Film .
  ?film mdb:director ?director .
  ?director mdb:name ?directorName .
  ?film owl:sameAs ?dbpFilm .
  ?dbpFilm rdfs:label ?label .
  OPTIONAL {
    ?topic owl:sameAs ?dbpFilm .
    ?topic nyt:articleCount ?articles .
  }
}""",
    "C4": _ALL + """
SELECT ?methyl ?disease ?symbol WHERE {
  ?methyl tcgam:patient ?patient .
  ?patient tcgaa:disease ?disease .
  ?methyl tcgam:gene ?gene .
  ?gene affy:symbol ?symbol .
} LIMIT 50""",
    "C5": _ALL + """
SELECT ?chebiC ?keggC WHERE {
  ?chebiC chebi:mass ?m1 .
  ?keggC kegg:mass ?m2 .
  FILTER (?m1 = ?m2)
}""",
    "C6": _ALL + """
SELECT ?artist ?name ?title ?cc WHERE {
  ?artist a jam:Artist .
  ?artist jam:name ?name .
  ?artist jam:basedNear ?place .
  ?place geo:countryCode ?cc .
  ?place geo:population ?pop .
  ?record jam:madeBy ?artist .
  ?record jam:title ?title .
  FILTER (?pop > 30000)
}""",
    "C7": _ALL + """
SELECT DISTINCT ?patient ?age ?placeName WHERE {
  ?patient a tcgaa:Patient .
  ?patient tcgaa:gender "female" .
  ?patient tcgaa:age ?age .
  ?patient tcgaa:disease "breast" .
  ?patient tcgaa:location ?place .
  ?place geo:name ?placeName .
  ?place geo:countryCode "US" .
  FILTER (?age > 40)
}""",
    "C8": _ALL + """
SELECT ?drug ?name ?compoundName WHERE {
  ?drug drugb:name ?name .
  {
    ?drug drugb:keggCompoundId ?kc .
    ?kc kegg:name ?compoundName .
  } UNION {
    ?drug drugb:chebiIngredient ?cc .
    ?cc chebi:name ?compoundName .
  }
}""",
    "C9": _ALL + """
SELECT ?person ?personName ?orgLabel ?paper WHERE {
  ?person a swdf:Person .
  ?person swdf:name ?personName .
  ?person swdf:affiliation ?org .
  ?org rdfs:label ?orgLabel .
  ?paper swdf:author ?person .
  ?paper swdf:title ?title .
}""",
    "C10": _ALL + """
SELECT DISTINCT ?patient ?gene WHERE {
  ?expr tcgae:patient ?patient .
  ?methyl tcgam:patient ?patient .
  ?expr tcgae:gene ?gene .
  ?methyl tcgam:gene ?gene .
  ?gene affy:chromosome "7" .
}""",
}

BIG: dict[str, str] = {
    "B1": _ALL + """
SELECT ?result ?patient ?disease WHERE {
  {
    ?result tcgam:gene ?gene .
    ?result tcgam:patient ?patient .
  } UNION {
    ?result tcgae:gene ?gene .
    ?result tcgae:patient ?patient .
  }
  ?gene affy:chromosome "1" .
  ?patient tcgaa:disease ?disease .
}""",
    "B2": _ALL + """
SELECT ?expr ?patient ?level WHERE {
  ?expr tcgae:patient ?patient .
  ?expr tcgae:level ?level .
  ?patient tcgaa:gender "male" .
}""",
    "B3": _ALL + """
SELECT ?patient ?gene ?beta ?level WHERE {
  ?methyl tcgam:patient ?patient .
  ?methyl tcgam:gene ?gene .
  ?methyl tcgam:betaValue ?beta .
  ?expr tcgae:patient ?patient .
  ?expr tcgae:gene ?gene .
  ?expr tcgae:level ?level .
}""",
    "B4": _ALL + """
SELECT ?methyl ?patient ?placeName WHERE {
  ?methyl tcgam:patient ?patient .
  ?patient tcgaa:location ?place .
  ?place geo:name ?placeName .
}""",
    "B5": _ALL + """
SELECT ?methyl ?expr WHERE {
  ?methyl tcgam:betaValue ?beta .
  ?expr tcgae:level ?level .
  FILTER (?level = ?beta)
}""",
    "B6": _ALL + """
SELECT ?gene ?compound WHERE {
  ?gene affy:symbol ?symbol .
  ?compound chebi:name ?name .
  FILTER (?symbol = ?name)
}""",
    "B7": _ALL + """
SELECT ?gene ?symbol ?beta ?level WHERE {
  ?gene affy:symbol ?symbol .
  ?methyl tcgam:gene ?gene .
  ?methyl tcgam:betaValue ?beta .
  ?expr tcgae:gene ?gene .
  ?expr tcgae:level ?level .
}""",
    "B8": _ALL + """
SELECT ?patient ?beta ?level WHERE {
  ?patient tcgaa:disease "lung" .
  ?patient tcgaa:gender "female" .
  ?methyl tcgam:patient ?patient .
  ?methyl tcgam:betaValue ?beta .
  ?expr tcgae:patient ?patient .
  ?expr tcgae:level ?level .
}""",
}

#: Queries the paper excludes (disjoint subgraphs joined by a FILTER).
EXCLUDED = ("C5", "B5", "B6")


def all_queries() -> dict[str, str]:
    merged: dict[str, str] = {}
    merged.update(SIMPLE)
    merged.update(COMPLEX)
    merged.update(BIG)
    return merged


def paper_selection() -> dict[str, str]:
    """The 29 queries the paper evaluates (C5/B5/B6 excluded)."""
    return {name: text for name, text in all_queries().items() if name not in EXCLUDED}


def category(name: str) -> str:
    if name in SIMPLE:
        return "S"
    if name in COMPLEX:
        return "C"
    if name in BIG:
        return "B"
    raise KeyError(name)


def by_category(cat: str) -> dict[str, str]:
    source = {"S": SIMPLE, "C": COMPLEX, "B": BIG}[cat]
    return {name: text for name, text in source.items() if name not in EXCLUDED}
