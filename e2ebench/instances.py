"""Seeded inputs of the ``serve-rw`` workload: query instances, the
Zipf arrival stream, and the write batches.

Query instances are LUBM templates with constants bound to entities of
the generated universities (university / department / professor /
course / student).  Constants are derived from the generator's naming
scheme and profile, never read back from the stores, so the program
only ever receives query texts.

Write batches touch one endpoint each.  Batch ``k`` is applied by write
``2k`` and undone by write ``2k + 1``; every data state is therefore
either the generated base state or "base plus batch ``k``", and writes
net to zero over any even number of writes.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from repro.datasets import lubm
from repro.rdf.namespaces import RDF_TYPE, UB
from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple

UNIVERSITIES = 4
PROFILE = lubm.scaled_profile(1.0)
#: Distinct query instances in the read pool.
POOL_SIZE = 800
ZIPF_S = 1.0
#: Mean virtual gap between arrivals (Poisson arrivals).  Picked from a
#: sweep of gaps (see README.md): below saturation, so the p99 measures
#: service plus bounded queueing rather than a growing backlog.
MEAN_GAP_MS = 4.0
#: Arrivals between two writes.
SEGMENT = 100
#: Segments in one round.  A run replays the same round of segments, so
#: each segment's wall time is measured several times (even, so that the
#: writes of a round net to zero).
ROUND = 20
TENANTS = 4

_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"


def _dept(u: int, d: int) -> str:
    return f"http://www.university{u}.example.org/department{d}"


def _prof(u: int, d: int, p: int) -> str:
    return f"{_dept(u, d)}/professor{p}"


def _course(u: int, d: int, p: int, c: int) -> str:
    return f"{_dept(u, d)}/course{p}_{c}"


def _grad(u: int, d: int, s: int) -> str:
    return f"{_dept(u, d)}/gradstudent{s}"


#: template name -> text builder over one binding tuple.
TEMPLATES = {
    "prof_courses": lambda u, d, p: _PREFIX + f"""
SELECT ?c ?n WHERE {{
  <{_prof(u, d, p)}> ub:teacherOf ?c .
  ?c ub:name ?n .
}}""",
    "advisees": lambda u, d, p: _PREFIX + f"""
SELECT ?x ?n WHERE {{
  ?x ub:advisor <{_prof(u, d, p)}> .
  ?x ub:name ?n .
}}""",
    "prof_alma_mater": lambda u, d, p: _PREFIX + f"""
SELECT ?v ?n WHERE {{
  <{_prof(u, d, p)}> ub:doctoralDegreeFrom ?v .
  ?v ub:name ?n .
}}""",
    "course_grads": lambda u, d, p, c: _PREFIX + f"""
SELECT ?x WHERE {{
  ?x ub:takesCourse <{_course(u, d, p, c)}> .
  ?x a ub:GraduateStudent .
}}""",
    "dept_grads": lambda u, d: _PREFIX + f"""
SELECT ?x ?n WHERE {{
  ?x ub:memberOf <{_dept(u, d)}> .
  ?x a ub:GraduateStudent .
  ?x ub:name ?n .
}}""",
    "dept_faculty": lambda u, d: _PREFIX + f"""
SELECT ?x ?e WHERE {{
  ?x ub:worksFor <{_dept(u, d)}> .
  ?x ub:emailAddress ?e .
}}""",
    "student_courses": lambda u, d, s: _PREFIX + f"""
SELECT ?p ?c WHERE {{
  <{_grad(u, d, s)}> ub:advisor ?p .
  ?p ub:teacherOf ?c .
  <{_grad(u, d, s)}> ub:takesCourse ?c .
}}""",
    "univ_alumni": lambda u: _PREFIX + f"""
SELECT ?x ?d WHERE {{
  ?x ub:doctoralDegreeFrom <{lubm.university_iri(u).value}> .
  ?x ub:worksFor ?d .
}}""",
}


def _bindings(template: str) -> list[tuple]:
    profile = PROFILE
    us = range(UNIVERSITIES)
    ds = range(profile.departments)
    ps = range(profile.professors_per_department)
    if template in ("prof_courses", "advisees", "prof_alma_mater"):
        return [(u, d, p) for u in us for d in ds for p in ps]
    if template == "course_grads":
        cs = range(profile.courses_per_professor)
        return [(u, d, p, c) for u in us for d in ds for p in ps for c in cs]
    if template in ("dept_grads", "dept_faculty"):
        return [(u, d) for u in us for d in ds]
    if template == "student_courses":
        ss = range(profile.graduate_students_per_department)
        return [(u, d, s) for u in us for d in ds for s in ss]
    if template == "univ_alumni":
        return [(u,) for u in us]
    raise KeyError(template)


@dataclass(frozen=True)
class Instance:
    template: str
    text: str


def query_pool(seed: int) -> list[Instance]:
    """``POOL_SIZE`` distinct instances, in Zipf rank order.

    Ranks go round robin over the templates, and the seed shuffles each
    template's bindings.  So every seed draws the same mix of query
    shapes at every rank (the hot set is never, say, all department
    scans), and only the bound constants change with the seed.
    """
    rng = random.Random(f"serve-rw-pool:{seed}")
    queues = {}
    for template in TEMPLATES:
        bindings = _bindings(template)
        rng.shuffle(bindings)
        queues[template] = bindings
    pool: list[Instance] = []
    while len(pool) < POOL_SIZE:
        for template, bindings in queues.items():
            if bindings and len(pool) < POOL_SIZE:
                pool.append(Instance(template, TEMPLATES[template](*bindings.pop())))
    return pool


@dataclass(frozen=True)
class Arrival:
    at_ms: float
    tenant: str
    instance: Instance


class ArrivalStream:
    """Endless seeded open-loop stream: Poisson arrivals, Zipf ranks."""

    def __init__(self, pool: list[Instance], seed: int):
        self.pool = pool
        self._rng = random.Random(f"serve-rw-arrivals:{seed}")
        self._weights = list(
            accumulate(1.0 / rank**ZIPF_S for rank in range(1, len(pool) + 1))
        )
        self.now = 0.0

    def take(self, count: int) -> list[Arrival]:
        rng = self._rng
        mean_gap_ms = MEAN_GAP_MS
        total = self._weights[-1]
        out = []
        for __ in range(count):
            self.now += rng.expovariate(1.0 / mean_gap_ms)
            instance = self.pool[bisect_left(self._weights, rng.random() * total)]
            out.append(Arrival(self.now, f"tenant{rng.randrange(TENANTS)}", instance))
        return out


def write_batch(seed: int, k: int) -> tuple[str, list[tuple[str, Triple]]]:
    """Batch ``k``: (endpoint name, [("add" | "remove", triple), ...]).

    On university ``k mod 4``: one new graduate student (advised by, and
    taking a new course of, an existing professor), and the removal of
    two existing advisor links and one department membership.  Every
    removed triple exists in the generated data by construction.
    """
    rng = random.Random(f"serve-rw-write:{seed}:{k}")
    profile = PROFILE
    u = k % UNIVERSITIES
    d = rng.randrange(profile.departments)
    p = rng.randrange(profile.professors_per_department)
    dept, prof = IRI(_dept(u, d)), IRI(_prof(u, d, p))
    student = IRI(f"{_dept(u, d)}/newstudent{k}")
    course = IRI(f"{_dept(u, d)}/newcourse{k}")
    ops: list[tuple[str, Triple]] = [
        ("add", Triple(student, RDF_TYPE, UB.GraduateStudent)),
        ("add", Triple(student, UB.name, Literal(f"NewStudent{k}"))),
        ("add", Triple(student, UB.memberOf, dept)),
        ("add", Triple(student, UB.advisor, prof)),
        ("add", Triple(course, RDF_TYPE, UB.GraduateCourse)),
        ("add", Triple(course, UB.name, Literal(f"NewCourse{k}"))),
        ("add", Triple(prof, UB.teacherOf, course)),
        ("add", Triple(student, UB.takesCourse, course)),
    ]
    grads = rng.sample(range(profile.graduate_students_per_department), 3)
    professors = profile.professors_per_department
    for s in grads[:2]:
        # Advisors are assigned round robin by the generator.
        advisor = IRI(_prof(u, d, s % professors))
        ops.append(("remove", Triple(IRI(_grad(u, d, s)), UB.advisor, advisor)))
    ops.append(("remove", Triple(IRI(_grad(u, d, grads[2])), UB.memberOf, dept)))
    return f"university{u}", ops


def undo(ops: list[tuple[str, Triple]]) -> list[tuple[str, Triple]]:
    """The operations that revert ``ops`` (inverse ops, reverse order)."""
    inverse = {"add": "remove", "remove": "add"}
    return [(inverse[op], triple) for op, triple in reversed(ops)]
