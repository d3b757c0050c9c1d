"""Correctness checks on a worker's outputs.

Each check compares the program's outputs with a computation from
``reference`` or with a property the method must have; none compares with
saved output.  Rate checks use ``reference.rate_at_least``, a one-sided
binomial cut that fails correct code with probability at most
``reference.FALSE_FAILURE_RATE``.  Each function returns the list of checks
that failed.
"""

from __future__ import annotations

import reference as ref

N = 10**6
EPS = 0.5  # of the biased, overlapping (orthogonality) and classical instances


def estdist(records, post) -> list[str]:
    bad = []
    classical, quantum = ref.estdist_ledger(N)
    half = [ref.pair_distance("identical") / 2, ref.pair_distance("overlapping", 1.0) / 2]
    estimates = [(r[3], r[4]) for r in records]
    if not all(0.0 <= e <= 1.0 for _, e in estimates):
        bad.append("estdist: an estimate lies outside [0, 1]")
    close = sum(abs(e - half[pair]) < 0.1 for pair, e in estimates)
    if not ref.rate_at_least(close, len(estimates), 0.9):
        bad.append(f"estdist: |estimate - d/2| < 0.1 in only {close} of {len(estimates)} calls")
    wrong = [r[0] for r in records if (r[1], r[2]) != (classical, quantum)]
    if wrong:
        bad.append(f"estdist: ledger is not ({classical}, {quantum}) in ops {wrong[:5]}")
    law = ref.outcome_law(2 / N, post["m"])
    pvalue = ref.chi_square_pvalue(dict(post["outcomes"]), law)
    if pvalue < ref.FALSE_FAILURE_RATE:
        bad.append(f"estdist: single-draw outcomes do not fit the outcome law (p={pvalue:.3g})")
    return bad


def uniformity(records, post) -> list[str]:
    bad = []
    m_u, k_u = ref.uniformity_m_k(N, EPS)
    m_o, k_o = ref.orthogonality_m_k(N, EPS)
    rounds_o = 8
    accepts = sum(r[3][0] == "accept" for r in records)
    rejects = sum(r[4][0] == "reject" for r in records)
    if not ref.rate_at_least(accepts, len(records), 2 / 3):
        bad.append(f"uniformity: uniform instance accepted in only {accepts} of {len(records)}")
    if not ref.rate_at_least(rejects, len(records), 2 / 3):
        bad.append(f"uniformity: biased instance rejected in only {rejects} of {len(records)}")
    if any(r[5][0] != "accept" for r in records):
        bad.append("uniformity: the disjoint pair was rejected")
    overlap = sum(r[6][0] == "reject" for r in records)
    if not ref.rate_at_least(overlap, len(records), 1 - 0.8**rounds_o):
        bad.append(f"uniformity: overlapping pair rejected in only {overlap} of {len(records)}")
    for r in records:
        for decision, rounds, collisions, classical, quantum in r[3:5]:
            # Practical mode runs one round; a collision round makes no quantum queries.
            if rounds != 1 or (classical, quantum) != (m_u, k_u * (rounds - collisions)):
                bad.append(f"uniformity: op {r[0]} ledger ({classical}, {quantum}) after "
                           f"{rounds} round(s), {collisions} collision(s); M={m_u}, K={k_u}")
        for decision, rounds, cp, qp, cq, qq in r[5:7]:
            # Rounds stop at the first rejection.
            full = rounds == rounds_o if decision == "accept" else 1 <= rounds <= rounds_o
            if not full or (cp, qp, cq, qq) != (rounds * m_o, 0, 0, rounds * k_o):
                bad.append(f"orthogonality: op {r[0]} ({decision}, {rounds} rounds) ledger "
                           f"{(cp, qp, cq, qq)}; M=K={m_o}")
    return bad[:10]


def classical(records, post) -> list[str]:
    bad = []
    m_c, m_p = post["m_collision"], post["m_pair"]
    accepts = sum(r[3] == "accept" for r in records)
    rejects = sum(r[4] == "reject" for r in records)
    if not ref.rate_at_least(accepts, len(records), 2 / 3):
        bad.append(f"classical: uniform instance accepted in only {accepts} of {len(records)}")
    if not ref.rate_at_least(rejects, len(records), 2 / 3):
        bad.append(f"classical: biased instance rejected in only {rejects} of {len(records)}")
    # The plug-in estimate of a disjoint pair is exactly 1; the summation in
    # floating point may miss it by a few units in the last place.
    off = [r[5] for r in records if abs(r[5] - ref.pair_distance("disjoint") / 2) > 1e-12]
    if off:
        bad.append(f"classical: plug-in estimate on the disjoint pair {off[:3]}, not 1.0")
    if any(r[6] != "accept" for r in records):
        bad.append("classical: the cross-collision finder rejected the disjoint pair")
    if any(r[7] != [m_c, m_c, m_p, m_p, m_p, m_p] for r in records):
        bad.append("classical: a ledger differs from the sample rule")
    return bad


def sweep(records, post) -> list[str]:
    bad = []
    pooled = {"uniform": [0, 0], "biased": [0, 0]}  # [right decisions, trials]
    trials = post["trials"]
    for r in records:
        for n, instance, k, code, text in r[3]:
            where = f"sweep: op {r[0]} n={n} {instance}"
            if code != 0:
                bad.append(f"{where}: exit code {code}")
                continue
            lines = text.splitlines()
            head = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
            rows = [line.split(",") for line in lines[2:]]
            if (lines[0].split()[1], head.get("schema"), head.get("k")) != ("qdisttest-csv", "1", str(k)):
                bad.append(f"{where}: header {lines[0]!r} lacks schema=1 or k={k}")
            if [int(row[0]) for row in rows] != list(range(trials)):
                bad.append(f"{where}: {len(rows)} rows, expected one per trial ({trials})")
            right = "accept" if instance == "uniform" else "reject"
            pooled[instance][0] += sum(row[1] == right for row in rows)
            pooled[instance][1] += len(rows)
    for instance, (right, total) in pooled.items():
        if not ref.rate_at_least(right, total, 2 / 3):
            bad.append(f"sweep: {instance} instance decided right in only {right} of {total}")
    again = post["again"]
    first = next(r for r in records if r[0] == again["op"])
    if again["code"] != 0 or again["text"] != first[3][-1][4]:
        bad.append(f"sweep: running {again['argv']} again did not give the same file")
    return bad[:10]


CHECKS = {"estdist": estdist, "uniformity": uniformity, "classical": classical, "sweep": sweep}

