"""Independent brute-force reference implementations for tests.

Everything here is written from first principles in plain Python (no
shared code paths with the package) so that agreement is evidence, not
tautology.
"""

import json
import math
from fractions import Fraction


def oracle_softmax(logits, t=1.0):
    """Temperature softmax via explicit exp sums with max subtraction."""
    scaled = [x / t for x in logits]
    m = max(scaled)
    exps = [math.exp(x - m) for x in scaled]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_order(probs):
    """Classes sorted by descending probability, ties by ascending index."""
    return sorted(range(len(probs)), key=lambda j: (-probs[j], j))


def oracle_score(kind, probs, class_k, u, raps_lam=0.0, raps_kreg=1, saps_lam=0.0):
    """Score of one class, recomputed by explicit enumeration.

    Uses the textbook head-sum form (sum of the r-1 largest probs plus
    u times the prob at rank r), so its rounding profile is independent
    of the package's vectorized evaluation.
    """
    if kind == "lac":
        return 1.0 - probs[class_k]
    order = oracle_order(probs)
    rank = order.index(class_k) + 1
    if kind == "saps":
        p_max = probs[order[0]]
        if rank == 1:
            return u * p_max
        return p_max + (rank - 2 + u) * saps_lam
    head = 0.0
    for pos in range(rank - 1):
        head += probs[order[pos]]
    value = head + u * probs[order[rank - 1]]
    if kind == "raps":
        value += raps_lam * max(0, rank - raps_kreg)
    return value


def oracle_set(kind, probs, u, tau, raps_lam=0.0, raps_kreg=1, saps_lam=0.0):
    """Brute-force prediction set: every class scored independently."""
    members = []
    for k in range(len(probs)):
        s = oracle_score(kind, probs, k, u, raps_lam, raps_kreg, saps_lam)
        if s <= tau:
            members.append(k)
    return members


def oracle_quantile(scores, alpha):
    """Sort-and-scan threshold; returns None for the include-all regime."""
    n = len(scores)
    level = math.ceil((n + 1) * (1 - Fraction(alpha)))
    if level > n:
        return None
    ordered = sorted(scores)
    for s in ordered:
        count = 0
        for x in scores:
            if x <= s:
                count += 1
        if Fraction(count, n) >= Fraction(level, n):
            return s
    return ordered[-1]


def oracle_aps_cumulative(probs, class_k):
    """Non-randomized cumulative score (u = 1)."""
    return oracle_score("aps", probs, class_k, u=1.0)


def oracle_load_sets(path, k):
    """Line-by-line sets-file reader: one ``json.loads`` and every check per line.

    Returns the rows as lists of member classes, or raises ValueError with
    the message the package gives for the first bad line (lines counted
    from 0, blank lines skipped as rows but counted as lines).
    """
    sets = []
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh):
            where = f"prediction-sets line {lineno}"
            if not line.isascii():
                raise ValueError(f"{where}: non-ASCII byte")
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict) or "index" not in obj or "set" not in obj:
                raise ValueError(f"{where}: missing 'index' or 'set'")
            if set(obj) != {"index", "set"}:
                raise ValueError(f"{where}: unknown keys {sorted(set(obj) - {'index', 'set'})}")
            index, members = obj["index"], obj["set"]
            if type(index) is not int or index != len(sets):
                raise ValueError(f"{where}: index {index!r} is not the row position {len(sets)}")
            if not (isinstance(members, list) and all(type(m) is int for m in members)):
                raise ValueError(f"{where}: 'set' must be a list of integers")
            keys = json.loads(line, object_pairs_hook=lambda pairs: [key for key, _ in pairs])
            if len(keys) != len(set(keys)):
                raise ValueError(f"{where}: repeated key")
            if any(m < 0 or m >= k for m in members):
                raise ValueError(f"{where}: member outside [0, {k})")
            if len(set(members)) != len(members):
                raise ValueError(f"{where}: duplicated member")
            sets.append(members)
    return sets
