"""Ping-pong tuples and an independent exact freeness oracle.

A tuple is certified from three ingredient checks: the per-player and
cross-player disjointness of the declared attracting/repelling sets, and
mapping evidence for each player (a proximality certificate on the
projective backend, a hyperbolicity witness on the tree backend).  The
disjointness pairs are `scalar.tuple_pairs`, which `certify_tuple` walks,
reporting a pass flag per pair walked.  Each backend answers for
itself: its sets decide their disjointness and its evidence checks its
own mapping conditions, so this module names no backend type.  The
complement of a repelling set is never enumerated: evidence sets are
compared against declared sets through certified containments only.

The oracle is deliberately independent: it finds the shortlex-least
nonempty reduced word in the players and their inverses (inverses
ordered after positives) that multiplies out exactly to the identity, so
a certified tuple can be cross-examined without trusting any geometry.
It meets in the middle: each word of length L is split into halves of
lengths ceil(L/2) and floor(L/2), which are matched through a hashable
key of their values, so it multiplies out and stores about (2k - 1)^(L/2)
words for k players instead of (2k - 1)^L.
"""

from __future__ import annotations

from .projective import set_disjoint
from .scalar import PAIR_LABELS, Record, tuple_pairs, word_string


class PingPongPlayer(Record):
    """An element with declared attracting/repelling sets and evidence.

    The mapping conditions g(X - R+) in A+ and g^-1(X - R-) in A- are
    established by the evidence object's `check_mapping(player)`, never
    pointwise.  The element's `place` is that of its matrix, or None for
    a tree automorphism.
    """

    __slots__ = ("name", "element", "a_plus", "r_plus", "a_minus", "r_minus", "evidence")

    def sets(self):
        """(label, set) of A+, R+, A- and R-, labelled by `PAIR_LABELS`."""
        return tuple(zip(PAIR_LABELS, (self.a_plus, self.r_plus, self.a_minus, self.r_minus)))


class PingPongTuple(Record):
    """The players, the verdict ("certified", "refuted" or "unknown"), a
    refutation's witness point or None, why, and whether each pair of
    `tuple_pairs` walked was shown disjoint, in its order."""

    __slots__ = ("players", "verdict", "witness", "witness_detail", "passed")


def certify_tuple(players: list[PingPongPlayer]) -> PingPongTuple:
    """Certify the general four-set ping-pong conditions.

    (a) the pairs of `scalar.tuple_pairs` are disjoint, walked in order
        up to the first that overlaps, which refutes the tuple; (b) mapping
        evidence is present and its sets are certified inside the declared
        ones.  Certified tuples freely generate.
    """
    if not players:
        raise ValueError("at least one player required")
    if len({(type(p.a_plus), p.element.place) for p in players}) != 1:
        raise ValueError("players use mismatched action backends")
    place = players[0].element.place  # None on the tree
    passed: list[bool] = []
    unknown: str | None = None
    for a, b, left, right in tuple_pairs([(p.name, [s for _, s in p.sets()]) for p in players]):
        verdict = a.disjoint_from(b) if place is None else set_disjoint(a, b, place)
        passed.append(verdict.kind == "disjoint")
        if verdict.kind == "overlap":
            return PingPongTuple(tuple(players), "refuted", verdict.witness, f"{left} meets {right}", tuple(passed))
        if verdict.kind == "unknown":
            unknown = f"{left} vs {right}"
    for p in players:
        ok, why = (False, f"{p.name}: no usable mapping evidence") if p.evidence is None else p.evidence.check_mapping(p)
        if not ok:
            return PingPongTuple(tuple(players), "unknown", None, why, tuple(passed))
    if unknown is not None:
        return PingPongTuple(tuple(players), "unknown", None, unknown, tuple(passed))
    return PingPongTuple(tuple(players), "certified", None, "", tuple(passed))


def simple_player(name: str, element, attract, repel, evidence) -> PingPongPlayer:
    """The two-set convention R- = A+ and R+ = A-: attract plays A+, repel plays A-.

    certify_tuple takes such players as they are; its conditions reduce to
    pairwise disjointness of all attracting and repelling sets plus the
    usual mapping evidence.
    """
    return PingPongPlayer(name, element, attract, repel, repel, attract, evidence)


# ---------------------------------------------------------------------------
# Freeness oracle
# ---------------------------------------------------------------------------


class OracleResult(Record):
    """kind is "no-relation" or "relation"; a relation's word spells it
    in the oracle's names."""

    __slots__ = ("kind", "word")
    _defaults = {"word": None}


#: Most words the oracle may store: one half level of (2k)(2k - 1)^(h - 1)
#: reduced words of length h = max_len // 2 for k elements, each with its
#: value and key.  Three elements at length 8 store 750; at length 12
#: they store 18,750, which peak at about 34 MB for 2 x 2 matrices.  Past
#: the limit a search would not fail but exhaust memory.
MAX_ORACLE_WORDS = 20_000


def oracle_words(k: int, max_len: int) -> int:
    """Reduced words of length max_len // 2 in k elements and their
    inverses: what `freeness_oracle` stores at its longest length."""
    half = max_len // 2
    return 2 * k * (2 * k - 1) ** (half - 1) if half else 1


def _extend(level: list, values: list, inverse: list[int], kept: list | None):
    """The reduced words one letter longer than those of `level`, in
    shortlex order, each one product from its parent, as (letters, value,
    key); each is also appended to `kept` unless that is None."""
    for word, value, _ in level:
        for s, letter in enumerate(values):
            if word and s == inverse[word[-1]]:
                continue  # not freely reduced
            nxt = letter if value is None else value @ letter
            item = (word + (s,), nxt, nxt.class_key())
            if kept is not None:
                kept.append(item)
            yield item


def freeness_oracle(elements: list, max_len: int, names: list[str]) -> OracleResult:
    """The shortlex-least nonempty reduced word of length <= max_len that
    multiplies out to the identity, spelled in `names`, one per element,
    or no-relation.

    Elements must support @ (composition), inverse(), is_identity() and
    class_key(), a hashable key equal exactly for equal group elements;
    both exact backends (matrices up to scalar, amalgam normal forms) do.
    Shortlex order is by length, then letter by letter with positives
    before inverses.

    Meet in the middle: a reduced word of length L is u v^-1 with
    |u| = ceil(L/2) and |v| = floor(L/2), and it is a relation exactly
    when u and v are the same element and their last letters differ (so
    nothing cancels at the junction).  The words of length floor(L/2) are
    indexed by key, and u walks its length in shortlex order; the first u
    with a match, joined to the least matching suffix v^-1, is the
    shortlex-least relation.  At most `oracle_words(k, max_len)` words are
    stored, which must not exceed MAX_ORACLE_WORDS.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    k = len(elements)
    if k == 0:
        raise ValueError("no elements given")
    if oracle_words(k, max_len) > MAX_ORACLE_WORDS:
        raise ValueError(f"{k} elements at length {max_len} exceed MAX_ORACLE_WORDS = {MAX_ORACLE_WORDS}")
    letters = [(i, 1) for i in range(k)] + [(i, -1) for i in range(k)]
    values = [elements[i] if e > 0 else elements[i].inverse() for i, e in letters]
    inverse = [(s + k) % (2 * k) for s in range(2 * k)]

    def relation(word) -> OracleResult:
        return OracleResult("relation", word_string((letters[s] for s in word), names))

    levels = [[((), None, None)]]  # levels[m]: the reduced words of length m
    index: dict = {}  # key of v -> [(letters of v^-1, last letter of v)], least first
    for length in range(1, max_len + 1):
        half, top = length // 2, (length + 1) // 2
        if length % 2 == 0:  # a new half length
            index = {}
            for v, _, key in levels[half]:
                index.setdefault(key, []).append((tuple(inverse[s] for s in reversed(v)), v[-1]))
            for suffixes in index.values():
                suffixes.sort()
        if top < len(levels):
            walked = levels[top]
        else:  # kept for the next length, which indexes it
            levels.append([] if length < max_len else None)
            walked = _extend(levels[top - 1], values, inverse, levels[top])
        for u, value, key in walked:
            if not half:
                if value.is_identity():
                    return relation(u)
                continue
            suffix = next((s for s, last in index.get(key, ()) if last != u[-1]), None)
            if suffix is not None:
                return relation(u + suffix)
    return OracleResult("no-relation")
