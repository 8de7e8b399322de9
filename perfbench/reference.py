"""Reference answers the benchmark checks the program against.

Nothing here imports ``tieknot``.  The counts are the paper's tables and
closed forms; the per-knot answers (region text, orientations, names,
aesthetics, validity verdicts) are recomputed from the paper's
definitions by small, independent implementations.  The stream digests
are the one exception: they were recorded from the seed commit's output,
because the record stream must stay byte-identical.
"""

from __future__ import annotations

# Arbitrary-depth knots by winding count, 2..12 windings (total 266,682).
FULL_BY_WINDINGS = {
    2: 2, 3: 4, 4: 20, 5: 40, 6: 192, 7: 384, 8: 1896, 9: 3792,
    10: 19320, 11: 38640, 12: 202392,
}
assert sum(FULL_BY_WINDINGS.values()) == 266682

# Counting series as ``tieknot series <name> <order>`` prints them:
# coefficients of z^0..z^order.  Single-tuck and per-region values are
# the paper's census columns (3..13 moves, total 24,882); the classical
# and winding-pattern series are the expansions of the printed closed
# forms z^3/((1+z)(1-2z)) and 2z^4/((1-2z)(1+z)); the full series is
# the table above.
SERIES = {
    "fm": (0, 0, 0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683),
    "single": (0, 0, 0, 2, 4, 12, 24, 72, 144, 432, 864, 2592, 5184, 15552),
    "r-final": (0, 0, 0, 1, 1, 4, 8, 24, 48, 144, 288, 864, 1728, 5184),
    "l-final": (0, 0, 0, 0, 2, 4, 8, 24, 48, 144, 288, 864, 1728, 5184),
    "c-final": (0, 0, 0, 1, 1, 4, 8, 24, 48, 144, 288, 864, 1728, 5184),
    "windings-r": (0, 0, 0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683),
    "windings-l": (0, 0, 0, 0, 2, 2, 6, 10, 22, 42, 86, 170, 342, 682),
    "windings-c": (0, 0, 0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683),
    "full": (0, 0) + tuple(FULL_BY_WINDINGS.values()),
}
assert sum(SERIES["single"]) == 24882
assert sum(SERIES["fm"][:10]) == 85

# Closed forms (numerator, denominator) that fit_recurrence must recover:
# right-final z^3(1+z-2z^2+2z^3)/(1-6z^2) as printed, and left-final
# 2z^4(1+2z-2z^2)/(1-6z^2), the printed form with its sign corrected.
CLOSED_FORMS = {
    "r-final": ((0, 0, 0, 1, 1, -2, 2), (1, 0, -6)),
    "l-final": ((0, 0, 0, 0, 2, 4, -4), (1, 0, -6)),
}

# Members one ``crosscheck --max-windings A --full-windings B`` compares:
# classical knots to min(A, 9) moves, single-tuck knots to A moves (once
# whole, once split by final region) and arbitrary-depth knots to B
# windings.
def crosscheck_members(max_moves: int, full_windings: int) -> int:
    classical = sum(SERIES["fm"][: min(max_moves, 9) + 1])
    single = sum(SERIES["single"][: max_moves + 1])
    full = sum(FULL_BY_WINDINGS[n] for n in range(2, full_windings + 1))
    return classical + 2 * single + full


# Named knots and what the paper says about their names.
TRINITY = "TWWWTTTUTTU"
TRINITY_NAME = "L-123.2"
ELDREDGE = "TTTWWTTUTTWWU"
ELDREDGE_BITS_SUFFIX = ".4"

# The record schema of ``enumerate --format jsonl`` (version 1).
RECORD_KEYS = (
    "tw", "clr", "start", "windings", "moves", "tucks",
    "final_region", "symmetry", "balance", "name", "tuck_bits",
)

# sha256 of the whole ``enumerate --class full --format jsonl`` stream and
# of each winding bucket's lines, recorded from the seed commit, by the
# ``--max-windings`` value used.
STREAM_DIGESTS = {
    6: {
        "stream": "cf9b35a63d26bdf74f6bab3e28ba46648531b51def994ee84f834fe942767199",
        "buckets": {
            "2": "09078fb5f1807e7a3491118f20463751c6452940b43d6bc6905f85ab348257c3",
            "3": "10949a26dfe1a011de8b7da0dcd1c980268aa039d76efa9b03a4b9696bf2ef5f",
            "4": "8fe60b72c943cbbccc25a36504ca8dc04adc6083fc3def4de362aaed53befcb2",
            "5": "5f75217af52e60b01dd2ec653d3f111d5a943e5f8430f531e9ed92eaa3be9fef",
        },
    },
    11: {
        "stream": "9a31d1550c26f63945ece2a2f673e84fe47c8b4bc034e83c5ebe27fad55e86d3",
        "buckets": {
            "2": "09078fb5f1807e7a3491118f20463751c6452940b43d6bc6905f85ab348257c3",
            "3": "10949a26dfe1a011de8b7da0dcd1c980268aa039d76efa9b03a4b9696bf2ef5f",
            "4": "8fe60b72c943cbbccc25a36504ca8dc04adc6083fc3def4de362aaed53befcb2",
            "5": "5f75217af52e60b01dd2ec653d3f111d5a943e5f8430f531e9ed92eaa3be9fef",
            "6": "026ce6735e58904a59cba9a83c6d3f21f92109b133c3580944bc132e9fde7b8d",
            "7": "eff176baf2fb4f0ab2ffd8c6e535b7bbee6638e4a7635e12e30790b9b57a5c86",
            "8": "86853568e82c0e4bacc87a595bfbb1281e7ac97b5a2bb6f8adc376291163efcd",
            "9": "04653e0925366e464410bed3d68ef12af2251e90879be093db69c6382fe742b2",
            "10": "afb1979a7851b7fd9b371ea5d779ae76c347cb0b61e5d4a76fb1b5b28831a5ea",
        },
    },
}

REGIONS = "LCR"  # turnwise order; a T steps one place right, a W one left.


def parse_items(text: str):
    """Winding text as a list of ('T'|'W', 0) and ('U', depth) items."""
    items = []
    for piece in text.split("'"):
        run = 0
        for ch in piece:
            if ch == "U":
                run += 1
                continue
            if run:
                items.append(("U", run))
                run = 0
            items.append((ch, 0))
        if run:
            items.append(("U", run))
    return items


def windings_of(text: str) -> str:
    return "".join(c for c in text if c in "TW")


def tucks_of(text: str):
    """(position, depth) of every tuck, position = windings before it."""
    out, position = [], 0
    for kind, depth in parse_items(text):
        if kind == "U":
            out.append((position, depth))
        else:
            position += 1
    return out


def final_region(windings: str) -> str:
    return REGIONS[(windings.count("T") - windings.count("W")) % 3]


def region_visits(windings: str):
    at, visits = 0, ["L"]
    for ch in windings:
        at = (at + (1 if ch == "T" else -1)) % 3
        visits.append(REGIONS[at])
    return visits


def to_clr(text: str) -> str:
    """Region notation: start at L, one visit per winding, tucks copied."""
    at, parts, previous_tuck = 0, ["L"], False
    for kind, depth in parse_items(text):
        if kind == "U":
            if previous_tuck:
                parts.append("'")
            parts.append("U" * depth)
        else:
            at = (at + (1 if kind == "T" else -1)) % 3
            parts.append(REGIONS[at])
        previous_tuck = kind == "U"
    return "".join(parts)


def annotate(text: str) -> str:
    """Region notation with i/o marks: the visit just before the last
    tuck passes in front (o) and the marks alternate from there."""
    items = parse_items(text)
    last_tuck = max(i for i, (kind, _) in enumerate(items) if kind == "U")
    anchor = sum(1 for kind, _ in items[:last_tuck] if kind != "U")  # visit index
    at, rank, parts, previous_tuck = 0, 0, [], False
    parts.append("L" + ("o" if anchor % 2 == 0 else "i"))
    for kind, depth in items:
        if kind == "U":
            if previous_tuck:
                parts.append("'")
            parts.append("U" * depth)
        else:
            rank += 1
            at = (at + (1 if kind == "T" else -1)) % 3
            parts.append(REGIONS[at] + ("o" if (anchor - rank) % 2 == 0 else "i"))
        previous_tuck = kind == "U"
    return "".join(parts)


def symmetry(windings: str) -> int:
    visits = region_visits(windings)
    return abs(visits.count("R") - visits.count("L"))


def balance(windings: str) -> int:
    return sum(1 for a, b in zip(windings, windings[1:]) if a != b)


def final_class(windings: str) -> str:
    residue = (windings.count("W") - windings.count("T")) % 3
    return {2: "Classical-C", 1: "Modern-R", 0: "Modern-L"}[residue]


def depth1_sites(windings: str):
    """Positions admitting a depth-1 tuck in front of the knot: equal
    adjacent windings an even number of windings from the end."""
    n = len(windings)
    return [
        p for p in range(2, n + 1)
        if windings[p - 2] == windings[p - 1] and (n - p) % 2 == 0
    ]


# Pattern ranks.  A winding pattern of n windings is any T/W string whose
# last two windings are equal, so it is fixed by its first n - 1 letters
# and sorts as they do.  _COUNTS[k][(net, last)] counts strings of k
# letters by net turn mod 3 and last letter.
_STEP = {"T": 1, "W": -1}
_COUNTS = [{}]
for _k in range(1, 64):
    _row = {}
    for (_net, _last), _c in (_COUNTS[-1].items() if _k > 1 else [((0, None), 1)]):
        for _ch in "TW":
            _key = ((_net + _STEP[_ch]) % 3, _ch)
            _row[_key] = _row.get(_key, 0) + _c
    _COUNTS.append(_row)


def _prefixes_reaching(prefix: str, free: int, region: int) -> int:
    """Patterns whose first letters are ``prefix`` followed by ``free``
    free letters and whose final region index is ``region``."""
    net = sum(_STEP[c] for c in prefix)
    if free == 0:
        last = prefix[-1]
        return int((net + _STEP[last]) % 3 == region)
    total = 0
    for (tail_net, last), count in _COUNTS[free].items():
        if (net + tail_net + _STEP[last]) % 3 == region:
            total += count
    return total


def pattern_rank(windings: str) -> int:
    """1-based rank among patterns of the same final region, by length,
    then alphabetically with T before W."""
    n = len(windings)
    region = REGIONS.index(final_region(windings))
    rank = sum(_prefixes_reaching("", m - 1, region) for m in range(2, n))
    stem = windings[:-1]
    for i, ch in enumerate(stem):
        if ch == "W":
            rank += _prefixes_reaching(stem[:i] + "T", len(stem) - i - 1, region)
    return rank + 1


def name_and_bits(text: str):
    """The paper's name of a knot (start L) and its tuck bits, or
    (None, None) when the knot has no final depth-1 tuck to anchor it."""
    windings = windings_of(text)
    n = len(windings)
    tucks = tucks_of(text)
    if not text.endswith("U") or (n, 1) not in tucks:
        return None, None
    sites = [p for p in depth1_sites(windings) if p < n]
    shallow = {p for p, depth in tucks if depth == 1 and p < n}
    bits = sum(1 << i for i, p in enumerate(sites) if p in shallow)
    extension = "".join(f"+p{p}d{d}" for p, d in tucks if d > 1)
    name = f"{final_region(windings)}-{pattern_rank(windings)}.{bits}{extension}"
    return name, bits


def record_of(text: str) -> dict:
    """The schema-v1 record ``enumerate --format jsonl`` writes for a knot."""
    windings = windings_of(text)
    name, bits = name_and_bits(text)
    return {
        "tw": text,
        "clr": to_clr(text),
        "start": "L",
        "windings": len(windings),
        "moves": len(windings) + 1,
        "tucks": [{"position": p, "depth": d} for p, d in tucks_of(text)],
        "final_region": final_region(windings),
        "symmetry": symmetry(windings),
        "balance": balance(windings),
        "name": name,
        "tuck_bits": bits,
    }


def record_matches(record: dict) -> bool:
    """Does a stream record equal the reference record of its knot?

    The paper names single-depth knots only.  A knot with a deeper tuck
    may carry the name with its ``+p<position>d<depth>`` extension, or no
    name at all: the program's validator rejects some arbitrary-depth
    members, and the stream digest pins which.
    """
    expected = record_of(record.get("tw", ""))
    deep = any(t["depth"] > 1 for t in expected["tucks"])
    if deep and record.get("name") is None and record.get("tuck_bits") is None:
        expected["name"] = expected["tuck_bits"] = None
    return record == expected and tuple(record) == RECORD_KEYS


def knot_from(windings: str, tucked_sites) -> str:
    """Single-depth knot text: the pattern, a U after each tucked site,
    and the closing tuck."""
    chosen = set(tucked_sites)
    parts = []
    for position, ch in enumerate(windings, start=1):
        parts.append(ch)
        if position in chosen:
            parts.append("U")
    return "".join(parts) + "U"

