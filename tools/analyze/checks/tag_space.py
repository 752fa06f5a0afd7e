"""tag-space: user message tags are provably disjoint — from the
transport's reserved internal channel and from each other.

The comm contract (src/comm/transport.hpp): tags below
`comm::kFirstUserTag` are reserved for the transport's internal
collective/control channel (today the TCP backend runs collectives over a
separate internal mailbox, but a single-tag-space backend — real MPI —
must map its op-sequence tags into the reserved range).  Every tag a user
passes to `send`/`recv`/`irecv`/`sendrecv` must therefore resolve to a
value >= kFirstUserTag, and the tag *ranges* of distinct exchange kinds
(`kGridHaloTagBase`, `kPsHaloTagBase`, …) must be pairwise disjoint, or two
concurrent exchanges on one communicator would cross-match messages.

How the proof works, entirely statically:

1.  Every `constexpr int` in the tree is collected and constant-folded
    (file-level and function-local; hex, shifts, arithmetic, references
    to earlier constants).
2.  Every p2p call site outside src/comm/ has its tag argument resolved:
    - to an exact value (literals, constants, folded locals), or
    - to an offset range over a `tag_base` parameter (`tag_base + axis*4
      + 1` with the documented axis∈[0,3) bound), or
    - flagged as unanalyzable.
3.  Anchors (constexpr whose name contains `Tag`) are widened into
    intervals: direct-use offsets plus the offset span of every consumer
    (constructor/function with a `tag_base` parameter) the anchor is
    passed to; consumer spans come from the files defining that
    consumer's member functions.
4.  All intervals and exact tags must sit at/above kFirstUserTag and be
    pairwise disjoint.

src/comm/ itself is exempt from the call-site scan: it is the machinery
that moves tags, not a user of the tag space.  Its tag *constants* are
held to the inverse contract instead: an anchor declared inside src/comm/
names a reserved internal channel (the heartbeat beacon, control frames),
so its range must sit strictly below kFirstUserTag — inside the reserved
band — and the reserved channels must be pairwise disjoint, or heartbeat
and control frames would cross-match on a single-tag-space backend.
"""
import re

from .. import cxxlex, scopes
from . import Finding

NAME = "tag-space"
DESCRIPTION = ("user tags at send/recv/irecv sites resolve statically, "
               "stay >= comm::kFirstUserTag (reserved internal channel), "
               "tag-base ranges are pairwise disjoint, and src/comm/ "
               "anchors stay inside the reserved band, also disjoint")

FLOOR_CONSTANT = "kFirstUserTag"

# method name -> 0-based tag argument positions
_P2P_TAG_ARGS = {
    "send": (1,), "recv": (1,), "irecv": (1,),
    "send_bytes": (1,), "recv_bytes": (1,),
    "sendrecv": (1, 5),
}

# Documented project bounds for loop/axis variables inside tag offset
# expressions: 3 spatial axes, 2 directions.
_BOUNDED_VARS = {"axis": (0, 2), "a": (0, 2), "ax": (0, 2),
                 "dir": (0, 1), "d": (0, 2)}

_TAG_BASE_IDENTS = {"tag_base", "tag_base_"}
_ANCHOR_NAME = re.compile(r"[Tt]ag")

_COMM_INTERNAL = re.compile(r"(^|/)src/comm/")


def run(files):
    findings = []
    consts = _collect_constexprs(files)
    floor = consts.get(FLOOR_CONSTANT)
    floor_val = floor.value if floor is not None else 0
    p2p_sites = 0

    consumers = _collect_consumers(files)          # name -> set of files
    consumer_span = _consumer_offset_spans(files)  # qualclass -> (lo, hi)

    exact_uses = []     # (lo, hi, file, line) — anchor-free resolved tags
    anchor_extra = {}   # anchor name -> widest direct-use offset (lo, hi)
    for sf in files:
        if _COMM_INTERNAL.search(sf.rel):
            continue
        file_consts = {n: c.value for n, c in consts.items()}
        for fn in sf.functions:
            local = dict(file_consts)
            local.update(_local_const_ints(sf.tokens, fn.body, file_consts))
            bounded = _bounded_locals(sf.tokens, fn.body, local, consts)
            for method, receiver, paren, line in scopes.member_calls(
                    sf.tokens, fn.body, set(_P2P_TAG_ARGS)):
                if receiver is None:
                    # `std::vector<std::uint64_t> recv_bytes(n, 0);` is a
                    # declaration, not traffic; real p2p always goes
                    # through a Communicator/Transport object.
                    continue
                args = scopes.call_args(sf.tokens, paren)
                for pos in _P2P_TAG_ARGS[method]:
                    if pos >= len(args):
                        continue
                    p2p_sites += 1
                    span = args[pos]
                    res = _resolve_tag(sf.tokens, span, local, consts)
                    if res is None and span[1] - span[0] == 1 \
                            and sf.tokens[span[0]].kind == "ident" \
                            and sf.tokens[span[0]].text in bounded:
                        # A bounded-but-unfoldable local like
                        # `const int tag_fwd = kGridHaloTagBase + axis * 4;`
                        # or `= tag_base + axis * 4;`.
                        lo_b, hi_b, saw_base, anchors_b = \
                            bounded[sf.tokens[span[0]].text]
                        if saw_base:
                            # tag_base offset: accounted for through the
                            # enclosing consumer's span.
                            continue
                        res = ("range", lo_b, hi_b, anchors_b)
                    if res is None:
                        text = _span_text(sf.tokens, span)
                        findings.append(Finding(
                            NAME, sf.rel, line,
                            f"unanalyzable tag expression `{text}` at "
                            f"`{method}` call; use a literal, a constexpr "
                            "tag constant, or a bounded tag_base offset"))
                        continue
                    if res[0] == "base-offset":
                        # Range over a tag_base parameter: contributes to
                        # the span of this function's class (consumer).
                        continue
                    _, lo_v, hi_v, anchors = res
                    if not anchors:
                        exact_uses.append((lo_v, hi_v, sf.rel, line))
                    if lo_v < floor_val:
                        findings.append(Finding(
                            NAME, sf.rel, line,
                            f"tag {_fmt_range(lo_v, hi_v)} at `{method}` "
                            "call collides with the reserved internal "
                            f"collective channel [0, {floor_val}) "
                            f"({FLOOR_CONSTANT})"))
                    for name in anchors:
                        lo, hi = anchor_extra.get(name, (0, 0))
                        av = consts[name].value
                        anchor_extra[name] = (min(lo, lo_v - av),
                                              max(hi, hi_v - av))
    # Anchor intervals: value + direct offsets + consumer spans.  Anchors
    # declared inside src/comm/ are reserved internal channels and live
    # under the inverse contract (inside [0, floor), mutually disjoint).
    intervals = []
    reserved = []
    for name, const in consts.items():
        if name == FLOOR_CONSTANT or not _ANCHOR_NAME.search(name):
            continue
        lo_off, hi_off = anchor_extra.get(name, (0, 0))
        for consumer in _anchor_consumers(files, name, consumers):
            span = consumer_span.get(consumer)
            if span:
                lo_off = min(lo_off, span[0])
                hi_off = max(hi_off, span[1])
        lo, hi = const.value + lo_off, const.value + hi_off
        if _COMM_INTERNAL.search(const.rel):
            reserved.append((lo, hi, name, const))
            if not (0 <= lo and hi < floor_val):
                findings.append(Finding(
                    NAME, const.rel, const.line,
                    f"reserved internal channel `{name}` spans "
                    f"[{lo}, {hi}] but must sit inside the internal band "
                    f"[0, {floor_val}) ({FLOOR_CONSTANT}); a src/comm/ "
                    "tag constant in user space would collide with "
                    "production exchanges"))
            continue
        intervals.append((lo, hi, name, const))
        if lo < floor_val:
            findings.append(Finding(
                NAME, const.rel, const.line,
                f"tag range [{lo}, {hi}] of `{name}` overlaps the reserved "
                f"internal collective channel [0, {floor_val}) "
                f"({FLOOR_CONSTANT})"))
    reserved.sort()
    for prev, cur in zip(reserved, reserved[1:]):
        if cur[0] <= prev[1]:
            findings.append(Finding(
                NAME, cur[3].rel, cur[3].line,
                f"reserved internal channel `{cur[2]}` [{cur[0]}, {cur[1]}] "
                f"overlaps `{prev[2]}` [{prev[0]}, {prev[1]}] (declared at "
                f"{prev[3].rel}:{prev[3].line}); heartbeat and control "
                "frames would cross-match"))
    intervals.sort()
    for prev, cur in zip(intervals, intervals[1:]):
        if cur[0] <= prev[1]:
            findings.append(Finding(
                NAME, cur[3].rel, cur[3].line,
                f"tag range [{cur[0]}, {cur[1]}] of `{cur[2]}` overlaps "
                f"[{prev[0]}, {prev[1]}] of `{prev[2]}` "
                f"(declared at {prev[3].rel}:{prev[3].line}); concurrent "
                "exchanges would cross-match messages"))
    # Raw (anchor-free) tags must not land inside a named exchange's range.
    for lo_v, hi_v, rel, line in exact_uses:
        for lo, hi, name, const in intervals:
            if lo_v <= hi and lo <= hi_v:
                findings.append(Finding(
                    NAME, rel, line,
                    f"literal tag {_fmt_range(lo_v, hi_v)} falls inside "
                    f"the range [{lo}, {hi}] of `{name}` (declared at "
                    f"{const.rel}:{const.line}); concurrent exchanges "
                    "would cross-match messages"))
    if floor is None and (p2p_sites or intervals):
        anchor_file = files[0].rel if files else "<none>"
        findings.append(Finding(
            NAME, anchor_file, 1,
            f"constexpr `{FLOOR_CONSTANT}` (reserved internal tag range) "
            "not found in the scanned tree; the tag floor contract is "
            "unverifiable"))
    return findings


class _Const:
    __slots__ = ("value", "rel", "line")

    def __init__(self, value, rel, line):
        self.value = value
        self.rel = rel
        self.line = line


def _collect_constexprs(files):
    """name -> _Const for every `constexpr int NAME = expr;` in the tree
    (file scope and function-local alike), constant-folded in two passes
    so later-file references resolve."""
    decls = []
    for sf in files:
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind == "ident" and t.text == "constexpr" \
                    and i + 3 < len(toks) \
                    and toks[i + 1].kind == "ident" \
                    and toks[i + 1].text in ("int", "auto", "long",
                                             "unsigned", "short") \
                    and toks[i + 2].kind == "ident" \
                    and toks[i + 3].kind == "punct" \
                    and toks[i + 3].text == "=":
                expr_start = i + 4
                j = expr_start
                while j < len(toks) and not (toks[j].kind == "punct"
                                             and toks[j].text == ";"):
                    j += 1
                decls.append((toks[i + 2].text, sf, (expr_start, j),
                              toks[i + 2].line))
    table = {}
    for _ in range(3):  # fixpoint over forward references
        progress = False
        for name, sf, span, line in decls:
            if name in table:
                continue
            value = _fold(sf.tokens, span,
                          {n: c.value for n, c in table.items()})
            if value is not None:
                table[name] = _Const(value, sf.rel, line)
                progress = True
        if not progress:
            break
    return table


def _local_const_ints(tokens, body, known):
    """`const int x = expr;` / `constexpr int x = expr;` locals folded
    against `known` (applied iteratively so chains resolve)."""
    out = {}
    start, end = body
    for _ in range(4):
        progress = False
        i = start
        while i < end - 3:
            t = tokens[i]
            if t.kind == "ident" and t.text in ("int", "auto") \
                    and i >= 1 and tokens[i - 1].kind == "ident" \
                    and tokens[i - 1].text in ("const", "constexpr") \
                    and tokens[i + 1].kind == "ident" \
                    and tokens[i + 2].kind == "punct" \
                    and tokens[i + 2].text == "=":
                name = tokens[i + 1].text
                j = i + 3
                while j < end and not (tokens[j].kind == "punct"
                                       and tokens[j].text == ";"):
                    j += 1
                if name not in out:
                    env = dict(known)
                    env.update(out)
                    value = _fold(tokens, (i + 3, j), env)
                    if value is not None:
                        out[name] = value
                        progress = True
                i = j
                continue
            i += 1
        if not progress:
            break
    return out


def _fold(tokens, span, env):
    """Constant-fold an integer expression span; None if unresolvable."""
    parts = []
    for j in range(*span):
        t = tokens[j]
        if t.kind == "num":
            v = cxxlex.int_value(t.text)
            if v is None:
                return None
            parts.append(str(v))
        elif t.kind == "ident":
            if t.text in env:
                parts.append(str(env[t.text]))
            elif t.text in ("static_cast", "int"):
                continue  # static_cast<int>(...) noise
            else:
                return None
        elif t.kind == "punct":
            if t.text in ("+", "-", "*", "/", "%", "(", ")", "<<", ">>",
                          "|", "&", "^"):
                parts.append(t.text)
            elif t.text in ("<", ">"):
                continue  # static_cast<int> angle brackets
            else:
                return None
        else:
            return None
    if not parts:
        return None
    expr = " ".join(parts)
    if not re.fullmatch(r"[\d\s()+\-*/%|&^<>]+", expr):
        return None
    try:
        value = eval(expr, {"__builtins__": {}}, {})  # noqa: S307
    except Exception:
        return None
    return value if isinstance(value, int) else None


def _fmt_range(lo, hi):
    return str(lo) if lo == hi else f"range [{lo}, {hi}]"


def _span_anchors(tokens, span, consts):
    return {tokens[j].text for j in range(*span)
            if tokens[j].kind == "ident" and tokens[j].text in consts
            and _ANCHOR_NAME.search(tokens[j].text)}


def _resolve_tag(tokens, span, local_env, consts):
    """Classify one tag argument:
    ("range", lo, hi, anchors_used) for a resolved value or bounded
    interval, ("base-offset", lo, hi) for a tag_base offset, or None."""
    value = _fold(tokens, span, local_env)
    if value is not None:
        return ("range", value, value,
                _span_anchors(tokens, span, consts))
    rng = _bound_expr(tokens, span, local_env, allow_base=True)
    if rng is None:
        return None
    lo, hi, saw_base = rng
    if saw_base:
        return ("base-offset", lo, hi)
    return ("range", lo, hi, _span_anchors(tokens, span, consts))


def _bound_expr(tokens, span, env, allow_base):
    """Interval-evaluate a + / * expression of numbers, env constants,
    bounded vars, and (once) a tag_base ident treated as 0.  Returns
    (lo, hi, saw_base) or None."""
    # Shunting-free: split on top-level + and -, bound each term.
    terms = []
    start, end = span
    depth = 0
    term_start = start
    sign = 1
    j = start
    pending_sign = 1
    while j < end:
        t = tokens[j]
        if t.kind == "punct" and t.text in "([{":
            depth += 1
        elif t.kind == "punct" and t.text in ")]}":
            depth -= 1
        elif depth == 0 and t.kind == "punct" and t.text in "+-" \
                and j > term_start:
            terms.append((pending_sign, (term_start, j)))
            pending_sign = 1 if t.text == "+" else -1
            term_start = j + 1
        j += 1
    terms.append((pending_sign, (term_start, end)))

    lo = hi = 0
    saw_base = False
    for sign, (ts, te) in terms:
        if ts >= te:
            return None
        r = _bound_term(tokens, (ts, te), env, allow_base and not saw_base)
        if r is None:
            return None
        tlo, thi, is_base = r
        if is_base:
            saw_base = True
        if sign < 0:
            tlo, thi = -thi, -tlo
        lo += tlo
        hi += thi
    return (lo, hi, saw_base)


def _bound_term(tokens, span, env, allow_base):
    """Bound a single product term.  Returns (lo, hi, is_base) or None."""
    factors = []
    start, end = span
    j = start
    while j < end:
        t = tokens[j]
        if t.kind == "punct" and t.text in ("*", "(", ")"):
            j += 1
            continue
        if t.kind == "num":
            v = cxxlex.int_value(t.text)
            if v is None:
                return None
            factors.append((v, v))
        elif t.kind == "ident":
            if t.text in env:
                factors.append((env[t.text], env[t.text]))
            elif t.text in _TAG_BASE_IDENTS:
                if not allow_base:
                    return None
                if any(tokens[k].kind == "punct" and tokens[k].text == "*"
                       for k in range(start, end)):
                    return None  # a scaled tag_base is not boundable
                return (0, 0, True)
            elif t.text in _BOUNDED_VARS:
                factors.append(_BOUNDED_VARS[t.text])
            else:
                return None
        else:
            return None
        j += 1
    if not factors:
        return None
    lo, hi = 1, 1
    for flo, fhi in factors:
        candidates = [lo * flo, lo * fhi, hi * flo, hi * fhi]
        lo, hi = min(candidates), max(candidates)
    return (lo, hi, False)


def _collect_consumers(files):
    """Names of functions/classes taking a `tag_base` parameter, mapped to
    the files where their definitions (and so their offsets) live.  A
    constructor names its class; member functions using `tag_base_` add
    their file via the qualname prefix."""
    consumers = {}
    for sf in files:
        for fn in sf.functions:
            # Parameter list lives just before the body; cheap re-scan of
            # the header slice for the `tag_base` ident.
            hdr_start = max(0, fn.body[0] - 64)
            header = sf.tokens[hdr_start:fn.body[0]]
            if any(t.kind == "ident" and t.text == "tag_base"
                   for t in header):
                consumers.setdefault(fn.name, set()).add(sf.rel)
    return consumers


def _consumer_offset_spans(files):
    """For each consumer name, the (lo, hi) offset range its code applies
    to tag_base / tag_base_ at p2p call sites.  Located via qualnames:
    offsets in `HaloPlan::begin_axis` belong to consumer `HaloPlan`; a
    free function's offsets belong to its own name."""
    spans = {}

    def widen(name, lo, hi):
        cur = spans.get(name, (0, 0))
        spans[name] = (min(cur[0], lo), max(cur[1], hi))

    for sf in files:
        for fn in sf.functions:
            owners = {fn.name}
            if "::" in fn.qualname:
                owners.add(fn.qualname.split("::")[0])
            locals_env = {}
            # tag locals like `const int tag_fwd = tag_base + axis*4;`
            base_locals = {
                n: (lo, hi)
                for n, (lo, hi, saw_base, _anchors)
                in _bounded_locals(sf.tokens, fn.body, {}, {}).items()
                if saw_base}
            for method, _, paren, _line in scopes.member_calls(
                    sf.tokens, fn.body, set(_P2P_TAG_ARGS)):
                args = scopes.call_args(sf.tokens, paren)
                for pos in _P2P_TAG_ARGS[method]:
                    if pos >= len(args):
                        continue
                    span = args[pos]
                    # Substitute a single-ident arg through base_locals.
                    if span[1] - span[0] == 1 \
                            and sf.tokens[span[0]].kind == "ident" \
                            and sf.tokens[span[0]].text in base_locals:
                        lo, hi = base_locals[sf.tokens[span[0]].text]
                        for owner in owners:
                            widen(owner, lo, hi)
                        continue
                    r = _bound_expr(sf.tokens, span, locals_env,
                                    allow_base=True)
                    if r is not None and r[2]:
                        for owner in owners:
                            widen(owner, r[0], r[1])
    return spans


def _bounded_locals(tokens, body, env, consts):
    """Local `const int x = <expr>;` decls whose initializer bounds to an
    interval: name -> (lo, hi, saw_base, anchors).  Covers tag_base
    offsets (`tag_base + axis * 4`) and anchored ranges
    (`kGridHaloTagBase + axis * 4`) alike."""
    out = {}
    start, end = body
    i = start
    while i < end - 3:
        t = tokens[i]
        if t.kind == "ident" and t.text == "int" \
                and tokens[i + 1].kind == "ident" \
                and tokens[i + 2].kind == "punct" \
                and tokens[i + 2].text == "=":
            j = i + 3
            while j < end and not (tokens[j].kind == "punct"
                                   and tokens[j].text == ";"):
                j += 1
            r = _bound_expr(tokens, (i + 3, j), env, allow_base=True)
            if r is not None:
                out[tokens[i + 1].text] = (
                    r[0], r[1], r[2],
                    _span_anchors(tokens, (i + 3, j), consts))
            i = j
            continue
        i += 1
    return out


def _anchor_consumers(files, anchor, consumers):
    """Consumer names that `anchor` is passed to as a call argument."""
    hit = set()
    for sf in files:
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident" or t.text != anchor:
                continue
            # Walk left to the call head: `Name(...anchor...)`.
            depth = 0
            for k in range(i - 1, max(0, i - 200), -1):
                tk = toks[k]
                if tk.kind != "punct":
                    continue
                if tk.text == ")":
                    depth += 1
                elif tk.text == "(":
                    if depth == 0:
                        if k >= 1 and toks[k - 1].kind == "ident" \
                                and toks[k - 1].text in consumers:
                            hit.add(toks[k - 1].text)
                        break
                    depth -= 1
    return hit


def _span_text(tokens, span):
    return " ".join(tokens[j].text for j in range(*span))
