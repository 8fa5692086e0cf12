"""Greedy BRISC dictionary construction.

The paper's algorithm:

1. start from the base instruction set;
2. scan the program, generating candidate patterns by *operand
   specialization* (one field at a time) and *opcode combination* (each
   adjacent pair, crossed with the zero-or-one-field specializations of
   both sides);
3. estimate each candidate's benefit ``B = P − W`` and keep a heap;
4. after each pass, admit the best ``K`` candidates (default 20, the
   paper's table uses K=20), rewrite the program — combinations first,
   then any instruction that a new pattern represents more compactly;
5. stop after a pass yielding fewer than ``K`` candidates with positive B.

Each function contributes an independent per-candidate savings total to
the scan (step 2) as a sum of *window* rows (each slot, each adjacent
pair), and totals merge by addition.  **Incremental rescanning**
(``prune=True``, the default) exploits that while keeping the output
byte-identical: the builder keeps each function's window counts and, for
functions the rewrite step changed, prices only the windows whose count
moved — their net delta reproduces exactly the map a full rescan would
build.  Candidates whose running savings total fell to (or below) their
admission floor ``dictionary_size() + W`` are dropped from the live
heap-candidate set on the spot instead of being re-scored every round;
the floor is constant per pattern, so liveness is an exact predicate.

The returned :class:`BuildResult` carries the final slot program, the
dictionary in admission order, per-pass statistics, and the counters the
paper reports (candidates tested, dictionary size).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..vm.instr import Instr, VMProgram
from .cost import CostModel
from .pattern import DictPattern, InsnPattern
from .slots import Slot, SlotFunction, SlotProgram, build_slots

__all__ = ["BuildResult", "BriscBuilder", "PassStats", "build_dictionary",
           "prepare_rewrite", "rewrite_function"]

_MAX_PARTS = 4

class _ScanTables:
    """The scan's state as dense ints: parts, slots, windows, candidates.

    Each ``InsnPattern`` gets a *part id* and a ``part_info`` row, so a
    candidate — a tuple of part ids — is sized, control-checked and given
    its admission floor from sums (:meth:`measure`).  Each slot's
    (pattern, insns) gets a *slot key* (:meth:`slot_key`), which memoizes
    its augmented set and is the id of its specialization window;
    adjacent pairs get window ids from ``(key_a, key_b)``.  ``rows[w]``
    lists window ``w``'s (candidate id, bytes saved per occurrence).
    A candidate's ``DictPattern`` is built once, when its part tuple first
    gets an id, and interned in ``ids``/``patterns`` (the heap, admission
    and the journal use it; journal replay aliases them).
    """

    __slots__ = ("token", "cost", "part_ids", "parts", "part_info",
                 "slot_keys", "aug", "pairs", "rows", "cand_ids", "ids",
                 "patterns", "floors")

    def __init__(self, cost: Optional[CostModel] = None) -> None:
        #: Tags slot-key caches: a cached key is valid only for these tables.
        self.token = object()
        self.cost = cost or CostModel()
        self.part_ids: Dict[InsnPattern, int] = {}
        self.parts: List[InsnPattern] = []
        self.part_info: List[Tuple[int, int, int, int, bool]] = []
        self.slot_keys: Dict[Tuple[DictPattern, Tuple[Instr, ...]], int] = {}
        self.aug: Dict[int, tuple] = {}
        self.pairs: Dict[Tuple[int, int], int] = {}
        self.rows: List[List[Tuple[int, int]]] = []
        self.cand_ids: Dict[Tuple[int, ...], int] = {}
        self.ids: Dict[DictPattern, int] = {}
        self.patterns: List[DictPattern] = []
        self.floors: Dict[int, int] = {}

    def intern(self, cand: DictPattern) -> int:
        """The candidate's dense id, assigning one on first sight."""
        cid = self.ids.get(cand)
        if cid is None:
            cid = len(self.patterns)
            self.ids[cand] = cid
            self.patterns.append(cand)
        return cid

    def part_id(self, part: InsnPattern) -> int:
        pid = self.part_ids.get(part)
        if pid is None:
            pid = len(self.parts)
            self.part_ids[part] = pid
            self.parts.append(part)
            entry, nibbles, whole = part.sizes()
            self.part_info.append((nibbles, whole, entry,
                                   self.cost.part_bytes(part),
                                   part.is_control()))
        return pid

    def measure(self, parts: Tuple[int, ...]) -> tuple:
        """``(parts, nibble wildcards, whole wildcard bytes, entry bytes,
        template bytes, control transfer before the last part, control
        transfer in the last part)`` of a part-id tuple."""
        nibbles = whole = entry = template = 0
        early = last = False
        for pid in parts:
            n, w, e, t, control = self.part_info[pid]
            nibbles, whole, entry, template = (nibbles + n, whole + w,
                                               entry + e, template + t)
            early, last = early or last, control
        return parts, nibbles, whole, entry, template, early, last

    def cand_id(self, parts: Tuple[int, ...], entry: int,
                template: int) -> int:
        """The id of the candidate made of ``parts`` (whose entry and
        template bytes sum to ``entry``/``template``)."""
        cid = self.cand_ids.get(parts)
        if cid is None:
            cid = self.intern(DictPattern(tuple(self.parts[p] for p in parts)))
            self.cand_ids[parts] = cid
            # dictionary_size() + W; a count of at most _MAX_PARTS parts
            # is one uvarint byte.
            self.floors[cid] = 1 + entry + (template + 1) // 2
        return cid

    def floor(self, cid: int) -> int:
        """The admission floor: savings must exceed the pattern's
        dictionary-entry bytes plus its working-set cost for B > 0."""
        floor = self.floors.get(cid)
        if floor is None:  # interned as a pattern, not as part ids
            pattern = self.patterns[cid]
            floor = (pattern.dictionary_size()
                     + self.cost.working_set_cost(pattern))
            self.floors[cid] = floor
        return floor

    def slot_key(self, slot: Slot) -> int:
        """The slot's interned (pattern, insns) key, cached on the slot
        (``rewrite_function`` drops the cache when it re-patterns a slot)."""
        cached = slot.__dict__.get("_key")
        if cached is not None and cached[0] is self.token:
            return cached[1]
        value = (slot.pattern, slot.insns)
        key = self.slot_keys.get(value)
        if key is None:
            key = self._new_slot(slot)
            self.slot_keys[value] = key
        slot.__dict__["_key"] = (self.token, key)
        return key

    def augmented_set(self, slot: Slot) -> Tuple[Tuple[int, ...], ...]:
        """The slot's pattern plus its one-field specializations (the
        paper's "augmented operand-specialized set"), as part-id tuples."""
        return tuple(entry[0] for entry in self.aug[self.slot_key(slot)])

    def _new_slot(self, slot: Slot) -> int:
        own = tuple(map(self.part_id, slot.pattern.parts))
        aug = [self.measure(own)]
        for pi, (part, instr) in enumerate(zip(slot.pattern.parts,
                                               slot.insns)):
            for spec in part.specializations(instr):
                aug.append(self.measure(
                    own[:pi] + (self.part_id(spec),) + own[pi + 1:]))
        # An occurrence's encoded size is 1 + ceil(nibbles / 2) + whole.
        operands = (aug[0][1] + 1) // 2 + aug[0][2]
        row = []
        for parts, nibbles, whole, entry, template, _, _ in aug[1:]:
            saved = operands - (nibbles + 1) // 2 - whole
            if saved > 0:
                row.append((self.cand_id(parts, entry, template), saved))
        key = len(self.rows)
        self.rows.append(row)
        self.aug[key] = tuple(aug)
        return key

    def pair_window(self, key_a: int, key_b: int) -> int:
        """The window id of two adjacent slots, building its combination
        row (both augmented sets crossed) on first sight."""
        window = self.pairs.get((key_a, key_b))
        if window is not None:
            return window
        aug_a, aug_b = self.aug[key_a], self.aug[key_b]
        # Bytes of the two occurrences less the combined one's opcode.
        operands = 1 + sum((m[1] + 1) // 2 + m[2]
                           for m in (aug_a[0], aug_b[0]))
        # A control transfer may only end a pattern: none anywhere in
        # ``a``, none in ``b`` before its last part.
        rights = [m for m in aug_b if not m[5]]
        row = []
        for a, nib_a, whole_a, entry_a, tmpl_a, early_a, last_a in aug_a:
            if early_a or last_a:
                continue
            for b, nib_b, whole_b, entry_b, tmpl_b, _, _ in rights:
                saved = (operands - (nib_a + nib_b + 1) // 2
                         - whole_a - whole_b)
                if saved > 0:
                    row.append((self.cand_id(a + b, entry_a + entry_b,
                                             tmpl_a + tmpl_b), saved))
        window = len(self.rows)
        self.rows.append(row)
        self.pairs[(key_a, key_b)] = window
        return window


@dataclass
class PassStats:
    """One greedy pass: scan size, admissions, and wall time (the total,
    split into the savings refresh, admission, and rewrite phases).
    ``repriced`` counts the windows whose rows the refresh expanded."""

    candidates: int
    admitted: int
    seconds: float
    scan_s: float = 0.0
    admit_s: float = 0.0
    rewrite_s: float = 0.0
    repriced: int = 0


@dataclass
class BuildResult:
    """Output of dictionary construction."""

    slots: SlotProgram
    dictionary: List[DictPattern]
    candidates_tested: int
    passes: int
    base_patterns: int
    pass_stats: List[PassStats] = field(default_factory=list)
    #: Pass-by-pass replay journal (see :mod:`repro.brisc.journal`),
    #: recorded when the builder ran with ``journal=True``.  It is what
    #: lets a later build of an edited program replay this build's
    #: trajectory instead of re-scoring every candidate.
    journal: Optional[object] = None

    @property
    def dictionary_size(self) -> int:
        return len(self.dictionary)

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.pass_stats)


def _windows(slots: List[Slot], tables: _ScanTables) -> Dict[int, int]:
    """One function's window multiset (window id → count): every slot's
    specialization window, plus each adjacent pair that may combine —
    no block start between them and at most ``_MAX_PARTS`` instructions.

    Rows are raw: every candidate whose occurrence saves bytes counts,
    including patterns already in the dictionary — the caller filters
    those out, which keeps per-function contributions subtractable."""
    counts: Dict[int, int] = {}
    get = counts.get
    slot_key, pair_window = tables.slot_key, tables.pair_window
    prev = -1
    prev_len = 0
    for slot in slots:
        key = slot_key(slot)
        counts[key] = get(key, 0) + 1
        length = len(slot.insns)
        if (prev >= 0 and not slot.is_block_start
                and prev_len + length <= _MAX_PARTS):
            window = pair_window(prev, key)
            counts[window] = get(window, 0) + 1
        prev, prev_len = key, length
    return counts


def _rescan(
    slots: List[Slot], old: Dict[int, int], tables: _ScanTables
) -> Tuple[Dict[int, int], Dict[int, int], int]:
    """Re-window one function whose previous window multiset was ``old``.

    Returns the new multiset, the function's net savings delta (candidate
    id → fresh − stale savings, zeros dropped) and how many windows were
    repriced.  Only windows whose count moved are expanded, and their
    rows are netted over the whole function: the journal records one
    delta per function and pass (replay indexes them by function).
    """
    new = _windows(slots, tables)
    moved = [(w, n - old.get(w, 0)) for w, n in new.items()
             if n != old.get(w, 0)]
    moved += [(w, -n) for w, n in old.items() if w not in new]
    rows = tables.rows
    net: Dict[int, int] = {}
    get = net.get
    for window, count in moved:
        for cid, saved in rows[window]:
            net[cid] = get(cid, 0) + count * saved
    return new, {cid: d for cid, d in net.items() if d}, len(moved)


def prepare_rewrite(
    admitted: Sequence[DictPattern],
) -> Tuple[Dict[str, List[DictPattern]], Dict[Tuple[str, ...], List[DictPattern]]]:
    """Index one pass's admitted patterns for rewriting: combinations
    grouped by first opcode, and every pattern grouped by instruction
    shape (for the specialization sweep).  Shared with the journal
    replayer, which rewrites only the edited functions."""
    combos_by_first: Dict[str, List[DictPattern]] = {}
    singles_by_shape: Dict[Tuple[str, ...], List[DictPattern]] = {}
    for p in admitted:
        if len(p.parts) > 1:
            combos_by_first.setdefault(p.parts[0].name, []).append(p)
        shape = tuple(part.name for part in p.parts)
        singles_by_shape.setdefault(shape, []).append(p)
    return combos_by_first, singles_by_shape


def rewrite_function(
    fn: SlotFunction,
    combos_by_first: Dict[str, List[DictPattern]],
    singles_by_shape: Dict[Tuple[str, ...], List[DictPattern]],
) -> bool:
    """Rewrite one function with a pass's admitted patterns (indexed by
    :func:`prepare_rewrite`).  Returns whether its slots changed."""
    changed = False
    # Combination pass: left-to-right, merge windows of slots whose
    # concatenated instructions match a new combined pattern.
    if combos_by_first:
        merged_slots, merged_any = _combine_slots(fn.slots, combos_by_first)
        if merged_any:
            fn.slots = merged_slots
            changed = True
    # Specialization pass: adopt any new pattern that represents a slot
    # more compactly.  Candidates are tried in admission order, so a
    # pass's rewrite outcome depends on the admitted *sequence* — which
    # is why the journal replayer verifies its re-derived admissions
    # against the recorded list, order included.
    for slot in fn.slots:
        insns = slot.insns
        cands = singles_by_shape.get(
            (insns[0].name,) if len(insns) == 1
            else tuple(i.name for i in insns))
        if cands is None:
            continue
        best = slot.pattern
        best_size = slot.size
        for cand in cands:
            if cand.encoded_size() < best_size and cand.matches(insns):
                best = cand
                best_size = cand.encoded_size()
        if best is not slot.pattern:
            slot.pattern = best
            slot.__dict__.pop("_key", None)
            changed = True
    return changed


def _combine_slots(
    slots: List[Slot], by_first: Dict[str, List[DictPattern]]
) -> Tuple[List[Slot], bool]:
    out: List[Slot] = []
    merged_any = False
    i = 0
    while i < len(slots):
        slot = slots[i]
        merged = None
        for cand in by_first.get(slot.insns[0].name, ()):
            j = _match_window(slots, i, cand.parts)
            if j is None:
                continue
            window = slots[i:j]
            if cand.encoded_size() >= sum(s.size for s in window):
                continue
            merged = Slot(
                insns=tuple(ins for s in window for ins in s.insns),
                pattern=cand,
                is_block_start=slot.is_block_start,
                labels=slot.labels,
            )
            i = j
            break
        if merged is not None:
            out.append(merged)
            merged_any = True
        else:
            out.append(slot)
            i += 1
    return out, merged_any


def _match_window(
    slots: List[Slot], i: int, parts: Tuple[InsnPattern, ...]
) -> Optional[int]:
    """The end of the run of whole slots from ``i`` whose instructions fit
    ``parts`` exactly, with no block start after the first; ``None`` when
    there is none.  Stops at the first part that does not match."""
    k = 0
    j = i
    while k < len(parts):
        if j >= len(slots) or (j > i and slots[j].is_block_start):
            return None
        for instr in slots[j].insns:
            if k >= len(parts) or not parts[k].matches(instr):
                return None
            k += 1
        j += 1
    return j


class BriscBuilder:
    """Runs the greedy construction over one program.

    ``prune=False`` disables the incremental rescan and re-scores every
    candidate every pass (the pre-optimization behaviour, kept as the
    reference for determinism tests).
    """

    def __init__(
        self,
        program: VMProgram,
        k: int = 20,
        abundant_memory: bool = False,
        max_passes: int = 40,
        prune: bool = True,
        journal: bool = False,
    ) -> None:
        self.slots: SlotProgram = build_slots(program)
        self.k = k
        self.max_passes = max_passes
        self.prune = prune
        self.seen: set = set()
        self.dictionary: List[DictPattern] = []
        self.in_dictionary: set = set()
        self.candidates_tested = 0
        self.passes = 0
        self.pass_stats: List[PassStats] = []
        self._tables = _ScanTables(CostModel(abundant_memory))
        # Incremental-scan state, keyed by the tables' dense ids:
        # per-function window multisets, the merged savings totals, the
        # live (positive-benefit) candidate set, which ids are already
        # dictionary members (and how many of those sit in the merged
        # map), and the functions the last rewrite touched.  All
        # maintained so the merged map always equals a full rescan's.
        self._fn_windows: Optional[List[Dict[int, int]]] = None
        self._savings: Dict[int, int] = {}
        self._live: Set[int] = set()
        self._dict_ids: Set[int] = set()
        self._dict_checked: Set[int] = set()
        self._dict_overlap = 0
        self._changed: Set[int] = set()
        # Replay journal: records each pass's savings deltas, live set,
        # and admissions so an edited program can replay this build (see
        # :mod:`repro.brisc.journal`).  ``prune=False`` never computes
        # per-function deltas, so it simply skips recording.
        self._journal = None
        if journal and prune:
            from .journal import BuildJournal

            self._journal = BuildJournal(
                config_sig=_config_sig(k, abundant_memory, max_passes),
                patterns=self._tables.patterns,
                ids=self._tables.ids,
            )
        self._seed_base_patterns()
        self.base_patterns = len(self.dictionary)

    def _seed_base_patterns(self) -> None:
        journal = self._journal
        intern = self._tables.intern
        for fn in self.slots.functions:
            if journal is not None:
                # Interning here only assigns dense ids early; admission
                # order (and therefore the dictionary) is unchanged.
                journal.base_seed.append(
                    [intern(slot.pattern) for slot in fn.slots])
            for slot in fn.slots:
                self._admit(slot.pattern)

    def _admit(self, pattern: DictPattern) -> None:
        if pattern not in self.in_dictionary:
            self.in_dictionary.add(pattern)
            self.dictionary.append(pattern)
            cid = self._tables.ids.get(pattern)
            if cid is not None:
                self._dict_ids.add(cid)
                if cid in self._savings:
                    self._dict_overlap += 1
                self._live.discard(cid)

    def _is_dict(self, cid: int) -> bool:
        """Whether the candidate id's pattern is a dictionary member.

        Membership is cached per id: a pattern-level set lookup happens
        at most once per id (``_admit`` keeps the cache current when a
        known id's pattern is admitted later).
        """
        if cid in self._dict_ids:
            return True
        if cid in self._dict_checked:
            return False
        self._dict_checked.add(cid)
        if self._tables.patterns[cid] in self.in_dictionary:
            self._dict_ids.add(cid)
            return True
        return False

    # -- candidate scoring ---------------------------------------------------

    def _apply(self, net: Dict[int, int]) -> None:
        """Apply one function's net savings delta to the merged map,
        maintaining the live set, the dictionary-overlap count, and the
        paper's candidates-tested counter exactly as a full rescan
        would."""
        savings, live, seen = self._savings, self._live, self.seen
        dict_ids, checked = self._dict_ids, self._dict_checked
        floors, floor_of = self._tables.floors, self._tables.floor
        for cid, delta in net.items():
            member = cid in dict_ids or (cid not in checked
                                         and self._is_dict(cid))
            current = savings.get(cid)
            if current is None:
                if delta <= 0:
                    continue
                savings[cid] = delta
                if member:
                    self._dict_overlap += 1
                    continue
                if cid not in seen:
                    seen.add(cid)
                    self.candidates_tested += 1
                value = delta
            else:
                value = current + delta
                if value <= 0:
                    del savings[cid]
                    if member:
                        self._dict_overlap -= 1
                    else:
                        live.discard(cid)
                    continue
                savings[cid] = value
                if member:
                    continue
            floor = floors.get(cid)
            if floor is None:
                floor = floor_of(cid)
            if value > floor:
                live.add(cid)
            else:
                live.discard(cid)

    def _refresh_savings(self) -> int:
        """Bring the merged savings map up to date for this pass; returns
        the number of windows repriced.

        The first pass (and every pass when ``prune=False``) windows every
        function from empty; later passes re-window only the functions the
        previous rewrite changed and apply each one's net delta.  Both
        paths produce the same merged map.
        """
        functions = self.slots.functions
        if self._fn_windows is None or not self.prune:
            self._fn_windows = [{} for _ in functions]
            self._savings = {}
            self._live = set()
            self._dict_overlap = 0
            indices: Sequence[int] = range(len(functions))
        else:
            indices = sorted(self._changed)
        self._changed = set()
        journal = self._journal
        record = journal.passes[-1].deltas if journal is not None else None
        repriced = 0
        for index in indices:
            self._fn_windows[index], net, moved = _rescan(
                functions[index].slots, self._fn_windows[index], self._tables)
            repriced += moved
            self._apply(net)
            if record is not None:
                # Replaying these per-function deltas in sequence
                # reproduces the merged savings map exactly, because
                # merging is plain addition.
                record.append((index, net))
        return repriced

    # -- rewriting -----------------------------------------------------------

    def _apply_patterns(self, admitted: List[DictPattern]) -> Set[int]:
        """Rewrite every function with the newly admitted patterns.

        Returns the indices of functions whose slots actually changed —
        the only ones whose candidate contributions the next pass must
        re-scan.
        """
        changed: Set[int] = set()
        combos_by_first, singles_by_shape = prepare_rewrite(admitted)
        for index, fn in enumerate(self.slots.functions):
            if rewrite_function(fn, combos_by_first, singles_by_shape):
                changed.add(index)
        return changed

    # -- driver ------------------------------------------------------------

    def run(self) -> BuildResult:
        journal = self._journal
        while self.passes < self.max_passes:
            self.passes += 1
            t0 = time.perf_counter()
            journal_pass = None
            if journal is not None:
                from .journal import PassJournal

                journal_pass = PassJournal()
                journal.passes.append(journal_pass)
            repriced = self._refresh_savings()
            t_scan = time.perf_counter()
            savings = self._savings
            # Snapshot before admission: the pass's candidate count is
            # the merged map minus patterns already admitted when the
            # scan ran, exactly what the full-rescan filter reported.
            candidates = len(savings) - self._dict_overlap
            if journal_pass is not None:
                journal_pass.candidates = candidates
                journal_pass.live = sorted(self._live)
            # The live set is exactly {cand : benefit(cand) > 0} and
            # benefit == savings - floor, so the heap (and therefore
            # the admission order) matches a full benefit sweep.  The
            # tie-break keys come from the pattern objects, so the
            # order is invariant under id assignment.
            patterns, floor = self._tables.patterns, self._tables.floor
            heap = []
            for cid in self._live:
                cand = patterns[cid]
                heap.append((floor(cid) - savings[cid],
                             cand.dictionary_size(), str(cand), cand))
            heapq.heapify(heap)
            admitted: List[DictPattern] = []
            while heap and len(admitted) < self.k:
                _, _, _, cand = heapq.heappop(heap)
                admitted.append(cand)
                self._admit(cand)
            if journal_pass is not None:
                ids = self._tables.ids
                journal_pass.admitted = [ids[p] for p in admitted]
            t_admit = time.perf_counter()
            if admitted:
                self._changed = self._apply_patterns(admitted)
            t_end = time.perf_counter()
            self.pass_stats.append(PassStats(
                candidates=candidates, admitted=len(admitted),
                seconds=t_end - t0, scan_s=t_scan - t0,
                admit_s=t_admit - t_scan, rewrite_s=t_end - t_admit,
                repriced=repriced))
            if len(admitted) < self.k:
                break
        if journal is not None:
            journal.seen = sorted(self.seen)
            journal.candidates_tested = self.candidates_tested
        return BuildResult(
            slots=self.slots,
            dictionary=self.dictionary,
            candidates_tested=self.candidates_tested,
            passes=self.passes,
            base_patterns=self.base_patterns,
            pass_stats=self.pass_stats,
            journal=journal,
        )


def _config_sig(k: int, abundant_memory: bool, max_passes: int) -> str:
    """Builder-knob signature stored in the journal; replay refuses a
    journal recorded under different knobs."""
    return f"k={k};abundant={abundant_memory};passes={max_passes}"


def build_dictionary(
    program: VMProgram,
    k: int = 20,
    abundant_memory: bool = False,
    max_passes: int = 40,
    prune: bool = True,
    journal: bool = False,
) -> BuildResult:
    """Run greedy BRISC dictionary construction over ``program``.

    ``prune=False`` falls back to re-scoring every candidate every pass
    (identical output, used as the determinism reference).
    ``journal=True`` additionally records a pass-by-pass replay journal
    on the result (see :mod:`repro.brisc.journal`) that lets a later
    build of an edited program skip re-scoring unchanged functions.
    """
    return BriscBuilder(program, k, abundant_memory, max_passes,
                        prune=prune, journal=journal).run()
