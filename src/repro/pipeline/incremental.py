"""Function-grained incremental recompilation (the delta compiler).

``Toolchain.compile(prev=...)`` routes cache misses through a
:class:`DeltaCompiler` built from the previous build of the same unit.
The front end still parses and type-checks the whole unit (sema is
unit-global: string interning, struct layouts, enum values), but the
per-function stages are derived instead of recomputed:

* **lower** splices the previous build's :class:`repro.ir.IRFunction`
  for every function whose *token stream* and *string-literal bindings*
  are unchanged (see below), re-lowering only edited functions.
* **codegen** reuses the previous :class:`repro.vm.instr.VMFunction`
  for every IR function the lower splice carried over (identity check),
  running :func:`repro.codegen.riscgen.generate_function` only for the
  rest.
* **brisc** replays the previous build's journal
  (:mod:`repro.brisc.journal`), re-scanning only changed functions.

Every derivation is **byte-identical** to the cold stage it replaces —
the same content-addressed cache keys are used, so derived artifacts
are interchangeable with cold ones.  Whenever a precondition fails
(lex error, function rename, config change, journal mismatch) the
derivation returns ``None`` and the toolchain falls back to the cold
stage; delta mode can be slower than cold, never wrong.

Why token streams + string bindings make the lower splice sound:

* A function's lowering depends on its own tokens plus unit-level
  context: typedefs, struct layouts, enum values, global/function
  declarations.  :func:`split_unit` digests that context (everything
  outside function bodies, signatures included, in order) into
  ``env_digest``; any edit outside a function body disables reuse
  entirely.
* The one piece of unit context the env digest cannot see is sema's
  string-literal interning: labels ``<strN>`` are assigned unit-wide in
  order of first appearance, so an edit in one function can renumber
  the labels another (textually untouched) function refers to.  The
  delta compiler therefore compares each candidate's per-function
  ``{value: label}`` binding map between the old and new checked ASTs
  and refuses to splice on any difference.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..cfront import CompileError
from ..cfront import astnodes
from ..cfront.astnodes import TranslationUnit
from ..cfront.lexer import tokenize
from ..cfront.tokens import TokenKind
from .config import PipelineConfig
from .stages import Stage, finish_brisc, resolve_stages

__all__ = ["DeltaCompiler", "UnitShape", "function_strings", "split_unit"]


# ---------------------------------------------------------------------------
# Token-level unit splitting


@dataclass(frozen=True)
class UnitShape:
    """A unit's token-level structure: which bytes belong to which function.

    ``env_digest`` covers every token outside function bodies — globals,
    typedefs, struct/enum definitions, prototypes, and each function's
    signature — in order.  ``fn_digests`` maps each defined function's
    name to the digest of its complete definition (signature + body).
    Two sources with equal ``env_digest`` agree on all unit-level
    context; a function with an equal digest in both is textually
    unchanged.
    """

    env_digest: str
    fn_digests: Dict[str, str]
    order: Tuple[str, ...]


def _tok_repr(tok) -> str:
    return f"{tok.kind.name}\x00{tok.text}"


def _digest_tokens(parts: List[str]) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def _decl_name(head) -> Optional[str]:
    """The declared function name in ``head`` (ends with the parameter
    list's closing ``)``): the identifier before the matching ``(``."""
    depth = 0
    for i in range(len(head) - 1, -1, -1):
        kind = head[i].kind
        if kind is TokenKind.RPAREN:
            depth += 1
        elif kind is TokenKind.LPAREN:
            depth -= 1
            if depth == 0:
                if i > 0 and head[i - 1].kind is TokenKind.IDENT:
                    return head[i - 1].text
                return None
    return None


def split_unit(source: str, filename: str = "<unit>") -> Optional[UnitShape]:
    """Split ``source`` into function definitions and environment tokens.

    Returns ``None`` when the unit cannot be split safely: a lex error,
    a malformed top level, or duplicate function names.  At the top
    level of the C subset a ``{`` directly following ``)`` (outside any
    parens/braces) opens a function body and nothing else does; other
    top-level braces (struct/enum/initializers) belong to declarations
    that end at a top-level ``;``.
    """
    try:
        tokens = tokenize(source, filename)
    except CompileError:
        return None
    toks = [t for t in tokens if t.kind is not TokenKind.EOF]
    env_parts: List[str] = []
    fn_digests: Dict[str, str] = {}
    order: List[str] = []
    paren = 0
    brace = 0
    start = 0  # first token of the current top-level chunk
    i = 0
    n = len(toks)
    while i < n:
        tok = toks[i]
        kind = tok.kind
        if kind is TokenKind.LPAREN:
            paren += 1
        elif kind is TokenKind.RPAREN:
            paren -= 1
            if paren < 0:
                return None
        elif kind is TokenKind.LBRACE:
            if (brace == 0 and paren == 0 and i > start
                    and toks[i - 1].kind is TokenKind.RPAREN):
                # Function definition: digest the whole chunk, put only
                # its head (signature) into the environment.
                head = toks[start:i]
                name = _decl_name(head)
                if name is None or name in fn_digests:
                    return None
                depth = 1
                j = i + 1
                while j < n and depth:
                    if toks[j].kind is TokenKind.LBRACE:
                        depth += 1
                    elif toks[j].kind is TokenKind.RBRACE:
                        depth -= 1
                    j += 1
                if depth:
                    return None
                fn_digests[name] = _digest_tokens(
                    [_tok_repr(t) for t in toks[start:j]])
                order.append(name)
                env_parts.extend(_tok_repr(t) for t in head)
                env_parts.append(f"\x02fn:{name}")
                start = j
                i = j
                continue
            brace += 1
        elif kind is TokenKind.RBRACE:
            brace -= 1
            if brace < 0:
                return None
        elif kind is TokenKind.SEMI and brace == 0 and paren == 0:
            env_parts.extend(_tok_repr(t) for t in toks[start:i + 1])
            start = i + 1
        i += 1
    if start != n or paren or brace:
        return None
    return UnitShape(env_digest=_digest_tokens(env_parts),
                     fn_digests=fn_digests, order=tuple(order))


# ---------------------------------------------------------------------------
# String-literal bindings


def _walk_strings(node: Any, out: Dict[str, Optional[str]]) -> None:
    if isinstance(node, (list, tuple)):
        for item in node:
            _walk_strings(item, out)
        return
    if not (dataclasses.is_dataclass(node)
            and type(node).__module__ == astnodes.__name__):
        return
    if isinstance(node, astnodes.StringLit):
        out.setdefault(node.value, node.label)
    for f in dataclasses.fields(node):
        _walk_strings(getattr(node, f.name), out)


def function_strings(unit: TranslationUnit) -> Dict[str, Dict[str, Optional[str]]]:
    """Per-function ``{string value: sema label}`` binding maps.

    Sema interns string literals unit-wide in order of first appearance,
    so a label like ``<str3>`` can change meaning when an *earlier*
    function's strings change.  A function may only be spliced from a
    previous build if its binding map is identical in both ASTs.
    """
    out: Dict[str, Dict[str, Optional[str]]] = {}
    for fn in unit.functions:
        if fn.body is None:
            continue
        bindings: Dict[str, Optional[str]] = {}
        _walk_strings(fn.body, bindings)
        out[fn.name] = bindings
    return out


def reusable_functions(
    prev_source: str, prev_ast: TranslationUnit,
    source: str, ast: TranslationUnit,
) -> FrozenSet[str]:
    """Names of functions whose lowering from ``prev_ast`` can be spliced
    into a build of ``ast`` unchanged (empty set = nothing reusable)."""
    old_shape = split_unit(prev_source)
    new_shape = split_unit(source)
    if old_shape is None or new_shape is None:
        return frozenset()
    if old_shape.env_digest != new_shape.env_digest:
        return frozenset()
    candidates = {
        name for name, digest in new_shape.fn_digests.items()
        if old_shape.fn_digests.get(name) == digest
    }
    if not candidates:
        return frozenset()
    old_strings = function_strings(prev_ast)
    new_strings = function_strings(ast)
    return frozenset(
        name for name in candidates
        if old_strings.get(name) == new_strings.get(name)
    )


# ---------------------------------------------------------------------------
# The delta compiler


class DeltaCompiler:
    """Derives stage outputs from a previous build of the same unit.

    One instance lives for one ``Toolchain.compile(prev=...)`` call; it
    caches the reusable-function analysis across the stages it derives.
    Each ``derive`` returns ``(payload, size, meta)`` exactly as the
    stage's ``run`` would — byte-identical by construction — or ``None``
    to fall back to the cold stage.
    """

    def __init__(self, prev, source: str, config: PipelineConfig) -> None:
        self.prev = prev
        self.source = source
        self.config = config
        self._reuse_names: Optional[FrozenSet[str]] = None

    # -- guards -----------------------------------------------------------

    def _compatible(self, stage_name: str) -> bool:
        """True when the previous build's configuration matches ours for
        ``stage_name`` and its upstream chain (fragment equality — the
        exact property the cache keys hash)."""
        prev_config = getattr(self.prev, "config", None)
        if prev_config is None:
            return False
        return all(
            stage.config_fragment(self.config)
            == stage.config_fragment(prev_config)
            for stage in resolve_stages((stage_name,))
        )

    def _prev_payload(self, stage_name: str) -> Optional[Any]:
        artifact = self.prev.artifacts.get(stage_name)
        return None if artifact is None else artifact.payload

    def _reusable(self, ast: TranslationUnit) -> FrozenSet[str]:
        if self._reuse_names is None:
            prev_ast = self._prev_payload("parse")
            if prev_ast is None:
                self._reuse_names = frozenset()
            else:
                self._reuse_names = reusable_functions(
                    self.prev.source, prev_ast, self.source, ast)
        return self._reuse_names

    # -- dispatch ---------------------------------------------------------

    def derive(self, stage: Stage, upstream: Any, unit: str,
               config: PipelineConfig):
        """Derive ``stage``'s output from ``upstream`` and the previous
        build, or ``None`` when the cold stage must run."""
        method = getattr(self, f"_derive_{stage.name}", None)
        if method is None or not self._compatible(stage.name):
            return None
        return method(upstream, unit, config)

    # -- per-stage derivations --------------------------------------------

    def _derive_lower(self, ast, unit, config):
        from ..ir import lower_unit

        prev_module = self._prev_payload("lower")
        if prev_module is None:
            return None
        names = self._reusable(ast)
        reuse = {fn.name: fn for fn in prev_module.functions
                 if fn.name in names}
        if not reuse:
            return None
        module = lower_unit(ast, unit, reuse=reuse)
        trees = sum(len(fn.forest) for fn in module.functions)
        nodes = sum(t.size for fn in module.functions for t in fn.forest)
        meta = {"functions": len(module.functions), "trees": trees,
                "nodes": nodes, "derived": True,
                "reused_functions": len(reuse)}
        return module, 0, meta

    def _derive_codegen(self, module, unit, config):
        from ..codegen.riscgen import generate_function
        from ..vm import program_size
        from ..vm.instr import VMProgram

        prev_module = self._prev_payload("lower")
        prev_program = self._prev_payload("codegen")
        if prev_module is None or prev_program is None:
            return None
        # An IR function carried over by the lower splice is the *same
        # object* as in the previous module; its previous VM function is
        # valid verbatim (generate_function is deterministic per IR
        # function).  Freshly lowered functions are generated cold.
        prev_ir = {id(fn): fn.name for fn in prev_module.functions}
        prev_vm = {fn.name: fn for fn in prev_program.functions}
        reused = 0
        program = VMProgram(module.name, entry="main")
        program.globals = list(module.globals)
        for fn in module.functions:
            name = prev_ir.get(id(fn))
            vm = prev_vm.get(name) if name == fn.name else None
            if vm is not None:
                program.functions.append(vm)
                reused += 1
            else:
                program.functions.append(
                    generate_function(fn, config.isa, True))
        if not reused:
            return None  # nothing carried over; cold codegen is as fast
        meta = {
            "functions": len(program.functions),
            "instructions": sum(len(fn.code) for fn in program.functions),
            "derived": True, "reused_functions": reused,
        }
        return program, program_size(program), meta

    def _derive_brisc(self, program, unit, config):
        from ..brisc.journal import changed_functions, incremental_compress

        prev_program = self._prev_payload("codegen")
        prev_cp = self._prev_payload("brisc")
        if prev_program is None or prev_cp is None:
            return None
        changed = changed_functions(prev_program, program)
        if changed is None:
            return None  # function list changed shape: cold build
        cp = incremental_compress(
            program, prev_program, prev_cp.build,
            k=config.brisc_k,
            abundant_memory=config.brisc_abundant_memory,
            max_passes=config.brisc_max_passes,
            journal=config.brisc_journal)
        if cp is None:
            return None  # journal missing/mismatched: cold build
        payload, size, meta = finish_brisc(cp, config)
        meta["replayed"] = True
        meta["changed_functions"] = len(changed)
        return payload, size, meta
