"""Declarative pipeline construction: strings, config dicts, JSON.

A :class:`PipelineSpec` is the picklable value object describing one
pipeline: which allocator, which target, how many registers, SSA or non-SSA
lowering, whether the load/store optimization and verification stages run,
and (optionally) an explicit stage chain.  Several surface forms normalize
into it through :meth:`PipelineSpec.parse`:

* ``PipelineSpec.parse("NL", target="st231")`` — an allocator name;
* ``PipelineSpec.parse("ssa")`` / ``"non-ssa"`` — the lowering mode (the CLI's
  legacy ``--pipeline`` values);
* ``PipelineSpec.parse("liveness,interference,extract,allocate,verify")`` —
  an explicit comma-separated stage chain;
* ``PipelineSpec.parse('{"allocator": "NL", "opt": false}')`` — a JSON config,
  and :meth:`PipelineSpec.from_config` for the equivalent dict form.

Unknown stages, allocators, targets and config keys, and config values of the
wrong type, raise :class:`~repro.errors.PipelineError` with the available
names, which the CLI turns into clean exit-1 messages.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.alloc.base import available_allocators
from repro.errors import PipelineError
from repro.pipeline.passes import DEFAULT_STAGES, is_registered_pass, available_passes
from repro.targets import get_target
from repro.targets.machine import TargetMachine


_NULL = type(None)

#: every config key with the value types it accepts and their description.
#: JSON from ``--pipeline`` reaches the spec unchecked, so the types are
#: checked here; ``bool`` never passes as a number.
_FIELD_TYPES: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "allocator": ((str,), "a string"),
    "target": ((str, TargetMachine, _NULL), "a target name or null"),
    "registers": ((int, _NULL), "an integer or null"),
    "ssa": ((bool,), "true or false"),
    "opt": ((bool,), "true or false"),
    "verify": ((bool,), "true or false"),
    "check": ((str,), "a string"),
    "constrain": ((int, float, _NULL), "a number or null"),
    "stages": ((str, list, tuple, _NULL), "a string or a list of strings"),
}


def _accepts(types: Tuple[type, ...], value: Any) -> bool:
    """Whether ``value`` is one of ``types`` (lists must hold strings)."""
    if isinstance(value, bool) and bool not in types:
        return False
    if isinstance(value, (list, tuple)):
        return isinstance(value, types) and all(isinstance(item, str) for item in value)
    return isinstance(value, types)


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of one pass pipeline."""

    #: allocator registry name driving the ``allocate`` stage.
    allocator: str = "BFPL"
    #: target machine (name or instance); ``None`` only for raw-problem runs.
    target: Union[str, TargetMachine, None] = "st231"
    #: register count; ``None`` uses the target's register file size.
    registers: Optional[int] = None
    #: SSA lowering (chordal graphs) vs non-SSA (general graphs).
    ssa: bool = True
    #: run the ``loadstore_opt`` stage after spill-code insertion.
    opt: bool = True
    #: run the final ``verify`` stage.
    verify: bool = True
    #: static machine-verifier enforcement (:mod:`repro.check`):
    #: ``"off"`` (default) never invokes a checker, ``"boundaries"`` checks
    #: the input function and the final context, ``"each"`` additionally
    #: enforces every pass's ``check_requires``/``check_preserves`` contract
    #: between stages (LLVM's ``-verify-each``).  Violations raise
    #: :class:`repro.check.CheckError` naming the offending pass.
    check: str = "off"
    #: derive machine-model constraints (register classes, pre-colorings)
    #: for roughly this fraction of variables at the ``extract`` stage via
    #: :func:`repro.alloc.constraints.auto_constraints`; ``None`` (default)
    #: leaves the problem unconstrained and every digest/store cell
    #: byte-identical to historical runs.
    constrain: Optional[float] = None
    #: explicit stage chain; ``None`` uses the default chain.  The ``opt``
    #: and ``verify`` toggles filter either chain, so ``--no-opt`` /
    #: ``"verify": false`` are never silently ignored.
    stages: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------ #
    def stage_chain(self) -> Tuple[str, ...]:
        """The stage names this spec executes, in order.

        Starts from the explicit ``stages`` chain (or the default one) and
        applies the ``opt``/``verify`` toggles: ``opt=False`` drops
        ``loadstore_opt`` and ``verify=False`` drops ``verify`` even from an
        explicitly listed chain — an explicit toggle always wins.
        """
        chain = list(self.stages) if self.stages is not None else list(DEFAULT_STAGES)
        if not self.opt and "loadstore_opt" in chain:
            chain.remove("loadstore_opt")
        if not self.verify and "verify" in chain:
            chain.remove("verify")
        return tuple(chain)

    def resolve_target(self) -> Optional[TargetMachine]:
        """The target machine instance, resolving names via the registry."""
        if self.target is None or isinstance(self.target, TargetMachine):
            return self.target
        try:
            return get_target(self.target)
        except KeyError as error:
            raise PipelineError(str(error)) from None

    def validate(self) -> "PipelineSpec":
        """Check stage and allocator names resolve; return self for chaining."""
        for stage in self.stage_chain():
            if not is_registered_pass(stage):
                raise PipelineError(
                    f"unknown pipeline stage {stage!r}; available: {available_passes()}"
                )
        if self.allocator.lower() not in {a.lower() for a in available_allocators()}:
            raise PipelineError(
                f"unknown allocator {self.allocator!r}; available: {available_allocators()}"
            )
        if self.registers is not None and self.registers < 0:
            raise PipelineError(f"negative register count {self.registers}")
        if self.check not in ("off", "boundaries", "each"):
            raise PipelineError(
                f"unknown check mode {self.check!r}; "
                "expected 'off', 'boundaries' or 'each'"
            )
        if self.constrain is not None and not 0.0 <= self.constrain <= 1.0:
            raise PipelineError(
                f"constrain fraction {self.constrain} outside [0, 1]"
            )
        self.resolve_target()
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (targets flattened to their names)."""
        data = dataclasses.asdict(self)
        if isinstance(self.target, TargetMachine):
            data["target"] = self.target.name
        if self.stages is not None:
            data["stages"] = list(self.stages)
        return data

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _normalize_fields(cls, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Shared validation/normalization of spec fields (config + overrides)."""
        unknown = sorted(set(fields) - set(_FIELD_TYPES))
        if unknown:
            raise PipelineError(
                f"unknown pipeline config key(s) {unknown}; known keys: {list(_FIELD_TYPES)}"
            )
        for name, value in fields.items():
            types, expected = _FIELD_TYPES[name]
            if not _accepts(types, value):
                raise PipelineError(
                    f"pipeline config key {name!r} must be {expected}, got {value!r}"
                )
        if fields.get("stages") is not None:
            stages = fields["stages"]
            if isinstance(stages, str):
                stages = [s.strip() for s in stages.split(",") if s.strip()]
            fields["stages"] = tuple(stages)
        return fields

    @classmethod
    def from_config(cls, config: Mapping[str, Any], **overrides: Any) -> "PipelineSpec":
        """Build a spec from a config dict (the JSON form), then ``overrides``."""
        merged: Dict[str, Any] = dict(config)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**cls._normalize_fields(merged)).validate()

    @classmethod
    def parse(
        cls,
        spec: Union["PipelineSpec", Mapping[str, Any], str, None] = None,
        **overrides: Any,
    ) -> "PipelineSpec":
        """Normalize any surface form into a validated spec.

        ``overrides`` are keyword fields that win over whatever the spec form
        itself says (``None`` overrides are ignored, so CLI flags can be
        passed through unconditionally).
        """
        if isinstance(spec, PipelineSpec):
            # replace() rather than a to_dict() round-trip: flattening would
            # reduce a TargetMachine *instance* (possibly unregistered) to a
            # name the registry cannot resolve.
            updates = cls._normalize_fields(
                {k: v for k, v in overrides.items() if v is not None}
            )
            return dataclasses.replace(spec, **updates).validate()
        if spec is None:
            return cls.from_config({}, **overrides)
        if isinstance(spec, Mapping):
            return cls.from_config(spec, **overrides)
        return cls.from_config(cls._parse_string(spec), **overrides)

    @classmethod
    def _parse_string(cls, text: str) -> Dict[str, Any]:
        """Interpret one spec string: JSON, mode, stage chain, or allocator."""
        text = text.strip()
        if not text:
            return {}
        if text.startswith("{"):
            try:
                config = json.loads(text)
            except json.JSONDecodeError as error:
                raise PipelineError(f"invalid pipeline JSON: {error}") from None
            if not isinstance(config, dict):
                raise PipelineError("pipeline JSON must be an object")
            return config
        if text in ("ssa", "non-ssa"):
            return {"ssa": text == "ssa"}
        if "," in text or is_registered_pass(text):
            stages = tuple(s.strip() for s in text.split(",") if s.strip())
            for stage in stages:
                if not is_registered_pass(stage):
                    raise PipelineError(
                        f"unknown pipeline stage {stage!r}; available: {available_passes()}"
                    )
            return {"stages": stages}
        if text.lower() in {a.lower() for a in available_allocators()}:
            return {"allocator": text}
        raise PipelineError(
            f"unrecognized pipeline spec {text!r}: expected 'ssa'/'non-ssa', a "
            f"JSON config, a comma-separated stage chain (stages: "
            f"{available_passes()}) or an allocator name "
            f"({available_allocators()})"
        )
