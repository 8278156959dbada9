"""The program-image dict codec.

:func:`_workload_to_dict` turns a program image and its branch behaviours
into plain JSON-able dicts, and :func:`_workload_from_dict` turns them back.
The ``.uoptrace`` format (:mod:`repro.workloads.tracefile`) stores this
shape, as canonical JSON, in its PROG section.
"""

from __future__ import annotations

from typing import Dict

from ..common.errors import WorkloadError
from ..isa.instruction import BranchKind, InstClass, X86Instruction
from .generator import (
    BiasedBehavior,
    IndirectBehavior,
    LoopBehavior,
    Workload,
    WorkloadProfile,
)
from .program import BasicBlock, Function, Program


def _inst_to_dict(inst: X86Instruction) -> Dict:
    return {
        "a": inst.address,
        "l": inst.length,
        "c": inst.inst_class.value,
        "u": inst.uop_count,
        "i": inst.imm_disp_count,
        "bk": inst.branch_kind.value,
        "bt": inst.branch_target,
        "m": inst.is_microcoded,
        "r": inst.reads_memory,
        "w": inst.writes_memory,
    }


def _inst_from_dict(data: Dict) -> X86Instruction:
    return X86Instruction(
        address=data["a"],
        length=data["l"],
        inst_class=InstClass(data["c"]),
        uop_count=data["u"],
        imm_disp_count=data["i"],
        branch_kind=BranchKind(data["bk"]),
        branch_target=data["bt"],
        is_microcoded=data["m"],
        reads_memory=data["r"],
        writes_memory=data["w"],
    )


def _behavior_to_dict(behavior) -> Dict:
    if isinstance(behavior, LoopBehavior):
        return {"kind": "loop", "trip": behavior.trip_count}
    if isinstance(behavior, BiasedBehavior):
        return {"kind": "biased", "p": behavior.taken_probability}
    if isinstance(behavior, IndirectBehavior):
        return {"kind": "indirect", "targets": list(behavior.targets),
                "weights": list(behavior.weights)}
    raise WorkloadError(f"unknown behavior type {type(behavior).__name__}")


def _behavior_from_dict(data: Dict):
    kind = data["kind"]
    if kind == "loop":
        return LoopBehavior(trip_count=data["trip"])
    if kind == "biased":
        return BiasedBehavior(taken_probability=data["p"])
    if kind == "indirect":
        return IndirectBehavior(targets=tuple(data["targets"]),
                                weights=tuple(data["weights"]))
    raise WorkloadError(f"unknown behavior kind {kind!r}")


def _workload_to_dict(workload: Workload) -> Dict:
    program = workload.program
    return {
        "profile_name": workload.profile.name,
        "entry": program.entry,
        "functions": [
            {"name": function.name,
             "blocks": [[_inst_to_dict(inst) for inst in block.instructions]
                        for block in function.blocks]}
            for function in program.functions],
        "behaviors": {str(pc): _behavior_to_dict(behavior)
                      for pc, behavior in workload.behaviors.items()},
    }


def _workload_from_dict(data: Dict) -> Workload:
    functions = [
        Function(name=fn["name"],
                 blocks=[BasicBlock(
                     instructions=[_inst_from_dict(i) for i in block])
                     for block in fn["blocks"]])
        for fn in data["functions"]]
    program = Program(functions, entry=data["entry"])
    behaviors = {int(pc): _behavior_from_dict(b)
                 for pc, b in data["behaviors"].items()}
    profile = WorkloadProfile(name=data["profile_name"])
    return Workload(profile=profile, program=program, behaviors=behaviors)
