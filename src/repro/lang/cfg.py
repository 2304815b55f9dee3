"""Control-flow-graph utilities over the IR.

Small and purpose-built: successors/predecessors, reachability, and the
"does this path reach an error exit" query the constraint extractor
asks when classifying a guard as a configuration dependency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import perf
from repro.lang.ir import BasicBlock, Branch, CallInstr, Const, Function, Ret

#: Calls that mean "reject the configuration and bail", mirroring the
#: error exits the paper's analyzer keys on (usage();exit(1); com_err).
ERROR_CALLS = {
    "usage", "exit", "abort", "fatal_error", "com_err", "ext2fs_fatal",
    "bb_error_msg_and_die", "log_err",
}


class CFG:
    """Successor/predecessor view of one function."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.succ: Dict[str, Tuple[str, ...]] = {}
        self.pred: Dict[str, List[str]] = {label: [] for label in func.blocks}
        for label, block in func.blocks.items():
            succs = block.successors()
            self.succ[label] = succs
            for s in succs:
                if s in self.pred:
                    self.pred[s].append(label)
        self._rpo: Optional[Tuple[str, ...]] = None
        # Error-exit queries are pure functions of the (immutable)
        # blocks, and the constraint extractor asks them repeatedly for
        # the same labels — cache per CFG.
        self._error_exit: Dict[str, bool] = {}
        self._error_path: Dict[Tuple[str, int], bool] = {}
        self._branches: Optional[List[Branch]] = None

    def reverse_postorder(self) -> Tuple[str, ...]:
        """Block labels in reverse postorder from the entry (cached).

        Unreachable blocks are appended afterwards in declaration
        order: the taint analysis is flow-insensitive, so their
        instructions still participate in the fixpoint.
        """
        if self._rpo is not None:
            return self._rpo
        blocks = self.func.blocks
        order: List[str] = []
        seen: Set[str] = set()
        entry = self.func.entry
        if entry in blocks:
            # Iterative DFS with an explicit successor cursor so deep
            # graphs cannot overflow the Python stack.
            seen.add(entry)
            stack: List[Tuple[str, int]] = [(entry, 0)]
            while stack:
                label, cursor = stack[-1]
                succs = self.succ.get(label, ())
                while cursor < len(succs) and (
                    succs[cursor] in seen or succs[cursor] not in blocks
                ):
                    cursor += 1
                if cursor < len(succs):
                    stack[-1] = (label, cursor + 1)
                    succ = succs[cursor]
                    seen.add(succ)
                    stack.append((succ, 0))
                else:
                    stack.pop()
                    order.append(label)
            order.reverse()
        order.extend(label for label in blocks if label not in seen)
        self._rpo = tuple(order)
        return self._rpo

    def reachable_from(self, label: str) -> Set[str]:
        """Labels reachable from ``label`` (inclusive)."""
        seen: Set[str] = set()
        stack = [label]
        while stack:
            current = stack.pop()
            if current in seen or current not in self.func.blocks:
                continue
            seen.add(current)
            stack.extend(self.succ.get(current, ()))
        return seen

    def block(self, label: str) -> BasicBlock:
        """The basic block with the given label."""
        return self.func.blocks[label]

    def branches(self) -> List[Branch]:
        """Branch instructions in declaration order (cached)."""
        if self._branches is None:
            self._branches = [
                instr
                for block in self.func.blocks.values()
                for instr in block.instrs
                if type(instr) is Branch
            ]
        return self._branches

    # ------------------------------------------------------------------
    # error-exit queries
    # ------------------------------------------------------------------

    def block_is_error_exit(self, label: str) -> bool:
        """True when the block itself errors out (error call or ret < 0)."""
        cached = self._error_exit.get(label)
        if cached is not None:
            return cached
        result = self._block_is_error_exit(label)
        self._error_exit[label] = result
        return result

    def _block_is_error_exit(self, label: str) -> bool:
        block = self.func.blocks.get(label)
        if block is None:
            return False
        for instr in block.instrs:
            if isinstance(instr, CallInstr) and instr.func in ERROR_CALLS:
                return True
            if isinstance(instr, Ret) and instr.value is not None:
                value = _resolve_const(block, instr.value)
                if value is not None and (value >= 0x80000000 or _as_signed(value) < 0):
                    return True
        return False

    def leads_to_error(self, label: str, max_depth: int = 3) -> bool:
        """True when an error exit is reachable within ``max_depth`` blocks
        without passing through a branch (i.e. unconditionally)."""
        key = (label, max_depth)
        cached = self._error_path.get(key)
        if cached is not None:
            return cached
        result = self._leads_to_error(label, max_depth)
        self._error_path[key] = result
        return result

    def _leads_to_error(self, label: str, max_depth: int) -> bool:
        current: Optional[str] = label
        for _ in range(max_depth + 1):
            if current is None:
                return False
            if self.block_is_error_exit(current):
                return True
            block = self.func.blocks.get(current)
            if block is None:
                return False
            term = block.terminator
            if isinstance(term, Branch):
                return False  # a further condition decides; not this guard
            succs = self.succ.get(current, ())
            current = succs[0] if succs else None
        return False

    def branch_error_sides(self, branch: Branch) -> Tuple[bool, bool]:
        """(true_side_errors, false_side_errors) for one branch."""
        return (
            self.leads_to_error(branch.true_label),
            self.leads_to_error(branch.false_label),
        )


def _resolve_const(block: BasicBlock, value) -> Optional[int]:
    """Constant value of ``value`` using in-block definitions only."""
    from repro.lang.ir import Move, Temp, UnOp, Var

    if isinstance(value, Const):
        return value.value
    if not isinstance(value, (Temp, Var)):
        return None
    for instr in reversed(block.instrs):
        if value in instr.defs():
            if isinstance(instr, Move):
                return _resolve_const(block, instr.src)
            if isinstance(instr, UnOp) and instr.op == "-":
                inner = _resolve_const(block, instr.operand)
                return -inner if inner is not None else None
            return None
    return None


def _as_signed(value: int, bits: int = 32) -> int:
    if value >= 1 << (bits - 1):
        return value - (1 << bits)
    return value


def build_cfg(func: Function) -> CFG:
    """Construct the CFG for one function."""
    with perf.timed("analysis.cfg"):
        return CFG(func)
