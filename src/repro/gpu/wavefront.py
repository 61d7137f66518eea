"""Wavefront execution.

A wavefront is an independent timeline that consumes its program's macro-ops
(:mod:`repro.gpu.instructions`) one event at a time under the
:class:`~repro.sim.engine.WaveScheduler`. Latency hiding across wavefronts —
the GPU's defining property, and the reason extra translation wire latency
costs little (Section 6.3.3) — falls out of the scheduler interleaving these
timelines while each one blocks on its own memory/translation stalls.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.gpu.instructions import ALU, LDS, LINE, MEM

#: Instruction-buffer capacity in cache lines per wavefront (Section 2.3).
IB_LINES = 2

#: Cap on timed data-cache accesses modelled per page of a memory strip;
#: the remainder of the strip's lines are accounted in DRAM energy only.
MAX_TIMED_LINES_PER_PAGE = 4


class Wavefront:
    """One wavefront's execution state."""

    __slots__ = (
        "cu",
        "simd_index",
        "workgroup",
        "_ops",
        "_ib",
        "_kernel_code_base",
        "_simd_port",
    )

    def __init__(self, cu, simd_index: int, workgroup, ops: Iterator[tuple]) -> None:
        self.cu = cu
        self.simd_index = simd_index
        self.workgroup = workgroup
        self._ops = iter(ops)
        self._ib = []  # most-recent line ids, at most IB_LINES
        self._kernel_code_base = workgroup.kernel_code_base
        self._simd_port = cu.simd_ports[simd_index]

    # The WaveScheduler step callback.
    def step(self, now: int) -> Optional[int]:
        op = next(self._ops, None)
        if op is None:
            self.workgroup.wave_done(self, now)
            return None
        kind = op[0]
        if kind == MEM:
            done = self._run_mem(op, now)
        elif kind == ALU:
            done = self._run_alu(op, now)
        elif kind == LINE:
            done = self._run_line(op, now)
        elif kind == LDS:
            done = self._run_lds(op, now)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        tracer = self.cu.tracer
        if tracer is not None:
            tracer.record(
                self.cu.cu_id, self.simd_index, self.workgroup.kernel_name,
                self.workgroup.wg_id, kind, now, done,
            )
        return done

    # ------------------------------------------------------------------

    def _run_alu(self, op: tuple, now: int) -> int:
        count = op[1]
        start = self._simd_port.request(now, count)
        self.cu.counters["instructions"] += count
        return start + count

    def _run_lds(self, op: tuple, now: int) -> int:
        count = op[1]
        cu = self.cu
        start = self._simd_port.request(now, count)
        cu.counters["instructions"] += count
        done = start
        for _ in range(count):
            finished = cu.lds.app_access(done)
            if finished > done:
                done = finished
        return done

    def _run_line(self, op: tuple, now: int) -> int:
        line_id = op[1]
        cu = self.cu
        if line_id in self._ib:
            # Serviced from the wavefront's instruction buffer.
            cu.counters["ib.hits"] += 1
            return now
        cu.counters["ib.misses"] += 1
        done = cu.icache.fetch(self._kernel_code_base + line_id, now)
        ib = self._ib
        ib.append(line_id)
        if len(ib) > IB_LINES:
            ib.pop(0)
        return done

    def _run_mem(self, op: tuple, now: int) -> int:
        _, vpns, instr_count, is_write, lines_per_page = op
        cu = self.cu
        start = self._simd_port.request(now, instr_count)
        counters = cu.counters
        counters["instructions"] += instr_count
        counters["mem_instructions"] += instr_count

        page_size = cu.page_size
        page_lines = cu.page_lines
        unique = cu.coalescer.coalesce(vpns)
        timed_lines = min(MAX_TIMED_LINES_PER_PAGE, lines_per_page)
        bulk_lines = lines_per_page - timed_lines

        worst = start + instr_count
        translate = cu.translation.translate
        access = cu.memory.access_ex
        for vpn in unique:
            tx_done, pfn = translate(vpn, start)
            base_addr = pfn * page_size + ((vpn * 797) % page_lines) * 64
            # The data access depends on the translation, so its latency
            # chains after tx_done; its cache/DRAM bandwidth is charged at
            # the issue anchor (see repro.core.translation's timing note).
            done = tx_done
            missed_l2 = False
            for line_index in range(timed_lines):
                finished, level = access(
                    base_addr + line_index * 64, start, is_write
                )
                chained = tx_done + (finished - start)
                if chained > done:
                    done = chained
                if level == "dram":
                    missed_l2 = True
            if bulk_lines and missed_l2:
                # Untimed tail of the strip: counts for DRAM energy only.
                cu.note_bulk_dram(bulk_lines, is_write)
            if done > worst:
                worst = done
        # Most same-page lookups within the strip are merged by the
        # coalescer before reaching the L1 TLB; credit only the residual
        # fraction as L1 hits (Table 2's L1 hit ratios).
        cu.translation.note_locality_hits((instr_count - len(unique)) // 8)
        return worst
