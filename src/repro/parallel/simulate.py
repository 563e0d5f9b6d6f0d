"""Roofline-style performance prediction for CSR and CBM SpMM kernels.

The machine running this reproduction has two cores, so 16-thread
wall-clock cannot be measured.  Instead, kernel times are *predicted* from
first principles on the modelled Xeon Gold 6130:

``time = max(compute_time, memory_time) + sync_overhead``

* compute time — scalar operations (:mod:`repro.core.opcount`) divided by
  sustained FLOP throughput of the cores in use;
* memory time — estimated traffic divided by the bandwidth of the cache
  tier the kernel's sparse structure resides in
  (:mod:`repro.parallel.cache`), which is how the paper's Section VI-E.1
  cache-capacity effect (baseline scaling super-linearly on mid-size
  graphs) enters the model;
* the CBM update stage additionally runs through the dynamic branch
  scheduler (:mod:`repro.parallel.schedule`), so limited branch
  parallelism at small alpha — and its improvement at large alpha — shows
  up exactly as in Figure 2 of the paper.

Absolute times are rough; the benchmarks only consume *ratios* (CBM vs
CSR at equal core count), which is also all the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cbm import CBMMatrix, Variant
from repro.core.opcount import cbm_spmm_ops, csr_spmm_ops
from repro.parallel.cache import CacheModel, WorkingSet
from repro.parallel.machine import XEON_GOLD_6130, MachineSpec
from repro.parallel.schedule import update_stage_schedule
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_positive

# Fraction of B-row gather traffic that misses cache, per residence tier
# of the dense operand B (the gathered data): clustered column accesses
# mostly hit when B fits close to the cores.
_MISS_RATE = {"private": 0.03, "shared": 0.12, "dram": 0.45}

_VALUE_BYTES = 4  # single precision, as in the paper

# Effective DRAM traffic per update-stage scalar op: parent rows are hot
# (just produced and shared by siblings), so roughly one value per op —
# the read-modify-write of the child row element — reaches memory.
_UPDATE_BYTES_PER_OP = 4

# Per-row fixed cost of an SpMM kernel, expressed in equivalent stored
# elements: a row with r non-zeros runs at efficiency r / (r + overhead).
_ROW_OVERHEAD_NNZ = 8.0


@dataclass(frozen=True)
class KernelCost:
    """Predicted cost breakdown of one kernel invocation (seconds)."""

    compute_s: float
    memory_s: float
    sync_s: float
    update_makespan_s: float = 0.0

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.sync_s + self.update_makespan_s


def _spmm_cost(
    machine: MachineSpec,
    cache: CacheModel,
    sparse_bytes: int,
    nnz: int,
    n_rows: int,
    n_cols: int,
    p: int,
    flops: float,
    cores: int,
) -> KernelCost:
    """Shared roofline for one sparse-dense product.

    Traffic terms:

    * the sparse structure is free when it fits the caches of the cores in
      use (the kernels are timed over repeated runs, so a resident
      structure stays warm — the paper's Section VI-E.1 super-linear
      baseline scaling on mid-size graphs comes from exactly this term);
    * B is streamed once plus a gather-miss re-fetch term whose rate
      depends on where B itself can reside;
    * C is written once.
    """
    b_bytes = _VALUE_BYTES * p * n_cols
    c_bytes = _VALUE_BYTES * p * n_rows
    capacity = machine.private_cache_bytes(cores) + machine.shared_cache_bytes()
    sparse_traffic = 0.0 if sparse_bytes <= capacity else float(sparse_bytes)
    if b_bytes <= machine.private_cache_bytes(cores):
        tier = "private"
    elif b_bytes <= capacity:
        tier = "shared"
    else:
        tier = "dram"
    gather_bytes = _MISS_RATE[tier] * nnz * _VALUE_BYTES * p
    traffic = sparse_traffic + b_bytes + c_bytes + gather_bytes
    ws = WorkingSet(sparse_bytes=sparse_bytes, dense_bytes=b_bytes + c_bytes)
    bw = machine.effective_bandwidth(ws.total, cores)
    # Row-density efficiency: SpMM kernels pay a fixed per-row cost (loop
    # setup, remainder handling), so matrices with short rows sustain a
    # lower FLOP rate.  This is why the paper's measured CBM speedups lag
    # the compression ratio (Section VI-E.1): the delta matrix A′ is much
    # sparser *per row* than A.
    rows_per_nnz = nnz / max(n_rows, 1)
    efficiency = rows_per_nnz / (rows_per_nnz + _ROW_OVERHEAD_NNZ)
    compute = flops / (machine.peak_flops_per_core * cores * max(efficiency, 0.05))
    return KernelCost(
        compute_s=compute,
        memory_s=traffic / bw,
        sync_s=machine.sync_overhead_s if cores > 1 else 0.0,
    )


def predict_csr_spmm(
    a: CSRMatrix,
    p: int,
    *,
    cores: int = 1,
    machine: MachineSpec = XEON_GOLD_6130,
    scale_nnz: float = 1.0,
    scale_rows: float = 1.0,
) -> KernelCost:
    """Predicted cost of the baseline CSR SpMM (the paper's MKL kernel).

    ``scale_nnz``/``scale_rows`` extrapolate a scaled-down stand-in graph
    back to its paper-scale original (edge- and node-count ratios): all
    nnz-proportional quantities (flops, sparse bytes) and row-proportional
    quantities (dense streams) are multiplied up, so cache-capacity
    effects trigger at the same graph sizes as on the paper's testbed.
    """
    check_positive(p, "p")
    check_positive(cores, "cores")
    check_positive(scale_nnz, "scale_nnz")
    check_positive(scale_rows, "scale_rows")
    cache = CacheModel(machine)
    flops = csr_spmm_ops(a, p).total * scale_nnz
    return _spmm_cost(
        machine,
        cache,
        sparse_bytes=int(a.memory_bytes() * scale_nnz),
        nnz=int(a.nnz * scale_nnz),
        n_rows=int(a.shape[0] * scale_rows),
        n_cols=int(a.shape[1] * scale_rows),
        p=p,
        flops=flops,
        cores=cores,
    )


def predict_cbm_spmm(
    cbm: CBMMatrix,
    p: int,
    *,
    cores: int = 1,
    machine: MachineSpec = XEON_GOLD_6130,
    scale_nnz: float = 1.0,
    scale_rows: float = 1.0,
) -> KernelCost:
    """Predicted cost of the CBM SpMM: multiply stage + branch-parallel update.

    See :func:`predict_csr_spmm` for the paper-scale extrapolation knobs.
    """
    check_positive(p, "p")
    check_positive(cores, "cores")
    check_positive(scale_nnz, "scale_nnz")
    check_positive(scale_rows, "scale_rows")
    cache = CacheModel(machine)
    ops = cbm_spmm_ops(cbm.delta, cbm.tree, p, variant=cbm.variant.value)
    mul = _spmm_cost(
        machine,
        cache,
        sparse_bytes=int(cbm.memory_bytes() * scale_nnz),
        nnz=int(cbm.delta.nnz * scale_nnz),
        n_rows=int(cbm.shape[0] * scale_rows),
        n_cols=int(cbm.shape[1] * scale_rows),
        p=p,
        flops=ops.multiply_stage * scale_nnz,
        cores=cores,
    )
    # Update stage: branch-level dynamic schedule; each scalar op also moves
    # ~2 values (read parent row element, read+write own) — bandwidth-bound
    # in practice, so charge the makespan at the slower of flop/byte rates.
    dad = cbm.variant is Variant.DAD
    sched = update_stage_schedule(cbm.tree, p, cores, dad=dad)
    ws = WorkingSet(
        sparse_bytes=int(8 * cbm.tree.num_tree_edges * scale_rows),
        dense_bytes=int(2 * _VALUE_BYTES * p * cbm.shape[0] * scale_rows),
    )
    flop_rate = machine.peak_flops_per_core  # per core
    byte_rate = machine.effective_bandwidth(max(ws.total, 1), cores) / max(cores, 1)
    per_op_s = max(1.0 / flop_rate, _UPDATE_BYTES_PER_OP / byte_rate)
    update_makespan = sched.makespan * per_op_s * scale_rows
    sync = machine.sync_overhead_s if cores > 1 else 0.0
    return KernelCost(
        compute_s=mul.compute_s,
        memory_s=mul.memory_s,
        sync_s=mul.sync_s + sync,
        update_makespan_s=update_makespan,
    )
