"""The branch-outcome column: one predictor pass per trace.

Every serve path and the oracle's reference front-end read
:func:`repro.branch.outcome_column` through the per-trace cache
(:func:`repro.core.fastpath.trace_outcomes`).  The oracle differential
therefore compares two readers of one column and no longer checks the
predictor pass itself.  This file is that check:

- the column equals a live :class:`BranchPredictionUnit` observing every
  branch record in trace order, on four workload engines and arbitrary
  walk seeds, and every other record holds ``NOT_A_BRANCH``;
- the cache keys columns by the whole branch config, so one trace object
  never serves one config's column to another;
- the column of a trace prefix is the prefix of the full column, so a run
  with ``max_instructions`` below the trace length reads valid outcomes;
- ``release_views`` drops the columns with the views;
- every serve path counts each outcome it consumes exactly once;
- each simulator, and each SMT thread, reads its own trace's column.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.branch import (NOT_A_BRANCH, BranchPredictionUnit,
                          PredictionOutcome, outcome_column)
from repro.common.config import (BranchPredictorConfig, LoopCacheConfig,
                                 baseline_config)
from repro.core import fastpath
from repro.core.fastpath import release_views, trace_outcomes
from repro.core.experiment import workload_trace
from repro.core.simulator import Simulator
from repro.core.smt import SmtSimulator
from repro.workloads.engine import create_engine
from repro.workloads.trace import Trace

ENGINES = ("synthetic", "adv-fragment", "adv-pwconflict", "oscillating")
INSTRUCTIONS = 1500

#: A small TAGE, so short walks reach tag collisions and allocations.
SMALL_TAGE = BranchPredictorConfig(num_tagged_tables=4, table_entries_log2=6,
                                   base_entries_log2=6)


def build_trace(engine: str, seed: int,
                instructions: int = INSTRUCTIONS) -> Trace:
    """A fresh trace object, outside the experiment layer's trace cache."""
    return create_engine(engine, workload="bm-x64").build_trace(
        instructions, seed)


def live_outcomes(trace: Trace, config: BranchPredictorConfig) -> list:
    """What the serve loops computed inline before the column: one live
    unit observing each branch record, ``NOT_A_BRANCH`` elsewhere."""
    bpu = BranchPredictionUnit(config)
    program = trace.program
    stream = []
    for record in trace.records:
        inst = program.at(record.pc)
        if inst.is_branch:
            taken = record.next_pc != inst.end_address
            stream.append(int(bpu.observe(inst, taken, record.next_pc)))
        else:
            stream.append(NOT_A_BRANCH)
    return stream


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES), seed=st.integers(0, 2 ** 16),
       config=st.sampled_from([BranchPredictorConfig(), SMALL_TAGE]))
def test_column_equals_a_live_predictor(engine, seed, config):
    trace = build_trace(engine, seed)
    column = outcome_column(trace, config)
    assert list(column) == live_outcomes(trace, config)
    assert trace_outcomes(trace, config) == column


def test_column_encoding():
    trace = build_trace("synthetic", 7)
    column = outcome_column(trace, BranchPredictorConfig())
    assert isinstance(column, bytes) and len(column) == len(trace.records)
    # Each of the four values occurs; a byte reads as a plain int.
    assert set(column) == \
        {outcome.value for outcome in PredictionOutcome} | {NOT_A_BRANCH}
    assert type(column[0]) is int


def _run(trace: Trace, branch: BranchPredictorConfig) -> dict:
    config = dataclasses.replace(baseline_config(512), branch=branch)
    return Simulator(trace, config, "b").run().to_dict()


def test_cache_never_serves_another_configs_column():
    """A TAGE run, a perfect run and a run with fewer tagged tables on one
    trace object each equal the same run on a freshly built trace."""
    configs = (BranchPredictorConfig(),
               BranchPredictorConfig(perfect=True),
               BranchPredictorConfig(num_tagged_tables=2))
    shared = build_trace("synthetic", 7, 4000)
    results = []
    for branch in configs:
        result = _run(shared, branch)
        assert result == _run(build_trace("synthetic", 7, 4000), branch)
        results.append(result["branch_mispredicts"])
    assert len(set(results)) == len(configs)      # the configs differ
    assert sorted(fastpath._OUTCOME_CACHE[shared], key=repr) == \
        sorted(configs, key=repr)


@pytest.mark.parametrize("engine", ENGINES)
def test_prefix_column_is_the_columns_prefix(engine):
    full = build_trace(engine, 11)
    for length in (1, len(full.records) // 3, len(full.records) - 1):
        prefix = Trace(full.program, full.records[:length], name=full.name)
        for config in (BranchPredictorConfig(), SMALL_TAGE):
            assert outcome_column(prefix, config) == \
                outcome_column(full, config)[:length]


def test_release_views_drops_every_column_but_keeps():
    keep = build_trace("synthetic", 3)
    other = build_trace("oscillating", 3)
    for trace in (keep, other):
        trace_outcomes(trace, BranchPredictorConfig())
        trace_outcomes(trace, BranchPredictorConfig(perfect=True))
    column = trace_outcomes(keep, BranchPredictorConfig())
    release_views(keep=keep)
    assert list(fastpath._OUTCOME_CACHE.keys()) == [keep]
    assert len(fastpath._OUTCOME_CACHE[keep]) == 2
    assert trace_outcomes(keep, BranchPredictorConfig()) is column
    release_views()
    assert len(fastpath._OUTCOME_CACHE) == 0


#: A predictor small enough to alias everywhere: the loop buffer then
#: streams branches that resolve as decode resteers (on bm-ds at 10,000
#: instructions it counts 10 of the run's 63), which the default predictor
#: never produces there.
TINY_PREDICTOR = BranchPredictorConfig(num_tagged_tables=1,
                                       table_entries_log2=1,
                                       base_entries_log2=1, btb_entries=4)


@pytest.mark.parametrize("fast", [False, True], ids=["stepped", "fast"])
@pytest.mark.parametrize("loop", [False, True], ids=["no-loop", "loop"])
def test_every_path_counts_each_outcome_once(loop, fast):
    trace = workload_trace("bm-ds", 10_000)
    config = dataclasses.replace(
        baseline_config(512), branch=TINY_PREDICTOR,
        loop_cache=LoopCacheConfig(enabled=loop), fast_mode=fast)
    result = Simulator(trace, config, "b").run()
    column = trace_outcomes(trace, TINY_PREDICTOR)
    assert (result.uops_from_loop_cache > 0) == loop
    assert result.branches == len(column) - column.count(NOT_A_BRANCH)
    assert result.branch_mispredicts == \
        column.count(PredictionOutcome.MISPREDICT)
    assert result.decode_resteers == \
        column.count(PredictionOutcome.DECODE_RESTEER)


def test_simulators_share_one_column_per_trace():
    trace = build_trace("synthetic", 5)
    config = baseline_config(512)
    first = Simulator(trace, config, "a")
    second = Simulator(trace, config.with_fast_mode(), "b")
    assert first.branch_outcomes is second.branch_outcomes
    assert first.branch_outcomes is trace_outcomes(trace, config.branch)


def test_smt_threads_read_their_own_traces_columns():
    traces = [build_trace("synthetic", 5), build_trace("oscillating", 5)]
    smt = SmtSimulator(traces, baseline_config(1024))
    for thread, trace in zip(smt.threads, traces):
        assert thread.branch_outcomes is \
            trace_outcomes(trace, smt.config.branch)
    results = smt.run().per_thread
    for result, trace in zip(results, traces):
        column = trace_outcomes(trace, smt.config.branch)
        assert result.branches == len(column) - column.count(NOT_A_BRANCH)
        assert result.branch_mispredicts == \
            column.count(PredictionOutcome.MISPREDICT)
