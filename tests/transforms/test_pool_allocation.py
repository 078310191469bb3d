"""Automatic Pool Allocation removes every general-allocator call
(Section 5.1), checked on counts alone.

The program of the §5.1 pool-allocation benchmark builds and frees a
25-node list 40 times.  After ``-O1`` and :class:`AutomaticPoolAllocation`
it must return what it returned before on every ``ExecConfig.all()``
entry and call ``malloc`` and ``free`` no more; its pools take their
slabs from ``malloc`` less than a tenth as often as the program called
the allocator before.
"""

import pytest

from repro.execution import Interpreter
from repro.execution.config import ExecConfig
from repro.minic import compile_source
from repro.transforms import AutomaticPoolAllocation

SOURCE = r"""
struct Item { int v; struct Item* next; };
int burn(int rounds, int length) {
    int total = 0;
    int r;
    for (r = 0; r < rounds; r++) {
        struct Item* head = null;
        int i;
        for (i = 0; i < length; i++) {
            struct Item* it = (struct Item*) malloc(sizeof(struct Item));
            it->v = i ^ r;
            it->next = head;
            head = it;
        }
        while (head != null) {
            total += head->v;
            struct Item* d = head;
            head = head->next;
            free((char*) d);
        }
    }
    return total;
}
int main() { return burn(40, 25) % 32768; }
"""


@pytest.fixture(scope="module")
def baseline():
    """The reference run of the untransformed program."""
    interpreter = Interpreter(compile_source(SOURCE, "poolbench",
                                             optimization_level=1))
    return interpreter.run("main").return_value, interpreter.runtime


@pytest.fixture(scope="module")
def pooled():
    module = compile_source(SOURCE, "poolbench", optimization_level=1)
    assert AutomaticPoolAllocation().run_module(module)
    return module


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_pooled_program_returns_the_same_value(config, baseline, pooled):
    value, _ = baseline
    assert Interpreter(pooled, config).run("main").return_value == value


def test_pooled_program_calls_no_general_allocator(baseline, pooled):
    _, base = baseline
    base_calls = base.malloc_calls + base.free_calls
    assert base_calls == 2 * 40 * 25
    interpreter = Interpreter(pooled)
    interpreter.run("main")
    runtime = interpreter.runtime
    assert runtime.malloc_calls + runtime.free_calls == 0
    assert runtime.pool_slab_mallocs < base_calls / 10
