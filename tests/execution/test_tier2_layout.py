"""Tier-2 block layout on functions of extreme shape, tier 2 forced.

A block with one incoming edge runs in place at the end of that edge,
so a chain of such blocks nests one ``if`` inside another.  Past a fixed
depth an edge dispatches instead, which keeps the generated source
inside CPython's 100 indentation levels.  Each program here must
compile every function with no pin (a ``SyntaxError`` would pin one),
run all its steps in tier 2, and match the reference interpreter on
result, output, steps and exit status:

* a MiniC chain of 300 ``if (x == k) ... else`` branches;
* a 300-deep chain in LLVA whose in-place successor is always the taken
  side of a branch whose other side runs in place too, so every link
  nests one level deeper;
* a MiniC loop nest.
"""

import pytest

from repro.asm import parse_module
from repro.execution import Interpreter
from repro.execution.config import ExecConfig
from repro.execution.tier2 import generate_source
from repro.ir import verify_module
from repro.minic import compile_source

FORCED = ExecConfig(engine="fast", tier2=True, tier2_threshold=0)
REFERENCE = ExecConfig(engine="reference")
DEPTH = 300

ELSE_IF_CHAIN = """
int pick(int x) {
%s
  return -1;
}
int main() {
  int i; int s = 0;
  for (i = -2; i < %d; i++) { s = s + pick(i); }
  print_int(s);
  return 0;
}
""" % ("\n".join("  %sif (x == %d) return %d;" % (
    "else " if k else "", k, k * 7 + 1) for k in range(DEPTH)), DEPTH + 2)


def _nested_chain(depth):
    """``pick(x)`` returns ``7k + 1`` for the first ``k`` with ``x ==
    k``: block ``b<k>`` branches to ``b<k+1>`` when ``x != k``, else to
    ``r<k>``; both have one way in."""
    lines = ["declare void %print_int(int)", "int %pick(int %x) {", "b0:"]
    for k in range(depth):
        lines += ["        %c{0} = setne int %x, {0}".format(k),
                  "        br bool %c{0}, label %b{1}, label %r{0}".format(
                      k, k + 1),
                  "r{0}:".format(k),
                  "        ret int {0}".format(k * 7 + 1),
                  "b{0}:".format(k + 1)]
    lines += ["        ret int -1", "}", """
int %main() {{
entry:
        br label %loop
loop:
        %i = phi int [ -2, %entry ], [ %next, %loop ]
        %s = phi int [ 0, %entry ], [ %sum, %loop ]
        %v = call int %pick(int %i)
        %sum = add int %s, %v
        %next = add int %i, 1
        %more = setlt int %next, {0}
        br bool %more, label %loop, label %done
done:
        call void %print_int(int %sum)
        ret int 0
}}""".format(depth + 2)]
    return "\n".join(lines)


LOOP_NEST = """
int grid[64];
int main() {
  int i; int j; int k; int s = 0;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      grid[i * 8 + j] = i * j;
      for (k = 0; k < j; k++) {
        if ((i + k) % 3 == 0) { s = s + grid[i * 8 + k]; continue; }
        if (k > 5) break;
        s = s - 1;
      }
    }
  }
  while (i > 0) { i = i - 1; s = s + grid[i * 9]; }
  print_int(s);
  return 0;
}
"""


def _run(module, config):
    interpreter = Interpreter(module, config)
    result = interpreter.run("main", [])
    return (result.return_value, result.output, result.steps,
            result.exit_status), interpreter


def _check(module):
    expected, _ = _run(module, REFERENCE)
    outcome, interpreter = _run(module, FORCED)
    assert outcome == expected
    stats = interpreter.tier2.stats
    assert stats.pins == 0
    assert stats.functions_compiled == len(
        [f for f in module.functions.values() if f.blocks])
    assert interpreter.tier2_steps == outcome[2]


def _max_indent(source):
    return max((len(line) - len(line.lstrip(" "))) // 4
               for line in source.splitlines())


@pytest.mark.parametrize("program", ["else-if", "nested"])
def test_chain_deeper_than_the_nesting_limit(program):
    if program == "else-if":
        module = compile_source(ELSE_IF_CHAIN, "chain",
                                optimization_level=2)
    else:
        module = parse_module(_nested_chain(DEPTH))
        verify_module(module)
    assert len(module.functions["pick"].blocks) > DEPTH
    _check(module)
    source, _refs, _slots = generate_source(module.functions["pick"],
                                            module.target_data)
    # The chain is cut into several arms, and the source stays well
    # inside CPython's indentation limit.
    assert source.count("continue") > 1
    assert _max_indent(source) < 60


def test_loop_nest():
    module = compile_source(LOOP_NEST, "loops", optimization_level=2)
    _check(module)
