// Unit tests for op evaluation semantics and the DFG golden-model
// interpreter.
#include <gtest/gtest.h>

#include "dfg/interpreter.hpp"
#include "dfg/random_graph.hpp"
#include "obs/obs.hpp"
#include "suite/benchmarks.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {
namespace {

// Frozen copy of the out-of-line eval_op that eval_op replaced: it derives
// the signed views and the shift amount for every op. The inline version
// must stay bit-identical to it.
std::uint64_t reference_eval_op(Op op, std::uint64_t a, std::uint64_t b,
                                unsigned width) {
  a = truncate(a, width);
  b = truncate(b, width);
  const std::int64_t sa = to_signed(a, width);
  const std::int64_t sb = to_signed(b, width);
  const unsigned sh = static_cast<unsigned>(b % (width < 64 ? width + 1 : 64));
  switch (op) {
    case Op::Add: return truncate(a + b, width);
    case Op::Sub: return truncate(a - b, width);
    case Op::Mul: return truncate(a * b, width);
    case Op::Div: return b == 0 ? bit_mask(width) : truncate(a / b, width);
    case Op::Mod: return b == 0 ? truncate(a, width) : truncate(a % b, width);
    case Op::And: return a & b;
    case Op::Or: return a | b;
    case Op::Xor: return a ^ b;
    case Op::Not: return truncate(~a, width);
    case Op::Neg: return truncate(0 - a, width);
    case Op::Shl: return truncate(a << sh, width);
    case Op::Shr: return a >> sh;
    case Op::Lt: return sa < sb ? 1 : 0;
    case Op::Gt: return sa > sb ? 1 : 0;
    case Op::Le: return sa <= sb ? 1 : 0;
    case Op::Ge: return sa >= sb ? 1 : 0;
    case Op::Eq: return a == b ? 1 : 0;
    case Op::Ne: return a != b ? 1 : 0;
    case Op::Min: return sa < sb ? a : b;
    case Op::Max: return sa > sb ? a : b;
    case Op::Pass: return a;
  }
  ADD_FAILURE() << "unknown op";
  return 0;
}

// Frozen copy of the graph-walking Interpreter::run that the compiled node
// table replaced.
EvalResult reference_run(const Graph& g, const InputVector& inputs) {
  const auto ins = g.inputs();
  EvalResult r;
  r.values.assign(g.num_values(), 0);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    r.values[ins[i].index()] = truncate(inputs[i], g.width());
  }
  for (const auto& v : g.values()) {
    if (v.kind == ValueKind::Constant) {
      r.values[v.id.index()] = from_signed(v.const_value, g.width());
    }
  }
  for (NodeId nid : g.topo_order()) {
    const Node& n = g.node(nid);
    const std::uint64_t a = r.values[n.inputs[0].index()];
    const std::uint64_t b =
        n.inputs.size() > 1 ? r.values[n.inputs[1].index()] : 0;
    r.values[n.output.index()] = reference_eval_op(n.op, a, b, g.width());
  }
  for (ValueId out : g.outputs()) r.outputs.push_back(r.values[out.index()]);
  return r;
}

std::vector<InputVector> random_stream(Rng& rng, const Graph& g,
                                       std::size_t n) {
  std::vector<InputVector> stream(n);
  for (auto& in : stream) {
    for (std::size_t k = 0; k < g.inputs().size(); ++k) {
      in.push_back(rng.next());  // untruncated: the interpreter masks inputs
    }
  }
  return stream;
}

// golden_outputs must equal run().outputs row by row, and run() must equal
// the frozen graph-walking reference on every value.
void expect_golden_matches_run(const Graph& g,
                               const std::vector<InputVector>& stream) {
  const Interpreter interp(g);
  const auto table = interp.golden_outputs(stream);
  const std::size_t n_out = g.outputs().size();
  ASSERT_EQ(table.size(), stream.size() * n_out) << g.name();
  for (std::size_t c = 0; c < stream.size(); ++c) {
    const auto r = interp.run(stream[c]);
    const auto ref = reference_run(g, stream[c]);
    ASSERT_EQ(r.values, ref.values) << g.name() << " computation " << c;
    ASSERT_EQ(r.outputs, ref.outputs) << g.name() << " computation " << c;
    for (std::size_t o = 0; o < n_out; ++o) {
      ASSERT_EQ(table[c * n_out + o], r.outputs[o])
          << g.name() << " computation " << c << " output " << o;
    }
  }
}

TEST(OpTest, ArityAndCommutativity) {
  EXPECT_EQ(op_arity(Op::Add), 2u);
  EXPECT_EQ(op_arity(Op::Not), 1u);
  EXPECT_EQ(op_arity(Op::Pass), 1u);
  EXPECT_TRUE(op_commutative(Op::Add));
  EXPECT_TRUE(op_commutative(Op::Mul));
  EXPECT_FALSE(op_commutative(Op::Sub));
  EXPECT_FALSE(op_commutative(Op::Shl));
}

TEST(OpTest, ParseRoundTrip) {
  for (unsigned i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(parse_op(op_name(op)), op);
    EXPECT_EQ(parse_op(op_symbol(op)), op);
  }
  EXPECT_THROW(parse_op("bogus"), Error);
}

TEST(OpEvalTest, ArithmeticWraps) {
  EXPECT_EQ(eval_op(Op::Add, 0xF, 1, 4), 0u);
  EXPECT_EQ(eval_op(Op::Sub, 0, 1, 4), 0xFu);
  EXPECT_EQ(eval_op(Op::Mul, 5, 5, 4), 9u);  // 25 mod 16
}

TEST(OpEvalTest, DivisionByZeroPinned) {
  EXPECT_EQ(eval_op(Op::Div, 7, 0, 4), 0xFu);
  EXPECT_EQ(eval_op(Op::Mod, 7, 0, 4), 7u);
  EXPECT_EQ(eval_op(Op::Div, 12, 3, 4), 4u);
}

TEST(OpEvalTest, SignedComparisons) {
  // 0xF is -1 in 4-bit two's complement.
  EXPECT_EQ(eval_op(Op::Lt, 0xF, 1, 4), 1u);
  EXPECT_EQ(eval_op(Op::Gt, 0xF, 1, 4), 0u);
  EXPECT_EQ(eval_op(Op::Ge, 3, 3, 4), 1u);
  EXPECT_EQ(eval_op(Op::Le, 3, 3, 4), 1u);
  EXPECT_EQ(eval_op(Op::Eq, 9, 9, 4), 1u);
  EXPECT_EQ(eval_op(Op::Ne, 9, 8, 4), 1u);
}

TEST(OpEvalTest, MinMaxAreSigned) {
  EXPECT_EQ(eval_op(Op::Min, 0xF, 1, 4), 0xFu);  // -1 < 1
  EXPECT_EQ(eval_op(Op::Max, 0xF, 1, 4), 1u);
}

TEST(OpEvalTest, LogicOps) {
  EXPECT_EQ(eval_op(Op::And, 0b1100, 0b1010, 4), 0b1000u);
  EXPECT_EQ(eval_op(Op::Or, 0b1100, 0b1010, 4), 0b1110u);
  EXPECT_EQ(eval_op(Op::Xor, 0b1100, 0b1010, 4), 0b0110u);
  EXPECT_EQ(eval_op(Op::Not, 0b1100, 0, 4), 0b0011u);
}

TEST(OpEvalTest, ShiftsBoundedByWidth) {
  EXPECT_EQ(eval_op(Op::Shl, 1, 3, 4), 8u);
  // The shift amount is the truncated operand bounded by width: 200 -> 8
  // (low 4 bits) -> 8 % 5 = 3.
  EXPECT_EQ(eval_op(Op::Shl, 1, 200, 4), 8u);
  EXPECT_EQ(eval_op(Op::Shr, 8, 3, 4), 1u);
  EXPECT_EQ(eval_op(Op::Shl, 5, 4, 4), 0u);  // full-width shift clears
}

TEST(OpEvalTest, PassAndNeg) {
  EXPECT_EQ(eval_op(Op::Pass, 11, 99, 4), 11u);
  EXPECT_EQ(eval_op(Op::Neg, 1, 0, 4), 0xFu);
  EXPECT_EQ(eval_op(Op::Neg, 0, 0, 4), 0u);
}

TEST(OpEvalTest, ResultsAlwaysTruncated) {
  Rng rng(2);
  for (unsigned i = 0; i < kNumOps; ++i) {
    for (int trial = 0; trial < 50; ++trial) {
      const unsigned w = 1 + static_cast<unsigned>(rng.next_below(16));
      const auto r = eval_op(static_cast<Op>(i), rng.next(), rng.next(), w);
      EXPECT_EQ(r, truncate(r, w));
    }
  }
}

TEST(OpEvalTest, InlineEvalMatchesFrozenReference) {
  std::vector<unsigned> widths;
  for (unsigned w = 1; w <= 16; ++w) widths.push_back(w);
  for (unsigned w : {31u, 32u, 33u, 63u, 64u}) widths.push_back(w);
  Rng rng(14);
  for (unsigned w : widths) {
    const std::uint64_t mask = bit_mask(w);
    const std::uint64_t sign = std::uint64_t{1} << (w - 1);
    // Edge operands: zero, one, all-ones, the sign bit and its neighbours,
    // shift amounts at and above the width, and words wider than `w`.
    std::vector<std::uint64_t> edge = {0,        1,        2,         mask,
                                       mask - 1, sign,     sign - 1,  sign | 1,
                                       w - 1,    w,        w + 1,     2 * w,
                                       63,       64,       65,        ~0ull,
                                       ~mask,    mask + 1, 1ull << 63};
    for (int k = 0; k < 8; ++k) edge.push_back(rng.next());
    for (unsigned i = 0; i < kNumOps; ++i) {
      const Op op = static_cast<Op>(i);
      for (std::uint64_t a : edge) {
        for (std::uint64_t b : edge) {
          ASSERT_EQ(eval_op(op, a, b, w), reference_eval_op(op, a, b, w))
              << op_name(op) << " w=" << w << " a=" << a << " b=" << b;
        }
      }
      for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t a = rng.next();
        // A small b keeps shift amounts below the width, where they act.
        const std::uint64_t b = rng.next_bits(w <= 8 ? w : 8);
        const std::uint64_t c = rng.next();
        ASSERT_EQ(eval_op(op, a, b, w), reference_eval_op(op, a, b, w))
            << op_name(op) << " w=" << w << " a=" << a << " b=" << b;
        ASSERT_EQ(eval_op(op, a, c, w), reference_eval_op(op, a, c, w))
            << op_name(op) << " w=" << w << " a=" << a << " b=" << c;
      }
    }
  }
}

TEST(InterpreterTest, EvaluatesChain) {
  Graph g("t", 8);
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  const ValueId c = g.add_constant(10);
  const ValueId s = g.add_op(Op::Add, a, b);
  const ValueId m = g.add_op(Op::Mul, s, c);
  g.mark_output(m);

  Interpreter interp(g);
  const auto r = interp.run({3, 4});
  EXPECT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], 70u);
  EXPECT_EQ(r.values[s.index()], 7u);
}

TEST(InterpreterTest, InputsAreTruncated) {
  Graph g("t", 4);
  const ValueId a = g.add_input("a");
  g.mark_output(g.add_unary(Op::Pass, a));
  Interpreter interp(g);
  EXPECT_EQ(interp.run({0x1F}).outputs[0], 0xFu);
}

TEST(InterpreterTest, NegativeConstantsEncoded) {
  Graph g("t", 4);
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_constant(-2);
  g.mark_output(g.add_op(Op::Add, a, c));
  Interpreter interp(g);
  EXPECT_EQ(interp.run({5}).outputs[0], 3u);
}

TEST(InterpreterTest, RejectsWrongInputCount) {
  Graph g("t", 8);
  const ValueId a = g.add_input("a");
  g.mark_output(g.add_unary(Op::Pass, a));
  Interpreter interp(g);
  EXPECT_THROW(interp.run({1, 2}), Error);
}

TEST(InterpreterTest, StreamMatchesIndividualRuns) {
  Rng rng(6);
  RandomGraphConfig cfg;
  cfg.num_nodes = 15;
  const Graph g = random_graph(rng, cfg);
  Interpreter interp(g);

  std::vector<InputVector> stream;
  for (int i = 0; i < 20; ++i) {
    InputVector v;
    for (std::size_t k = 0; k < g.inputs().size(); ++k) v.push_back(rng.next_bits(8));
    stream.push_back(v);
  }
  const auto table = interp.golden_outputs(stream);
  const std::size_t n_out = g.outputs().size();
  ASSERT_EQ(table.size(), stream.size() * n_out);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::vector<std::uint64_t> row(table.begin() + i * n_out,
                                         table.begin() + (i + 1) * n_out);
    EXPECT_EQ(row, interp.run(stream[i]).outputs);
  }
}

TEST(InterpreterTest, GoldenOutputsMatchRunOnSuite) {
  Rng rng(21);
  for (const auto& name : suite::all_names()) {
    for (unsigned w : {4u, 8u}) {
      const auto b = suite::by_name(name, w);
      expect_golden_matches_run(*b.graph, random_stream(rng, *b.graph, 200));
    }
  }
}

TEST(InterpreterTest, GoldenOutputsMatchRunOnRandomGraphs) {
  std::vector<Op> every_op;
  for (unsigned i = 0; i < kNumOps; ++i) every_op.push_back(static_cast<Op>(i));
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(1000 + seed);
    RandomGraphConfig cfg;
    cfg.num_inputs = 1 + static_cast<unsigned>(seed % 5);
    cfg.num_nodes = 4 + static_cast<unsigned>(seed % 29);
    cfg.width = std::vector<unsigned>{1, 3, 4, 8, 16, 31, 32, 33, 63,
                                      64}[seed % 10];
    cfg.const_prob = 0.2;
    if (seed % 2 == 1) cfg.op_pool = every_op;  // default mix on even seeds
    const Graph g = random_graph(rng, cfg);
    expect_golden_matches_run(g, random_stream(rng, g, 20));
  }
}

TEST(InterpreterTest, GoldenOutputsCountComputations) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  const auto b = suite::by_name("hal", 4);
  Rng rng(3);
  const Interpreter interp(*b.graph);
  interp.golden_outputs(random_stream(rng, *b.graph, 37));
  interp.golden_outputs({});
  interp.run(random_stream(rng, *b.graph, 1)[0]);  // run() is not counted
  obs::set_enabled(false);
  std::uint64_t counted = 0;
  for (const auto& [name, n] : obs::Registry::instance().counters()) {
    if (name == "sim.golden.computations") counted = n;
  }
  obs::Registry::instance().reset();
  EXPECT_EQ(counted, 37u);
}

}  // namespace
}  // namespace mcrtl::dfg
