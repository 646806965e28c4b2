// Operation vocabulary of the behavioural data-flow graph.
//
// The paper's benchmarks use the classic HLS operator set: arithmetic
// (+, -, *, /), logic (&, |, ^), shifts and comparisons. Each ALU in the
// synthesized datapath implements a *function set* — a subset of these ops —
// and the technology model charges area/capacitance per supported function.
#pragma once

#include <cstdint>
#include <string>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {

/// Behavioural operations. `Pass` is the identity move used for
/// cross-partition transfer temporaries (paper §4.2 step 1).
enum class Op : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Not,
  Neg,
  Shl,
  Shr,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
  Min,
  Max,
  Pass,
};

/// Number of distinct Op enumerators (for tables indexed by Op).
inline constexpr unsigned kNumOps = static_cast<unsigned>(Op::Pass) + 1;

/// Static properties of an operation.
struct OpInfo {
  const char* name;     ///< identifier-style name, e.g. "add"
  const char* symbol;   ///< paper-style symbol, e.g. "+"
  unsigned arity;       ///< 1 or 2
  bool commutative;     ///< operand order irrelevant
};

/// Property lookup (total over all Op values).
const OpInfo& op_info(Op op);

inline const char* op_name(Op op) { return op_info(op).name; }
inline const char* op_symbol(Op op) { return op_info(op).symbol; }
inline unsigned op_arity(Op op) { return op_info(op).arity; }
inline bool op_commutative(Op op) { return op_info(op).commutative; }

/// Evaluate `op` on `width`-bit words (two's complement semantics where
/// signedness matters; division by zero yields the all-ones word, matching
/// a combinational divider's don't-care being pinned for determinism).
///
/// Inline because it is the inner step of the golden model and of the
/// scalar RTL simulator's ALU evaluation; the shift amount and the signed
/// views are derived only by the cases that read them.
inline std::uint64_t eval_op(Op op, std::uint64_t a, std::uint64_t b,
                             unsigned width) {
  a = truncate(a, width);
  b = truncate(b, width);
  // Shift amounts use the low bits of b, bounded by width, so behaviour is
  // defined for any operand (hardware barrel shifters saturate the same way).
  const auto shift = [&] {
    return static_cast<unsigned>(b % (width < 64 ? width + 1 : 64));
  };
  const auto sa = [&] { return to_signed(a, width); };
  const auto sb = [&] { return to_signed(b, width); };
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
    case Op::Shl: return truncate(a << shift(), width);
    case Op::Shr: return a >> shift();
    case Op::Lt: return sa() < sb() ? 1 : 0;
    case Op::Gt: return sa() > sb() ? 1 : 0;
    case Op::Le: return sa() <= sb() ? 1 : 0;
    case Op::Ge: return sa() >= sb() ? 1 : 0;
    case Op::Eq: return a == b ? 1 : 0;
    case Op::Ne: return a != b ? 1 : 0;
    case Op::Min: return sa() < sb() ? a : b;
    case Op::Max: return sa() > sb() ? a : b;
    case Op::Pass: return a;
  }
  MCRTL_CHECK(false);
  return 0;
}

/// Parse "add"/"+" style spellings; throws mcrtl::Error on unknown text.
Op parse_op(const std::string& text);

}  // namespace mcrtl::dfg
