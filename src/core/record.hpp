// Shared on-disk codec for evaluated design points.
//
// The point store (core/checkpoint.cpp) persists ExplorationPoint
// measurements as line-oriented, whitespace-tokenized, CRC-guarded
// records, and merge and the tests compare points through the same
// encoding. This header is the single definition of that token encoding:
//
//  * strings are "s:"-prefixed with %XX escapes for anything outside
//    printable ASCII (so a token never contains a space);
//  * doubles are 16-hex IEEE-754 bit patterns — a decoded point is
//    bit-identical to the encoded one, which is what makes replayed /
//    cached sweeps byte-identical to fresh ones;
//  * a record's payload is protected by an FNV-1a 64 checksum appended as
//    the last token, so torn or flipped bytes are detected, not replayed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.hpp"

namespace mcrtl::core::record {

/// FNV-1a 64-bit — the hash behind record checksums, journal/cache
/// fingerprints and per-configuration hashes.
std::uint64_t fnv1a64(const std::string& s);

/// Space-free token encoding for labels: bytes outside the printable ASCII
/// range, '%' and ' ' become %XX. Prefixed with "s:" so an empty string is
/// still a well-formed token.
std::string encode_str(const std::string& s);
bool decode_str(const std::string& tok, std::string& out);

/// 16-hex IEEE-754 bit pattern (lossless round trip).
std::string encode_double(double d);
bool decode_double(const std::string& tok, double& out);

/// Fixed-width hex for fingerprints/checksums.
std::string encode_u64(std::uint64_t v);
bool decode_u64(const std::string& tok, std::uint64_t& out);

/// Whitespace-split a record line.
std::vector<std::string> split_tokens(const std::string& line);

/// Number of tokens encode_point_fields() emits: label, 9 power
/// (7 breakdown + stddev + ci95), 8 area, alu_summary, 6 stats ints
/// (alus, mem cells, mux inputs, muxes, clocks, period), hotspot,
/// hotspot_share, crest.
constexpr std::size_t kPointTokens = 28;

/// Serialize every measured field of a point (everything except `options`
/// and the `pareto` flag, which are re-derived by the consumer).
std::string encode_point_fields(const ExplorationPoint& p);

/// Decode kPointTokens tokens starting at toks[at] into `point`. Returns
/// false on any malformation, in which case `point` must be discarded.
bool decode_point_fields(const std::vector<std::string>& toks, std::size_t at,
                         ExplorationPoint& point);

}  // namespace mcrtl::core::record
