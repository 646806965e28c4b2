// Small string helpers shared by report printers and the VHDL emitter.
#pragma once

#include <string>
#include <vector>

namespace mcrtl {

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Lower-case ASCII copy.
std::string to_lower(std::string s);

/// True if `s` is a valid VHDL/C-style identifier.
bool is_identifier(const std::string& s);

/// Mangle an arbitrary name into a safe identifier (non-alnum -> '_',
/// leading digit prefixed).
std::string sanitize_identifier(const std::string& s);

/// Format a double with `digits` significant decimals, trimming trailing
/// zeros ("3.50" stays "3.50" when digits==2; used for table output).
std::string format_fixed(double v, int digits);

/// Checked number parsing: the whole token must be a number that fits the
/// result type — no leading blanks, no trailing characters, no saturation.
/// `parse_int` takes base 10, or base 0 for C-style 0x/0 prefixes;
/// `parse_uint` is base 10 and rejects a sign; `parse_double` rejects
/// non-finite values. Each returns false (leaving `out` unspecified) on a
/// bad token; callers add the field name and the range check.
bool parse_int(const std::string& token, long long& out, int base = 10);
bool parse_uint(const std::string& token, unsigned long long& out);
bool parse_double(const std::string& token, double& out);

}  // namespace mcrtl
