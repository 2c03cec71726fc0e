// Small string utilities shared by parsers and writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gpures::common {

/// Split on a single character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool contains(std::string_view s, std::string_view needle);

/// Lower-case copy (ASCII only).
std::string to_lower(std::string_view s);

/// Parse a non-negative integer; returns -1 on failure.
long long parse_ll(std::string_view s);

/// Parse a double; returns NaN on failure.
double parse_double(std::string_view s);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace gpures::common
