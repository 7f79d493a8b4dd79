#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ftqc {

// Value of a non-negative integer command-line flag such as `--workers=4`.
// All of `text` must be decimal digits that fit a size_t; empty input, a
// sign, trailing junk ("1h") or overflow exits 2 naming the flag, where
// strtoull would silently read 0, wrap "-1" to 2^64-1, or stop at the "h".
inline size_t parse_count_flag(const char* flag, const char* text) {
  const char* end = text + std::strlen(text);
  size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

}  // namespace ftqc
