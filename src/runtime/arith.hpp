// 64-bit integer arithmetic as every backend defines it: the interpreter,
// the IR executor, the IR constant folder and the eBPF VM must agree on
// each result, and none may rely on signed overflow (undefined behaviour in
// C++) or divide INT64_MIN by -1 (a trap on x86).
//
// Each operation wraps in two's complement, computed through uint64_t:
//   * INT64_MAX + 1 == INT64_MIN, -INT64_MIN == INT64_MIN, and so on;
//   * x / 0 == 0 and x % 0 == 0 (eBPF semantics);
//   * INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0.
#pragma once

#include <cstdint>

namespace progmp::rt::arith {

inline std::int64_t add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

inline std::int64_t neg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}

inline std::int64_t div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (b == -1) return neg(a);
  return a / b;
}

inline std::int64_t mod(std::int64_t a, std::int64_t b) {
  if (b == 0 || b == -1) return 0;
  return a % b;
}

}  // namespace progmp::rt::arith
