#ifndef SGM_CORE_STATIC_STRING_H_
#define SGM_CORE_STATIC_STRING_H_

#include <cstddef>

namespace sgm {

/// A string with static storage duration, safe to keep by pointer for the
/// life of the program. Only a string literal (or another constant-
/// initialized array) can make one: the constructor is consteval, so a
/// pointer into a buffer that later dies does not compile.
class StaticString {
 public:
  template <std::size_t N>
  consteval StaticString(const char (&text)[N])  // NOLINT: implicit
      : text_(text) {}

  constexpr const char* c_str() const { return text_; }

 private:
  const char* text_;
};

}  // namespace sgm

#endif  // SGM_CORE_STATIC_STRING_H_
