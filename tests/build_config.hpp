// What the test build was compiled with, for tests that scale their inputs:
// exhaustive checks run in full only in optimized, unsanitized builds.
#pragma once

namespace fsw {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
inline constexpr bool kOptimized = true;
#else
inline constexpr bool kOptimized = false;
#endif

}  // namespace fsw
