//===- support/Compiler.h - Compiler abstraction macros ---------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small set of compiler abstraction macros used throughout the project.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SUPPORT_COMPILER_H
#define ATC_SUPPORT_COMPILER_H

#include <cstddef>
#include <new>

/// Branch prediction hints for hot scheduler paths.
#define ATC_LIKELY(x) (__builtin_expect(!!(x), 1))
#define ATC_UNLIKELY(x) (__builtin_expect(!!(x), 0))

/// Inlining control for the allocator fast/cold path split: the per-spawn
/// alloc/free fast paths must inline into the spawn loop (a call spills
/// the loop's live registers), while the cold refill/teardown paths must
/// stay out of line so they do not bloat the caller past the inliner's
/// budget.
#if defined(__GNUC__)
#define ATC_ALWAYS_INLINE inline __attribute__((always_inline))
#define ATC_NOINLINE __attribute__((noinline))
#else
#define ATC_ALWAYS_INLINE inline
#define ATC_NOINLINE
#endif

/// Code placement for the per-node search recursions (the check, sequence
/// and reference-sequential loops): each starts on its own 64-byte
/// boundary, so its loop sits at the same offset within the fetch and
/// decode windows in every translation unit that instantiates it. Without
/// it, an unrelated change elsewhere in the binary shifts the loop and
/// moves its speed by several percent. Being part of the declaration, the
/// placement travels with the headers into every consumer's build; no
/// compile flag is involved.
#if defined(__GNUC__)
#define ATC_LOOP_ALIGNED __attribute__((aligned(64)))
#else
#define ATC_LOOP_ALIGNED
#endif

/// Size of a destructive-interference cache line. Used to pad per-worker
/// state so that independent workers do not false-share, and as the slab
/// arena's chunk alignment/stride unit (support/Arena.h).
///
/// Taken from the implementation when it reports one (a compile-time
/// constant — GCC warns that its value depends on -mtune, which is fine
/// here: it is an alignment floor, not an ABI contract, hence the local
/// diagnostic suppression at this single definition site).
#if defined(__cpp_lib_hardware_interference_size)
namespace atc {
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
inline constexpr std::size_t CacheLineSize =
    std::hardware_destructive_interference_size < 64
        ? 64
        : std::hardware_destructive_interference_size;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
} // namespace atc
#define ATC_CACHE_LINE_SIZE (::atc::CacheLineSize)
#else
#define ATC_CACHE_LINE_SIZE 64
#endif

/// Marks a point in the code that is never reached. In builds with
/// assertions this aborts with a message; otherwise it is an optimizer hint.
#if defined(NDEBUG)
#define ATC_UNREACHABLE(msg) __builtin_unreachable()
#else
#define ATC_UNREACHABLE(msg) ::atc::atc_unreachable_internal(msg, __FILE__, __LINE__)
#endif

namespace atc {

/// Prints \p Msg with source location and aborts. Implements the checked
/// flavour of ATC_UNREACHABLE.
[[noreturn]] void atc_unreachable_internal(const char *Msg, const char *File,
                                           unsigned Line);

} // namespace atc

#endif // ATC_SUPPORT_COMPILER_H
