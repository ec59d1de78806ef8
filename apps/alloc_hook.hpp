// Binary-local allocation hook for the CLI tools and benches.
//
// Every operator new in the including binary is tallied into the
// thread-local obs counters, which is what gives --metrics its alloc.*
// values. Replacement stays binary-local by design — the library never
// forces the hook on other consumers — so this header must be included
// by exactly one translation unit per executable (each app and bench is
// a single .cpp, so including it at the top of main's TU is the whole
// story).
//
// GCC cannot prove that the replaced malloc-backed operator new pairs
// with the free() in the replaced delete when only one side of the pair
// is inlined at a call site, so -Wmismatched-new-delete is a false
// positive here and is silenced for the hook definitions.
#pragma once

#include <cstdlib>
#include <new>

#include "netscatter/obs/metrics.hpp"

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
    ns::obs::record_allocation(size);
    if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
